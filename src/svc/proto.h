// INDaaS RPC message types and payload codecs (DESIGN.md §7).
//
// One frame (src/net/frame.h) carries one message; the frame's type byte is
// a MsgType and the payload is the matching codec's output built on the
// src/net/wire.h primitives. Decoders validate exhaustively — enum ranges,
// element counts, trailing bytes — so a hostile payload yields kParseError,
// never a malformed in-memory object.
//
// Request/response pairing:
//   kPing          -> kPong           (empty payloads)
//   kImportDepDb   -> kImportAck      (Table-1 text -> record counts)
//   kAuditRequest  -> kAuditReport    (AuditSpecification -> SiaAuditReport)
//   kPiaRequest    -> kPiaReport      (providers+options -> PiaAuditReport)
//   kGetStats      -> kStatsReply     (empty -> ServerStats snapshot)
//   kHealth        -> kHealthReply    (empty -> HealthStatus)
//   kGetDebugInfo  -> kDebugInfoReply (empty -> DebugInfo introspection)
//   kGetProfile    -> kProfileReply   (window spec -> profile dump text)
//   any request    -> kErrorReply     (Status code + message)
//
// The kPsop* types are the socket-backed P-SOP session messages exchanged
// between PiaPeers (src/svc/pia_peer.h), not server RPCs.

#ifndef SRC_SVC_PROTO_H_
#define SRC_SVC_PROTO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/agent/sia_audit.h"
#include "src/agent/spec.h"
#include "src/bignum/biguint.h"
#include "src/obs/metrics.h"
#include "src/pia/audit.h"
#include "src/util/status.h"

namespace indaas {
namespace svc {

enum class MsgType : uint8_t {
  kPing = 1,
  kPong = 2,
  kImportDepDb = 3,
  kImportAck = 4,
  kAuditRequest = 5,
  kAuditReport = 6,
  kPiaRequest = 7,
  kPiaReport = 8,
  kErrorReply = 9,
  kGetStats = 10,
  kStatsReply = 11,
  kHealth = 12,
  kHealthReply = 13,
  kGetDebugInfo = 14,
  kDebugInfoReply = 15,
  // PIA peer-to-peer session messages.
  kPsopHello = 16,
  kPsopDataset = 17,
  kPsopShare = 18,
  kPsopSketch = 19,
  // Ring-recovery liveness probe and its acknowledgement: after a ring
  // fault, each survivor probes every original peer's listener to agree on
  // who is still alive before reforming a degraded ring.
  kPsopProbe = 20,
  kPsopProbeAck = 21,
  // Remote profiling (src/obs/profiler.h): capture a sampling-profiler
  // window on the server and ship it back as dump text.
  kGetProfile = 22,
  kProfileReply = 23,
};

// Human-readable message-type name ("AuditRequest"), shared by server logs,
// per-RPC metric names, and the stats renderer. Unknown values map to
// "Unknown".
const char* MsgTypeName(MsgType type);

// --- Error reply ---

std::string EncodeErrorReply(const Status& status);
// Reconstructs the remote Status (best effort: unknown codes map to
// kInternal).
Status DecodeErrorReply(std::string_view payload);

// --- DepDb import ---

struct ImportAck {
  uint64_t network = 0;
  uint64_t hardware = 0;
  uint64_t software = 0;
};

std::string EncodeImportAck(const ImportAck& ack);
Result<ImportAck> DecodeImportAck(std::string_view payload);

// --- Structural audit ---

std::string EncodeAuditSpecification(const AuditSpecification& spec);
Result<AuditSpecification> DecodeAuditSpecification(std::string_view payload);

std::string EncodeSiaAuditReport(const SiaAuditReport& report);
Result<SiaAuditReport> DecodeSiaAuditReport(std::string_view payload);

// --- Private audit ---

struct PiaRequest {
  std::vector<CloudProvider> providers;
  PiaAuditOptions options;
};

std::string EncodePiaRequest(const PiaRequest& request);
Result<PiaRequest> DecodePiaRequest(std::string_view payload);

std::string EncodePiaAuditReport(const PiaAuditReport& report);
Result<PiaAuditReport> DecodePiaAuditReport(std::string_view payload);

// --- Stats and health ---

// A scrape of the serving process, answered to kGetStats. Carries the full
// MetricsSnapshot (counters, gauges, per-RPC latency histograms, bytes
// in/out, active connections) plus fields the registry does not own.
struct ServerStats {
  uint64_t uptime_us = 0;        // microseconds since the server started
  uint64_t depdb_records = 0;    // dependency records currently loaded
  obs::MetricsSnapshot metrics;
};

std::string EncodeServerStats(const ServerStats& stats);
Result<ServerStats> DecodeServerStats(std::string_view payload);

// Liveness/readiness answer to kHealth. `serving` flips to false when the
// server begins draining, before the listener closes.
struct HealthStatus {
  bool serving = false;
  uint64_t uptime_us = 0;
};

std::string EncodeHealthStatus(const HealthStatus& status);
Result<HealthStatus> DecodeHealthStatus(std::string_view payload);

// --- Debug introspection (kGetDebugInfo -> kDebugInfoReply) ---

// One reactor shard, as seen at gather time.
struct DebugShard {
  uint32_t index = 0;
  uint64_t connections = 0;   // open connections owned by this shard
  uint64_t inflight = 0;      // requests admitted but not yet replied
  bool has_listener = false;  // still accepting (false once draining)
};

// One open connection.
struct DebugConnection {
  uint64_t id = 0;
  uint32_t shard = 0;
  uint64_t age_us = 0;                // since accept
  uint64_t in_buffer_bytes = 0;       // partially-read frame bytes
  uint64_t write_buffer_bytes = 0;    // reply bytes not yet on the wire
  uint64_t inflight = 0;              // requests admitted on this connection
  uint64_t oldest_pending_us = 0;     // age of the oldest unanswered request
};

// A flight-recorder event on the wire (mirror of obs::FlightEvent).
struct DebugFlightEvent {
  uint64_t t_us = 0;
  uint64_t trace_id = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint32_t tid = 0;
  uint16_t type = 0;  // obs::FlightEventType
  uint16_t code = 0;
};

// One tail-sampled RPC with its stage breakdown (mirror of obs::TailSample;
// stage order follows obs::RpcStage).
struct DebugSlowRpc {
  uint64_t trace_id = 0;
  uint64_t request_id = 0;
  uint16_t rpc_type = 0;
  uint8_t outcome = 0;  // obs::TailOutcome
  bool ok = false;
  uint64_t conn_id = 0;
  uint64_t end_us = 0;
  double total_s = 0;
  double stage_s[6] = {};  // obs::kRpcStageCount
};

// Everything `indaas debug --remote` renders: per-shard and per-connection
// introspection, recent flight-recorder events, and the slowest retained
// RPCs. Collected live by fanning a gather across reactor shards.
struct DebugInfo {
  uint64_t uptime_us = 0;
  uint8_t mode = 0;            // legacy serving-mode byte; always 0 (reactor)
  uint32_t reactor_shards = 0;
  uint64_t inflight_global = 0;
  std::vector<DebugShard> shards;
  std::vector<DebugConnection> connections;
  std::vector<DebugFlightEvent> events;
  std::vector<DebugSlowRpc> slowest;
};

std::string EncodeDebugInfo(const DebugInfo& info);
Result<DebugInfo> DecodeDebugInfo(std::string_view payload);

// --- Remote profiling (kGetProfile -> kProfileReply) ---

// Hard caps a server enforces before honoring a profile request: a hostile
// or misconfigured client must not be able to pin a server in SIGPROF
// storms or hour-long captures.
constexpr uint32_t kMaxProfileHz = 1000;
constexpr uint32_t kMaxProfileSeconds = 60;
// A dump is bounded by the profiler's session cap (~1M samples × ~48
// frames × ~19 bytes/frame would be huge, but real windows are seconds
// long); 64 MiB leaves lots of headroom while still bounding a hostile
// reply.
constexpr uint32_t kMaxProfileDumpBytes = 64u << 20;

// One profile window: sample the server's registered threads at `hz` for
// `seconds`, optionally with allocation attribution. When the server is
// already profiling continuously (`indaas serve --profile-hz`), `hz` is
// advisory — the window is cut from the running session at its frequency.
struct ProfileRequest {
  uint32_t hz = 99;       // [1, kMaxProfileHz]
  uint32_t seconds = 5;   // [1, kMaxProfileSeconds]
  bool alloc = true;      // also sample allocations
};

std::string EncodeProfileRequest(const ProfileRequest& request);
Result<ProfileRequest> DecodeProfileRequest(std::string_view payload);

// The captured window as self-describing dump text (obs::ProfileToDumpText:
// exe path + PIE base + hz + window + trace ids + one line per sample).
// Text rather than a binary mirror of ProfileData: the dump is the exact
// artifact tools/symbolize_profile.py and operators consume, so the wire
// ships it verbatim.
struct ProfileReply {
  std::string dump;
};

std::string EncodeProfileReply(const ProfileReply& reply);
Result<ProfileReply> DecodeProfileReply(std::string_view payload);

// --- P-SOP session payloads ---

// Ring handshake: every peer sends this to its successor before any data so
// misconfigured rings (mismatched size, index, or crypto parameters) fail
// fast with a clear error instead of corrupting a session.
struct PsopHello {
  uint32_t ring_size = 0;
  uint32_t sender_index = 0;
  uint32_t group_bits = 0;
  uint8_t hash_algorithm = 0;  // HashAlgorithm as its underlying value
};

std::string EncodePsopHello(const PsopHello& hello);
Result<PsopHello> DecodePsopHello(std::string_view payload);

// A dataset in transit around the ring: fixed-width big-endian group
// elements. `origin` identifies which peer's dataset this is.
struct PsopDataset {
  uint32_t origin = 0;
  uint32_t element_bytes = 0;
  std::vector<BigUint> elements;
};

std::string EncodePsopDataset(const PsopDataset& dataset);
Result<PsopDataset> DecodePsopDataset(std::string_view payload);

// A MinHash sketch in transit around the ring during a sketch-exchange
// session (PiaMethod::kSketch): the originating peer's fixed-width register
// array. Frames carrying this payload also set the sketch-params frame
// extension, which is where the geometry cross-check happens.
struct PsopSketch {
  uint32_t origin = 0;
  std::vector<uint32_t> registers;
};

std::string EncodePsopSketch(const PsopSketch& sketch);
Result<PsopSketch> DecodePsopSketch(std::string_view payload);

// Ring-recovery liveness probe (kPsopProbe) and acknowledgement
// (kPsopProbeAck) — both carry this payload. `sender_index` is the sender's
// *original* ring index; `attempt` is the reformation the prober is trying
// to assemble (first recovery = 1). A probe costs one short-lived
// connection: connect, probe, ack, close.
struct PsopProbe {
  uint32_t sender_index = 0;
  uint32_t attempt = 0;
};

std::string EncodePsopProbe(const PsopProbe& probe);
Result<PsopProbe> DecodePsopProbe(std::string_view payload);

}  // namespace svc
}  // namespace indaas

#endif  // SRC_SVC_PROTO_H_
