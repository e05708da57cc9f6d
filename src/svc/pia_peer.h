// Socket-backed P-SOP: k peers over TCP, each stepping one RingParty of
// src/pia/psop.h (paper §4.2, the way the prototype's cluster ran it).
//
// All peers share the ring configuration (ordered endpoint list plus the
// protocol parameters); each runs one PiaPeer. A peer listens on its own
// ring port, connects to its successor (retrying with backoff while the
// successor's listener comes up), accepts its predecessor and handshakes:
// ring size, index and, for exact rings, crypto parameters are cross-checked
// before any data moves. Each exchange frames the party's message and pumps
// frames in both directions through one poll loop, so ring rounds cannot
// deadlock on full TCP buffers whatever the dataset size. Every frame of a
// sketch session carries the sketch-params extension, and every frame of a
// reformed ring the ring-membership extension; a frame with any other
// extensions fails the session with kProtocolError.
//
// Failure semantics: a peer that disconnects mid-round fails the session
// with kUnavailable; a peer that stalls fails it with kDeadlineExceeded
// after io_timeout_ms. With `allow_degraded` off (the default) no partial
// result is returned either way.
//
// Degraded-mode recovery (`allow_degraded`, exact and sketch rings alike):
// on a transport fault every survivor closes both ring sockets, cascading
// the fault around the ring within one io timeout, then probes every
// original peer's listener (kPsopProbe/kPsopProbeAck over short-lived
// connections, answering incoming probes meanwhile) for up to
// probe_window_ms. The peers that acked, or probed us for the same attempt,
// form the reformed ring, ordered by original index, and the protocol
// restarts from scratch: P-SOP is memoryless, so a clean re-run among
// m < k survivors is a correct m-party audit. A peer whose membership view
// disagrees, or a pre-upgrade peer that never learned the flag bit, fails
// closed. The result is marked partial: PsopResult::excluded names the
// ejected original indices and recovery_attempts counts reformations.
// Recovery is bounded by max_recovery_attempts; a ring that cannot muster
// two live peers fails with a typed error, never a hang.

#ifndef SRC_SVC_PIA_PEER_H_
#define SRC_SVC_PIA_PEER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/net/frame.h"
#include "src/net/retry.h"
#include "src/net/socket.h"
#include "src/pia/psop.h"
#include "src/util/status.h"

namespace indaas {
namespace svc {

struct PiaPeerOptions {
  // The ring, in a fixed order every peer agrees on. peers[i] is where peer
  // i listens; peer i sends to peers[(i+1) % k].
  std::vector<net::Endpoint> peers;
  size_t self_index = 0;
  // Protocol parameters; hash/group_bits must match on every peer (the
  // handshake enforces it). The seed only has to be unique per peer — each
  // peer derives its key material from seed and self_index.
  PsopOptions psop;
  int connect_timeout_ms = 2000;
  int io_timeout_ms = 10000;
  net::RetryPolicy retry;
  net::FrameLimits limits;
  // Sketch-exchange geometry (RunPsopWithSketch only): registers per sketch
  // (at most kMaxSketchK) plus the LSH banding the auditor will apply,
  // advertised to — and cross-checked against — every peer via the frame
  // sketch-params extension. bands/rows 0 = pairwise session with no
  // banding.
  uint32_t sketch_k = 256;
  uint32_t lsh_bands = 0;
  uint32_t lsh_rows = 0;
  // Peer-failure recovery (both modes; see the header comment). Off by
  // default: a fault fails the whole session, the pre-recovery behaviour.
  // Degraded rings are capped at 32 original parties (the membership
  // bitmask width).
  bool allow_degraded = false;
  // Ring reformations to attempt before giving up with the last error.
  uint32_t max_recovery_attempts = 2;
  // How long survivors probe the original peer set for liveness after a
  // fault. Peers that never ack within the window are ejected.
  int probe_window_ms = 3000;
  // Per-probe connect/write/ack budget; also bounds how long a stray
  // connection can stall ring formation.
  int probe_io_timeout_ms = 300;
  // Test seam: simulate sudden peer death by aborting the session (closing
  // both ring sockets, never answering again) just before ring exchange
  // number `fail_after_exchanges` (0-based). SIZE_MAX disables. The chaos
  // matrix uses this to kill one specific peer at a deterministic round.
  size_t fail_after_exchanges = SIZE_MAX;
};

// One party of a socket-backed PIA session. Listen() binds the ring port up
// front (so peers can start in any order); RunPsop() runs one full session.
class PiaPeer {
 public:
  // Binds the listening socket on `port` (0 picks a free port — query
  // listen_port(), used by tests to assemble loopback rings).
  static Result<PiaPeer> Listen(uint16_t port);

  uint16_t listen_port() const { return port_; }

  // Runs one P-SOP session over `dataset` (this peer's component multiset).
  // Every ring peer must call this with the same `options.peers`/psop
  // parameters and its own self_index/dataset. Returns the session result;
  // party_stats[self_index] carries this peer's measured costs (other
  // entries are zero — their owners measure them).
  Result<PsopResult> RunPsop(const std::vector<std::string>& dataset,
                             const PiaPeerOptions& options);

  // Runs one sketch-exchange session (PiaMethod::kSketch over sockets): the
  // ring all-gathers fixed-size register arrays in k-1 hops, no encryption,
  // bytes independent of dataset size; a peer whose sketch geometry
  // disagrees fails the session with kProtocolError.
  Result<PsopResult> RunPsopWithSketch(const std::vector<std::string>& dataset,
                                       const PiaPeerOptions& options);

 private:
  explicit PiaPeer(net::Socket listener, uint16_t port)
      : listener_(std::move(listener)), port_(port) {}

  // A predecessor connection whose hello arrived early (during the probe
  // phase, before this peer finished reforming).
  struct PendingHello {
    net::Socket socket;
    net::Frame frame;
    bool valid = false;
  };

  // One session of either mode: attempts, and after a transport fault
  // with `allow_degraded` the probe and a reformed ring.
  Result<PsopResult> RunRing(RingMode mode, const std::vector<std::string>& dataset,
                             const PiaPeerOptions& options);

  // One full protocol run over the surviving `members` (sorted original
  // indices). `attempt` 0 is the pristine ring (no membership extension on
  // the wire); attempts >= 1 stamp every frame with the membership
  // extension and cross-check it on every inbound frame.
  Result<PsopResult> RunAttempt(RingMode mode, const std::vector<std::string>& dataset,
                                const PiaPeerOptions& options,
                                const std::vector<uint32_t>& members, uint32_t attempt,
                                PendingHello* pending);

  // Post-fault liveness probe: determines which original peers still
  // answer, collecting any early next-attempt hello into `pending`.
  Result<std::vector<uint32_t>> ProbeSurvivors(const PiaPeerOptions& options,
                                               uint32_t attempt, PendingHello* pending);

  // Accepts connections until the predecessor's hello arrives (answering
  // liveness probes meanwhile), or `deadline_ms` passes. With `drain_only`
  // the loop never consumes `pending` and never returns early — it just
  // answers probes for the whole slice, stashing at most one early hello
  // into `pending` (the probe phase runs it between outbound probes).
  // `probers`, when set, marks the original index of every peer that
  // probed for this same attempt.
  Result<std::pair<net::Socket, net::Frame>> AwaitHello(const PiaPeerOptions& options,
                                                        uint32_t attempt, int deadline_ms,
                                                        PendingHello* pending,
                                                        bool drain_only = false,
                                                        std::vector<bool>* probers = nullptr);

  net::Socket listener_;
  uint16_t port_ = 0;
};

// Frame pump shared by ring protocols (exposed for tests): sends the
// already-framed `out_bytes` to `tx` while assembling one inbound frame
// from `rx`, multiplexing both directions through poll so neither side of
// a ring round can deadlock the other. `timeout_ms` bounds each wait for
// progress in either direction.
Result<net::Frame> ExchangeFrames(net::Socket& tx, std::string_view out_bytes,
                                  net::Socket& rx, const net::FrameLimits& limits,
                                  int timeout_ms);

}  // namespace svc
}  // namespace indaas

#endif  // SRC_SVC_PIA_PEER_H_
