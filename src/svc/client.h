// Client side of the INDaaS audit service: connects to an AuditServer
// (retrying with exponential backoff while the server comes up), ships
// DepDB records, and drives remote structural / private audits.
//
// One client, pipelined: each of a small pool of connections keeps a
// bounded window of requests in flight. Every request frame carries the
// request-id extension (src/net/frame.h); the server echoes the id on the
// matching reply, so replies may arrive in any order — a fast ping overtakes
// a slow audit on the same connection — and are paired by id, never by
// position. A serial caller is simply one call in flight. A pre-request-id
// server rejects the unknown flag bit and closes the connection, so talking
// to one fails loudly instead of mis-pairing replies.
//
// Concurrency model: AsyncCall is thread-safe and non-blocking up to the
// window; once a connection's window is full the caller blocks until a
// reply frees a slot (natural backpressure — an open-loop driver that
// outruns the server piles up here instead of allocating without bound).
// Completions are delivered on the connection's reader thread; keep them
// cheap, and never issue a blocking call from inside one. Requests are
// spread round-robin across the pool's connections.
//
// Deadlines and replay: every request must be answered within
// io_timeout_ms of being sent (GetProfile adds its capture window). A
// request that misses its deadline ends with kDeadlineExceeded and fails
// its connection, since a late reply could no longer be paired. A failed
// pooled connection — deadline, reset, or the server closing it while idle
// — is revived in place (fresh socket, same reader thread) the next time a
// request routes to it. A request that dies on such a transport fault is
// re-issued once on a fresh connection, unless it is ImportDepDb (a replay
// could double-import) or GetProfile (a replay would double the capture
// wait). Decoded kErrorReply answers — including server sheds — are never
// replayed; they are the server's decision.
//
// Observability: each synchronous call opens a "svc.client.rpc" span on the
// caller's thread and sends the client's trace id with that span as the
// remote parent in the frame's trace extension (src/obs/propagate.h), so
// server-side spans join the same trace. Request wall time (replay
// included) goes to `svc.client.rpc_seconds`; replays, revivals, connection
// failures and connect retries to `svc.client.rpc_replays`,
// `svc.client.reconnects`, `svc.client.conn_failures` and
// `svc.client.connect_retries`.

#ifndef SRC_SVC_CLIENT_H_
#define SRC_SVC_CLIENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/agent/sia_audit.h"
#include "src/agent/spec.h"
#include "src/net/frame.h"
#include "src/net/retry.h"
#include "src/net/socket.h"
#include "src/pia/audit.h"
#include "src/svc/proto.h"
#include "src/util/status.h"

namespace indaas {
namespace svc {

struct AuditClientOptions {
  size_t connections = 1;  // pool size; requests round-robin across it
  size_t window = 64;      // max in-flight requests per connection
  int connect_timeout_ms = 2000;
  int io_timeout_ms = 30000;  // per-request deadline; audits on large DepDBs take real time
  net::RetryPolicy retry;
  net::FrameLimits limits;
};

class AuditClient {
 public:
  // Invoked exactly once per request with the paired reply (or the error
  // that ended it). Runs on a reader thread — keep it cheap.
  using Completion = std::function<void(Result<net::Frame>)>;

  // Connects the whole pool (each connection retries with backoff while
  // the server comes up).
  static Result<AuditClient> Connect(const net::Endpoint& endpoint,
                                     const AuditClientOptions& options = {});

  AuditClient(AuditClient&&) noexcept;
  AuditClient& operator=(AuditClient&&) noexcept;
  AuditClient(const AuditClient&) = delete;
  AuditClient& operator=(const AuditClient&) = delete;
  ~AuditClient();

  // Issues one request; `done` fires when the matching reply arrives (out
  // of order is fine). Blocks only while the chosen connection's window is
  // full. kErrorReply payloads are unwrapped into their remote Status, and
  // a reply of the wrong type is a kProtocolError.
  void AsyncCall(MsgType request, std::string payload, MsgType expected, Completion done);

  // Synchronous call with its own "svc.client.rpc" span. Other requests may
  // still be in flight around it; must not be called from inside a
  // Completion.
  Result<net::Frame> Call(MsgType request, std::string payload, MsgType expected);

  // Round-trip liveness check.
  Status Ping();

  // Imports Table-1 formatted DepDB text into the server's database;
  // returns the server's post-import record counts.
  Result<ImportAck> ImportDepDb(const std::string& table1_text);

  // Runs a structural audit on the server's DepDB.
  Result<SiaAuditReport> AuditStructural(const AuditSpecification& spec);

  // Runs a private audit over the given provider sets on the server.
  Result<PiaAuditReport> AuditPia(const std::vector<CloudProvider>& providers,
                                  const PiaAuditOptions& options = {});

  // Fetches the server's metrics snapshot (counters, gauges, per-RPC
  // latency histograms) plus uptime and DepDB size.
  Result<ServerStats> GetStats();

  // Asks whether the server is serving (false once it begins draining).
  Result<HealthStatus> Health();

  // Fetches live introspection for `indaas debug`: per-shard and
  // per-connection state, recent flight-recorder events, slowest RPCs with
  // their stage breakdowns. Answered even while the server is shedding load
  // (the reactor intercepts it ahead of admission control).
  Result<DebugInfo> GetDebugInfo();

  // Captures a remote profile window (`indaas profile --remote`): the
  // server samples its registered threads for request.seconds and replies
  // with the self-describing dump text (obs::ProfileToDumpText). Blocks for
  // the whole window — the deadline is stretched to cover it.
  Result<ProfileReply> GetProfile(const ProfileRequest& request);

  // Fails every pending request with kUnavailable and joins the reader
  // threads at once. Idempotent; the destructor calls it.
  void Shutdown();

  // The trace id stamped on every request: the calling thread's context at
  // Connect() time if one was installed, else freshly minted.
  uint64_t trace_id() const;

 private:
  struct Impl;
  explicit AuditClient(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace svc
}  // namespace indaas

#endif  // SRC_SVC_CLIENT_H_
