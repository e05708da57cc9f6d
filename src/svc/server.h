// The networked auditing agent (paper §2, Figure 1, as a real service).
//
// AuditServer listens on a TCP port and serves the INDaaS RPCs defined in
// src/svc/proto.h: DepDB imports, structural (SIA) audits and private (PIA)
// audits.
//
// The server runs N reactor shards, each an epoll EventLoop thread
// (src/net/event_loop.h) owning its own SO_REUSEPORT listener (fallback:
// one acceptor round-robining connections across shards). Connections are
// non-blocking state machines: reads accumulate into a parse buffer,
// complete frames dispatch, replies append to a bounded write buffer
// flushed as the socket drains. Requests carrying a request-id extension
// may pipeline — several in flight per connection, replies completed out
// of order, each echoing its request id. CPU-bound RPCs (imports, audits)
// run on the shared ThreadPool so loops never block; trivial RPCs (ping,
// health) answer inline on the loop. Admission control sheds load with
// kUnavailable once per-connection or global in-flight caps are hit, and
// slow readers whose write buffer exceeds its cap are dropped, so one
// stalled client can never pin server memory.
//
// The DepDB behind the agent is guarded by a reader/writer lock: imports
// are exclusive, audits run shared, so concurrent clients never observe a
// half-imported database.
//
// Failure semantics: malformed payloads earn a kErrorReply and the
// connection stays open; framing violations (bad magic/version/oversize)
// close the connection; a connection mid-frame for longer than the read
// deadline is dropped. Stop() drains admitted requests before returning.
//
// Observability: request frames carrying a trace-context extension are
// adopted for the duration of that request; per-RPC latency lands in
// exponential `svc.rpc_seconds.<MsgTypeName>` histograms; the reactor adds
// svc.requests_shed, svc.slow_reader_drops and net.loop.* instruments; the
// kGetStats/kHealth RPCs expose the whole MetricsRegistry plus drain state
// to remote scrapers.

#ifndef SRC_SVC_SERVER_H_
#define SRC_SVC_SERVER_H_

#include <atomic>
#include <memory>
#include <shared_mutex>

#include "src/agent/agent.h"
#include "src/net/frame.h"
#include "src/obs/flight_recorder.h"
#include "src/util/thread_pool.h"

namespace indaas {
namespace svc {

struct DebugInfo;  // src/svc/proto.h

struct AuditServerOptions {
  uint16_t port = 0;        // 0 = pick any free port (see AuditServer::port())
  size_t worker_threads = 4;
  net::FrameLimits limits;

  size_t reactor_shards = 2;  // epoll loops; clamped to at least 1
  // A connection sitting on a partial frame longer than this is dropped.
  // Idle connections *between* frames are never timed out (keep-alive).
  int read_deadline_ms = 10000;
  // Admission control: a request that would exceed either cap is answered
  // immediately with kUnavailable instead of being queued.
  size_t max_inflight_per_connection = 64;
  size_t max_inflight_global = 256;
  // A connection whose unsent replies exceed this is dropped (slow reader).
  size_t max_write_buffer_bytes = 16u << 20;
  // Adaptive admission (src/svc/admission.h): sheds a level-proportional
  // fraction of pool-bound requests whenever the per-window minimum of
  // svc.queue_delay_seconds stays above target_queue_delay_s, so pushback
  // starts while the queue is merely slow instead of waiting for the fixed
  // caps above (which remain hard ceilings). Off by default so embedded
  // servers and benches keep deterministic no-shed behaviour under bursts;
  // `indaas serve` turns it on unless told --admission=fixed.
  bool adaptive_admission = false;
  double target_queue_delay_s = 0.005;

  // Listen backlog for every listener.
  int listen_backlog = 128;

  // Tail sampler (obs::TailSampler): finished RPCs slower than this — plus
  // every shed or errored RPC regardless of speed — keep their full
  // per-stage breakdown for kGetDebugInfo / `indaas debug`. <= 0 disables
  // the slowness criterion (sheds and errors are still retained).
  double slow_rpc_threshold_s = 0.100;
  size_t tail_samples = 256;

  // Continuous profiling (src/obs/profiler.h): > 0 starts a process-wide
  // sampling session at this frequency for the server's lifetime, and
  // GetProfile requests cut windows out of it instead of arming their own
  // timers. 0 (default) keeps the profiler idle until a GetProfile request
  // runs a temporary session. Clamped to obs::Profiler::kMaxHz.
  uint32_t profile_hz = 0;
  bool profile_alloc = true;  // sample allocations in the continuous session
};

class AuditServer {
 public:
  explicit AuditServer(AuditServerOptions options = {});
  ~AuditServer();

  AuditServer(const AuditServer&) = delete;
  AuditServer& operator=(const AuditServer&) = delete;

  // The agent served by this process. Configure it (preload a DepDB, set a
  // probability model) before Start(); afterwards all access must go
  // through the RPC surface.
  AuditingAgent& agent() { return agent_; }

  // Binds, listens and spawns the serving threads. Fails if already started
  // or the port is taken.
  Status Start();

  // Stops accepting, drains admitted requests and joins all threads.
  // Idempotent.
  void Stop();

  // The bound port (valid after Start(); resolves port 0 to the real one).
  uint16_t port() const { return port_; }

  // The number of reactor shards actually running (0 before Start(); may
  // be less than requested if SO_REUSEPORT was unavailable — the shards
  // still run, fed by one acceptor).
  size_t reactor_shards() const;

  // Health as reported to kHealth. Start() sets serving; Stop() clears it
  // before draining. set_serving(false) lets an operator drain the server —
  // existing connections keep working but Health answers not-serving — so
  // load balancers stop sending new work ahead of the actual shutdown.
  bool serving() const { return serving_.load(std::memory_order_relaxed); }
  void set_serving(bool serving) { serving_.store(serving, std::memory_order_relaxed); }

 private:
  struct Reactor;  // defined in server.cc; owns shards, loops and conns
  friend struct Reactor;

  // Dispatches one decoded request; returns the reply frame (type+payload).
  // When `stages` is non-null the handler attributes its decode/compute/
  // encode time there (obs::RpcStage decomposition; read/queue/write are
  // measured by the transport that called us).
  void HandleRequest(uint8_t type, const std::string& payload, uint8_t* reply_type,
                     std::string* reply_payload, obs::RpcStageSeconds* stages = nullptr);
  // The shard-independent part of a kGetDebugInfo answer: uptime, recent
  // flight-recorder events, slowest tail-sampled RPCs. The reactor adds
  // per-shard/per-connection detail via its cross-shard gather.
  void FillDebugCommon(DebugInfo* info);

  AuditServerOptions options_;
  AuditingAgent agent_;
  std::shared_mutex agent_mu_;  // imports exclusive, audits shared
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> serving_{false};
  std::atomic<uint64_t> start_us_{0};  // trace-epoch micros at Start()
  std::atomic<uint64_t> next_conn_id_{0};  // debug identity for connections
  std::unique_ptr<ThreadPool> workers_;
  std::unique_ptr<Reactor> reactor_;
  bool owns_profiler_session_ = false;  // Start() armed the continuous session
};

}  // namespace svc
}  // namespace indaas

#endif  // SRC_SVC_SERVER_H_
