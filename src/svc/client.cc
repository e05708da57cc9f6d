#include "src/svc/client.h"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/propagate.h"
#include "src/obs/trace.h"
#include "src/util/strings.h"
#include "src/util/timer.h"

namespace indaas {
namespace svc {
namespace {

using Clock = std::chrono::steady_clock;

obs::Histogram* RpcSeconds() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "svc.client.rpc_seconds",
      {0.0001, 0.0002, 0.0004, 0.0008, 0.0016, 0.0032, 0.0064, 0.0128, 0.0256, 0.0512,
       0.1024, 0.2048, 0.4096, 0.8192, 1.6384, 3.2768, 6.5536, 13.1072});
  return histogram;
}

// Failure-path counters; looked up by name, since they are rare.
void Bump(const char* name, uint64_t delta = 1) {
  obs::MetricsRegistry::Global().GetCounter(name)->Add(delta);
}

// ImportDepDb appends records server-side; replaying it after an ambiguous
// transport failure could double-import. GetProfile blocks the server for a
// full capture window, so a replay would silently double the caller's wait
// (and, in temporary-session mode, race the still-running first capture).
// Everything else is a pure read or a liveness check.
bool IdempotentRequest(MsgType request) {
  return request != MsgType::kImportDepDb && request != MsgType::kGetProfile;
}

// Connects with the retry/backoff schedule and attributes the retries to
// this client on top of the process-wide net.connect_retries.
Result<net::Socket> ConnectSocket(const net::Endpoint& endpoint,
                                  const AuditClientOptions& options) {
  size_t retries = 0;
  Result<net::Socket> socket =
      net::ConnectWithRetry(endpoint, options.connect_timeout_ms, options.retry, &retries);
  if (retries > 0) {
    Bump("svc.client.connect_retries", retries);
  }
  return socket;
}

}  // namespace

struct AuditClient::Impl {
  struct Pending {
    MsgType request = MsgType::kPing;
    MsgType expected = MsgType::kPong;
    std::string payload;  // retained only while a replay remains
    Completion done;
    uint64_t parent_span = 0;  // wire id of the caller's rpc span, 0 = none
    int timeout_ms = 0;
    bool can_replay = false;
    WallTimer timer;  // from the first attempt; a replay keeps it
    Clock::time_point deadline;
  };

  // One pooled connection: its socket, its reader thread, and the id-keyed
  // table of requests awaiting replies. Writers serialize on write_mu (a
  // frame must hit the wire atomically); everything else lives under mu.
  // The socket is replaced only with both locks held, only while the
  // reader is off it, and each replacement bumps `generation`, so a writer
  // or reader still holding the old generation never touches the new one.
  struct Conn {
    net::Socket socket;
    std::thread reader;
    std::mutex write_mu;

    std::mutex mu;
    std::condition_variable window_cv;  // a window slot freed
    std::condition_variable state_cv;   // revived, reader off the socket, or stopping
    std::unordered_map<uint64_t, Pending> pending;
    uint64_t next_id = 1;
    uint64_t generation = 0;
    bool stopping = false;
    bool reviving = false;
    bool reader_in_io = false;
    Status failed = Status::Ok();  // sticky transport error until revived
  };

  AuditClientOptions options;
  net::Endpoint endpoint;
  uint64_t trace_id = 0;
  std::vector<std::unique_ptr<Conn>> conns;
  std::atomic<size_t> next_conn{0};
  bool shut_down = false;

  // Completes one request outside any lock.
  static void Complete(Pending pending, Result<net::Frame> result) {
    RpcSeconds()->Record(pending.timer.ElapsedSeconds());
    pending.done(std::move(result));
  }

  // A request that died on a transport fault: re-issued once on a fresh
  // connection when it may be, else completed with `error`.
  void Retry(Pending pending, const Status& error) {
    if (!pending.can_replay) {
      Complete(std::move(pending), error);
      return;
    }
    pending.can_replay = false;
    Bump("svc.client.rpc_replays");
    INDAAS_SLOG(Info, "svc.client.rpc_replay")
        .Kv("type", MsgTypeName(pending.request))
        .Kv("error", error.ToString());
    Send(std::move(pending));
  }

  // Marks generation `generation` of the connection dead and fails (or
  // replays) every request pending on it. Only the first error sticks; a
  // call for a generation already replaced is a no-op.
  void FailConn(Conn* conn, uint64_t generation, const Status& error) {
    std::unordered_map<uint64_t, Pending> orphans;
    Status failure;
    bool stopping;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->generation != generation) {
        return;
      }
      if (conn->failed.ok()) {
        conn->failed = error;
        if (!conn->stopping) {
          Bump("svc.client.conn_failures");
        }
      }
      failure = conn->failed;
      stopping = conn->stopping;
      orphans.swap(conn->pending);
      conn->window_cv.notify_all();
    }
    for (auto& [id, pending] : orphans) {
      if (stopping) {
        Complete(std::move(pending), failure);
      } else {
        Retry(std::move(pending), failure);
      }
    }
  }

  // Gives a failed connection a fresh socket in place; its reader resumes
  // on it. The server closing an idle pooled connection must not poison the
  // slot forever. No-op on a live connection.
  Status Revive(Conn* conn) {
    std::unique_lock<std::mutex> lock(conn->mu);
    conn->state_cv.wait(lock, [&] { return conn->stopping || !conn->reviving; });
    if (conn->stopping) {
      return UnavailableError("audit client shut down");
    }
    if (conn->failed.ok()) {
      return Status::Ok();  // someone else already revived it
    }
    conn->reviving = true;
    // A reader still blocked on the old socket wakes at once; wait until it
    // lets go. A reader replaying its own orphans is never in I/O here.
    ::shutdown(conn->socket.fd(), SHUT_RDWR);
    conn->state_cv.wait(lock, [&] { return !conn->reader_in_io; });
    lock.unlock();
    Result<net::Socket> socket = ConnectSocket(endpoint, options);
    std::lock_guard<std::mutex> write_lock(conn->write_mu);
    lock.lock();
    conn->reviving = false;
    conn->state_cv.notify_all();
    if (!socket.ok()) {
      return socket.status();
    }
    if (conn->stopping) {
      return UnavailableError("audit client shut down");
    }
    conn->socket = std::move(*socket);
    conn->failed = Status::Ok();
    ++conn->generation;
    Bump("svc.client.reconnects");
    INDAAS_SLOG(Info, "svc.client.reconnect").Kv("endpoint", endpoint.ToString());
    return Status::Ok();
  }

  void ReaderLoop(Conn* conn) {
    while (true) {
      uint64_t generation;
      // Requests sent during the wait have deadlines at least io_timeout_ms
      // out, so a wait capped there never sleeps through one.
      int wait_ms = options.io_timeout_ms;
      bool at_deadline = false;  // the wait ends at a pending request's deadline
      {
        std::unique_lock<std::mutex> lock(conn->mu);
        conn->state_cv.wait(lock, [&] { return conn->stopping || conn->failed.ok(); });
        if (conn->stopping) {
          return;
        }
        generation = conn->generation;
        Clock::time_point earliest = Clock::time_point::max();
        for (const auto& [id, pending] : conn->pending) {
          earliest = std::min(earliest, pending.deadline);
        }
        if (!conn->pending.empty()) {
          const int64_t until_ms =
              std::chrono::ceil<std::chrono::milliseconds>(earliest - Clock::now()).count();
          at_deadline = until_ms <= wait_ms;
          wait_ms = static_cast<int>(std::clamp<int64_t>(until_ms, 0, wait_ms));
        }
        conn->reader_in_io = true;
      }
      Status readable = conn->socket.WaitReadable(wait_ms);
      const bool timed_out = readable.code() == StatusCode::kDeadlineExceeded;
      if (timed_out && at_deadline) {
        // The earliest request expired (or the socket stalled); its late
        // reply could not be paired, so the connection goes too.
        readable = DeadlineExceededError("no reply before the request deadline");
      }
      Result<net::Frame> frame =
          readable.ok() ? net::ReadFrame(conn->socket, options.limits, options.io_timeout_ms)
                        : Result<net::Frame>(readable);
      Pending pending;
      Status error = frame.status();
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->reader_in_io = false;
        if (conn->reviving) {
          conn->state_cv.notify_all();
        }
        if (timed_out && !at_deadline) {
          continue;  // nothing due yet: an idle connection is keep-alive
        }
        if (error.ok()) {
          auto it = conn->pending.find(frame->request_id);
          if (it == conn->pending.end()) {
            // No id, or one the server invented or repeated: drop the
            // connection rather than risk mis-pairing later replies.
            error = ProtocolError(StrFormat("reply for unknown request id %llu",
                                            (unsigned long long)frame->request_id));
          } else {
            pending = std::move(it->second);
            conn->pending.erase(it);
            conn->window_cv.notify_one();
          }
        }
      }
      if (!error.ok()) {
        FailConn(conn, generation, error);
      } else if (frame->type == static_cast<uint8_t>(MsgType::kErrorReply)) {
        Complete(std::move(pending), DecodeErrorReply(frame->payload));
      } else if (frame->type != static_cast<uint8_t>(pending.expected)) {
        Complete(std::move(pending),
                 ProtocolError(StrFormat("unexpected reply type %u (want %u)", frame->type,
                                         static_cast<uint8_t>(pending.expected))));
      } else {
        Complete(std::move(pending), std::move(*frame));
      }
    }
  }

  void Issue(MsgType request, std::string payload, MsgType expected, int timeout_ms,
             uint64_t parent_span, Completion done) {
    Pending pending;
    pending.request = request;
    pending.expected = expected;
    pending.payload = std::move(payload);
    pending.done = std::move(done);
    pending.parent_span = parent_span;
    pending.timeout_ms = timeout_ms;
    pending.can_replay = IdempotentRequest(request);
    Send(std::move(pending));
  }

  // Routes a request to the next pooled connection (reviving a failed
  // one), registers it under a fresh id and writes its frame.
  void Send(Pending pending) {
    Conn* conn =
        conns[next_conn.fetch_add(1, std::memory_order_relaxed) % conns.size()].get();
    std::unique_lock<std::mutex> lock(conn->mu);
    if (!conn->failed.ok() && !conn->stopping) {
      lock.unlock();
      if (Status revived = Revive(conn); !revived.ok()) {
        Complete(std::move(pending), revived);
        return;
      }
      lock.lock();
    }
    // A replay was admitted once already. It skips the window, so a reader
    // replaying its orphans never waits on another connection's reader.
    const bool replay = IdempotentRequest(pending.request) && !pending.can_replay;
    conn->window_cv.wait(lock, [&] {
      return replay || conn->stopping || !conn->failed.ok() ||
             conn->pending.size() < options.window;
    });
    if (conn->stopping) {
      lock.unlock();
      Complete(std::move(pending), UnavailableError("audit client shut down"));
      return;
    }
    if (!conn->failed.ok()) {
      Status failed = conn->failed;
      lock.unlock();
      Retry(std::move(pending), failed);
      return;
    }
    const uint64_t id = conn->next_id++;
    const uint64_t generation = conn->generation;
    const uint8_t type = static_cast<uint8_t>(pending.request);
    const obs::TraceContext trace{trace_id, pending.parent_span};
    std::string payload = pending.can_replay ? pending.payload : std::move(pending.payload);
    pending.deadline = Clock::now() + std::chrono::milliseconds(pending.timeout_ms);
    conn->pending.emplace(id, std::move(pending));
    lock.unlock();
    Status written;
    {
      // One writer at a time per connection: a frame interleaved with
      // another frame's bytes would corrupt the stream for everyone. A
      // connection revived since registration already failed this request
      // over; its id means nothing on the new socket.
      std::lock_guard<std::mutex> write_lock(conn->write_mu);
      if (conn->generation != generation) {
        return;
      }
      written = net::WriteFrame(conn->socket, type, payload, options.io_timeout_ms, trace, id);
    }
    if (!written.ok()) {
      FailConn(conn, generation, written);  // fails (or replays) this request too
    }
  }

  // Synchronous call: the "svc.client.rpc" span lives on the caller's
  // thread, and its wire id rides in the frame as the server's remote parent.
  Result<net::Frame> Call(MsgType request, std::string payload, MsgType expected,
                          int timeout_ms) {
    // The span must carry this client's trace id even when the calling
    // thread has no ambient context (a bare CLI client): reinstall the id,
    // keeping any ambient remote parent only if it belongs to the same trace.
    obs::TraceContext ambient = obs::CurrentTraceContext();
    obs::ScopedTraceContext rpc_context(obs::TraceContext{
        trace_id, ambient.trace_id == trace_id ? ambient.parent_span_id : 0});
    INDAAS_TRACE_SPAN_NAMED(span, "svc.client.rpc");
    span.Annotate("type", MsgTypeName(request));
    auto promise = std::make_shared<std::promise<Result<net::Frame>>>();
    std::future<Result<net::Frame>> future = promise->get_future();
    // With tracing disabled the span id is -1 and the wire parent is 0, but
    // the trace id still flows so server metrics stay attributable.
    Issue(request, std::move(payload), expected, timeout_ms, obs::WireSpanId(span.span_id()),
          [promise](Result<net::Frame> result) { promise->set_value(std::move(result)); });
    Result<net::Frame> result = future.get();
    if (!result.ok()) {
      span.Annotate("error", result.status().ToString());
    }
    return result;
  }

  void Shutdown() {
    if (shut_down) {
      return;
    }
    shut_down = true;
    for (auto& conn : conns) {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->stopping = true;
      ::shutdown(conn->socket.fd(), SHUT_RDWR);  // wakes a blocked reader at once
      conn->window_cv.notify_all();
      conn->state_cv.notify_all();
    }
    for (auto& conn : conns) {
      if (conn->reader.joinable()) {
        conn->reader.join();
      }
      FailConn(conn.get(), conn->generation, UnavailableError("audit client shut down"));
      std::lock_guard<std::mutex> write_lock(conn->write_mu);
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->socket.Close();
    }
  }
};

Result<AuditClient> AuditClient::Connect(const net::Endpoint& endpoint,
                                         const AuditClientOptions& options) {
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->options.connections = std::max<size_t>(1, options.connections);
  impl->options.window = std::max<size_t>(1, options.window);
  impl->endpoint = endpoint;
  // Join the calling thread's trace if one is installed (e.g. the CLI put
  // the whole run under one trace); otherwise this client starts its own.
  obs::TraceContext ambient = obs::CurrentTraceContext();
  impl->trace_id = ambient.valid() ? ambient.trace_id : obs::NewTraceId();
  for (size_t i = 0; i < impl->options.connections; ++i) {
    Result<net::Socket> socket = ConnectSocket(endpoint, options);
    if (!socket.ok()) {
      impl->Shutdown();  // joins the readers already started
      return socket.status();
    }
    auto conn = std::make_unique<Impl::Conn>();
    conn->socket = std::move(*socket);
    Impl* raw = impl.get();
    Impl::Conn* raw_conn = conn.get();
    conn->reader = std::thread([raw, raw_conn] { raw->ReaderLoop(raw_conn); });
    impl->conns.push_back(std::move(conn));
  }
  return AuditClient(std::move(impl));
}

AuditClient::AuditClient(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

AuditClient::AuditClient(AuditClient&&) noexcept = default;
AuditClient& AuditClient::operator=(AuditClient&&) noexcept = default;

AuditClient::~AuditClient() { Shutdown(); }

void AuditClient::AsyncCall(MsgType request, std::string payload, MsgType expected,
                            Completion done) {
  impl_->Issue(request, std::move(payload), expected, impl_->options.io_timeout_ms, 0,
               std::move(done));
}

Result<net::Frame> AuditClient::Call(MsgType request, std::string payload, MsgType expected) {
  return impl_->Call(request, std::move(payload), expected, impl_->options.io_timeout_ms);
}

Status AuditClient::Ping() {
  INDAAS_ASSIGN_OR_RETURN(net::Frame reply, Call(MsgType::kPing, "", MsgType::kPong));
  if (!reply.payload.empty()) {
    return ProtocolError("pong carried unexpected payload");
  }
  return Status::Ok();
}

Result<ImportAck> AuditClient::ImportDepDb(const std::string& table1_text) {
  INDAAS_ASSIGN_OR_RETURN(net::Frame reply,
                          Call(MsgType::kImportDepDb, table1_text, MsgType::kImportAck));
  return DecodeImportAck(reply.payload);
}

Result<SiaAuditReport> AuditClient::AuditStructural(const AuditSpecification& spec) {
  INDAAS_ASSIGN_OR_RETURN(
      net::Frame reply,
      Call(MsgType::kAuditRequest, EncodeAuditSpecification(spec), MsgType::kAuditReport));
  return DecodeSiaAuditReport(reply.payload);
}

Result<PiaAuditReport> AuditClient::AuditPia(const std::vector<CloudProvider>& providers,
                                             const PiaAuditOptions& options) {
  PiaRequest request;
  request.providers = providers;
  request.options = options;
  INDAAS_ASSIGN_OR_RETURN(
      net::Frame reply,
      Call(MsgType::kPiaRequest, EncodePiaRequest(request), MsgType::kPiaReport));
  return DecodePiaAuditReport(reply.payload);
}

Result<ServerStats> AuditClient::GetStats() {
  INDAAS_ASSIGN_OR_RETURN(net::Frame reply, Call(MsgType::kGetStats, "", MsgType::kStatsReply));
  return DecodeServerStats(reply.payload);
}

Result<HealthStatus> AuditClient::Health() {
  INDAAS_ASSIGN_OR_RETURN(net::Frame reply, Call(MsgType::kHealth, "", MsgType::kHealthReply));
  return DecodeHealthStatus(reply.payload);
}

Result<DebugInfo> AuditClient::GetDebugInfo() {
  INDAAS_ASSIGN_OR_RETURN(net::Frame reply,
                          Call(MsgType::kGetDebugInfo, "", MsgType::kDebugInfoReply));
  return DecodeDebugInfo(reply.payload);
}

Result<ProfileReply> AuditClient::GetProfile(const ProfileRequest& request) {
  // The server blocks for the whole capture window before answering, so the
  // deadline must cover the window on top of the normal I/O budget.
  const int timeout_ms = impl_->options.io_timeout_ms + static_cast<int>(request.seconds) * 1000;
  INDAAS_ASSIGN_OR_RETURN(net::Frame reply,
                          impl_->Call(MsgType::kGetProfile, EncodeProfileRequest(request),
                                      MsgType::kProfileReply, timeout_ms));
  return DecodeProfileReply(reply.payload);
}

void AuditClient::Shutdown() {
  if (impl_) {
    impl_->Shutdown();
  }
}

uint64_t AuditClient::trace_id() const { return impl_->trace_id; }

}  // namespace svc
}  // namespace indaas
