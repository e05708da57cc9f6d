#include "src/svc/mux_client.h"

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/propagate.h"
#include "src/util/strings.h"
#include "src/util/timer.h"

namespace indaas {
namespace svc {
namespace {

// Reader poll slice: bounds how long Shutdown() waits on an idle connection.
constexpr int kReaderPollMs = 100;

obs::Histogram* MuxRpcSeconds() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "svc.client.mux_rpc_seconds",
      {0.0001, 0.0002, 0.0004, 0.0008, 0.0016, 0.0032, 0.0064, 0.0128, 0.0256, 0.0512,
       0.1024, 0.2048, 0.4096, 0.8192, 1.6384, 3.2768, 6.5536, 13.1072});
  return histogram;
}

obs::Counter* MuxReconnects() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("svc.client.mux_reconnects");
  return counter;
}

obs::Counter* MuxReplays() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("svc.client.mux_replays");
  return counter;
}

obs::Counter* MuxConnFailures() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("svc.client.mux_conn_failures");
  return counter;
}

// ImportDepDb appends records server-side, so an ambiguous transport
// failure must surface rather than risk a double import; everything else
// the mux client issues is safe to replay.
bool IdempotentRequest(MsgType request) { return request != MsgType::kImportDepDb; }

}  // namespace

struct MuxAuditClient::Impl {
  struct Pending {
    MsgType request = MsgType::kPing;
    MsgType expected = MsgType::kPong;
    std::string payload;  // retained only while replays remain
    Completion done;
    WallTimer timer;
    size_t retries_left = 0;  // replays on a fresh connection after a transport fault
  };

  // One pooled connection: its socket, its reader thread, and the id-keyed
  // table of requests awaiting replies. Writers serialize on write_mu (a
  // frame must hit the wire atomically); everything else lives under mu.
  struct Conn {
    net::Socket socket;
    std::thread reader;
    std::mutex write_mu;
    std::mutex revive_mu;  // serializes in-place reconnection

    std::mutex mu;
    std::condition_variable window_cv;
    std::unordered_map<uint64_t, Pending> pending;
    uint64_t next_id = 1;
    bool stopping = false;
    Status failed = Status::Ok();  // sticky transport error once !ok
  };

  MuxClientOptions options;
  net::Endpoint endpoint;
  uint64_t trace_id = 0;
  std::vector<std::unique_ptr<Conn>> conns;
  std::atomic<size_t> next_conn{0};
  bool shut_down = false;

  // Readers that revived their own connection hand their old thread handle
  // here (a thread cannot join itself); Shutdown drains them.
  std::mutex retired_mu;
  std::vector<std::thread> retired;

  // Completes one request outside any lock (the callback may block).
  static void Complete(Pending pending, Result<net::Frame> result) {
    MuxRpcSeconds()->Record(pending.timer.ElapsedSeconds());
    pending.done(std::move(result));
  }

  // Marks the connection dead and fails every pending request with
  // `error`; orphans with replay budget are transparently re-issued on
  // another (or a revived) connection instead of surfacing the transport
  // error. Safe to call repeatedly; only the first error sticks.
  void FailConn(Conn* conn, const Status& error) {
    std::unordered_map<uint64_t, Pending> orphans;
    Status failure;
    bool stopping;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->failed.ok()) {
        conn->failed = error;
        if (!conn->stopping) {
          MuxConnFailures()->Increment();
        }
      }
      failure = conn->failed;
      stopping = conn->stopping;
      orphans.swap(conn->pending);
      conn->window_cv.notify_all();
    }
    for (auto& [id, pending] : orphans) {
      if (!stopping && pending.retries_left > 0) {
        MuxReplays()->Increment();
        AsyncCallAttempt(pending.request, std::move(pending.payload), pending.expected,
                         std::move(pending.done), pending.retries_left - 1);
      } else {
        Complete(std::move(pending), failure);
      }
    }
  }

  // Replaces a dead pooled connection in place: fresh socket, fresh reader.
  // The server closing an idle pooled connection must not poison the slot
  // forever — the next request revives it transparently. A reader thread
  // retrying its own orphans lands here too; it cannot join itself, so its
  // old handle is parked in `retired` for Shutdown to drain.
  Status Revive(Conn* conn) {
    std::lock_guard<std::mutex> revive_lock(conn->revive_mu);
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->stopping) {
        return UnavailableError("mux client shutting down");
      }
      if (conn->failed.ok()) {
        return Status::Ok();  // someone else already revived it
      }
    }
    if (conn->reader.joinable()) {
      if (conn->reader.get_id() == std::this_thread::get_id()) {
        std::lock_guard<std::mutex> retired_lock(retired_mu);
        retired.push_back(std::move(conn->reader));
      } else {
        conn->reader.join();
      }
    }
    size_t retries = 0;
    Result<net::Socket> socket =
        net::ConnectWithRetry(endpoint, options.connect_timeout_ms, options.retry, &retries);
    if (retries > 0) {
      obs::MetricsRegistry::Global().GetCounter("svc.client.connect_retries")->Add(retries);
    }
    if (!socket.ok()) {
      return socket.status();
    }
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->socket = std::move(*socket);
      conn->failed = Status::Ok();
    }
    Impl* self = this;
    conn->reader = std::thread([self, conn] { self->ReaderLoop(conn); });
    MuxReconnects()->Increment();
    INDAAS_SLOG(Info, "svc.client.mux_reconnect").Kv("endpoint", endpoint.ToString());
    return Status::Ok();
  }

  void ReaderLoop(Conn* conn) {
    while (true) {
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->stopping) {
          return;
        }
      }
      Status readable = conn->socket.WaitReadable(kReaderPollMs);
      if (readable.code() == StatusCode::kDeadlineExceeded) {
        continue;  // idle slice; re-check stopping
      }
      if (!readable.ok()) {
        FailConn(conn, readable);
        return;
      }
      Result<net::Frame> frame =
          net::ReadFrame(conn->socket, options.limits, options.io_timeout_ms);
      if (!frame.ok()) {
        FailConn(conn, frame.status());
        return;
      }
      if (frame->request_id == 0) {
        // A reply with no id cannot be paired; the stream is unusable.
        FailConn(conn, ProtocolError("reply frame missing request id"));
        return;
      }
      Pending pending;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        auto it = conn->pending.find(frame->request_id);
        if (it == conn->pending.end()) {
          // Unknown id: the server invented or repeated one. Drop the
          // connection rather than risk mis-pairing later replies.
          FailConn(conn, ProtocolError(StrFormat("reply for unknown request id %llu",
                                                 (unsigned long long)frame->request_id)));
          return;
        }
        pending = std::move(it->second);
        conn->pending.erase(it);
        conn->window_cv.notify_one();
      }
      if (frame->type == static_cast<uint8_t>(MsgType::kErrorReply)) {
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

  void AsyncCall(MsgType request, std::string payload, MsgType expected, Completion done) {
    AsyncCallAttempt(request, std::move(payload), expected, std::move(done),
                     IdempotentRequest(request) ? 1 : 0);
  }

  void AsyncCallAttempt(MsgType request, std::string payload, MsgType expected,
                        Completion done, size_t retries_left) {
    Conn* conn =
        conns[next_conn.fetch_add(1, std::memory_order_relaxed) % conns.size()].get();
    // Transparent staleness recovery: a pooled connection the server closed
    // while this client was idle gets a fresh socket before anything is
    // queued on it, instead of poisoning every request routed to the slot.
    bool dead;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      dead = !conn->failed.ok() && !conn->stopping;
    }
    if (dead) {
      Status revived = Revive(conn);
      if (!revived.ok()) {
        Pending pending;
        pending.done = std::move(done);
        Complete(std::move(pending), revived);
        return;
      }
    }
    Pending pending;
    pending.request = request;
    pending.expected = expected;
    pending.done = std::move(done);
    pending.retries_left = retries_left;
    if (retries_left > 0) {
      pending.payload = payload;  // retained so a transport fault can replay
    }
    uint64_t id = 0;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->window_cv.wait(lock, [&] {
        return conn->stopping || !conn->failed.ok() ||
               conn->pending.size() < options.window;
      });
      if (conn->stopping) {
        lock.unlock();
        Complete(std::move(pending), UnavailableError("mux client shutting down"));
        return;
      }
      if (!conn->failed.ok()) {
        Status failed = conn->failed;
        lock.unlock();
        if (retries_left > 0) {
          MuxReplays()->Increment();
          AsyncCallAttempt(request, std::move(payload), expected, std::move(pending.done),
                           retries_left - 1);
          return;
        }
        Complete(std::move(pending), failed);
        return;
      }
      id = conn->next_id++;
      conn->pending.emplace(id, std::move(pending));
    }
    Status written;
    {
      // One writer at a time per connection: a frame interleaved with
      // another frame's bytes would corrupt the stream for everyone.
      std::lock_guard<std::mutex> write_lock(conn->write_mu);
      written = net::WriteFrame(conn->socket, static_cast<uint8_t>(request), payload,
                                options.io_timeout_ms, obs::TraceContext{trace_id, 0}, id);
    }
    if (!written.ok()) {
      // Reclaim our own entry if the reader has not already failed it.
      Pending orphan;
      bool owned = false;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        auto it = conn->pending.find(id);
        if (it != conn->pending.end()) {
          orphan = std::move(it->second);
          conn->pending.erase(it);
          owned = true;
        }
      }
      FailConn(conn, written);  // fails (or retries) everything else queued here
      if (owned) {
        if (orphan.retries_left > 0) {
          MuxReplays()->Increment();
          AsyncCallAttempt(request, std::move(orphan.payload), expected,
                           std::move(orphan.done), orphan.retries_left - 1);
          return;
        }
        Complete(std::move(orphan), written);
      }
    }
  }

  void Shutdown() {
    if (shut_down) {
      return;
    }
    shut_down = true;
    for (auto& conn : conns) {
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->stopping = true;
        conn->window_cv.notify_all();
      }
    }
    for (auto& conn : conns) {
      if (conn->reader.joinable()) {
        conn->reader.join();
      }
      FailConn(conn.get(), UnavailableError("mux client shut down"));
      conn->socket.Close();
    }
    std::vector<std::thread> old;
    {
      std::lock_guard<std::mutex> retired_lock(retired_mu);
      old.swap(retired);
    }
    for (std::thread& thread : old) {
      if (thread.joinable()) {
        thread.join();
      }
    }
  }
};

Result<MuxAuditClient> MuxAuditClient::Connect(const net::Endpoint& endpoint,
                                               const MuxClientOptions& options) {
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->options.connections = std::max<size_t>(1, options.connections);
  impl->options.window = std::max<size_t>(1, options.window);
  impl->endpoint = endpoint;
  obs::TraceContext ambient = obs::CurrentTraceContext();
  impl->trace_id = ambient.valid() ? ambient.trace_id : obs::NewTraceId();
  for (size_t i = 0; i < impl->options.connections; ++i) {
    size_t retries = 0;
    Result<net::Socket> socket =
        net::ConnectWithRetry(endpoint, options.connect_timeout_ms, options.retry, &retries);
    if (retries > 0) {
      obs::MetricsRegistry::Global().GetCounter("svc.client.connect_retries")->Add(retries);
    }
    if (!socket.ok()) {
      impl->Shutdown();  // joins the readers already started
      return socket.status();
    }
    auto conn = std::make_unique<Impl::Conn>();
    conn->socket = std::move(*socket);
    impl->conns.push_back(std::move(conn));
  }
  Impl* raw = impl.get();
  for (auto& conn : raw->conns) {
    Impl::Conn* raw_conn = conn.get();
    raw_conn->reader = std::thread([raw, raw_conn] { raw->ReaderLoop(raw_conn); });
  }
  return MuxAuditClient(std::move(impl));
}

MuxAuditClient::MuxAuditClient(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

MuxAuditClient::MuxAuditClient(MuxAuditClient&&) noexcept = default;
MuxAuditClient& MuxAuditClient::operator=(MuxAuditClient&&) noexcept = default;

MuxAuditClient::~MuxAuditClient() {
  if (impl_) {
    impl_->Shutdown();
  }
}

void MuxAuditClient::AsyncCall(MsgType request, std::string payload, MsgType expected,
                               Completion done) {
  impl_->AsyncCall(request, std::move(payload), expected, std::move(done));
}

Result<net::Frame> MuxAuditClient::Call(MsgType request, std::string payload,
                                        MsgType expected) {
  auto promise = std::make_shared<std::promise<Result<net::Frame>>>();
  std::future<Result<net::Frame>> future = promise->get_future();
  AsyncCall(request, std::move(payload), expected,
            [promise](Result<net::Frame> result) { promise->set_value(std::move(result)); });
  return future.get();
}

Status MuxAuditClient::Ping() {
  INDAAS_ASSIGN_OR_RETURN(net::Frame reply, Call(MsgType::kPing, "", MsgType::kPong));
  if (!reply.payload.empty()) {
    return ProtocolError("pong carried unexpected payload");
  }
  return Status::Ok();
}

Result<ImportAck> MuxAuditClient::ImportDepDb(const std::string& table1_text) {
  INDAAS_ASSIGN_OR_RETURN(net::Frame reply,
                          Call(MsgType::kImportDepDb, table1_text, MsgType::kImportAck));
  return DecodeImportAck(reply.payload);
}

Result<SiaAuditReport> MuxAuditClient::AuditStructural(const AuditSpecification& spec) {
  INDAAS_ASSIGN_OR_RETURN(
      net::Frame reply,
      Call(MsgType::kAuditRequest, EncodeAuditSpecification(spec), MsgType::kAuditReport));
  return DecodeSiaAuditReport(reply.payload);
}

void MuxAuditClient::Shutdown() {
  if (impl_) {
    impl_->Shutdown();
  }
}

uint64_t MuxAuditClient::trace_id() const { return impl_->trace_id; }

}  // namespace svc
}  // namespace indaas
