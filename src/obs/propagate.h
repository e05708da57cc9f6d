// Cross-process trace identity (DESIGN.md §6, "distributed tracing").
//
// A TraceContext names the distributed request a piece of work belongs to: a
// nonzero 64-bit trace id shared by every process that touches the request,
// plus the wire span id of the remote caller's span (0 = unknown). The
// context rides ahead of RPC payloads in the frame trace extension
// (src/net/frame.h): AuditClient (its trace id, with the caller-thread
// "svc.client.rpc" span as parent) and PiaPeer inject the calling thread's
// context, server-side pumps adopt it for the duration of one request, and
// every span recorded while a context is installed carries its trace id —
// which is what lets `indaas trace-merge` stitch per-process Chrome traces
// into one timeline.
//
// The thread-local context is managed strictly RAII (ScopedTraceContext
// restores the previous value on destruction), so pool threads that serve
// many requests never leak one request's identity into the next.
//
// Wire span ids are local span ids + 1 so that 0 can mean "no span" (a
// client with tracing disabled still propagates its trace id, just without
// a parent span).

#ifndef SRC_OBS_PROPAGATE_H_
#define SRC_OBS_PROPAGATE_H_

#include <cstdint>

namespace indaas {
namespace obs {

struct TraceContext {
  uint64_t trace_id = 0;        // 0 = no distributed context
  uint64_t parent_span_id = 0;  // remote caller's wire span id, 0 = unknown

  bool valid() const { return trace_id != 0; }
};

// The calling thread's current context (invalid when none is installed).
TraceContext CurrentTraceContext();

// Address of the calling thread's trace-id word. The sampling profiler
// (src/obs/profiler.h) captures it at thread registration so its SIGPROF
// handler can read the ambient trace id through a plain pointer, with no
// TLS resolution in signal context. Valid for the thread's lifetime.
const uint64_t* CurrentTraceIdAddress();

// A fresh nonzero trace id: a per-process random fingerprint mixed with a
// process-wide counter, so ids from different processes started in the same
// microsecond still diverge.
uint64_t NewTraceId();

// Deterministic trace id derived from a shared session seed. PIA ring peers
// have no request originator to adopt from — every peer derives the same id
// from the session seed they already agree on, so one ring session is one
// trace without any extra coordination.
uint64_t DeriveTraceId(uint64_t seed);

// Converts between local span ids (TraceRecorder claim order, -1 = none)
// and wire span ids (0 = none).
inline uint64_t WireSpanId(int64_t local_id) {
  return local_id < 0 ? 0 : static_cast<uint64_t>(local_id) + 1;
}

// Installs `context` as the calling thread's context for the scope and
// restores the previous one on destruction. Installing an invalid context
// is meaningful: it clears the thread's identity (a traceless request on a
// pool thread must not inherit the previous request's trace).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

}  // namespace obs
}  // namespace indaas

#endif  // SRC_OBS_PROPAGATE_H_
