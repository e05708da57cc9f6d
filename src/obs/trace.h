// Scoped tracing spans for the audit pipeline (DESIGN.md §6).
//
// A span covers one pipeline stage: it records its name, wall-clock start
// and duration, the recording thread, and its parent span (the innermost
// enclosing span on the same thread), forming a per-thread span tree.
// Spans carry optional key=value annotations ("method=bdd", "groups=294").
//
// Recording is off by default: a disabled ScopedSpan is two relaxed loads
// and no clock read, so instrumented hot paths are free when nobody is
// tracing. When enabled, span ids are claimed from a fixed-capacity ring of
// slots with one relaxed fetch_add at span start; the record is written by
// the owning thread only and published with a release store at span end, so
// Snapshot() can run concurrently with writers (it acquire-loads each slot's
// ready flag and skips unpublished slots). Once the ring is full further
// spans are counted as dropped rather than wrapping, which keeps every slot
// single-writer.
//
// Usage:
//   INDAAS_TRACE_SPAN("sia.enumerate");            // anonymous, scope-wide
//   INDAAS_TRACE_SPAN_NAMED(span, "sia.rank");     // named, for Annotate()
//   span.Annotate("method", "bdd");

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace indaas {
namespace obs {

// One finished span, as exported by TraceRecorder::Snapshot().
struct SpanRecord {
  std::string name;
  std::vector<std::pair<std::string, std::string>> annotations;
  uint64_t start_us = 0;  // microseconds since the process trace epoch
  uint64_t dur_us = 0;
  uint32_t tid = 0;       // dense per-thread index, not the OS thread id
  int64_t id = -1;        // claim order == start order
  int64_t parent = -1;    // id of the enclosing span on this thread, -1 = root
  uint32_t depth = 0;     // 0 for roots
  // Distributed identity (src/obs/propagate.h): the trace id installed on
  // the recording thread when the span started (0 = process-local span),
  // and — for root spans only — the remote caller's wire span id.
  uint64_t trace_id = 0;
  uint64_t remote_parent = 0;
};

// Microseconds since the process-wide trace epoch (steady clock).
uint64_t TraceNowMicros();

// Dense index of the calling thread, stable for its lifetime.
uint32_t TraceThreadId();

// Global collector of finished spans.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  // Turns recording on/off. Spans started while disabled record nothing.
  void SetEnabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Drops all records and resizes the ring. Must not race with in-flight
  // spans: call it before enabling tracing or after all traced work joined.
  void Reset(size_t capacity = kDefaultCapacity);

  // Copies every published span, ordered by id (== start order). Safe while
  // writers are active; spans still open are simply not included yet.
  std::vector<SpanRecord> Snapshot() const;

  // Spans that found the ring full and were discarded.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Internal (ScopedSpan): claims a slot id, or -1 when full/disabled.
  int64_t Claim();
  // Internal (ScopedSpan): fills slot `id` and publishes it.
  void Commit(int64_t id, SpanRecord record);

  static constexpr size_t kDefaultCapacity = 1 << 16;

 private:
  TraceRecorder() { Reset(kDefaultCapacity); }

  struct Slot {
    SpanRecord record;
    std::atomic<bool> ready{false};
  };

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
  std::unique_ptr<Slot[]> slots_;
  size_t capacity_ = 0;
};

// RAII span: claims its id at construction (establishing itself as the
// current parent for nested spans on this thread) and commits the finished
// record at destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Attaches a key=value annotation (no-op when the span is not recording).
  void Annotate(const char* key, std::string value);

  bool recording() const { return id_ >= 0; }

  // This span's local id (-1 when not recording). Cross-process callers
  // propagate obs::WireSpanId(span_id()) so 0 can mean "no span".
  int64_t span_id() const { return id_; }

 private:
  const char* name_;
  int64_t id_ = -1;
  int64_t saved_parent_ = -1;
  uint32_t depth_ = 0;
  uint64_t start_us_ = 0;
  uint64_t trace_id_ = 0;
  uint64_t remote_parent_ = 0;
  std::vector<std::pair<std::string, std::string>> annotations_;
};

}  // namespace obs
}  // namespace indaas

#define INDAAS_OBS_CONCAT_(a, b) a##b
#define INDAAS_OBS_CONCAT(a, b) INDAAS_OBS_CONCAT_(a, b)

// Anonymous scoped span covering the rest of the enclosing block.
#define INDAAS_TRACE_SPAN(name) \
  ::indaas::obs::ScopedSpan INDAAS_OBS_CONCAT(indaas_trace_span_, __LINE__)(name)

// Named scoped span, for call sites that annotate the span later.
#define INDAAS_TRACE_SPAN_NAMED(var, name) ::indaas::obs::ScopedSpan var(name)

#endif  // SRC_OBS_TRACE_H_
