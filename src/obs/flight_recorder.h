// Always-on flight recorder + tail sampler (DESIGN.md §6).
//
// The flight recorder answers "what was the service doing just before X?"
// for an X that already happened — a crash, a shed storm, a stalled
// connection. Each thread owns a fixed-size ring of 40-byte structured
// events (accept, shed, slow-reader drop, read deadline, RPC begin/end,
// loop lag...) written with a handful of relaxed atomic stores; recording
// an event never takes a lock, never allocates, and never blocks, which is
// what makes it safe to leave on in production and cheap enough to sit on
// the reactor's hot path (the ≤3% bench_svc_rpc budget in EXPERIMENTS.md).
//
// Concurrency model: each thread's ring is a SeqlockRing
// (src/obs/seqlock_ring.h) of five-word slots. Record() is the ring's
// single writer; readers (Snapshot, DumpText, DumpToFd) share one read
// path and drop any slot the writer lapped mid-copy — a dump taken during
// a write storm loses a few events at the overwrite frontier, never sees
// torn memory. Rings are registered in a fixed array of atomic pointers so
// a signal handler can walk every thread's ring without taking the
// registry lock; rings of exited threads are re-used by new threads.
//
// Dumps: DumpText() for tooling/RPCs, DumpToFd() for signal context
// (write(2) + a local integer formatter, no allocation, no stdio), and
// InstallFlightRecorderSignalHandlers() wires SIGUSR2 (dump and continue)
// plus the fatal signals (dump, restore default, re-raise). ParseDumpText
// round-trips a dump back into events for `indaas debug` and tests.
//
// The TailSampler is the "keep the interesting ones" layer on top: the
// server offers it every finished RPC with its per-stage timing breakdown,
// and it retains — keyed by trace id, in a small bounded ring — only RPCs
// that were slow, shed, or errored. Fast successes are dropped at the door,
// so a post-incident `indaas debug` shows full detail for exactly the
// requests an operator would ask about.

#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/seqlock_ring.h"

namespace indaas {
namespace obs {

// What happened. Values are stable wire/dump identifiers — append only.
enum class FlightEventType : uint16_t {
  kNone = 0,
  kAccept = 1,          // a/b: conn id / shard
  kConnClose = 2,       // a/b: conn id / bytes still unsent
  kShed = 3,            // a/b: request id / conn id
  kSlowReaderDrop = 4,  // a/b: conn id / buffered bytes
  kReadDeadline = 5,    // a/b: conn id / deadline ms
  kRpcBegin = 6,        // a/b: request id / conn id, code: msg type
  kRpcEnd = 7,          // a/b: request id / total us, code: msg type
  kLoopLag = 8,         // a/b: lag us / timer heap depth
  kDump = 9,            // a/b: unused; marks an explicit dump point
};

// Dump/debug tag for an event type ("accept", "shed", ...).
const char* FlightEventTypeName(FlightEventType type);

// One fixed-size recorder event. `a`/`b`/`code` are type-dependent (see the
// enum); `trace_id` is the ambient distributed trace id or 0.
struct FlightEvent {
  uint64_t t_us = 0;      // microseconds since the process trace epoch
  uint64_t trace_id = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint32_t tid = 0;       // recording thread (obs::TraceThreadId)
  FlightEventType type = FlightEventType::kNone;
  uint16_t code = 0;
};

class FlightRecorder {
 public:
  // Events retained per thread. Two events per RPC means each thread keeps
  // roughly the last 500 requests it touched.
  static constexpr size_t kRingCapacity = 1024;
  // Upper bound on concurrently-registered rings (≈ peak live threads;
  // rings of exited threads are re-used). Fixed so signal handlers can walk
  // the registry without locking.
  static constexpr size_t kMaxRings = 256;

  static FlightRecorder& Global();

  // Records one event into the calling thread's ring. Lock-free,
  // allocation-free after the thread's first call. No-op while disabled or
  // once kMaxRings threads hold rings.
  void Record(FlightEventType type, uint64_t a, uint64_t b, uint16_t code,
              uint64_t trace_id);

  // Bench A/B switch; the recorder is on by default ("always-on").
  void SetEnabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Copies every ring's surviving events, oldest first per ring, sorted by
  // timestamp across rings. Safe concurrent with writers.
  std::vector<FlightEvent> Snapshot() const;

  // Snapshot rendered as the line-oriented dump format (see ParseDumpText).
  std::string DumpText() const;

  // Async-signal-safe dump: write(2) only, no allocation, no stdio, no
  // locks. Same format as DumpText.
  void DumpToFd(int fd) const;

  // Parses DumpText/DumpToFd output; unparseable lines are skipped.
  // Returns the number of events appended to `out`.
  static size_t ParseDumpText(std::string_view text, std::vector<FlightEvent>* out);

 private:
  struct Slot {
    std::atomic<uint64_t> t_us{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    // tid (high 32) | type (16) | code (16); 0 = never written.
    std::atomic<uint64_t> meta{0};
  };

  struct Ring {
    SeqlockRing<Slot, kRingCapacity> events;
    // Claimed by a live thread. Cleared (release) at thread exit so a later
    // thread can adopt the ring instead of leaking one per thread ever made.
    std::atomic<bool> in_use{false};
  };

  // Releases a ring at thread exit (thread_local holder destructor).
  struct ThreadRingHolder {
    Ring* ring = nullptr;
    ~ThreadRingHolder();
  };

  FlightRecorder() = default;
  Ring* ThreadRing();
  Ring* AcquireRing();
  // Calls `emit(const FlightEvent&)` for each surviving event of `ring`,
  // oldest first. Async-signal-safe as long as `emit` is.
  template <typename Emit>
  static void ReadRing(const Ring& ring, Emit&& emit);

  std::atomic<bool> enabled_{true};
  std::array<std::atomic<Ring*>, kMaxRings> rings_{};
  std::atomic<size_t> ring_count_{0};
};

// Installs a SIGUSR2 handler that dumps the recorder, and fatal-signal
// handlers (SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL) that dump and then
// re-raise with the default disposition. `path` receives the dump
// (O_APPEND, created 0644); empty means stderr. The path is copied into a
// static buffer — calling again replaces it.
void InstallFlightRecorderSignalHandlers(const std::string& path);

// --- Tail sampler -----------------------------------------------------------

// Pipeline stages of one RPC through the server (DESIGN.md §6). kQueue is
// dispatch→worker-pickup; the rest are active processing phases.
enum class RpcStage : int {
  kRead = 0,     // first buffered byte → complete frame parsed
  kDecode = 1,   // payload bytes → request struct
  kQueue = 2,    // admitted → worker thread picks it up
  kCompute = 3,  // handler body (audit, import, ...)
  kEncode = 4,   // reply struct → payload bytes
  kWrite = 5,    // reply enqueued → last byte flushed to the socket
};
constexpr int kRpcStageCount = 6;

const char* RpcStageName(RpcStage stage);

// Per-stage elapsed seconds for one RPC, indexed by RpcStage.
struct RpcStageSeconds {
  double s[kRpcStageCount] = {};

  void Add(RpcStage stage, double seconds) { s[static_cast<int>(stage)] += seconds; }
  double total() const {
    double sum = 0;
    for (double v : s) sum += v;
    return sum;
  }
};

// Why an RPC was worth keeping.
enum class TailOutcome : uint8_t { kSlow = 0, kError = 1, kShed = 2 };

const char* TailOutcomeName(TailOutcome outcome);

// Full detail for one retained RPC.
struct TailSample {
  uint64_t trace_id = 0;
  uint64_t request_id = 0;
  uint16_t rpc_type = 0;       // svc::MsgType of the request
  TailOutcome outcome = TailOutcome::kSlow;
  bool ok = false;             // true when the RPC succeeded (slow-but-ok)
  uint64_t conn_id = 0;
  uint64_t end_us = 0;         // completion time, trace epoch micros
  double total_s = 0;          // wall time start→reply flushed
  RpcStageSeconds stages;
};

// Bounded keep-the-interesting-ones buffer. Offer() is called once per
// finished RPC; only slow/shed/errored samples pay the mutex.
class TailSampler {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  static TailSampler& Global();

  // Reconfigures and clears. `slow_threshold_s` <= 0 disables the
  // slowness criterion (errors and sheds are still kept).
  void Configure(double slow_threshold_s, size_t capacity = kDefaultCapacity);
  double slow_threshold_s() const {
    return slow_threshold_s_.load(std::memory_order_relaxed);
  }

  // Retains the sample iff it is an error, a shed, or slower than the
  // threshold. Returns true when retained.
  bool Offer(const TailSample& sample);

  // Retained samples, oldest first.
  std::vector<TailSample> Snapshot() const;
  // The k slowest retained samples, slowest first.
  std::vector<TailSample> TopSlowest(size_t k) const;

  void Reset();

 private:
  TailSampler() = default;

  std::atomic<double> slow_threshold_s_{0.100};
  mutable std::mutex mu_;
  size_t capacity_ = kDefaultCapacity;
  size_t next_ = 0;      // ring write index
  bool wrapped_ = false;
  std::vector<TailSample> samples_;
};

}  // namespace obs
}  // namespace indaas

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
