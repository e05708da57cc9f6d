#include "src/obs/profiler.h"

#include <errno.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "src/obs/metrics.h"
#include "src/obs/propagate.h"
#include "src/obs/seqlock_ring.h"
#include "src/obs/trace.h"

// Older glibc exposes the SIGEV_THREAD_ID target tid only through the
// union's internal name.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace indaas {
namespace obs {
namespace {

// Process-wide sampling switches. Plain globals with constant initialization
// so the allocation hook can consult them before main() and the SIGPROF
// handler can consult them without touching anything lazily constructed.
std::atomic<bool> g_cpu_sampling{false};
std::atomic<bool> g_alloc_sampling{false};
std::atomic<uint64_t> g_alloc_interval{512 * 1024};

// Re-entrancy guard for the allocation hook: recording a sample must never
// re-enter operator new, but the guard also protects against surprises in
// instrumented builds.
thread_local bool g_in_alloc_hook = false;

// Walks a frame-pointer chain. Every dereference is validated against the
// thread's stack bounds so a foreign or corrupt chain terminates the walk
// instead of faulting; the walk also insists frames move strictly upward,
// which defeats cycles. Async-signal-safe: reads memory and nothing else.
// `pc` (the interrupted instruction) is emitted first when nonzero.
size_t UnwindFramePointers(uintptr_t pc, uintptr_t fp, uintptr_t stack_lo,
                           uintptr_t stack_hi, uintptr_t* out, size_t max) {
  size_t n = 0;
  if (pc != 0 && n < max) out[n++] = pc;
  while (n < max) {
    if (fp < stack_lo || fp + 2 * sizeof(uintptr_t) > stack_hi ||
        (fp & (sizeof(uintptr_t) - 1)) != 0) {
      break;
    }
    const uintptr_t next_fp = *reinterpret_cast<const uintptr_t*>(fp);
    const uintptr_t ret = *reinterpret_cast<const uintptr_t*>(fp + sizeof(uintptr_t));
    if (ret < 0x1000) break;  // not a plausible code address
    out[n++] = ret;
    if (next_fp <= fp) break;  // frames must move up the stack
    fp = next_fp;
  }
  return n;
}

// dl_iterate_phdr callback: the first entry is the main executable; its
// dlpi_addr is the PIE relocation base symbolizers must subtract.
int FirstPhdrEntry(struct dl_phdr_info* info, size_t /*size*/, void* data) {
  *static_cast<uintptr_t*>(data) = static_cast<uintptr_t>(info->dlpi_addr);
  return 1;  // stop after the first entry
}

}  // namespace

uintptr_t ExecutableLoadBase() {
  static const uintptr_t base = [] {
    uintptr_t value = 0;
    dl_iterate_phdr(FirstPhdrEntry, &value);
    return value;
  }();
  return base;
}

const std::string& ExecutablePath() {
  static const std::string* path = [] {
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n < 0) n = 0;
    buf[n] = '\0';
    return new std::string(buf);
  }();
  return *path;
}

// --- Rings and thread state -------------------------------------------------

// One sample slot: fixed-size so the seqlock stays word-granular. meta packs
// tid (high 32) | flags (bits 17:16 = truncated, alloc) | depth (low 16);
// 0 = never written.
struct SampleSlot {
  std::atomic<uint64_t> t_us{0};
  std::atomic<uint64_t> trace_id{0};
  std::atomic<uint64_t> weight{0};
  std::atomic<uint64_t> meta{0};
  std::array<std::atomic<uint64_t>, Profiler::kMaxFrames> pcs{};
};

// Single-writer sample ring (src/obs/seqlock_ring.h). The CPU ring's
// writer is the owning thread's SIGPROF handler; the alloc ring's writer is
// the owning thread in normal context — the handler may interrupt an
// alloc-ring write, which is exactly why the two collectors never share a
// ring. `tail` is the drainer's read cursor; only the drainer (under the
// profiler mutex) touches it.
struct Profiler::Ring {
  SeqlockRing<SampleSlot, kRingCapacity> samples;
  uint64_t tail = 0;
};

struct Profiler::ThreadState {
  Ring* cpu_ring = nullptr;
  Ring* alloc_ring = nullptr;
  uintptr_t stack_lo = 0;
  uintptr_t stack_hi = 0;
  // Captured at registration so the signal handler reads the ambient trace
  // id through a plain pointer — no TLS resolution in signal context.
  const uint64_t* trace_id_slot = nullptr;
  uint32_t trace_tid = 0;
  pid_t kernel_tid = 0;
  clockid_t cpu_clockid = 0;
  timer_t timer{};
  bool timer_armed = false;
  // Bytes until the next allocation sample; owner-thread mutated, reset by
  // Start() (benign cross-thread store, hence atomic relaxed).
  std::atomic<int64_t> alloc_budget{0};
  // Claimed by a live thread; cleared at thread exit so the state (and its
  // rings) can be adopted instead of leaking one per thread ever made.
  std::atomic<bool> in_use{false};
};

namespace {

thread_local Profiler::ThreadState* g_tls_state = nullptr;

// Appends one sample to `ring`. Async-signal-safe (SeqlockRing::Append).
void WriteSample(Profiler::Ring* ring, const uintptr_t* frames, size_t depth,
                 uint64_t weight, bool truncated, bool alloc, uint64_t trace_id,
                 uint32_t tid) {
  ring->samples.Append([&](SampleSlot& slot) {
    slot.t_us.store(TraceNowMicros(), std::memory_order_relaxed);
    slot.trace_id.store(trace_id, std::memory_order_relaxed);
    slot.weight.store(weight, std::memory_order_relaxed);
    for (size_t i = 0; i < depth; ++i) {
      slot.pcs[i].store(frames[i], std::memory_order_relaxed);
    }
    const uint64_t meta = (static_cast<uint64_t>(tid) << 32) |
                          (truncated ? 1ull << 17 : 0) | (alloc ? 1ull << 16 : 0) |
                          (depth & 0xffff);
    slot.meta.store(meta, std::memory_order_relaxed);
  });
}

// The SIGPROF handler. Everything here follows the signal-safety rules in
// profiler.h: plain loads, a bounded frame-pointer walk, ring stores.
void OnProfSignal(int /*signo*/, siginfo_t* /*info*/, void* ucontext_raw) {
  Profiler::ThreadState* state = g_tls_state;
  if (state == nullptr || !g_cpu_sampling.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext_raw);
  uintptr_t pc = 0;
  uintptr_t fp = 0;
#if defined(__x86_64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  (void)uc;
#endif
  if (pc == 0) {
    errno = saved_errno;
    return;
  }
  uintptr_t frames[Profiler::kMaxFrames];
  const size_t depth = UnwindFramePointers(pc, fp, state->stack_lo, state->stack_hi,
                                           frames, Profiler::kMaxFrames);
  const uint64_t trace_id =
      state->trace_id_slot != nullptr ? *state->trace_id_slot : 0;
  WriteSample(state->cpu_ring, frames, depth, /*weight=*/1,
              depth == Profiler::kMaxFrames, /*alloc=*/false, trace_id,
              state->trace_tid);
  errno = saved_errno;
}

void CaptureStackBounds(uintptr_t* lo, uintptr_t* hi) {
  *lo = 0;
  *hi = 0;
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  void* addr = nullptr;
  size_t size = 0;
  if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
    *lo = reinterpret_cast<uintptr_t>(addr);
    *hi = *lo + size;
  }
  pthread_attr_destroy(&attr);
}

// Drainer wakeup; lives outside the class so the header stays free of
// <condition_variable>.
std::condition_variable g_drainer_cv;

}  // namespace

// --- Profiler ---------------------------------------------------------------

Profiler& Profiler::Global() {
  static Profiler* profiler = new Profiler();  // leaked: signal handlers
  return *profiler;
}

Profiler::Profiler() {
  // Pre-create the counters the drainer folds into (and that servers
  // pre-register for scrapes); pointers from the registry are stable.
  MetricsRegistry::Global().GetCounter("obs.profile.samples");
  MetricsRegistry::Global().GetCounter("obs.profile.dropped");
  MetricsRegistry::Global().GetCounter("obs.profile.truncated_stacks");

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = OnProfSignal;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGPROF, &sa, nullptr);
}

void Profiler::RegisterCurrentThread() {
  if (g_tls_state != nullptr) return;

  // Thread-exit hook: parks the state (and disarms its timer) so a later
  // thread can adopt it.
  struct TlsHolder {
    Profiler* profiler = nullptr;
    ThreadState* state = nullptr;
    ~TlsHolder() {
      if (state == nullptr) return;
      // Null the TLS pointer first: a signal pending from the dying timer
      // must find nothing to write through once the state is parked.
      g_tls_state = nullptr;
      std::lock_guard<std::mutex> lock(profiler->mu_);
      profiler->DisarmTimerLocked(state);
      state->in_use.store(false, std::memory_order_release);
    }
  };
  static thread_local TlsHolder holder;

  std::lock_guard<std::mutex> lock(mu_);
  ThreadState* state = nullptr;
  for (size_t i = 0; i < kMaxThreads; ++i) {
    ThreadState* existing = threads_[i].load(std::memory_order_acquire);
    if (existing != nullptr) {
      bool free_state = false;
      if (existing->in_use.compare_exchange_strong(free_state, true,
                                                   std::memory_order_acq_rel)) {
        state = existing;  // adopted from an exited thread
        break;
      }
      continue;
    }
    ThreadState* fresh = new ThreadState();
    fresh->cpu_ring = new Ring();
    fresh->alloc_ring = new Ring();
    fresh->in_use.store(true, std::memory_order_relaxed);
    threads_[i].store(fresh, std::memory_order_release);
    thread_count_.fetch_add(1, std::memory_order_relaxed);
    state = fresh;
    break;
  }
  if (state == nullptr) return;  // kMaxThreads live threads — stay unsampled

  CaptureStackBounds(&state->stack_lo, &state->stack_hi);
  state->trace_id_slot = CurrentTraceIdAddress();
  state->trace_tid = TraceThreadId();
  state->kernel_tid = static_cast<pid_t>(::syscall(SYS_gettid));
  if (pthread_getcpuclockid(pthread_self(), &state->cpu_clockid) != 0) {
    state->cpu_clockid = CLOCK_THREAD_CPUTIME_ID;
  }
  // Discard anything a previous owner left unread.
  state->cpu_ring->tail = state->cpu_ring->samples.head();
  state->alloc_ring->tail = state->alloc_ring->samples.head();
  state->alloc_budget.store(
      static_cast<int64_t>(g_alloc_interval.load(std::memory_order_relaxed)),
      std::memory_order_relaxed);

  holder.profiler = this;
  holder.state = state;
  // Publish to TLS before arming: the first SIGPROF must find the state.
  g_tls_state = state;
  if (running_.load(std::memory_order_relaxed)) ArmTimerLocked(state);
}

void Profiler::ArmTimerLocked(ThreadState* state) {
  if (state->timer_armed || options_.hz == 0) return;
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = state->kernel_tid;
  if (::timer_create(state->cpu_clockid, &sev, &state->timer) != 0) return;
  const long interval_ns = static_cast<long>(1000000000ull / options_.hz);
  struct itimerspec its;
  its.it_interval.tv_sec = interval_ns / 1000000000;
  its.it_interval.tv_nsec = interval_ns % 1000000000;
  its.it_value = its.it_interval;
  if (::timer_settime(state->timer, 0, &its, nullptr) != 0) {
    ::timer_delete(state->timer);
    return;
  }
  state->timer_armed = true;
}

void Profiler::DisarmTimerLocked(ThreadState* state) {
  if (!state->timer_armed) return;
  ::timer_delete(state->timer);
  state->timer_armed = false;
}

Status Profiler::Start(const ProfileOptions& options) {
  if (options.hz < 1 || options.hz > kMaxHz) {
    return Status(StatusCode::kInvalidArgument, "profile hz out of range [1, 1000]");
  }
  if (options.alloc && options.alloc_interval_bytes == 0) {
    return Status(StatusCode::kInvalidArgument, "alloc_interval_bytes must be nonzero");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (running_.load(std::memory_order_relaxed) || stopping_) {
    return Status(StatusCode::kUnavailable, "a profile session is already running");
  }
  options_ = options;
  buffer_.clear();
  buffer_trace_ids_.clear();
  dropped_ = 0;
  truncated_ = 0;
  session_start_us_ = TraceNowMicros();
  g_alloc_interval.store(options.alloc_interval_bytes, std::memory_order_relaxed);
  for (size_t i = 0; i < kMaxThreads; ++i) {
    ThreadState* state = threads_[i].load(std::memory_order_acquire);
    if (state == nullptr) break;
    // Discard samples from before this session.
    state->cpu_ring->tail = state->cpu_ring->samples.head();
    state->alloc_ring->tail = state->alloc_ring->samples.head();
    state->alloc_budget.store(static_cast<int64_t>(options.alloc_interval_bytes),
                              std::memory_order_relaxed);
    if (state->in_use.load(std::memory_order_acquire)) ArmTimerLocked(state);
  }
  g_cpu_sampling.store(true, std::memory_order_relaxed);
  g_alloc_sampling.store(options.alloc, std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);
  drainer_stop_.store(false, std::memory_order_relaxed);
  drainer_ = std::thread([this] { DrainLoop(); });
  return Status::Ok();
}

ProfileData Profiler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_.load(std::memory_order_relaxed)) return ProfileData();
    running_.store(false, std::memory_order_release);
    stopping_ = true;
    g_cpu_sampling.store(false, std::memory_order_relaxed);
    g_alloc_sampling.store(false, std::memory_order_relaxed);
    for (size_t i = 0; i < kMaxThreads; ++i) {
      ThreadState* state = threads_[i].load(std::memory_order_acquire);
      if (state == nullptr) break;
      DisarmTimerLocked(state);
    }
    drainer_stop_.store(true, std::memory_order_relaxed);
  }
  g_drainer_cv.notify_all();
  if (drainer_.joinable()) drainer_.join();

  std::lock_guard<std::mutex> lock(mu_);
  DrainOnce();
  ProfileData data;
  data.hz = options_.hz;
  data.start_us = session_start_us_;
  data.end_us = TraceNowMicros();
  data.exe_base = ExecutableLoadBase();
  data.exe_path = ExecutablePath();
  data.dropped = dropped_;
  data.truncated_stacks = truncated_;
  data.trace_ids = std::move(buffer_trace_ids_);
  data.samples.assign(std::make_move_iterator(buffer_.begin()),
                      std::make_move_iterator(buffer_.end()));
  buffer_.clear();
  buffer_trace_ids_.clear();
  stopping_ = false;
  return data;
}

Result<ProfileData> Profiler::WindowedCapture(uint32_t hz, uint32_t seconds,
                                              bool alloc) {
  if (seconds < 1 || seconds > kMaxWindowSeconds) {
    return Status(StatusCode::kInvalidArgument, "profile seconds out of range [1, 60]");
  }
  if (running_.load(std::memory_order_acquire)) {
    // Continuous mode: cut a time window out of the running session without
    // disturbing it. The session's own frequency applies, not `hz`.
    // Snapshot the loss counters first so the window reports its own
    // delta, not hours of session-cumulative drops.
    uint64_t dropped_before = 0;
    uint64_t truncated_before = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      DrainOnce();  // fold pre-window ring contents into the baseline
      dropped_before = dropped_;
      truncated_before = truncated_;
    }
    const uint64_t window_start = TraceNowMicros();
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    std::lock_guard<std::mutex> lock(mu_);
    DrainOnce();  // pick up the freshest ring contents
    ProfileData data;
    data.hz = options_.hz;
    data.start_us = window_start;
    data.end_us = TraceNowMicros();
    data.exe_base = ExecutableLoadBase();
    data.exe_path = ExecutablePath();
    // Saturating deltas: a Stop/Start race during the window resets the
    // counters, in which case the post-reset values are the closest truth.
    data.dropped = dropped_ >= dropped_before ? dropped_ - dropped_before : dropped_;
    data.truncated_stacks =
        truncated_ >= truncated_before ? truncated_ - truncated_before : truncated_;
    for (const ProfileSample& sample : buffer_) {
      if (sample.t_us < window_start) continue;
      data.samples.push_back(sample);
      if (sample.trace_id != 0 && data.trace_ids.size() < kMaxWindowTraceIds &&
          std::find(data.trace_ids.begin(), data.trace_ids.end(), sample.trace_id) ==
              data.trace_ids.end()) {
        data.trace_ids.push_back(sample.trace_id);
      }
    }
    return data;
  }
  ProfileOptions options;
  options.hz = hz;
  options.alloc = alloc;
  Status started = Start(options);
  if (!started.ok()) return started;
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  return Stop();
}

void Profiler::DrainLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!drainer_stop_.load(std::memory_order_relaxed)) {
    g_drainer_cv.wait_for(lock, std::chrono::milliseconds(20));
    DrainOnce();
  }
}

size_t Profiler::DrainOnce() {
  Counter* samples_counter = MetricsRegistry::Global().GetCounter("obs.profile.samples");
  Counter* dropped_counter = MetricsRegistry::Global().GetCounter("obs.profile.dropped");
  Counter* truncated_counter =
      MetricsRegistry::Global().GetCounter("obs.profile.truncated_stacks");
  size_t moved = 0;
  uint64_t dropped_now = 0;
  uint64_t truncated_now = 0;
  for (size_t t = 0; t < kMaxThreads; ++t) {
    ThreadState* state = threads_[t].load(std::memory_order_acquire);
    if (state == nullptr) break;
    for (Ring* ring : {state->cpu_ring, state->alloc_ring}) {
      ring->tail = ring->samples.ReadFrom(
          ring->tail,
          [](const SampleSlot& slot) {
            ProfileSample sample;
            sample.t_us = slot.t_us.load(std::memory_order_relaxed);
            sample.trace_id = slot.trace_id.load(std::memory_order_relaxed);
            sample.weight = slot.weight.load(std::memory_order_relaxed);
            const uint64_t meta = slot.meta.load(std::memory_order_relaxed);
            sample.frames.resize(std::min<size_t>(meta & 0xffff, kMaxFrames));
            for (size_t i = 0; i < sample.frames.size(); ++i) {
              sample.frames[i] =
                  static_cast<uintptr_t>(slot.pcs[i].load(std::memory_order_relaxed));
            }
            sample.tid = static_cast<uint32_t>(meta >> 32);
            sample.truncated = (meta & (1ull << 17)) != 0;
            sample.alloc = (meta & (1ull << 16)) != 0;
            return sample;
          },
          [&](const ProfileSample& sample) {
            if (sample.frames.empty()) return;  // never-written slot
            if (sample.truncated) ++truncated_now;
            AppendLocked(sample);
            ++moved;
          },
          &dropped_now);
    }
  }
  if (options_.continuous) {
    // Sliding-window retention: nobody can request a window longer than
    // kMaxWindowSeconds, so anything older (plus slack for drainer latency)
    // is unreachable — evict it instead of letting the buffer saturate and
    // starve future windows. Aging out is not sample loss, so no drop count.
    const uint64_t horizon_us =
        static_cast<uint64_t>(kMaxWindowSeconds + 2) * 1000000ull;
    const uint64_t now_us = TraceNowMicros();
    const uint64_t cutoff_us = now_us > horizon_us ? now_us - horizon_us : 0;
    while (!buffer_.empty() && buffer_.front().t_us < cutoff_us) {
      buffer_.pop_front();
    }
  }
  samples_counter->Add(moved);
  if (dropped_now > 0) dropped_counter->Add(dropped_now);
  if (truncated_now > 0) truncated_counter->Add(truncated_now);
  dropped_ += dropped_now;
  truncated_ += truncated_now;
  return moved;
}

void Profiler::AppendLocked(const ProfileSample& sample) {
  if (buffer_.size() >= kMaxSessionSamples) {
    if (options_.continuous) {
      // The age-based sweep could not keep the buffer under the cap (a
      // sustained sample rate over ~17k/s): shed the oldest so the newest
      // window stays intact. These were inside the retention horizon, so
      // they do count as dropped.
      buffer_.pop_front();
      ++dropped_;
    } else {
      ++dropped_;
      return;
    }
  }
  if (sample.trace_id != 0 && buffer_trace_ids_.size() < kMaxWindowTraceIds &&
      std::find(buffer_trace_ids_.begin(), buffer_trace_ids_.end(), sample.trace_id) ==
          buffer_trace_ids_.end()) {
    buffer_trace_ids_.push_back(sample.trace_id);
  }
  buffer_.push_back(sample);
}

void Profiler::OnAlloc(size_t size) {
  if (!g_alloc_sampling.load(std::memory_order_relaxed)) return;
  ThreadState* state = g_tls_state;
  if (state == nullptr || g_in_alloc_hook) return;
  const int64_t budget =
      state->alloc_budget.load(std::memory_order_relaxed) - static_cast<int64_t>(size);
  if (budget > 0) {
    state->alloc_budget.store(budget, std::memory_order_relaxed);
    return;
  }
  g_in_alloc_hook = true;
  const int64_t interval =
      static_cast<int64_t>(g_alloc_interval.load(std::memory_order_relaxed));
  state->alloc_budget.store(interval, std::memory_order_relaxed);
  // The sample stands for every byte allocated since the previous one.
  const uint64_t weight = static_cast<uint64_t>(interval - budget);
  uintptr_t frames[kMaxFrames];
  const uintptr_t fp = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
  const size_t depth = UnwindFramePointers(/*pc=*/0, fp, state->stack_lo,
                                           state->stack_hi, frames, kMaxFrames);
  if (depth > 0) {
    const uint64_t trace_id =
        state->trace_id_slot != nullptr ? *state->trace_id_slot : 0;
    WriteSample(state->alloc_ring, frames, depth, weight, depth == kMaxFrames,
                /*alloc=*/true, trace_id, state->trace_tid);
  }
  g_in_alloc_hook = false;
}

// --- Dump format ------------------------------------------------------------

namespace {

constexpr char kProfileDumpHeader[] = "# indaas-profile v1";

void AppendHex(std::string* out, uint64_t value) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(value));
  out->append(buf);
}

bool ParseU64(std::string_view token, uint64_t* out) {
  if (token.empty()) return false;
  uint64_t value = 0;
  size_t i = 0;
  if (token.size() > 2 && token[0] == '0' && (token[1] == 'x' || token[1] == 'X')) {
    for (i = 2; i < token.size(); ++i) {
      const char c = token[i];
      uint64_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint64_t>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint64_t>(c - 'A') + 10;
      } else {
        return false;
      }
      value = (value << 4) | digit;
    }
  } else {
    for (; i < token.size(); ++i) {
      if (token[i] < '0' || token[i] > '9') return false;
      value = value * 10 + static_cast<uint64_t>(token[i] - '0');
    }
  }
  *out = value;
  return true;
}

std::vector<std::string_view> SplitTokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    size_t end = pos;
    while (end < line.size() && line[end] != ' ') ++end;
    if (end > pos) tokens.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  return tokens;
}

}  // namespace

std::string ProfileToDumpText(const ProfileData& data) {
  std::string out;
  out.reserve(64 + data.samples.size() * 96);
  out += kProfileDumpHeader;
  out += "\n# exe ";
  out += data.exe_path;
  out += "\n# base ";
  AppendHex(&out, data.exe_base);
  out += "\n# hz ";
  out += std::to_string(data.hz);
  out += "\n# window_us ";
  out += std::to_string(data.start_us);
  out += ' ';
  out += std::to_string(data.end_us);
  out += "\n# counts samples ";
  out += std::to_string(data.samples.size());
  out += " dropped ";
  out += std::to_string(data.dropped);
  out += " truncated ";
  out += std::to_string(data.truncated_stacks);
  out += '\n';
  if (!data.trace_ids.empty()) {
    out += "# trace_ids";
    for (uint64_t id : data.trace_ids) {
      out += ' ';
      AppendHex(&out, id);
    }
    out += '\n';
  }
  for (const ProfileSample& sample : data.samples) {
    out += sample.alloc ? "alloc " : "cpu ";
    out += std::to_string(sample.t_us);
    out += ' ';
    AppendHex(&out, sample.trace_id);
    out += ' ';
    out += std::to_string(sample.tid);
    out += ' ';
    out += std::to_string(sample.weight);
    for (uintptr_t pc : sample.frames) {
      out += ' ';
      AppendHex(&out, pc);
    }
    if (sample.truncated) out += " T";
    out += '\n';
  }
  return out;
}

bool ParseProfileDumpText(const std::string& text, ProfileData* out) {
  *out = ProfileData();
  bool saw_header = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::vector<std::string_view> tokens = SplitTokens(line.substr(1));
      if (tokens.empty()) continue;
      if (!saw_header) {
        // The first comment line must be the version header.
        if (line == kProfileDumpHeader) {
          saw_header = true;
          continue;
        }
        return false;
      }
      uint64_t value = 0;
      if (tokens[0] == "exe" && tokens.size() >= 2) {
        out->exe_path.assign(tokens[1].data(), tokens[1].size());
      } else if (tokens[0] == "base" && tokens.size() >= 2 && ParseU64(tokens[1], &value)) {
        out->exe_base = static_cast<uintptr_t>(value);
      } else if (tokens[0] == "hz" && tokens.size() >= 2 && ParseU64(tokens[1], &value)) {
        out->hz = static_cast<uint32_t>(value);
      } else if (tokens[0] == "window_us" && tokens.size() >= 3) {
        uint64_t end = 0;
        if (ParseU64(tokens[1], &value) && ParseU64(tokens[2], &end)) {
          out->start_us = value;
          out->end_us = end;
        }
      } else if (tokens[0] == "counts") {
        for (size_t i = 1; i + 1 < tokens.size(); i += 2) {
          if (!ParseU64(tokens[i + 1], &value)) continue;
          if (tokens[i] == "dropped") out->dropped = value;
          if (tokens[i] == "truncated") out->truncated_stacks = value;
        }
      } else if (tokens[0] == "trace_ids") {
        for (size_t i = 1; i < tokens.size() && i <= Profiler::kMaxWindowTraceIds; ++i) {
          if (ParseU64(tokens[i], &value)) out->trace_ids.push_back(value);
        }
      }
      continue;
    }
    if (!saw_header) return false;
    std::vector<std::string_view> tokens = SplitTokens(line);
    if (tokens.size() < 5) continue;
    ProfileSample sample;
    if (tokens[0] == "cpu") {
      sample.alloc = false;
    } else if (tokens[0] == "alloc") {
      sample.alloc = true;
    } else {
      continue;
    }
    uint64_t t_us = 0;
    uint64_t trace_id = 0;
    uint64_t tid = 0;
    uint64_t weight = 0;
    if (!ParseU64(tokens[1], &t_us) || !ParseU64(tokens[2], &trace_id) ||
        !ParseU64(tokens[3], &tid) || !ParseU64(tokens[4], &weight)) {
      continue;
    }
    sample.t_us = t_us;
    sample.trace_id = trace_id;
    sample.tid = static_cast<uint32_t>(tid);
    sample.weight = weight;
    for (size_t i = 5; i < tokens.size(); ++i) {
      if (tokens[i] == "T") {
        sample.truncated = true;
        continue;
      }
      uint64_t pc = 0;
      if (!ParseU64(tokens[i], &pc)) continue;
      if (sample.frames.size() < Profiler::kMaxFrames) {
        sample.frames.push_back(static_cast<uintptr_t>(pc));
      }
    }
    if (sample.frames.empty()) continue;
    if (out->samples.size() < Profiler::kMaxSessionSamples) {
      out->samples.push_back(std::move(sample));
    }
  }
  return saw_header;
}

}  // namespace obs
}  // namespace indaas

// --- Global allocation hooks ------------------------------------------------
//
// Replacing the global operators is what lets the profiler attribute heap
// churn without a malloc shim or LD_PRELOAD. These definitions live in
// profiler.o, so only binaries that link the profiler get the hook; when
// sampling is off the overhead is one relaxed atomic load per allocation.

void* operator new(std::size_t size) {
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  indaas::obs::Profiler::OnAlloc(size);
  return ptr;
}

void* operator new[](std::size_t size) {
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  indaas::obs::Profiler::OnAlloc(size);
  return ptr;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr != nullptr) indaas::obs::Profiler::OnAlloc(size);
  return ptr;
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr != nullptr) indaas::obs::Profiler::OnAlloc(size);
  return ptr;
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* ptr = std::aligned_alloc(static_cast<std::size_t>(align),
                                 (size + static_cast<std::size_t>(align) - 1) &
                                     ~(static_cast<std::size_t>(align) - 1));
  if (ptr == nullptr) throw std::bad_alloc();
  indaas::obs::Profiler::OnAlloc(size);
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* ptr = std::aligned_alloc(static_cast<std::size_t>(align),
                                 (size + static_cast<std::size_t>(align) - 1) &
                                     ~(static_cast<std::size_t>(align) - 1));
  if (ptr == nullptr) throw std::bad_alloc();
  indaas::obs::Profiler::OnAlloc(size);
  return ptr;
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
