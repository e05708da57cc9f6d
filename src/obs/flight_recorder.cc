#include "src/obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "src/obs/trace.h"

namespace indaas {
namespace obs {
namespace {

// Async-signal-safe u64 → decimal. Returns the number of chars written
// (no terminator). `buf` must hold at least 20 chars.
size_t FormatU64(uint64_t value, char* buf) {
  char tmp[20];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  for (size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

void WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n <= 0) return;  // nothing sensible to do in signal context
    data += n;
    size -= static_cast<size_t>(n);
  }
}

// One dump line: "t_us tid type code a b trace_id\n". Returns length.
size_t FormatEventLine(const FlightEvent& event, char* buf) {
  size_t pos = 0;
  const uint64_t fields[7] = {event.t_us,
                              event.tid,
                              static_cast<uint64_t>(event.type),
                              event.code,
                              event.a,
                              event.b,
                              event.trace_id};
  for (int i = 0; i < 7; ++i) {
    if (i != 0) buf[pos++] = ' ';
    pos += FormatU64(fields[i], buf + pos);
  }
  buf[pos++] = '\n';
  return pos;
}

constexpr char kDumpHeader[] = "# indaas-flight-recorder v1\n";

// Synthetic trailer event marking when (and on which thread) this dump was
// taken — the anchor a post-mortem aligns the event tail against.
FlightEvent DumpMarkerEvent() {
  FlightEvent event;
  event.t_us = TraceNowMicros();
  event.tid = TraceThreadId();
  event.type = FlightEventType::kDump;
  return event;
}

}  // namespace

const char* FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kNone:
      return "none";
    case FlightEventType::kAccept:
      return "accept";
    case FlightEventType::kConnClose:
      return "conn_close";
    case FlightEventType::kShed:
      return "shed";
    case FlightEventType::kSlowReaderDrop:
      return "slow_reader_drop";
    case FlightEventType::kReadDeadline:
      return "read_deadline";
    case FlightEventType::kRpcBegin:
      return "rpc_begin";
    case FlightEventType::kRpcEnd:
      return "rpc_end";
    case FlightEventType::kLoopLag:
      return "loop_lag";
    case FlightEventType::kDump:
      return "dump";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked: signal handlers
  return *recorder;
}

FlightRecorder::ThreadRingHolder::~ThreadRingHolder() {
  if (ring != nullptr) ring->in_use.store(false, std::memory_order_release);
}

FlightRecorder::Ring* FlightRecorder::AcquireRing() {
  for (size_t i = 0; i < kMaxRings; ++i) {
    Ring* existing = rings_[i].load(std::memory_order_acquire);
    if (existing != nullptr) {
      bool free_ring = false;
      if (existing->in_use.compare_exchange_strong(free_ring, true,
                                                   std::memory_order_acq_rel)) {
        return existing;  // adopted a parked ring from an exited thread
      }
      continue;
    }
    Ring* fresh = new Ring();
    fresh->in_use.store(true, std::memory_order_relaxed);
    Ring* expected = nullptr;
    if (rings_[i].compare_exchange_strong(expected, fresh, std::memory_order_acq_rel)) {
      ring_count_.fetch_add(1, std::memory_order_relaxed);
      return fresh;
    }
    delete fresh;
    --i;  // slot was filled concurrently; try to adopt it
  }
  return nullptr;  // kMaxRings live threads — stop recording on this one
}

FlightRecorder::Ring* FlightRecorder::ThreadRing() {
  static thread_local ThreadRingHolder holder;
  if (holder.ring == nullptr) holder.ring = AcquireRing();
  return holder.ring;
}

void FlightRecorder::Record(FlightEventType type, uint64_t a, uint64_t b, uint16_t code,
                            uint64_t trace_id) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Ring* ring = ThreadRing();
  if (ring == nullptr) return;
  ring->events.Append([&](Slot& slot) {
    slot.t_us.store(TraceNowMicros(), std::memory_order_relaxed);
    slot.trace_id.store(trace_id, std::memory_order_relaxed);
    slot.a.store(a, std::memory_order_relaxed);
    slot.b.store(b, std::memory_order_relaxed);
    const uint64_t meta = (static_cast<uint64_t>(TraceThreadId()) << 32) |
                          (static_cast<uint64_t>(type) << 16) | code;
    slot.meta.store(meta, std::memory_order_relaxed);
  });
}

template <typename Emit>
void FlightRecorder::ReadRing(const Ring& ring, Emit&& emit) {
  ring.events.ReadFrom(
      0,
      [](const Slot& slot) {
        FlightEvent event;
        event.t_us = slot.t_us.load(std::memory_order_relaxed);
        event.trace_id = slot.trace_id.load(std::memory_order_relaxed);
        event.a = slot.a.load(std::memory_order_relaxed);
        event.b = slot.b.load(std::memory_order_relaxed);
        const uint64_t meta = slot.meta.load(std::memory_order_relaxed);
        event.tid = static_cast<uint32_t>(meta >> 32);
        event.type = static_cast<FlightEventType>((meta >> 16) & 0xffff);
        event.code = static_cast<uint16_t>(meta & 0xffff);
        return event;
      },
      [&](const FlightEvent& event) {
        // kNone marks a never-written slot; Record is never passed it.
        if (event.type != FlightEventType::kNone) emit(event);
      });
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> out;
  for (size_t i = 0; i < kMaxRings; ++i) {
    const Ring* ring = rings_[i].load(std::memory_order_acquire);
    if (ring == nullptr) break;  // rings are filled left to right
    ReadRing(*ring, [&](const FlightEvent& event) { out.push_back(event); });
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& x, const FlightEvent& y) { return x.t_us < y.t_us; });
  return out;
}

std::string FlightRecorder::DumpText() const {
  std::string out = kDumpHeader;
  char line[8 * 24];
  for (const FlightEvent& event : Snapshot()) {
    out.append(line, FormatEventLine(event, line));
  }
  out.append(line, FormatEventLine(DumpMarkerEvent(), line));
  return out;
}

void FlightRecorder::DumpToFd(int fd) const {
  WriteAll(fd, kDumpHeader, sizeof(kDumpHeader) - 1);
  char line[8 * 24];
  for (size_t i = 0; i < kMaxRings; ++i) {
    const Ring* ring = rings_[i].load(std::memory_order_acquire);
    if (ring == nullptr) break;
    ReadRing(*ring, [&](const FlightEvent& event) {
      WriteAll(fd, line, FormatEventLine(event, line));
    });
  }
  WriteAll(fd, line, FormatEventLine(DumpMarkerEvent(), line));
}

size_t FlightRecorder::ParseDumpText(std::string_view text, std::vector<FlightEvent>* out) {
  size_t parsed = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    if (line.empty() || line[0] == '#') continue;
    uint64_t fields[7];
    size_t cursor = 0;
    int field = 0;
    bool bad = false;
    while (field < 7) {
      while (cursor < line.size() && line[cursor] == ' ') ++cursor;
      if (cursor >= line.size() || line[cursor] < '0' || line[cursor] > '9') {
        bad = true;
        break;
      }
      uint64_t value = 0;
      while (cursor < line.size() && line[cursor] >= '0' && line[cursor] <= '9') {
        value = value * 10 + static_cast<uint64_t>(line[cursor] - '0');
        ++cursor;
      }
      fields[field++] = value;
    }
    if (bad) continue;
    FlightEvent event;
    event.t_us = fields[0];
    event.tid = static_cast<uint32_t>(fields[1]);
    event.type = static_cast<FlightEventType>(fields[2]);
    event.code = static_cast<uint16_t>(fields[3]);
    event.a = fields[4];
    event.b = fields[5];
    event.trace_id = fields[6];
    out->push_back(event);
    ++parsed;
  }
  return parsed;
}

// --- Signal handlers --------------------------------------------------------

namespace {

char g_dump_path[512] = {0};

// Everything here must stay async-signal-safe: open/write/close only.
void DumpToConfiguredPath() {
  int fd = STDERR_FILENO;
  bool opened = false;
  if (g_dump_path[0] != '\0') {
    int file = ::open(g_dump_path, O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (file >= 0) {
      fd = file;
      opened = true;
    }
  }
  FlightRecorder::Global().DumpToFd(fd);
  if (opened) ::close(fd);
}

void OnDumpSignal(int /*signo*/) { DumpToConfiguredPath(); }

void OnFatalSignal(int signo) {
  DumpToConfiguredPath();
  struct sigaction dfl;
  std::memset(&dfl, 0, sizeof(dfl));
  dfl.sa_handler = SIG_DFL;
  ::sigaction(signo, &dfl, nullptr);
  ::raise(signo);
}

}  // namespace

void InstallFlightRecorderSignalHandlers(const std::string& path) {
  std::snprintf(g_dump_path, sizeof(g_dump_path), "%s", path.c_str());
  FlightRecorder::Global();  // construct outside signal context

  struct sigaction dump;
  std::memset(&dump, 0, sizeof(dump));
  dump.sa_handler = OnDumpSignal;
  ::sigemptyset(&dump.sa_mask);
  dump.sa_flags = SA_RESTART;
  ::sigaction(SIGUSR2, &dump, nullptr);

  struct sigaction fatal;
  std::memset(&fatal, 0, sizeof(fatal));
  fatal.sa_handler = OnFatalSignal;
  ::sigemptyset(&fatal.sa_mask);
  for (int signo : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL}) {
    ::sigaction(signo, &fatal, nullptr);
  }
}

// --- Tail sampler -----------------------------------------------------------

const char* RpcStageName(RpcStage stage) {
  switch (stage) {
    case RpcStage::kRead:
      return "read";
    case RpcStage::kDecode:
      return "decode";
    case RpcStage::kQueue:
      return "queue";
    case RpcStage::kCompute:
      return "compute";
    case RpcStage::kEncode:
      return "encode";
    case RpcStage::kWrite:
      return "write";
  }
  return "unknown";
}

const char* TailOutcomeName(TailOutcome outcome) {
  switch (outcome) {
    case TailOutcome::kSlow:
      return "slow";
    case TailOutcome::kError:
      return "error";
    case TailOutcome::kShed:
      return "shed";
  }
  return "unknown";
}

TailSampler& TailSampler::Global() {
  static TailSampler* sampler = new TailSampler();
  return *sampler;
}

void TailSampler::Configure(double slow_threshold_s, size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  slow_threshold_s_.store(slow_threshold_s, std::memory_order_relaxed);
  capacity_ = capacity > 0 ? capacity : 1;
  samples_.clear();
  samples_.shrink_to_fit();
  next_ = 0;
  wrapped_ = false;
}

bool TailSampler::Offer(const TailSample& sample) {
  const double threshold = slow_threshold_s_.load(std::memory_order_relaxed);
  const bool interesting = sample.outcome == TailOutcome::kError ||
                           sample.outcome == TailOutcome::kShed ||
                           (threshold > 0 && sample.total_s >= threshold);
  if (!interesting) return false;  // fast successes never pay the lock
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < capacity_) {
    samples_.push_back(sample);
    next_ = samples_.size() % capacity_;
    return true;
  }
  samples_[next_] = sample;
  next_ = (next_ + 1) % capacity_;
  wrapped_ = true;
  return true;
}

std::vector<TailSample> TailSampler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TailSample> out;
  out.reserve(samples_.size());
  if (wrapped_) {
    for (size_t i = 0; i < samples_.size(); ++i) {
      out.push_back(samples_[(next_ + i) % samples_.size()]);
    }
  } else {
    out = samples_;
  }
  return out;
}

std::vector<TailSample> TailSampler::TopSlowest(size_t k) const {
  std::vector<TailSample> all = Snapshot();
  std::stable_sort(all.begin(), all.end(), [](const TailSample& x, const TailSample& y) {
    return x.total_s > y.total_s;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

void TailSampler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.clear();
  next_ = 0;
  wrapped_ = false;
}

}  // namespace obs
}  // namespace indaas
