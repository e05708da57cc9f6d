#include "perfbench/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/util/file.h"
#include "src/util/strings.h"

namespace indaas {
namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size());
  size_t index = rank <= 1 ? 0 : static_cast<size_t>(rank + 0.999999999) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) { return Percentile(std::move(samples), 0.5); }
double P50(const std::vector<double>& samples) { return Percentile(samples, 0.5); }
double P90(const std::vector<double>& samples) { return Percentile(samples, 0.9); }

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0;
  }
  double sum = 0;
  for (double sample : samples) {
    sum += sample;
  }
  return sum / static_cast<double>(samples.size());
}

Windows::Windows(double measured_seconds) {
  constexpr double kWindowSeconds = 2;
  count = std::max<size_t>(1, static_cast<size_t>(measured_seconds / kWindowSeconds + 0.5));
  seconds = measured_seconds / static_cast<double>(count);
}

double CalmQuartile(const std::vector<double>& per_window, Better better) {
  return Percentile(per_window, better == Better::kLower ? 0.25 : 0.75);
}

std::vector<std::vector<double>> SplitByWindow(const std::vector<double>& offsets_s,
                                               const std::vector<double>& values,
                                               const Windows& windows) {
  std::vector<std::vector<double>> by_window(windows.count);
  for (size_t i = 0; i < values.size(); ++i) {
    const double window = offsets_s[i] / windows.seconds;
    if (window >= 0 && window < static_cast<double>(windows.count)) {
      by_window[static_cast<size_t>(window)].push_back(values[i]);
    }
  }
  return by_window;
}

double CalmQuartileOverWindows(const std::vector<std::vector<double>>& by_window,
                               double (*stat)(const std::vector<double>&), Better better) {
  std::vector<double> per_window;
  for (const std::vector<double>& values : by_window) {
    if (!values.empty()) {
      per_window.push_back(stat(values));
    }
  }
  return CalmQuartile(per_window, better);
}

CpuWindowSampler::CpuWindowSampler(int64_t start_ns, const Windows& windows)
    : thread_([this, start_ns, windows] {
        for (size_t k = 0; k <= windows.count; ++k) {
          const auto boundary = std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
              start_ns + static_cast<int64_t>(static_cast<double>(k) * windows.seconds * 1e9)));
          std::this_thread::sleep_until(boundary);
          readings_.push_back(ProcessCpuSeconds());
        }
      }) {}

CpuWindowSampler::~CpuWindowSampler() {
  if (thread_.joinable()) {
    thread_.join();
  }
}

std::vector<double> CpuWindowSampler::Finish() {
  thread_.join();
  std::vector<double> per_window;
  for (size_t k = 1; k < readings_.size(); ++k) {
    per_window.push_back(readings_[k] - readings_[k - 1]);
  }
  return per_window;
}

void PrintSamples(const char* name, const std::vector<double>& samples) {
  std::printf("samples %s", name);
  for (double sample : samples) {
    std::printf(" %.6g", sample);
  }
  std::printf("\n");
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

RegistryReading RegistryReading::Take() {
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  RegistryReading reading;
  for (const auto& counter : snapshot.counters) {
    reading.counters_[counter.name] = counter.value;
  }
  for (const auto& histogram : snapshot.histograms) {
    reading.histograms_[histogram.name] = {histogram.count, histogram.sum};
  }
  return reading;
}

uint64_t RegistryReading::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

uint64_t RegistryReading::HistogramCount(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? 0 : it->second.first;
}

double RegistryReading::HistogramSum(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? 0 : it->second.second;
}

double MetricSet::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second.value;
}

uint64_t SpanRecorder::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

double SpanRecorder::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total_ns = 0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      total_ns += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(total_ns) / 1e9;
}

Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const Span& span : spans_) {
    out += StrFormat(
        "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"start_ns\":%lld,"
        "\"end_ns\":%lld}\n",
        span.name.c_str(), static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<unsigned long long>(span.request), static_cast<long long>(span.start_ns),
        static_cast<long long>(span.end_ns));
  }
  return WriteFile(path, out);
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t parent,
                       uint64_t request)
    : recorder_(recorder), name_(name), parent_(parent), request_(request), start_ns_(0) {
  if (recorder_ != nullptr) {
    id_ = recorder_->NewId();
    start_ns_ = NowNs();
  }
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) {
    recorder_->Record(Span{name_, id_, parent_, request_, start_ns_, NowNs()});
  }
}

double Ladder::Residual() const {
  double residual = e2e_seconds;
  for (const LadderRow& row : rows) {
    residual -= row.seconds;
  }
  return residual;
}

double Ladder::ResidualShare() const {
  return e2e_seconds > 0 ? Residual() / e2e_seconds : 0;
}

void Ladder::Print() const {
  std::printf("ladder %s: end-to-end %.3f us per operation\n", title.c_str(),
              e2e_seconds * 1e6);
  for (const LadderRow& row : rows) {
    std::printf("  %-28s %12.3f us  %6.1f%%\n", row.name.c_str(), row.seconds * 1e6,
                e2e_seconds > 0 ? 100.0 * row.seconds / e2e_seconds : 0.0);
  }
  const double residual = Residual();
  std::printf("  %-28s %12.3f us  %6.1f%%%s\n", "residual", residual * 1e6,
              100.0 * ResidualShare(), residual < 0 ? "  NEGATIVE: rows double-count" : "");
}

}  // namespace perfbench
}  // namespace indaas
