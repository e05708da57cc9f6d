// Shared plumbing for the perfbench harness: sample statistics, process
// resource readings, registry deltas, the metric sink every workload fills,
// and the in-memory span recorder the traced run uses.
//
// Spans are recorded only by the harness, around the calls it makes into each
// layer; nothing inside src/ is instrumented for the benchmark.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace indaas {
namespace perfbench {

// --- Sample statistics ---

// Nearest-rank percentile (q in [0, 1]) of `samples`; 0 for an empty input.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double P50(const std::vector<double>& samples);
double P90(const std::vector<double>& samples);
double Mean(const std::vector<double>& samples);

// A measurement of `seconds` is split into windows of about two seconds.
// Figures are taken per window and then summarised over the windows with
// CalmQuartile, so a neighbour's burst on a shared host that slows part of a
// run does not move the run's figure.
struct Windows {
  explicit Windows(double seconds);
  size_t count = 1;
  double seconds = 1;  // length of one window
};

// values[i] goes to the window holding offsets_s[i] (seconds from the start of
// the measurement); values past the last complete window are dropped.
std::vector<std::vector<double>> SplitByWindow(const std::vector<double>& offsets_s,
                                               const std::vector<double>& values,
                                               const Windows& windows);

// Which way a figure improves. Host noise only ever makes a run slower, so
// the calm end of a figure's spread over windows is its lower quartile when
// lower is better, and its upper quartile when higher is better.
enum class Better { kLower, kHigher };

// The calm quartile (see Better) of `per_window`, one value per window.
double CalmQuartile(const std::vector<double>& per_window, Better better);

// CalmQuartile over windows of `stat` applied to each window's values;
// windows without values are skipped.
double CalmQuartileOverWindows(const std::vector<std::vector<double>>& by_window,
                               double (*stat)(const std::vector<double>&), Better better);

// Records the process's CPU time at every window boundary from its own
// thread, so CPU per operation can be taken window by window.
class CpuWindowSampler {
 public:
  CpuWindowSampler(int64_t start_ns, const Windows& windows);
  ~CpuWindowSampler();
  CpuWindowSampler(const CpuWindowSampler&) = delete;
  CpuWindowSampler& operator=(const CpuWindowSampler&) = delete;

  // Waits for the last boundary and returns the CPU seconds of each window.
  std::vector<double> Finish();

 private:
  std::vector<double> readings_;  // written by thread_ until it is joined
  std::thread thread_;
};

// Prints every sample of a repeated measurement on one "samples" line.
void PrintSamples(const char* name, const std::vector<double>& samples);

// Monotonic clock in nanoseconds.
int64_t NowNs();

// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();

// Peak resident set size of the process, in MiB.
double PeakRssMb();

// --- Registry deltas ---

// A scrape of the global metrics registry, indexed by name.
class RegistryReading {
 public:
  static RegistryReading Take();

  uint64_t Counter(const std::string& name) const;
  // Count and sum of one histogram (both 0 when it does not exist yet).
  uint64_t HistogramCount(const std::string& name) const;
  double HistogramSum(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, std::pair<uint64_t, double>> histograms_;
};

// --- Metric sink ---

struct MetricValue {
  double value = 0;
  std::string unit;
};

class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = MetricValue{value, unit};
  }
  // Keeps an existing value: the primary workload of a traced run writes
  // first, and probes of the other workloads only fill what it lacks.
  void SetIfAbsent(const std::string& name, double value, const std::string& unit) {
    values_.emplace(name, MetricValue{value, unit});
  }
  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  double Get(const std::string& name) const;
  const std::map<std::string, MetricValue>& values() const { return values_; }

 private:
  std::map<std::string, MetricValue> values_;
};

// Operation outcomes of one run: `attempted` operations, of which `failed`
// errored, were shed, or returned a result that differs from the oracle.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;  // subset of failed: answered, but not the oracle's answer
  bool inputs_ok = true;  // the seed-reproducibility check passed

  void Merge(const Outcome& other) {
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
    inputs_ok = inputs_ok && other.inputs_ok;
  }
};

// --- Spans ---

// One timed interval around a layer call. `parent` is 0 for a root; spans of
// one request share `request`.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Keeps spans in memory; they are written out once the run ends.
class SpanRecorder {
 public:
  uint64_t NewId();
  void Record(Span span);

  // Summed duration of the spans named `name`.
  double TotalSeconds(const std::string& name) const;

  // Writes every span as one JSON object per line.
  Status WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

// RAII span: starts on construction, records on destruction. A null recorder
// makes it a no-op, so untraced code paths share the same source.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_;
  uint64_t request_;
  int64_t start_ns_;
};

// --- Layer ladder ---

// One row of a layer ladder: mean self time per operation.
struct LadderRow {
  std::string name;
  double seconds = 0;
};

// End-to-end time split into layer rows plus the residual the rows leave.
struct Ladder {
  std::string title;
  double e2e_seconds = 0;
  std::vector<LadderRow> rows;

  double Residual() const;
  double ResidualShare() const;
  // Prints the ladder as a table to stdout.
  void Print() const;
};

}  // namespace perfbench
}  // namespace indaas

#endif  // PERFBENCH_COMMON_H_
