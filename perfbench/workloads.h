// The three perfbench workloads. Each has an untraced measurement, which
// yields the end-to-end metrics, and a traced pass, which yields the layer
// ladder. A traced run gives its selected workload the full time budget
// (`primary`) and runs the others as short probes, so every per-layer metric
// is measured in every traced run.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "perfbench/common.h"
#include "src/util/status.h"

namespace indaas {
namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
};

// Seconds a probe of a non-selected workload measures for in a traced run.
inline constexpr double kProbeSeconds = 1.0;

// Set-up is timed kSetupRepsPerSide times before the measurement and as
// many times after it, kSetupGapSeconds apart; setup_s is the median of all
// of them. The CPU speed a shared host gives a vCPU drifts over seconds, so
// spreading the set-ups out keeps one slow moment from deciding the figure.
inline constexpr int kSetupRepsPerSide = 12;
inline constexpr double kSetupGapSeconds = 0.1;

// Waits kSetupGapSeconds; called before each timed set-up.
void PauseBeforeSetup();

Status MeasureFatTree(const RunConfig& config, MetricSet* metrics, Outcome* outcome);
Status TraceFatTree(const RunConfig& config, bool primary, MetricSet* layers, Outcome* outcome,
                    SpanRecorder* spans);

Status MeasureMixed(const RunConfig& config, MetricSet* metrics, Outcome* outcome);
Status TraceMixed(const RunConfig& config, bool primary, MetricSet* layers, Outcome* outcome,
                  SpanRecorder* spans);

Status MeasureRing(const RunConfig& config, MetricSet* metrics, Outcome* outcome);
Status TraceRing(const RunConfig& config, bool primary, MetricSet* layers, Outcome* outcome,
                 SpanRecorder* spans);

// Sets the ladder-closure metrics of the selected workload and prints the
// ladder.
void ReportLadder(const Ladder& ladder, MetricSet* layers);

}  // namespace perfbench
}  // namespace indaas

#endif  // PERFBENCH_WORKLOADS_H_
