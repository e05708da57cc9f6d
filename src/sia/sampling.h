// Failure sampling algorithm (paper §4.1.2).
//
// Each round flips a failure coin for every basic event, evaluates the fault
// graph bottom-up, and — when the top event fails — records the set of failed
// basic events as a risk group. Linear per round, non-deterministic, and not
// guaranteed to produce minimal RGs. Extensions beyond the paper (ablated in
// bench_fig7): greedy shrinking of each detected RG toward a minimal one, and
// probability-weighted coin flips.

#ifndef SRC_SIA_SAMPLING_H_
#define SRC_SIA_SAMPLING_H_

#include <cstdint>

#include "src/graph/fault_graph.h"
#include "src/sia/risk_groups.h"
#include "src/util/status.h"

namespace indaas {

enum class ShrinkMode {
  kNone,    // record the raw failed set (the paper's algorithm)
  kGreedy,  // drop members one by one while the top event still fails
};

struct SamplingOptions {
  size_t rounds = 100000;
  // Per-basic-event failure probability for the coin flips. Low biases make
  // failing rounds rare but small (and thus close to minimal).
  double failure_bias = 0.05;
  // Use each basic event's own failure_prob as its coin bias, scaled by
  // `bias_scale`; events without a probability fall back to failure_bias.
  bool use_event_probs = false;
  double bias_scale = 1.0;
  ShrinkMode shrink = ShrinkMode::kNone;
  uint64_t seed = 1;
  // Shards, each with its own Rng stream (rounds are split across shards,
  // which run on the shared ComputePool(); results merged).
  size_t threads = 1;
  // Stop early after this many *distinct* RGs (SIZE_MAX = never).
  size_t max_distinct_groups = SIZE_MAX;
};

struct SamplingResult {
  // Distinct detected risk groups, minimized (absorption applied across the
  // collected set) and sorted by size.
  std::vector<RiskGroup> groups;
  size_t rounds_executed = 0;
  size_t failing_rounds = 0;  // rounds whose assignment failed the top event
};

// Runs the sampler on a validated graph.
Result<SamplingResult> SampleRiskGroups(const FaultGraph& graph, const SamplingOptions& options);

}  // namespace indaas

#endif  // SRC_SIA_SAMPLING_H_
