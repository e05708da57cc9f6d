// Risk group ranking and independence scores (paper §4.1.3–4.1.4).
//
// Two rankers:
//   * size-based  — fewest components first ({ToR1} before {Core1, Core2});
//   * probability — by relative importance I_C = Pr(C) / Pr(T), where Pr(C)
//     is the joint failure probability of the RG (independence assumption)
//     and Pr(T) the top event probability via inclusion–exclusion over the
//     minimal RGs (§4.1.3's worked example), with a Monte-Carlo fallback when
//     there are too many RGs for exact inclusion–exclusion.
//
// Independence score of a deployment (§4.1.4): sum over the top-n ranked RGs
// of size(c_i) (size ranking) or I_{c_i} (probability ranking). Note the
// paper's convention: *smaller* scores mean the deployment is more fragile;
// deployments are ranked by descending score for size and ascending total
// importance for probability. We expose the raw scores and a comparator.

#ifndef SRC_SIA_RANKING_H_
#define SRC_SIA_RANKING_H_

#include <vector>

#include "src/graph/fault_graph.h"
#include "src/sia/risk_groups.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace indaas {

struct RankedRiskGroup {
  RiskGroup group;
  double score = 0.0;  // size (size ranking) or relative importance
};

// Sorts by ascending size (ties broken lexicographically for determinism);
// score = size. The most critical RGs (size 1 = no redundancy) come first.
std::vector<RankedRiskGroup> RankBySize(std::vector<RiskGroup> groups);

// Joint failure probability of `group` assuming independent basic events;
// events without a probability use `default_prob`.
double GroupProbability(const FaultGraph& graph, const RiskGroup& group, double default_prob);

struct ProbabilityRankingOptions {
  // Events lacking failure_prob fall back to this.
  double default_prob = 0.01;
  // Exact inclusion–exclusion is used up to this many minimal RGs (2^n
  // terms); beyond it Pr(T) comes from BDD compilation (exact), and only if
  // the BDD exceeds its node budget from Monte-Carlo evaluation. Values
  // >= 64 are clamped to 63: the 2^n subset walk is a 64-bit mask, so larger
  // group counts must take the BDD / Monte-Carlo route.
  size_t max_exact_terms = 20;
  size_t bdd_node_budget = 2000000;
  size_t monte_carlo_rounds = 200000;
  uint64_t seed = 1;
  // Monte-Carlo shards (0 = one per hardware thread). Rounds are sharded
  // with per-shard Rng streams derived from `seed`, so results are
  // deterministic for a fixed shard count; shards run on ComputePool().
  size_t threads = 0;
};

struct ProbabilityRanking {
  std::vector<RankedRiskGroup> ranked;  // descending importance
  double top_event_prob = 0.0;
};

// Ranks minimal RGs by relative importance I_C = Pr(C)/Pr(T).
Result<ProbabilityRanking> RankByImportance(const FaultGraph& graph,
                                            const std::vector<RiskGroup>& minimal_groups,
                                            const ProbabilityRankingOptions& options = {});

// Pr(top event) by inclusion–exclusion over minimal RGs (exact; use only for
// small group counts — 2^n terms). Requires groups.size() < 64 (the subset
// walk is a 64-bit mask); larger inputs return NaN instead of shifting out
// of range. RankByImportance clamps max_exact_terms so it never hits this.
double TopEventProbabilityExact(const FaultGraph& graph, const std::vector<RiskGroup>& groups,
                                double default_prob);

// Pr(top event) by Monte-Carlo evaluation of the fault graph itself.
double TopEventProbabilityMonteCarlo(const FaultGraph& graph, double default_prob, size_t rounds,
                                     Rng& rng);

// Parallel variant: shards `rounds` into `threads` shards (0 = one per
// hardware thread), each with its own Rng stream derived from `seed`, run on
// the shared ComputePool(). The result is deterministic for a fixed shard
// count; a single shard reproduces the serial Rng overload exactly.
double TopEventProbabilityMonteCarlo(const FaultGraph& graph, double default_prob, size_t rounds,
                                     uint64_t seed, size_t threads);

// Independence score over the top-n entries (n = 0 means all): sum of scores.
double IndependenceScore(const std::vector<RankedRiskGroup>& ranked, size_t top_n = 0);

}  // namespace indaas

#endif  // SRC_SIA_RANKING_H_
