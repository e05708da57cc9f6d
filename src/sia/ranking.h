// Risk group ranking and independence scores (paper §4.1.3–4.1.4).
//
// Two rankers:
//   * size-based  — fewest components first ({ToR1} before {Core1, Core2});
//   * probability — by relative importance I_C = Pr(C) / Pr(T), where Pr(C)
//     is the joint failure probability of the RG (independence assumption)
//     and Pr(T) the top event probability.
//
// Pr(T) has one engine, TopEventEngine: the fault graph's structure function
// compiled into a BDD (src/graph/bdd.h), read exactly in time linear in its
// size, with one sharded Monte-Carlo fallback for graphs whose BDD outgrows
// its node budget. Component importance (importance.h) uses the same engine
// for its conditioned probabilities.
//
// Independence score of a deployment (§4.1.4): sum over the top-n ranked RGs
// of size(c_i) (size ranking) or I_{c_i} (probability ranking). Note the
// paper's convention: *smaller* scores mean the deployment is more fragile;
// deployments are ranked by descending score for size and ascending total
// importance for probability. We expose the raw scores and a comparator.

#ifndef SRC_SIA_RANKING_H_
#define SRC_SIA_RANKING_H_

#include <optional>
#include <vector>

#include "src/graph/bdd.h"
#include "src/graph/fault_graph.h"
#include "src/sia/risk_groups.h"
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

// How Pr(T) is computed, for probability ranking and component importance.
struct TopEventOptions {
  // Events lacking failure_prob fall back to this.
  double default_prob = 0.01;
  // Pr(T) is exact from the fault graph's BDD while the BDD fits this many
  // nodes; past it, Pr(T) is a Monte-Carlo estimate.
  size_t bdd_node_budget = 2000000;
  size_t monte_carlo_rounds = 200000;
  uint64_t seed = 1;
  // Monte-Carlo shards (0 = one per hardware thread). Rounds are sharded
  // with per-shard Rng streams derived from `seed`, so results are
  // deterministic for a fixed shard count; shards run on ComputePool().
  size_t threads = 0;
};

// Pr(T) of a validated graph under any assignment of independent per-event
// failure probabilities. The constructor compiles the graph's BDD once; each
// Probability() call then reads it in time linear in its size. If the BDD
// passes options.bdd_node_budget, every call runs
// TopEventProbabilityMonteCarlo instead, with the same seed, so conditioned
// estimates share their random numbers.
class TopEventEngine {
 public:
  TopEventEngine(const FaultGraph& graph, const TopEventOptions& options);

  // The graph's own probabilities, indexed like graph.BasicEvents(), with
  // default_prob where an event has none.
  const std::vector<double>& base_probs() const { return base_probs_; }

  // Pr(T) with basic event graph.BasicEvents()[i] failing with probs[i].
  double Probability(const std::vector<double>& probs) const;

  // True when Probability() reads the BDD, false when it samples.
  bool exact() const { return compiled_.has_value(); }

 private:
  const FaultGraph& graph_;
  TopEventOptions options_;
  std::vector<double> base_probs_;
  std::optional<CompiledFaultGraph> compiled_;
};

struct ProbabilityRanking {
  std::vector<RankedRiskGroup> ranked;  // descending importance
  double top_event_prob = 0.0;
};

// Ranks minimal RGs by relative importance I_C = Pr(C)/Pr(T).
Result<ProbabilityRanking> RankByImportance(const FaultGraph& graph,
                                            const std::vector<RiskGroup>& minimal_groups,
                                            const TopEventOptions& options = {});

// Pr(top event) estimated by evaluating the fault graph on `rounds` random
// failure states, basic event graph.BasicEvents()[i] failing with probs[i].
// Rounds are split into `threads` shards (0 = one per hardware thread), each
// with its own Rng stream derived from `seed`, run on the shared
// ComputePool(); one shard runs inline on the caller with Rng(seed). The
// result is deterministic for a fixed seed and shard count. Adds `rounds` to
// the sia.rank.mc_rounds counter.
double TopEventProbabilityMonteCarlo(const FaultGraph& graph, const std::vector<double>& probs,
                                     size_t rounds, uint64_t seed, size_t threads);

// Independence score over the top-n entries (n = 0 means all): sum of scores.
double IndependenceScore(const std::vector<RankedRiskGroup>& ranked, size_t top_n = 0);

}  // namespace indaas

#endif  // SRC_SIA_RANKING_H_
