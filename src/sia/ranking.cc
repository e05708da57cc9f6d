#include "src/sia/ranking.h"

#include "src/graph/bdd.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/thread_pool.h"

#include <algorithm>
#include <limits>
#include <thread>

namespace indaas {

std::vector<RankedRiskGroup> RankBySize(std::vector<RiskGroup> groups) {
  INDAAS_TRACE_SPAN_NAMED(span, "sia.rank");
  span.Annotate("method", "size");
  span.Annotate("groups", std::to_string(groups.size()));
  std::sort(groups.begin(), groups.end(), [](const RiskGroup& a, const RiskGroup& b) {
    if (a.size() != b.size()) {
      return a.size() < b.size();
    }
    return a < b;
  });
  std::vector<RankedRiskGroup> ranked;
  ranked.reserve(groups.size());
  for (RiskGroup& group : groups) {
    double size = static_cast<double>(group.size());
    ranked.push_back(RankedRiskGroup{std::move(group), size});
  }
  return ranked;
}

double GroupProbability(const FaultGraph& graph, const RiskGroup& group, double default_prob) {
  double prob = 1.0;
  for (NodeId id : group) {
    double p = graph.node(id).failure_prob;
    prob *= (p == kUnknownProb) ? default_prob : p;
  }
  return group.empty() ? 0.0 : prob;
}

double TopEventProbabilityExact(const FaultGraph& graph, const std::vector<RiskGroup>& groups,
                                double default_prob) {
  // Inclusion–exclusion: Pr(union of "all events in RG_i fail") =
  // sum over nonempty subsets S of (-1)^(|S|+1) * Pr(union of members fail).
  const size_t n = groups.size();
  if (n >= 64) {
    // 1ULL << n would be undefined; callers must clamp (RankByImportance
    // does) or route large group counts through the BDD / Monte Carlo.
    return std::numeric_limits<double>::quiet_NaN();
  }
  double total = 0.0;
  for (uint64_t mask = 1; mask < (1ULL << n); ++mask) {
    RiskGroup merged;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1) {
        RiskGroup next;
        std::set_union(merged.begin(), merged.end(), groups[i].begin(), groups[i].end(),
                       std::back_inserter(next));
        merged = std::move(next);
      }
    }
    double term = GroupProbability(graph, merged, default_prob);
    total += (__builtin_popcountll(mask) % 2 == 1) ? term : -term;
  }
  return total;
}

double TopEventProbabilityMonteCarlo(const FaultGraph& graph, double default_prob, size_t rounds,
                                     Rng& rng) {
  std::vector<uint8_t> state(graph.NodeCount(), 0);
  const auto& basics = graph.BasicEvents();
  std::vector<double> probs;
  probs.reserve(basics.size());
  for (NodeId id : basics) {
    double p = graph.node(id).failure_prob;
    probs.push_back(p == kUnknownProb ? default_prob : p);
  }
  size_t failures = 0;
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < basics.size(); ++i) {
      state[basics[i]] = rng.NextBool(probs[i]) ? 1 : 0;
    }
    if (graph.Evaluate(state)) {
      ++failures;
    }
  }
  return rounds == 0 ? 0.0 : static_cast<double>(failures) / static_cast<double>(rounds);
}

double TopEventProbabilityMonteCarlo(const FaultGraph& graph, double default_prob, size_t rounds,
                                     uint64_t seed, size_t threads) {
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, std::max<size_t>(1, rounds));
  if (threads <= 1) {
    Rng rng(seed);
    return TopEventProbabilityMonteCarlo(graph, default_prob, rounds, rng);
  }
  // One shard per worker; shard seeds are drawn serially from a seeder so
  // the set of streams depends only on (seed, threads).
  Rng seeder(seed);
  std::vector<uint64_t> shard_seeds(threads);
  std::vector<size_t> shard_rounds(threads, rounds / threads);
  for (size_t s = 0; s < threads; ++s) {
    shard_seeds[s] = seeder.Next();
    if (s < rounds % threads) {
      ++shard_rounds[s];
    }
  }
  std::vector<size_t> shard_failures(threads, 0);
  ComputePool().ParallelFor(threads, [&](size_t s) {
    Rng rng(shard_seeds[s]);
    std::vector<uint8_t> state(graph.NodeCount(), 0);
    const auto& basics = graph.BasicEvents();
    std::vector<double> probs;
    probs.reserve(basics.size());
    for (NodeId id : basics) {
      double p = graph.node(id).failure_prob;
      probs.push_back(p == kUnknownProb ? default_prob : p);
    }
    size_t failures = 0;
    for (size_t round = 0; round < shard_rounds[s]; ++round) {
      for (size_t i = 0; i < basics.size(); ++i) {
        state[basics[i]] = rng.NextBool(probs[i]) ? 1 : 0;
      }
      if (graph.Evaluate(state)) {
        ++failures;
      }
    }
    shard_failures[s] = failures;
  });
  size_t failures = 0;
  for (size_t s = 0; s < threads; ++s) {
    failures += shard_failures[s];
  }
  return rounds == 0 ? 0.0 : static_cast<double>(failures) / static_cast<double>(rounds);
}

Result<ProbabilityRanking> RankByImportance(const FaultGraph& graph,
                                            const std::vector<RiskGroup>& minimal_groups,
                                            const ProbabilityRankingOptions& options) {
  if (!graph.validated()) {
    return FailedPreconditionError("RankByImportance: graph not validated");
  }
  if (minimal_groups.empty()) {
    return ProbabilityRanking{};
  }
  INDAAS_TRACE_SPAN_NAMED(span, "sia.rank");
  span.Annotate("groups", std::to_string(minimal_groups.size()));
  ProbabilityRanking out;
  // The inclusion-exclusion mask is 64-bit: >= 64 groups would shift out of
  // range, so such inputs always take the BDD / Monte-Carlo route.
  const size_t max_exact_terms = std::min<size_t>(options.max_exact_terms, 63);
  if (minimal_groups.size() <= max_exact_terms) {
    out.top_event_prob = TopEventProbabilityExact(graph, minimal_groups, options.default_prob);
    span.Annotate("method", "exact");
  } else {
    // Too many groups for inclusion-exclusion: BDD compilation stays exact;
    // Monte Carlo is the last resort when the BDD blows its budget.
    auto bdd = TopEventProbabilityBdd(graph, options.default_prob, options.bdd_node_budget);
    if (bdd.ok()) {
      out.top_event_prob = *bdd;
      span.Annotate("method", "bdd");
    } else {
      out.top_event_prob = TopEventProbabilityMonteCarlo(
          graph, options.default_prob, options.monte_carlo_rounds, options.seed, options.threads);
      static obs::Counter* mc_rounds =
          obs::MetricsRegistry::Global().GetCounter("sia.rank.mc_rounds");
      mc_rounds->Add(options.monte_carlo_rounds);
      span.Annotate("method", "monte_carlo");
    }
  }
  if (out.top_event_prob <= 0.0) {
    return InternalError("RankByImportance: top event probability is zero");
  }
  out.ranked.reserve(minimal_groups.size());
  for (const RiskGroup& group : minimal_groups) {
    double importance = GroupProbability(graph, group, options.default_prob) / out.top_event_prob;
    out.ranked.push_back(RankedRiskGroup{group, importance});
  }
  std::sort(out.ranked.begin(), out.ranked.end(),
            [](const RankedRiskGroup& a, const RankedRiskGroup& b) {
              if (a.score != b.score) {
                return a.score > b.score;
              }
              return a.group < b.group;
            });
  return out;
}

double IndependenceScore(const std::vector<RankedRiskGroup>& ranked, size_t top_n) {
  if (top_n == 0 || top_n > ranked.size()) {
    top_n = ranked.size();
  }
  double score = 0.0;
  for (size_t i = 0; i < top_n; ++i) {
    score += ranked[i].score;
  }
  return score;
}

}  // namespace indaas
