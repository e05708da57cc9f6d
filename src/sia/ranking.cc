#include "src/sia/ranking.h"

#include "src/graph/bdd.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

#include <algorithm>
#include <thread>

namespace indaas {

std::vector<RankedRiskGroup> RankBySize(std::vector<RiskGroup> groups) {
  INDAAS_TRACE_SPAN_NAMED(span, "sia.rank");
  span.Annotate("method", "size");
  span.Annotate("groups", std::to_string(groups.size()));
  auto by_size = [](const RiskGroup& a, const RiskGroup& b) {
    if (a.size() != b.size()) {
      return a.size() < b.size();
    }
    return a < b;
  };
  // ComputeMinimalRiskGroups and MinimizeRiskGroups already return this
  // order; checking it is one pass, sorting again is n log n.
  if (!std::is_sorted(groups.begin(), groups.end(), by_size)) {
    std::sort(groups.begin(), groups.end(), by_size);
  }
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

TopEventEngine::TopEventEngine(const FaultGraph& graph, const TopEventOptions& options)
    : graph_(graph), options_(options) {
  base_probs_.reserve(graph.BasicEvents().size());
  for (NodeId id : graph.BasicEvents()) {
    double p = graph.node(id).failure_prob;
    base_probs_.push_back(p == kUnknownProb ? options.default_prob : p);
  }
  auto compiled = CompileFaultGraph(graph, options.default_prob, options.bdd_node_budget);
  if (compiled.ok()) {
    compiled_ = std::move(compiled).value();
  }
}

double TopEventEngine::Probability(const std::vector<double>& probs) const {
  if (compiled_) {
    return compiled_->manager->Probability(compiled_->root, probs);
  }
  return TopEventProbabilityMonteCarlo(graph_, probs, options_.monte_carlo_rounds, options_.seed,
                                       options_.threads);
}

double TopEventProbabilityMonteCarlo(const FaultGraph& graph, const std::vector<double>& probs,
                                     size_t rounds, uint64_t seed, size_t threads) {
  static obs::Counter* mc_rounds = obs::MetricsRegistry::Global().GetCounter("sia.rank.mc_rounds");
  mc_rounds->Add(rounds);
  const auto& basics = graph.BasicEvents();
  auto count_failures = [&](uint64_t shard_seed, size_t shard_rounds) {
    Rng rng(shard_seed);
    std::vector<uint8_t> state(graph.NodeCount(), 0);
    size_t failures = 0;
    for (size_t round = 0; round < shard_rounds; ++round) {
      for (size_t i = 0; i < basics.size(); ++i) {
        state[basics[i]] = rng.NextBool(probs[i]) ? 1 : 0;
      }
      if (graph.Evaluate(state)) {
        ++failures;
      }
    }
    return failures;
  };
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  const size_t shards = std::min(threads, std::max<size_t>(1, rounds));
  size_t failures = 0;
  if (shards == 1) {
    failures = count_failures(seed, rounds);
  } else {
    // Shard seeds are drawn serially from a seeder so the set of streams
    // depends only on (seed, shards).
    Rng seeder(seed);
    std::vector<uint64_t> shard_seeds(shards);
    for (uint64_t& shard_seed : shard_seeds) {
      shard_seed = seeder.Next();
    }
    std::vector<size_t> shard_failures(shards, 0);
    ComputePool().ParallelFor(shards, [&](size_t s) {
      const size_t shard_rounds = rounds / shards + (s < rounds % shards ? 1 : 0);
      shard_failures[s] = count_failures(shard_seeds[s], shard_rounds);
    });
    for (size_t shard : shard_failures) {
      failures += shard;
    }
  }
  return rounds == 0 ? 0.0 : static_cast<double>(failures) / static_cast<double>(rounds);
}

Result<ProbabilityRanking> RankByImportance(const FaultGraph& graph,
                                            const std::vector<RiskGroup>& minimal_groups,
                                            const TopEventOptions& options) {
  if (!graph.validated()) {
    return FailedPreconditionError("RankByImportance: graph not validated");
  }
  if (minimal_groups.empty()) {
    return ProbabilityRanking{};
  }
  INDAAS_TRACE_SPAN_NAMED(span, "sia.rank");
  span.Annotate("groups", std::to_string(minimal_groups.size()));
  ProbabilityRanking out;
  TopEventEngine engine(graph, options);
  out.top_event_prob = engine.Probability(engine.base_probs());
  span.Annotate("method", engine.exact() ? "bdd" : "monte_carlo");
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
