#include "src/sia/sampling.h"

#include <algorithm>
#include <set>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace indaas {
namespace {

// Per-thread sampler state and logic.
class Sampler {
 public:
  Sampler(const FaultGraph& graph, const SamplingOptions& options, uint64_t seed)
      : graph_(graph), options_(options), rng_(seed), state_(graph.NodeCount(), 0) {
    // Resolve the coin bias per basic event once.
    const auto& basics = graph.BasicEvents();
    biases_.reserve(basics.size());
    for (NodeId id : basics) {
      double bias = options.failure_bias;
      if (options.use_event_probs && graph.node(id).failure_prob != kUnknownProb) {
        bias = std::clamp(graph.node(id).failure_prob * options.bias_scale, 0.0, 1.0);
      }
      biases_.push_back(bias);
    }
  }

  // Runs `rounds` rounds, collecting distinct RGs locally.
  void Run(size_t rounds) {
    const auto& basics = graph_.BasicEvents();
    for (size_t round = 0; round < rounds; ++round) {
      ++executed_;
      failed_.clear();
      for (size_t i = 0; i < basics.size(); ++i) {
        uint8_t value = rng_.NextBool(biases_[i]) ? 1 : 0;
        state_[basics[i]] = value;
        if (value != 0) {
          failed_.push_back(basics[i]);
        }
      }
      if (failed_.empty() || !graph_.Evaluate(state_)) {
        continue;
      }
      ++failing_;
      if (options_.shrink == ShrinkMode::kGreedy) {
        Shrink();
      }
      groups_.insert(failed_);
      if (groups_.size() >= options_.max_distinct_groups) {
        return;
      }
    }
  }

  // Greedily removes members while the top event still fails. The survivor
  // is a genuinely minimal RG (dropping any single member un-fails the top).
  // The elimination order is randomized per round: a fixed order would make
  // the shrink a deterministic function with a small image, systematically
  // missing many minimal RGs.
  void Shrink() {
    rng_.Shuffle(failed_);
    for (size_t i = failed_.size(); i-- > 0;) {
      NodeId candidate = failed_[i];
      state_[candidate] = 0;
      // Re-evaluate with the candidate healthy.
      if (graph_.Evaluate(state_)) {
        failed_.erase(failed_.begin() + static_cast<ptrdiff_t>(i));
      } else {
        state_[candidate] = 1;
      }
    }
    std::sort(failed_.begin(), failed_.end());
  }

  std::set<RiskGroup>& groups() { return groups_; }
  size_t executed() const { return executed_; }
  size_t failing() const { return failing_; }

 private:
  const FaultGraph& graph_;
  const SamplingOptions& options_;
  Rng rng_;
  std::vector<uint8_t> state_;
  std::vector<double> biases_;
  RiskGroup failed_;
  std::set<RiskGroup> groups_;
  size_t executed_ = 0;
  size_t failing_ = 0;
};

}  // namespace

Result<SamplingResult> SampleRiskGroups(const FaultGraph& graph, const SamplingOptions& options) {
  if (!graph.validated()) {
    return FailedPreconditionError("SampleRiskGroups: graph not validated");
  }
  if (options.rounds == 0) {
    return InvalidArgumentError("SampleRiskGroups: rounds must be > 0");
  }
  if (options.failure_bias < 0.0 || options.failure_bias > 1.0) {
    return InvalidArgumentError("SampleRiskGroups: failure_bias must be in [0,1]");
  }
  size_t threads = std::max<size_t>(1, options.threads);
  threads = std::min(threads, options.rounds);
  INDAAS_TRACE_SPAN_NAMED(span, "sia.sample");
  span.Annotate("rounds", std::to_string(options.rounds));
  span.Annotate("threads", std::to_string(threads));

  std::vector<Sampler> samplers;
  samplers.reserve(threads);
  Rng seeder(options.seed);
  for (size_t t = 0; t < threads; ++t) {
    samplers.emplace_back(graph, options, seeder.Next() | 1);
  }
  if (threads == 1) {
    samplers[0].Run(options.rounds);
  } else {
    const size_t per_shard = options.rounds / threads;
    const size_t remainder = options.rounds % threads;
    ComputePool().ParallelFor(threads, [&](size_t t) {
      samplers[t].Run(per_shard + (t < remainder ? 1 : 0));
    });
  }
  SamplingResult result;
  std::vector<RiskGroup> all;
  for (Sampler& sampler : samplers) {
    result.rounds_executed += sampler.executed();
    result.failing_rounds += sampler.failing();
    all.insert(all.end(), sampler.groups().begin(), sampler.groups().end());
  }
  result.groups = MinimizeRiskGroups(std::move(all));
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* rounds = registry.GetCounter("sia.sampling.rounds");
  static obs::Counter* failing = registry.GetCounter("sia.sampling.failing_rounds");
  static obs::Counter* groups = registry.GetCounter("sia.sampling.groups");
  rounds->Add(result.rounds_executed);
  failing->Add(result.failing_rounds);
  groups->Add(result.groups.size());
  span.Annotate("groups", std::to_string(result.groups.size()));
  return result;
}

}  // namespace indaas
