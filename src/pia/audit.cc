#include "src/pia/audit.h"

#include <algorithm>
#include <set>

#include "src/deps/normalize.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"
#include "src/util/strings.h"

namespace indaas {
namespace {

// Enumerates all r-subsets of [0, n) in lexicographic order.
std::vector<std::vector<size_t>> Combinations(size_t n, size_t r) {
  std::vector<std::vector<size_t>> out;
  if (r == 0 || r > n) {
    return out;
  }
  std::vector<size_t> pick(r);
  for (size_t i = 0; i < r; ++i) {
    pick[i] = i;
  }
  for (;;) {
    out.push_back(pick);
    int pos = static_cast<int>(r) - 1;
    while (pos >= 0 && pick[pos] == n - r + static_cast<size_t>(pos)) {
      --pos;
    }
    if (pos < 0) {
      break;
    }
    ++pick[pos];
    for (size_t i = static_cast<size_t>(pos) + 1; i < r; ++i) {
      pick[i] = pick[i - 1] + 1;
    }
  }
  return out;
}

}  // namespace

CloudProvider MakeProviderFromDepDb(const std::string& name, const DepDb& db) {
  std::set<std::string> components;
  for (const std::string& host : db.KnownHosts()) {
    for (const NetworkDependency& dep : db.RoutesFrom(host)) {
      for (const std::string& id : NormalizedComponentsOf(dep)) {
        components.insert(id);
      }
    }
    for (const HardwareDependency& dep : db.HardwareOf(host)) {
      for (const std::string& id : NormalizedComponentsOf(dep)) {
        components.insert(id);
      }
    }
    for (const SoftwareDependency& dep : db.SoftwareOn(host)) {
      for (const std::string& id : NormalizedComponentsOf(dep)) {
        components.insert(id);
      }
    }
  }
  CloudProvider provider;
  provider.name = name;
  provider.components.assign(components.begin(), components.end());
  return provider;
}

Result<PiaAuditReport> RunPiaAudit(const std::vector<CloudProvider>& providers,
                                   const PiaAuditOptions& options) {
  if (options.min_redundancy < 2 || options.min_redundancy > options.max_redundancy) {
    return InvalidArgumentError("RunPiaAudit: need 2 <= min_redundancy <= max_redundancy");
  }
  if (providers.size() < options.min_redundancy) {
    return InvalidArgumentError("RunPiaAudit: fewer providers than min_redundancy");
  }
  std::set<std::string> names;
  for (const CloudProvider& provider : providers) {
    if (!names.insert(provider.name).second) {
      return InvalidArgumentError("RunPiaAudit: duplicate provider '" + provider.name + "'");
    }
    if (provider.components.empty()) {
      return InvalidArgumentError("RunPiaAudit: provider '" + provider.name +
                                  "' has no components");
    }
  }

  PiaAuditReport report;
  report.min_redundancy = options.min_redundancy;
  report.provider_stats.assign(providers.size(), PartyStats{});

  INDAAS_TRACE_SPAN_NAMED(span, "pia.audit");
  span.Annotate("providers", std::to_string(providers.size()));
  static obs::Counter* runs_total = obs::MetricsRegistry::Global().GetCounter("pia.runs_total");
  // Per-provider aggregation meters: besides the report struct, each fold
  // lands in pia.provider.<name>.* counters for the metrics dump.
  std::vector<PartyMeter> provider_meters;
  provider_meters.reserve(providers.size());
  for (size_t i = 0; i < providers.size(); ++i) {
    std::string scope = "provider." + providers[i].name;
    provider_meters.emplace_back(&report.provider_stats[i], scope.c_str());
  }

  for (uint32_t r = options.min_redundancy; r <= options.max_redundancy; ++r) {
    std::vector<std::vector<size_t>> combos = Combinations(providers.size(), r);
    // One protocol run per candidate deployment; runs are independent, so
    // they can execute concurrently. Results stay indexed by combo.
    std::vector<Result<PsopResult>> runs(combos.size(), Status(StatusCode::kInternal, "not run"));
    auto run_one = [&](size_t c) {
      std::vector<std::vector<std::string>> datasets;
      datasets.reserve(r);
      for (size_t idx : combos[c]) {
        datasets.push_back(providers[idx].components);
      }
      PsopOptions psop = options.psop;
      // Distinct, deterministic seed per deployment.
      psop.seed = options.psop.seed * 1000003 + static_cast<uint64_t>(c) * 7919 + r;
      switch (options.method) {
        case PiaMethod::kPsopMinHash:
          runs[c] = RunPsopWithMinHash(datasets, options.minhash_m, psop);
          break;
        case PiaMethod::kSketch:
          runs[c] = RunPsopWithSketch(datasets, options.sketch_k, psop);
          break;
        case PiaMethod::kPsopExact:
          runs[c] = RunPsop(datasets, psop);
          break;
      }
    };
    if (options.parallel_deployments > 1 && combos.size() > 1) {
      ComputePool().ParallelFor(combos.size(), run_one);
    } else {
      for (size_t c = 0; c < combos.size(); ++c) {
        run_one(c);
      }
    }
    std::vector<DeploymentSimilarity> ranking;
    for (size_t c = 0; c < combos.size(); ++c) {
      if (!runs[c].ok()) {
        return runs[c].status();
      }
      const PsopResult& run = *runs[c];
      runs_total->Add(1);
      DeploymentSimilarity entry;
      for (size_t idx : combos[c]) {
        entry.providers.push_back(providers[idx].name);
      }
      entry.jaccard = run.jaccard;
      for (size_t i = 0; i < combos[c].size(); ++i) {
        PartyMeter& agg = provider_meters[combos[c][i]];
        const PartyStats& cur = run.party_stats[i];
        agg.AddBytesSent(cur.bytes_sent);
        agg.AddBytesReceived(cur.bytes_received);
        agg.AddEncryptOps(cur.encrypt_ops);
        agg.AddHomomorphicOps(cur.homomorphic_ops);
        agg.AddComputeSeconds(cur.compute_seconds);
      }
      ranking.push_back(std::move(entry));
    }
    std::sort(ranking.begin(), ranking.end(),
              [](const DeploymentSimilarity& a, const DeploymentSimilarity& b) {
                if (a.jaccard != b.jaccard) {
                  return a.jaccard < b.jaccard;
                }
                return a.providers < b.providers;
              });
    report.rankings.push_back(std::move(ranking));
  }
  return report;
}

Result<PiaAllPairsReport> RunAllPairsPiaAudit(const std::vector<CloudProvider>& providers,
                                              const PiaAllPairsOptions& options) {
  if (providers.size() < 2) {
    return InvalidArgumentError("RunAllPairsPiaAudit: need at least two providers");
  }
  std::set<std::string> names;
  std::vector<std::vector<std::string>> sets;
  sets.reserve(providers.size());
  for (const CloudProvider& provider : providers) {
    if (!names.insert(provider.name).second) {
      return InvalidArgumentError("RunAllPairsPiaAudit: duplicate provider '" + provider.name +
                                  "'");
    }
    if (provider.components.empty()) {
      return InvalidArgumentError("RunAllPairsPiaAudit: provider '" + provider.name +
                                  "' has no components");
    }
    sets.push_back(provider.components);
  }

  sketch::AllPairsOptions engine;
  engine.sketch = options.sketch;
  engine.lsh = options.lsh;
  engine.verify = options.verify;
  engine.min_jaccard = options.min_jaccard;
  engine.top = options.top;
  sketch::AllPairsResult result = sketch::RunAllPairs(sets, engine);

  PiaAllPairsReport report;
  report.providers = result.providers;
  report.pairs_possible = result.pairs_possible;
  report.pairs_evaluated = result.pairs_evaluated;
  report.pairs_pruned = result.pairs_pruned;
  report.sketch_bytes = result.sketch_bytes;
  report.pairs.reserve(result.pairs.size());
  for (const sketch::ScoredPair& pair : result.pairs) {
    report.pairs.push_back(
        {providers[pair.a].name, providers[pair.b].name, pair.jaccard});
  }
  return report;
}

std::string RenderAllPairsReport(const PiaAllPairsReport& report) {
  std::string out = StrFormat(
      "All-pairs sketch audit: %zu providers, %zu candidate pairs scored of %zu possible "
      "(%zu pruned), %zu sketch bytes exchanged\n",
      report.providers, report.pairs_evaluated, report.pairs_possible, report.pairs_pruned,
      report.sketch_bytes);
  out += "Least independent provider pairs (highest Jaccard first):\n";
  TextTable table({"Rank", "Provider Pair", "Jaccard"});
  size_t rank = 1;
  for (const RankedProviderPair& pair : report.pairs) {
    table.AddRow({std::to_string(rank++), pair.a + " & " + pair.b,
                  StrFormat("%.4f", pair.jaccard)});
  }
  out += table.ToString();
  return out;
}

std::string RenderPiaReport(const PiaAuditReport& report) {
  std::string out;
  for (size_t level = 0; level < report.rankings.size(); ++level) {
    uint32_t r = report.min_redundancy + static_cast<uint32_t>(level);
    out += StrFormat("%u-way redundancy deployments (most independent first):\n", r);
    TextTable table({"Rank", StrFormat("%u-Way Redundancy Deployment", r), "Jaccard"});
    size_t rank = 1;
    for (const DeploymentSimilarity& entry : report.rankings[level]) {
      table.AddRow({std::to_string(rank++), Join(entry.providers, " & "),
                    StrFormat("%.4f", entry.jaccard)});
    }
    out += table.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace indaas
