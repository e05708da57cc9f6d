// Ablation benches for the design choices called out in DESIGN.md §4:
//   1. MinHash sample size m vs Jaccard estimation error (O(1/sqrt(m)));
//   2. failure-sampling coin bias and greedy-shrink mode (quality knobs).
//
//   bench_ablations [--servers=3] [--paths=8] [--rounds=20000]

#include <cmath>
#include <set>
#include <cstdio>

#include "src/acquire/apt_sim.h"
#include "src/deps/depdb.h"
#include "src/pia/jaccard.h"
#include "src/pia/psop.h"
#include "src/sia/builder.h"
#include "src/sia/risk_groups.h"
#include "src/sia/sampling.h"
#include "src/topology/fat_tree.h"
#include "src/util/flags.h"
#include "src/util/stats.h"
#include "src/util/strings.h"

using namespace indaas;

namespace {

Result<FaultGraph> BuildWorkloadGraph(int64_t servers, int64_t paths) {
  INDAAS_ASSIGN_OR_RETURN(DataCenterTopology topo, BuildFatTree(16));
  INDAAS_ASSIGN_OR_RETURN(DeviceId internet, topo.FindDevice("Internet"));
  DepDb db;
  std::vector<std::string> deployment;
  for (int64_t i = 0; i < servers; ++i) {
    std::string name = StrFormat("pod%lld-srv0-0", (long long)i);
    INDAAS_ASSIGN_OR_RETURN(DeviceId device, topo.FindDevice(name));
    for (const NetworkDependency& dep :
         topo.NetworkDependencies(device, internet, static_cast<size_t>(paths))) {
      db.Add(dep);
    }
    deployment.push_back(name);
  }
  return BuildDeploymentFaultGraph(db, deployment);
}

}  // namespace

int main(int argc, char** argv) {
  int64_t servers = 3;
  int64_t paths = 8;
  int64_t rounds = 20000;
  FlagSet flags;
  flags.AddInt("servers", &servers, "deployment width for the RG workload");
  flags.AddInt("paths", &paths, "ECMP paths per server");
  flags.AddInt("rounds", &rounds, "sampling rounds for ablation 2");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  auto graph = BuildWorkloadGraph(servers, paths);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  // --- Ablation 1: MinHash m ---
  std::printf("=== Ablation 1: MinHash sample size vs estimation error ===\n\n");
  PackageUniverse universe = PackageUniverse::KeyValueStoreUniverse();
  const char* programs[] = {"riak", "mongodb-server", "redis-server", "couchdb"};
  std::vector<std::vector<std::string>> closures;
  for (const char* program : programs) {
    auto closure = universe.Closure(program);
    if (!closure.ok()) {
      return 1;
    }
    closures.push_back(std::move(closure).value());
  }
  TextTable ab1({"m", "Mean |error|", "Max |error|", "1/sqrt(m)", "P-SOP encryptions/provider"});
  for (size_t m : {16u, 64u, 256u, 1024u}) {
    RunningStats error;
    size_t encrypt_ops = 0;
    for (size_t a = 0; a < closures.size(); ++a) {
      for (size_t b = a + 1; b < closures.size(); ++b) {
        auto exact = JaccardSimilarity({closures[a], closures[b]});
        PsopOptions options;
        options.group_bits = 768;
        options.seed = m + a * 7 + b;
        auto approx = RunPsopWithMinHash({closures[a], closures[b]}, m, options);
        if (!exact.ok() || !approx.ok()) {
          return 1;
        }
        error.Add(std::fabs(approx->jaccard - *exact));
        encrypt_ops = approx->party_stats[0].encrypt_ops;
      }
    }
    ab1.AddRow({std::to_string(m), StrFormat("%.4f", error.mean()),
                StrFormat("%.4f", error.max()),
                StrFormat("%.4f", 1.0 / std::sqrt(static_cast<double>(m))),
                std::to_string(encrypt_ops)});
  }
  ab1.Print();
  std::printf("Broder's bound holds: error shrinks as 1/sqrt(m) while protocol cost\n"
              "grows linearly in m.\n\n");

  // --- Ablation 2: sampling bias and shrink mode ---
  std::printf("=== Ablation 2: failure-sampling coin bias x shrink mode ===\n\n");
  auto truth = ComputeMinimalRiskGroups(*graph);
  if (!truth.ok()) {
    return 1;
  }
  std::set<RiskGroup> truth_set(truth->groups.begin(), truth->groups.end());
  TextTable ab2({"Shrink", "Bias", "Failing rounds", "Distinct RGs", "True minimal", "% detected"});
  for (ShrinkMode shrink : {ShrinkMode::kGreedy, ShrinkMode::kNone}) {
    for (double bias : {0.05, 0.2, 0.5}) {
      SamplingOptions options;
      options.rounds = static_cast<size_t>(rounds);
      options.failure_bias = bias;
      options.shrink = shrink;
      options.seed = 9;
      auto sampled = SampleRiskGroups(*graph, options);
      if (!sampled.ok()) {
        return 1;
      }
      size_t minimal_hits = 0;
      for (const RiskGroup& group : sampled->groups) {
        if (truth_set.count(group) != 0) {
          ++minimal_hits;
        }
      }
      ab2.AddRow({shrink == ShrinkMode::kGreedy ? "greedy" : "none (paper)",
                  StrFormat("%.2f", bias), std::to_string(sampled->failing_rounds),
                  std::to_string(sampled->groups.size()), std::to_string(minimal_hits),
                  StrFormat("%.1f%%", 100.0 * static_cast<double>(minimal_hits) /
                                          static_cast<double>(truth->groups.size()))});
    }
  }
  ab2.Print();
  std::printf("The paper's raw algorithm (shrink=none) needs a low bias to emit sets that\n"
              "happen to be minimal; greedy shrink makes every failing round productive.\n");
  return 0;
}
