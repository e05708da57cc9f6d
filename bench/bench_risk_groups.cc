// Microbenchmark for minimal-risk-group enumeration: legacy vector engine vs
// the bitset cut-set engine (DESIGN.md §5) on fat-tree deployment fault
// graphs (k = 8 and 16) and a randomized DAG. Emits one JSON object per line
// so successive PRs can track a BENCH_*.json trajectory:
//
//   {"bench":"rg_fat_tree_k16","engine":"bitset","ns_per_op":...,"groups":...,
//    "identical_to_vector":true,"speedup_vs_vector":...}
//
// The same results are also written as one machine-readable JSON document
// (default BENCH_risk_groups.json, see --json-out) for tooling that prefers
// a single file over scraping stdout.
//
//   bench_risk_groups [--reps=5] [--servers=3] [--paths=16] [--threads=0]
//                     [--dag-basics=14] [--dag-gates=24]
//                     [--json-out=BENCH_risk_groups.json]

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/deps/depdb.h"
#include "src/sia/builder.h"
#include "src/sia/risk_groups.h"
#include "src/topology/fat_tree.h"
#include "src/util/file.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/timer.h"

using namespace indaas;

namespace {

// Deployment fault graph for `servers` servers spread over distinct pods of a
// k-port fat tree, each with `paths` ECMP routes to the Internet (the Fig. 7
// workload shape).
Result<FaultGraph> FatTreeDeploymentGraph(uint32_t ports, size_t servers, size_t paths) {
  INDAAS_ASSIGN_OR_RETURN(DataCenterTopology topo, BuildFatTree(ports));
  INDAAS_ASSIGN_OR_RETURN(DeviceId internet, topo.FindDevice("Internet"));
  DepDb db;
  std::vector<std::string> deployment;
  for (size_t i = 0; i < servers; ++i) {
    std::string name = StrFormat("pod%zu-srv0-0", i % ports);
    INDAAS_ASSIGN_OR_RETURN(DeviceId device, topo.FindDevice(name));
    for (const NetworkDependency& dep : topo.NetworkDependencies(device, internet, paths)) {
      db.Add(dep);
    }
    deployment.push_back(name);
  }
  return BuildDeploymentFaultGraph(db, deployment);
}

// Random DAG mirroring the property-test generator: gates draw 2-4 children
// from all earlier nodes, types uniform over OR / AND / k-of-n.
FaultGraph RandomDag(uint64_t seed, size_t num_basic, size_t num_gates) {
  Rng rng(seed);
  FaultGraph graph;
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < num_basic; ++i) {
    nodes.push_back(graph.AddBasicEvent("b" + std::to_string(i), 0.05 + rng.NextDouble() * 0.3));
  }
  for (size_t g = 0; g < num_gates; ++g) {
    size_t fanin = 2 + rng.NextBelow(3);
    std::vector<NodeId> children;
    std::set<NodeId> used;
    for (size_t c = 0; c < fanin; ++c) {
      NodeId child = nodes[rng.NextBelow(nodes.size())];
      if (used.insert(child).second) {
        children.push_back(child);
      }
    }
    std::string name = "g" + std::to_string(g);
    switch (rng.NextBelow(3)) {
      case 0:
        nodes.push_back(graph.AddGate(name, GateType::kOr, children));
        break;
      case 1:
        nodes.push_back(graph.AddGate(name, GateType::kAnd, children));
        break;
      default:
        nodes.push_back(graph.AddKofNGate(
            name, 1 + static_cast<uint32_t>(rng.NextBelow(children.size())), children));
        break;
    }
  }
  graph.SetTopEvent(nodes.back());
  if (!graph.Validate().ok()) {
    std::fprintf(stderr, "random DAG failed to validate\n");
    std::exit(1);
  }
  return graph;
}

struct EngineRun {
  double ns_per_op = 0.0;
  std::vector<RiskGroup> groups;
};

// One emitted measurement, mirrored into the --json-out document.
struct BenchRecord {
  std::string bench;
  std::string topology;
  std::string engine;
  double ns_per_op = 0.0;
  size_t groups = 0;
  double speedup_vs_vector = 0.0;  // 0 for the vector baseline itself
};

std::vector<BenchRecord>& Records() {
  static std::vector<BenchRecord> records;
  return records;
}

EngineRun TimeEngine(const FaultGraph& graph, RgEngine engine, size_t threads, size_t reps) {
  MinimalRgOptions options;
  options.engine = engine;
  options.threads = threads;
  EngineRun run;
  WallTimer timer;
  for (size_t r = 0; r < reps; ++r) {
    auto result = ComputeMinimalRiskGroups(graph, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    run.groups = std::move(result->groups);
  }
  run.ns_per_op = timer.ElapsedSeconds() * 1e9 / static_cast<double>(reps);
  return run;
}

void RunCase(const std::string& name, const std::string& topology, const FaultGraph& graph,
             size_t threads, size_t reps) {
  EngineRun vec = TimeEngine(graph, RgEngine::kVector, threads, reps);
  EngineRun bits = TimeEngine(graph, RgEngine::kBitset, threads, reps);
  const bool identical = vec.groups == bits.groups;
  std::printf("{\"bench\":\"%s\",\"engine\":\"vector\",\"ns_per_op\":%.0f,\"groups\":%zu}\n",
              name.c_str(), vec.ns_per_op, vec.groups.size());
  std::printf("{\"bench\":\"%s\",\"engine\":\"bitset\",\"ns_per_op\":%.0f,\"groups\":%zu,"
              "\"identical_to_vector\":%s,\"speedup_vs_vector\":%.2f}\n",
              name.c_str(), bits.ns_per_op, bits.groups.size(), identical ? "true" : "false",
              vec.ns_per_op / bits.ns_per_op);
  Records().push_back(BenchRecord{name, topology, "vector", vec.ns_per_op, vec.groups.size(), 0.0});
  Records().push_back(BenchRecord{name, topology, "bitset", bits.ns_per_op, bits.groups.size(),
                                  vec.ns_per_op / bits.ns_per_op});
  if (!identical) {
    std::fprintf(stderr, "ENGINE MISMATCH on %s: vector=%zu groups, bitset=%zu groups\n",
                 name.c_str(), vec.groups.size(), bits.groups.size());
    std::exit(1);
  }
}

std::string RecordsToJson(size_t reps, size_t threads) {
  std::string out = "{\n  \"benchmark\": \"risk_groups\",\n";
  out += StrFormat("  \"reps\": %zu,\n  \"threads\": %zu,\n  \"results\": [\n", reps, threads);
  for (size_t i = 0; i < Records().size(); ++i) {
    const BenchRecord& r = Records()[i];
    out += StrFormat(
        "    {\"bench\": \"%s\", \"topology\": \"%s\", \"engine\": \"%s\", "
        "\"ns_per_op\": %.0f, \"ms_per_op\": %.6f, \"groups\": %zu",
        r.bench.c_str(), r.topology.c_str(), r.engine.c_str(), r.ns_per_op, r.ns_per_op / 1e6,
        r.groups);
    if (r.speedup_vs_vector > 0.0) {
      out += StrFormat(", \"speedup_vs_vector\": %.2f", r.speedup_vs_vector);
    }
    out += i + 1 < Records().size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t reps = 5;
  int64_t servers = 3;
  int64_t paths = 32;
  int64_t threads = 0;
  int64_t dag_basics = 14;
  int64_t dag_gates = 24;
  std::string json_out = "BENCH_risk_groups.json";
  FlagSet flags;
  flags.AddInt("reps", &reps, "repetitions per engine per case");
  flags.AddInt("servers", &servers, "redundant servers in the fat-tree deployment");
  flags.AddInt("paths", &paths, "ECMP paths modeled per server");
  flags.AddInt("threads", &threads, "1 = sequential bitset engine, else the shared compute pool");
  flags.AddInt("dag-basics", &dag_basics, "basic events in the random DAG case");
  flags.AddInt("dag-gates", &dag_gates, "gates in the random DAG case");
  flags.AddString("json-out", &json_out, "machine-readable results file ('' = skip)");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (reps < 1 || servers < 1 || paths < 1) {
    std::fprintf(stderr, "--reps, --servers and --paths must be >= 1\n");
    return 1;
  }

  for (uint32_t ports : {8u, 16u}) {
    auto graph = FatTreeDeploymentGraph(ports, static_cast<size_t>(servers),
                                        static_cast<size_t>(paths));
    if (!graph.ok()) {
      std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
      return 1;
    }
    RunCase(StrFormat("rg_fat_tree_k%u", ports), StrFormat("fat_tree_k%u", ports), *graph,
            static_cast<size_t>(threads), static_cast<size_t>(reps));
  }

  FaultGraph dag = RandomDag(42, static_cast<size_t>(dag_basics), static_cast<size_t>(dag_gates));
  RunCase("rg_random_dag", "random_dag", dag, static_cast<size_t>(threads),
          static_cast<size_t>(reps));

  if (!json_out.empty()) {
    std::string doc = RecordsToJson(static_cast<size_t>(reps), static_cast<size_t>(threads));
    if (Status s = WriteFile(json_out, doc); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", json_out.c_str());
  }
  return 0;
}
