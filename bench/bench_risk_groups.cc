// Microbenchmark for minimal-risk-group enumeration: times the bitset
// cut-set engine (DESIGN.md §5) on fat-tree deployment fault graphs (k = 8
// and 16) and a randomized DAG, then checks every case's result against the
// BDD oracle (CheckMinimalRiskGroups) outside the timed loop. Exits 1 if the
// oracle rejects a result. Emits one JSON object per line so successive PRs
// can track a BENCH_*.json trajectory:
//
//   {"bench":"rg_fat_tree_k16","engine":"bitset","ns_per_op":...,"groups":...,
//    "bdd_nodes":...,"oracle_ms":...}
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

// One emitted measurement, mirrored into the --json-out document.
struct BenchRecord {
  std::string bench;
  std::string topology;
  double ns_per_op = 0.0;
  size_t groups = 0;
  size_t bdd_nodes = 0;  // size of the oracle's BDD
  double oracle_ms = 0.0;
};

std::vector<BenchRecord>& Records() {
  static std::vector<BenchRecord> records;
  return records;
}

void RunCase(const std::string& name, const std::string& topology, const FaultGraph& graph,
             size_t threads, size_t reps) {
  MinimalRgOptions options;
  options.threads = threads;
  std::vector<RiskGroup> groups;
  WallTimer timer;
  for (size_t r = 0; r < reps; ++r) {
    auto result = ComputeMinimalRiskGroups(graph, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    groups = std::move(result->groups);
  }
  const double ns_per_op = timer.ElapsedSeconds() * 1e9 / static_cast<double>(reps);
  WallTimer oracle_timer;
  Result<size_t> bdd_nodes = CheckMinimalRiskGroups(graph, groups);
  const double oracle_ms = oracle_timer.ElapsedSeconds() * 1e3;
  if (!bdd_nodes.ok()) {
    std::fprintf(stderr, "BDD ORACLE FAILED on %s (%zu groups): %s\n", name.c_str(),
                 groups.size(), bdd_nodes.status().ToString().c_str());
    std::exit(1);
  }
  std::printf("{\"bench\":\"%s\",\"engine\":\"bitset\",\"ns_per_op\":%.0f,\"groups\":%zu,"
              "\"bdd_nodes\":%zu,\"oracle_ms\":%.1f}\n",
              name.c_str(), ns_per_op, groups.size(), *bdd_nodes, oracle_ms);
  Records().push_back(BenchRecord{name, topology, ns_per_op, groups.size(), *bdd_nodes, oracle_ms});
}

std::string RecordsToJson(size_t reps, size_t threads) {
  std::string out = "{\n  \"benchmark\": \"risk_groups\",\n";
  out += StrFormat("  \"reps\": %zu,\n  \"threads\": %zu,\n  \"results\": [\n", reps, threads);
  for (size_t i = 0; i < Records().size(); ++i) {
    const BenchRecord& r = Records()[i];
    // "engine" stays in the row so the risk_groups/<bench>/bitset row names
    // in BENCH_*.json snapshots keep their meaning.
    out += StrFormat(
        "    {\"bench\": \"%s\", \"topology\": \"%s\", \"engine\": \"bitset\", "
        "\"ns_per_op\": %.0f, \"ms_per_op\": %.6f, \"groups\": %zu, \"bdd_nodes\": %zu, "
        "\"oracle_ms\": %.1f",
        r.bench.c_str(), r.topology.c_str(), r.ns_per_op, r.ns_per_op / 1e6, r.groups,
        r.bdd_nodes, r.oracle_ms);
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
  flags.AddInt("reps", &reps, "timed repetitions per case");
  flags.AddInt("servers", &servers, "redundant servers in the fat-tree deployment");
  flags.AddInt("paths", &paths, "ECMP paths modeled per server");
  flags.AddInt("threads", &threads, "1 = sequential engine, else the shared compute pool");
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
