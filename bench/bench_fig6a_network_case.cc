// Reproduces the Fig. 6a network case study (§6.2.1): audit all two-way
// redundancy deployments in the 33-ToR / 4-core data center, count how many
// have no unexpected risk group (paper: 27 of 190 = 14%), report the most
// independent pair, and validate it by failure probability with every
// network device at p = 0.1 (as the paper does).
//
//   bench_fig6a_network_case [--racks=20] [--rounds=1000000] [--exact]

#include <algorithm>
#include <cstdio>

#include "src/acquire/nsdminer_sim.h"
#include "src/agent/agent.h"
#include "src/sia/builder.h"
#include "src/sia/ranking.h"
#include "src/topology/case_study.h"
#include "src/util/flags.h"
#include "src/util/strings.h"
#include "src/util/timer.h"

using namespace indaas;

int main(int argc, char** argv) {
  int64_t racks = 20;
  int64_t rounds = 1000000;
  int64_t flows = 80;
  bool exact = false;
  int64_t threads = 4;
  FlagSet flags;
  flags.AddInt("racks", &racks, "candidate racks (paper compares C(20,2)=190 deployments)");
  flags.AddInt("rounds", &rounds, "failure sampling rounds (paper: 10^6)");
  flags.AddInt("flows", &flows, "traffic flows per server for NSDMiner");
  flags.AddBool("exact", &exact, "use the minimal-RG algorithm instead of sampling");
  flags.AddInt("threads", &threads, "sampling worker threads");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  auto topo = BuildCaseStudyDatacenter(33, 1);
  if (!topo.ok()) {
    std::fprintf(stderr, "%s\n", topo.status().ToString().c_str());
    return 1;
  }
  std::printf("Case study topology: 33 ToR switches (e1..e33), 4 core routers "
              "(b1,b2,c1,c2), %zu devices total.\n\n",
              topo->DeviceCount());

  // Acquisition via simulated NSDMiner.
  NsdMinerSim miner(3);
  Rng rng(1);
  for (int64_t r = 1; r <= racks; ++r) {
    auto generated = GenerateTraffic(*topo, StrFormat("rack%lld-srv1", (long long)r), "Internet",
                                     static_cast<size_t>(flows), rng);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
      return 1;
    }
    miner.IngestFlows(*generated);
  }

  AuditingAgent agent;
  agent.AddModule(&miner);
  AuditSpecification spec;
  for (int64_t a = 1; a <= racks; ++a) {
    for (int64_t b = a + 1; b <= racks; ++b) {
      spec.candidate_deployments.push_back({StrFormat("rack%lld-srv1", (long long)a),
                                            StrFormat("rack%lld-srv1", (long long)b)});
    }
  }
  spec.algorithm = exact ? RgAlgorithm::kMinimal : RgAlgorithm::kSampling;
  spec.sampling_rounds = static_cast<size_t>(rounds) / spec.candidate_deployments.size() + 1;
  spec.sampling_bias = 0.1;
  spec.threads = static_cast<size_t>(threads);
  if (Status s = agent.AcquireDependencies(spec); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  WallTimer timer;
  auto report = agent.AuditStructural(spec);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  double audit_seconds = timer.ElapsedSeconds();

  size_t clean = 0;
  for (const DeploymentAudit& audit : report->deployments) {
    if (audit.unexpected_rgs == 0) {
      ++clean;
    }
  }
  size_t total = report->deployments.size();
  std::printf("Audited %zu two-way redundancy deployments in %s (%s, %s).\n", total,
              HumanSeconds(audit_seconds).c_str(), exact ? "minimal-RG" : "failure sampling",
              exact ? "exact" : StrFormat("%zu rounds/deployment", spec.sampling_rounds).c_str());
  std::printf("\n  ours : %zu of %zu deployments (%.0f%%) have no unexpected RG\n", clean, total,
              100.0 * static_cast<double>(clean) / static_cast<double>(total));
  std::printf("  paper: 27 of 190 deployments (14%%) have no unexpected RG\n\n");
  const DeploymentAudit& best = report->deployments.front();
  std::printf("Most independent deployment (ours): {%s}\n", Join(best.servers, ", ").c_str());
  std::printf("  (paper's winner on its unpublished wiring: {Rack 5, Rack 29})\n\n");

  // Validation: with every network device at failure probability 0.1, the
  // suggested deployment must have the lowest outage probability.
  FailureProbabilityModel uniform(0.1);
  std::vector<std::pair<double, std::string>> outage;
  for (const auto& servers : spec.candidate_deployments) {
    BuildOptions build;
    build.prob_model = &uniform;
    auto graph = BuildDeploymentFaultGraph(agent.depdb(), servers, build);
    if (!graph.ok()) {
      std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
      return 1;
    }
    auto groups = ComputeMinimalRiskGroups(*graph);
    if (!groups.ok()) {
      std::fprintf(stderr, "%s\n", groups.status().ToString().c_str());
      return 1;
    }
    TopEventOptions prob;
    prob.default_prob = 0.1;
    auto ranking = RankByImportance(*graph, groups->groups, prob);
    if (!ranking.ok()) {
      std::fprintf(stderr, "%s\n", ranking.status().ToString().c_str());
      return 1;
    }
    outage.emplace_back(ranking->top_event_prob, Join(servers, ", "));
  }
  std::sort(outage.begin(), outage.end());
  std::printf("Failure-probability validation (all devices at p=0.1):\n");
  for (size_t i = 0; i < std::min<size_t>(3, outage.size()); ++i) {
    std::printf("  Pr(outage)=%.6f  {%s}\n", outage[i].first, outage[i].second.c_str());
  }
  double winner_prob = -1.0;
  std::string winner_name = Join(best.servers, ", ");
  for (const auto& [prob, name] : outage) {
    if (name == winner_name) {
      winner_prob = prob;
      break;
    }
  }
  bool winner_validated = winner_prob >= 0.0 && winner_prob <= outage.front().first + 1e-12;
  std::printf("\nSuggested deployment %s the lowest failure probability (paper: it is).\n",
              winner_validated ? "HAS" : "does NOT have");
  return winner_validated ? 0 : 1;
}
