// Tests for src/agent/: SIA audit orchestration, report rendering, report
// diffing, and the auditing agent facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/acquire/apt_sim.h"
#include "src/acquire/lshw_sim.h"
#include "src/agent/agent.h"
#include "src/agent/report_diff.h"
#include "src/agent/sia_audit.h"
#include "src/graph/levels.h"
#include "src/sia/builder.h"
#include "src/util/strings.h"
#include "tests/fat_tree_shape.h"

namespace indaas {
namespace {

// Two candidate pairs: {S1,S2} share a ToR and libc6; {S1,S3} share nothing.
DepDb MakeDb() {
  DepDb db;
  db.Add(NetworkDependency{"S1", "Internet", {"ToR1", "Core1"}});
  db.Add(NetworkDependency{"S1", "Internet", {"ToR1", "Core2"}});
  db.Add(NetworkDependency{"S2", "Internet", {"ToR1", "Core1"}});
  db.Add(NetworkDependency{"S2", "Internet", {"ToR1", "Core2"}});
  db.Add(NetworkDependency{"S3", "Internet", {"ToR2", "Core3"}});
  db.Add(NetworkDependency{"S3", "Internet", {"ToR2", "Core4"}});
  db.Add(SoftwareDependency{"Riak1", "S1", {"libc6", "libsvn1"}});
  db.Add(SoftwareDependency{"Riak2", "S2", {"libc6", "libsvn1"}});
  db.Add(SoftwareDependency{"Riak3", "S3", {"musl", "libsvn2"}});
  return db;
}

TEST(SiaAuditTest, RanksIndependentPairFirst) {
  DepDb db = MakeDb();
  AuditSpecification spec;
  spec.candidate_deployments = {{"S1", "S2"}, {"S1", "S3"}};
  auto report = RunSiaAudit(db, spec);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->deployments.size(), 2u);
  // {S1,S3} has no shared dependency -> no unexpected RGs -> ranked first.
  EXPECT_EQ(report->deployments[0].servers, (std::vector<std::string>{"S1", "S3"}));
  EXPECT_EQ(report->deployments[0].unexpected_rgs, 0u);
  EXPECT_GT(report->deployments[1].unexpected_rgs, 0u);
}

TEST(SiaAuditTest, SamplingAlgorithmAgreesOnWinner) {
  DepDb db = MakeDb();
  AuditSpecification spec;
  spec.candidate_deployments = {{"S1", "S2"}, {"S1", "S3"}};
  spec.algorithm = RgAlgorithm::kSampling;
  spec.sampling_rounds = 30000;
  spec.sampling_bias = 0.15;
  auto report = RunSiaAudit(db, spec);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->deployments[0].servers, (std::vector<std::string>{"S1", "S3"}));
}

TEST(SiaAuditTest, ProbabilityMetricReportsOutageProb) {
  DepDb db = MakeDb();
  FailureProbabilityModel model = FailureProbabilityModel::GillEtAlDefaults();
  AuditSpecification spec;
  spec.candidate_deployments = {{"S1", "S2"}, {"S1", "S3"}};
  spec.metric = RankingMetric::kFailureProbability;
  auto report = RunSiaAudit(db, spec, &model);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->deployments.size(), 2u);
  // Independent pair has strictly lower outage probability.
  EXPECT_EQ(report->deployments[0].servers, (std::vector<std::string>{"S1", "S3"}));
  EXPECT_LT(report->deployments[0].top_event_prob, report->deployments[1].top_event_prob);
  EXPECT_GT(report->deployments[0].top_event_prob, 0.0);
}

TEST(SiaAuditTest, ProbabilityMetricNeedsModel) {
  DepDb db = MakeDb();
  AuditSpecification spec;
  spec.candidate_deployments = {{"S1", "S2"}};
  spec.metric = RankingMetric::kFailureProbability;
  EXPECT_FALSE(RunSiaAudit(db, spec, nullptr).ok());
}

TEST(SiaAuditTest, EmptySpecRejected) {
  DepDb db = MakeDb();
  AuditSpecification spec;
  EXPECT_FALSE(RunSiaAudit(db, spec).ok());
}

TEST(SiaAuditTest, RenderContainsRanking) {
  DepDb db = MakeDb();
  AuditSpecification spec;
  spec.candidate_deployments = {{"S1", "S2"}, {"S1", "S3"}};
  auto report = RunSiaAudit(db, spec);
  ASSERT_TRUE(report.ok());
  std::string text = RenderSiaReport(*report);
  EXPECT_NE(text.find("#1"), std::string::npos);
  EXPECT_NE(text.find("S1, S3"), std::string::npos);
  EXPECT_NE(text.find("RG 1"), std::string::npos);
}

TEST(AuditingAgentTest, EndToEndAcquisitionAndAudit) {
  // Wire the agent with real (simulated) acquisition modules and run the
  // full Figure 1 flow.
  PackageUniverse universe = PackageUniverse::KeyValueStoreUniverse();
  AptRdependsSim apt(&universe);
  ASSERT_TRUE(apt.InstallProgram("S1", "riak").ok());
  ASSERT_TRUE(apt.InstallProgram("S2", "riak").ok());
  ASSERT_TRUE(apt.InstallProgram("S3", "redis-server").ok());
  LshwSim lshw;
  Rng rng(11);
  lshw.RegisterMachine("S1", LshwSim::RandomSpec(rng));
  lshw.RegisterMachine("S2", LshwSim::RandomSpec(rng));
  lshw.RegisterMachine("S3", LshwSim::RandomSpec(rng));

  AuditingAgent agent;
  agent.AddModule(&apt);
  agent.AddModule(&lshw);

  AuditSpecification spec;
  spec.candidate_deployments = {{"S1", "S2"}, {"S1", "S3"}};
  ASSERT_TRUE(agent.AcquireDependencies(spec).ok());
  EXPECT_GT(agent.depdb().TotalCount(), 0u);

  auto report = agent.AuditStructural(spec);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->deployments.size(), 2u);
  // Riak+Riak share the whole closure; Riak+Redis share much less — but both
  // share something (libc6 etc.), so compare unexpected-RG counts.
  const auto& best = report->deployments[0];
  EXPECT_EQ(best.servers, (std::vector<std::string>{"S1", "S3"}));
}

TEST(AuditingAgentTest, PrivateAuditThroughFacade) {
  PackageUniverse universe = PackageUniverse::KeyValueStoreUniverse();
  auto riak = universe.Closure("riak");
  auto redis = universe.Closure("redis-server");
  ASSERT_TRUE(riak.ok());
  ASSERT_TRUE(redis.ok());
  AuditingAgent agent;
  PiaAuditOptions options;
  options.psop.group_bits = 768;
  options.max_redundancy = 2;
  auto report = agent.AuditPrivate({{"Cloud1", *riak}, {"Cloud3", *redis}}, options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->rankings[0].size(), 1u);
  // J(Riak, Redis) calibrated near the paper's 0.2939.
  EXPECT_NEAR(report->rankings[0][0].jaccard, 0.2939, 0.03);
}

TEST(SiaAuditTest, ParallelDeploymentsMatchSequential) {
  DepDb db = MakeDb();
  AuditSpecification spec;
  spec.candidate_deployments = {{"S1", "S2"}, {"S1", "S3"}, {"S2", "S3"}};
  auto sequential = RunSiaAudit(db, spec);
  spec.parallel_deployments = 4;
  auto parallel = RunSiaAudit(db, spec);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(sequential->deployments.size(), parallel->deployments.size());
  for (size_t i = 0; i < sequential->deployments.size(); ++i) {
    EXPECT_EQ(sequential->deployments[i].servers, parallel->deployments[i].servers);
    EXPECT_EQ(sequential->deployments[i].unexpected_rgs, parallel->deployments[i].unexpected_rgs);
    EXPECT_DOUBLE_EQ(sequential->deployments[i].independence_score,
                     parallel->deployments[i].independence_score);
  }
}

// --- Name-based reference for the report ---

// A deployment audit as computed from component names: each RG a list of
// names, and an RG unexpected when it is narrower than the redundancy or
// names a component in two or more servers' downgraded component sets.
// RunSiaAudit works on NodeIds and a name table instead; it must give the
// same counts and the same rendered text.
struct NamedAudit {
  std::vector<std::string> servers;
  std::vector<std::vector<std::string>> groups;
  std::vector<double> scores;
  double independence_score = 0.0;
  size_t unexpected_rgs = 0;
};

std::set<std::string> SharedAcrossServersByName(const FaultGraph& graph) {
  auto sets = DowngradeToComponentSets(graph);
  if (!sets.ok()) {
    return {};
  }
  std::map<std::string, int> counts;
  for (const ComponentSet& set : *sets) {
    for (const std::string& component : set.components) {
      ++counts[component];
    }
  }
  std::set<std::string> shared;
  for (const auto& [component, count] : counts) {
    if (count >= 2) {
      shared.insert(component);
    }
  }
  return shared;
}

// Minimal RGs ranked by size, as RunSiaAudit does with the default spec.
Result<NamedAudit> ReferenceAudit(const DepDb& db, const AuditSpecification& spec,
                                  const std::vector<std::string>& servers) {
  BuildOptions build;
  build.required_servers = spec.required_servers;
  INDAAS_ASSIGN_OR_RETURN(FaultGraph graph, BuildDeploymentFaultGraph(db, servers, build));
  INDAAS_ASSIGN_OR_RETURN(MinimalRgResult exact, ComputeMinimalRiskGroups(graph));
  std::vector<RankedRiskGroup> ranked = RankBySize(std::move(exact.groups));
  NamedAudit audit;
  audit.servers = servers;
  audit.independence_score = IndependenceScore(ranked, spec.score_top_n);
  const size_t width = spec.required_servers == 0
                           ? servers.size()
                           : servers.size() - spec.required_servers + 1;
  const std::set<std::string> shared = SharedAcrossServersByName(graph);
  for (const RankedRiskGroup& entry : ranked) {
    std::vector<std::string> names;
    bool touches_shared = false;
    for (NodeId id : entry.group) {
      names.push_back(graph.node(id).name);
      touches_shared = touches_shared || shared.count(names.back()) != 0;
    }
    if (entry.group.size() < width || touches_shared) {
      ++audit.unexpected_rgs;
    }
    audit.groups.push_back(std::move(names));
    audit.scores.push_back(entry.score);
  }
  return audit;
}

// The report text from name lists, deployments ranked as RunSiaAudit ranks
// them under the size metric.
std::string RenderReference(std::vector<NamedAudit> audits) {
  std::stable_sort(audits.begin(), audits.end(), [](const NamedAudit& a, const NamedAudit& b) {
    if (a.unexpected_rgs != b.unexpected_rgs) {
      return a.unexpected_rgs < b.unexpected_rgs;
    }
    return a.independence_score > b.independence_score;
  });
  std::string out = "SIA auditing report (algorithm: minimal-RG, metric: size)\n";
  size_t rank = 1;
  for (const NamedAudit& audit : audits) {
    out += StrFormat("#%zu  deployment {%s}  score=%.4f  unexpected RGs=%zu\n", rank++,
                     Join(audit.servers, ", ").c_str(), audit.independence_score,
                     audit.unexpected_rgs);
    for (size_t g = 0; g < audit.groups.size() && g < 4; ++g) {
      out += StrFormat("    RG %zu: {%s}  score=%.4f\n", g + 1,
                       Join(audit.groups[g], ", ").c_str(), audit.scores[g]);
    }
  }
  return out;
}

// RunSiaAudit against the name-based reference: every deployment's
// unexpected-RG count and RG names, and the rendered report.
void ExpectMatchesNameReference(const DepDb& db, const AuditSpecification& spec) {
  auto report = RunSiaAudit(db, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::vector<NamedAudit> reference;
  for (const std::vector<std::string>& servers : spec.candidate_deployments) {
    auto named = ReferenceAudit(db, spec, servers);
    ASSERT_TRUE(named.ok()) << named.status().ToString();
    reference.push_back(std::move(named).value());
  }
  ASSERT_EQ(report->deployments.size(), reference.size());
  for (const NamedAudit& want : reference) {
    auto got = std::find_if(report->deployments.begin(), report->deployments.end(),
                            [&](const DeploymentAudit& a) { return a.servers == want.servers; });
    ASSERT_NE(got, report->deployments.end()) << Join(want.servers, ",");
    const std::string where = Join(want.servers, ",");
    EXPECT_EQ(got->unexpected_rgs, want.unexpected_rgs) << where;
    ASSERT_EQ(got->ranked_groups.size(), want.groups.size()) << where;
    for (size_t g = 0; g < want.groups.size(); ++g) {
      EXPECT_EQ(got->Names(got->ranked_groups[g]), want.groups[g]) << where << " RG " << g;
      EXPECT_EQ(got->ranked_groups[g].score, want.scores[g]) << where << " RG " << g;
    }
    // The table holds exactly the names the groups use.
    std::set<std::string> used;
    for (const std::vector<std::string>& names : want.groups) {
      used.insert(names.begin(), names.end());
    }
    EXPECT_EQ(got->components.size(), used.size()) << where;
  }
  EXPECT_EQ(RenderSiaReport(*report), RenderReference(std::move(reference)));
}

TEST(SiaAuditReferenceTest, PaperExampleMatchesNameReference) {
  DepDb db = MakeDb();
  AuditSpecification spec;
  spec.candidate_deployments = {{"S1", "S2"}, {"S1", "S3"}, {"S2", "S3"}, {"S1", "S2", "S3"}};
  ExpectMatchesNameReference(db, spec);
  spec.required_servers = 2;
  spec.candidate_deployments = {{"S1", "S2", "S3"}, {"S3", "S2", "S1"}};
  ExpectMatchesNameReference(db, spec);
}

// The two configurations of examples/periodic_audit.cpp: independent
// switches, then both servers behind SwitchA.
DepDb PeriodicAuditWeek(bool recabled) {
  DepDb db;
  const std::string s2_switch = recabled ? "SwitchA" : "SwitchB";
  db.Add(NetworkDependency{"S1", "Internet", {"SwitchA", "Core1"}});
  db.Add(NetworkDependency{"S1", "Internet", {"SwitchA", "Core2"}});
  db.Add(NetworkDependency{"S2", "Internet", {s2_switch, "Core1"}});
  db.Add(NetworkDependency{"S2", "Internet", {s2_switch, "Core2"}});
  db.Add(SoftwareDependency{"riak1", "S1", {"libc6=2.13", "erlang=15b"}});
  db.Add(SoftwareDependency{"riak2", "S2", {"libc6=2.13", "erlang=15b"}});
  return db;
}

TEST(SiaAuditReferenceTest, PeriodicAuditReportsAndDiffUnchanged) {
  AuditSpecification spec;
  spec.candidate_deployments = {{"S1", "S2"}};
  DepDb week1 = PeriodicAuditWeek(false);
  DepDb week2 = PeriodicAuditWeek(true);
  ExpectMatchesNameReference(week1, spec);
  ExpectMatchesNameReference(week2, spec);
  auto report1 = RunSiaAudit(week1, spec);
  auto report2 = RunSiaAudit(week2, spec);
  ASSERT_TRUE(report1.ok());
  ASSERT_TRUE(report2.ok());
  // The diff examples/periodic_audit prints, as it printed when groups were
  // name lists.
  EXPECT_EQ(RenderAuditDiff(DiffSiaReports(*report1, *report2)),
            "deployment {S1, S2}: unexpected RGs 3 -> 4  ** REGRESSION **\n"
            "  + new RG {net:switcha}\n"
            "  - resolved RG {S1, net:switchb}\n"
            "  - resolved RG {S2, net:switcha}\n"
            "  - resolved RG {net:switcha, net:switchb}\n");
}

// The fat-tree deployments of the remote SIA benchmark, at full redundancy
// and at 2-of-3, the second on the parallel-deployment path.
TEST(SiaAuditReferenceTest, FatTreeDeploymentsMatchNameReference) {
  constexpr uint32_t kPorts = 16;
  Rng rng(16);
  auto db = FatTreeShapeDepDb(kPorts, rng);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  AuditSpecification spec;
  for (int trial = 0; trial < 6; ++trial) {
    spec.candidate_deployments.push_back(FatTreeShapeDeployment(kPorts, trial, rng));
  }
  ExpectMatchesNameReference(*db, spec);
  spec.required_servers = 2;
  spec.parallel_deployments = 4;
  ExpectMatchesNameReference(*db, spec);
}

TEST(AuditingAgentTest, AcquireWithoutHostsFails) {
  AuditingAgent agent;
  AuditSpecification spec;
  EXPECT_FALSE(agent.AcquireDependencies(spec).ok());
}

TEST(AuditingAgentTest, ComposedDeploymentAudit) {
  // Two servers whose only catalogued dependency is the opaque "EBS"
  // service; composing the EBS fault graph in exposes its internal control
  // server as a size-1 risk group.
  AuditingAgent agent;
  agent.depdb().Add(HardwareDependency{"S1", "Service", "EBS"});
  agent.depdb().Add(HardwareDependency{"S2", "Service", "EBS"});

  FaultGraph ebs;
  NodeId control = ebs.AddBasicEvent("ebs-control");
  NodeId backend_a = ebs.AddBasicEvent("ebs-backend-a");
  NodeId backend_b = ebs.AddBasicEvent("ebs-backend-b");
  NodeId chain_a = ebs.AddGate("chain a", GateType::kOr, {backend_a, control});
  NodeId chain_b = ebs.AddGate("chain b", GateType::kOr, {backend_b, control});
  NodeId top = ebs.AddGate("ebs fails", GateType::kAnd, {chain_a, chain_b});
  ebs.SetTopEvent(top);
  ASSERT_TRUE(ebs.Validate().ok());

  auto groups = agent.AuditComposedDeployment({"S1", "S2"}, {{"hw:ebs", &ebs}});
  ASSERT_TRUE(groups.ok());
  ASSERT_FALSE(groups->empty());
  // Size-ranked: the spliced-in control server is the top (size-1) RG.
  EXPECT_EQ((*groups)[0], (std::vector<std::string>{"ebs-control"}));
  // Unknown placeholder is an error.
  EXPECT_FALSE(agent.AuditComposedDeployment({"S1", "S2"}, {{"nope", &ebs}}).ok());
}

}  // namespace
}  // namespace indaas
