// Tests for src/sia/: minimal risk group algorithm, failure sampling,
// ranking, independence scores, and the DepDB fault-graph builder.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/deps/depdb.h"
#include "src/deps/prob_model.h"
#include "src/graph/levels.h"
#include "src/sia/builder.h"
#include "src/sia/ranking.h"
#include "src/sia/risk_groups.h"
#include "src/sia/sampling.h"
#include "src/util/rng.h"
#include "tests/prob_oracle.h"

namespace indaas {
namespace {

// Figure 4(a): E1 = OR(A1,A2), E2 = OR(A2,A3), top = AND(E1,E2).
// Minimal RGs: {A2} and {A1,A3}.
FaultGraph BuildFig4a(NodeId* a1_out = nullptr, NodeId* a2_out = nullptr,
                      NodeId* a3_out = nullptr) {
  FaultGraph graph;
  NodeId a1 = graph.AddBasicEvent("A1", 0.1);
  NodeId a2 = graph.AddBasicEvent("A2", 0.2);
  NodeId a3 = graph.AddBasicEvent("A3", 0.3);
  NodeId e1 = graph.AddGate("E1 fails", GateType::kOr, {a1, a2});
  NodeId e2 = graph.AddGate("E2 fails", GateType::kOr, {a2, a3});
  NodeId top = graph.AddGate("deployment fails", GateType::kAnd, {e1, e2});
  graph.SetTopEvent(top);
  EXPECT_TRUE(graph.Validate().ok());
  if (a1_out != nullptr) {
    *a1_out = a1;
  }
  if (a2_out != nullptr) {
    *a2_out = a2;
  }
  if (a3_out != nullptr) {
    *a3_out = a3;
  }
  return graph;
}

// Figure 4(c)-style network graph: two servers behind a shared ToR with
// redundant cores. Minimal RGs include {ToR1} and {Core1, Core2}.
FaultGraph BuildSharedTorGraph() {
  FaultGraph graph;
  NodeId tor = graph.AddBasicEvent("ToR1");
  NodeId core1 = graph.AddBasicEvent("Core1");
  NodeId core2 = graph.AddBasicEvent("Core2");
  NodeId s1 = graph.AddBasicEvent("S1");
  NodeId s2 = graph.AddBasicEvent("S2");
  auto server = [&](const std::string& name, NodeId self) {
    NodeId p1 = graph.AddGate(name + "/p1", GateType::kOr, {tor, core1});
    NodeId p2 = graph.AddGate(name + "/p2", GateType::kOr, {tor, core2});
    NodeId net = graph.AddGate(name + "/net", GateType::kAnd, {p1, p2});
    return graph.AddGate(name + " fails", GateType::kOr, {self, net});
  };
  NodeId g1 = server("S1", s1);
  NodeId g2 = server("S2", s2);
  NodeId top = graph.AddGate("top", GateType::kAnd, {g1, g2});
  graph.SetTopEvent(top);
  EXPECT_TRUE(graph.Validate().ok());
  return graph;
}

std::set<std::vector<std::string>> Names(const FaultGraph& graph,
                                         const std::vector<RiskGroup>& groups) {
  std::set<std::vector<std::string>> out;
  for (const RiskGroup& group : groups) {
    std::vector<std::string> names;
    for (NodeId id : group) {
      names.push_back(graph.node(id).name);
    }
    std::sort(names.begin(), names.end());
    out.insert(names);
  }
  return out;
}

// --- Minimal RG algorithm ---

TEST(MinimalRgTest, Fig4aGroups) {
  FaultGraph graph = BuildFig4a();
  auto result = ComputeMinimalRiskGroups(graph);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->size_bounded);
  auto names = Names(graph, result->groups);
  EXPECT_EQ(names, (std::set<std::vector<std::string>>{{"A2"}, {"A1", "A3"}}));
}

TEST(MinimalRgTest, SharedTorGraphGroups) {
  FaultGraph graph = BuildSharedTorGraph();
  auto result = ComputeMinimalRiskGroups(graph);
  ASSERT_TRUE(result.ok());
  auto names = Names(graph, result->groups);
  EXPECT_TRUE(names.count({"ToR1"}) == 1);
  EXPECT_TRUE(names.count({"Core1", "Core2"}) == 1);
  EXPECT_TRUE(names.count({"S1", "S2"}) == 1);
  // Mixed groups: one server down + the other's network out.
  EXPECT_TRUE(names.count({"Core1", "Core2", "S1"}) == 0)  // absorbed by {Core1,Core2}
      << "non-minimal group survived";
}

TEST(MinimalRgTest, EveryResultIsTrulyMinimal) {
  FaultGraph graph = BuildSharedTorGraph();
  auto result = ComputeMinimalRiskGroups(graph);
  ASSERT_TRUE(result.ok());
  for (const RiskGroup& group : result->groups) {
    EXPECT_TRUE(IsMinimalRiskGroup(graph, group));
  }
}

TEST(MinimalRgTest, FixedGraphsPassTheBddOracle) {
  for (const FaultGraph& graph : {BuildFig4a(), BuildSharedTorGraph()}) {
    auto result = ComputeMinimalRiskGroups(graph);
    ASSERT_TRUE(result.ok());
    auto oracle = CheckMinimalRiskGroups(graph, result->groups);
    EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
  }
}

TEST(MinimalRgTest, KofNGateCutSets) {
  // 2-of-3 gate over singletons: cut sets are all pairs.
  FaultGraph graph;
  NodeId a = graph.AddBasicEvent("a");
  NodeId b = graph.AddBasicEvent("b");
  NodeId c = graph.AddBasicEvent("c");
  NodeId top = graph.AddKofNGate("2of3", 2, {a, b, c});
  graph.SetTopEvent(top);
  ASSERT_TRUE(graph.Validate().ok());
  auto result = ComputeMinimalRiskGroups(graph);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->groups.size(), 3u);
  for (const RiskGroup& group : result->groups) {
    EXPECT_EQ(group.size(), 2u);
  }
}

TEST(MinimalRgTest, SizeBoundPrunes) {
  FaultGraph graph = BuildFig4a();
  MinimalRgOptions options;
  options.max_rg_size = 1;
  auto result = ComputeMinimalRiskGroups(graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->size_bounded);
  auto names = Names(graph, result->groups);
  EXPECT_EQ(names, (std::set<std::vector<std::string>>{{"A2"}}));
}

TEST(MinimalRgTest, BudgetExceededFailsCleanly) {
  // AND of many ORs: cut set count is 3^n; a small budget must trip.
  FaultGraph graph;
  std::vector<NodeId> ors;
  for (int i = 0; i < 12; ++i) {
    std::vector<NodeId> basics;
    for (int j = 0; j < 3; ++j) {
      basics.push_back(graph.AddBasicEvent("b" + std::to_string(i) + "_" + std::to_string(j)));
    }
    ors.push_back(graph.AddGate("or" + std::to_string(i), GateType::kOr, basics));
  }
  NodeId top = graph.AddGate("top", GateType::kAnd, ors);
  graph.SetTopEvent(top);
  ASSERT_TRUE(graph.Validate().ok());
  MinimalRgOptions options;
  options.max_cut_sets_per_node = 1000;
  auto result = ComputeMinimalRiskGroups(graph, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(MinimalRgTest, RequiresValidatedGraph) {
  FaultGraph graph;
  EXPECT_FALSE(ComputeMinimalRiskGroups(graph).ok());
}

TEST(MinimalRgTest, BitsetEngineWideGraphCrossesWordBoundary) {
  // 70 basic events force a 2-word stride; OR over all of them plus an AND
  // pair spanning both words.
  FaultGraph graph;
  std::vector<NodeId> basics;
  for (int i = 0; i < 70; ++i) {
    basics.push_back(graph.AddBasicEvent("b" + std::to_string(i)));
  }
  NodeId wide_or = graph.AddGate("wide_or", GateType::kOr,
                                 std::vector<NodeId>(basics.begin() + 2, basics.end()));
  NodeId pair = graph.AddGate("pair", GateType::kAnd, {basics[0], basics[1]});
  NodeId top = graph.AddGate("top", GateType::kOr, {wide_or, pair});
  graph.SetTopEvent(top);
  ASSERT_TRUE(graph.Validate().ok());
  auto result = ComputeMinimalRiskGroups(graph);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->groups.size(), 69u);  // 68 singletons + {b0, b1}
  EXPECT_EQ(result->groups.back(), (RiskGroup{basics[0], basics[1]}));
}

// --- MinimizeRiskGroups / subset helpers ---

TEST(RiskGroupUtilTest, IsSubsetOf) {
  EXPECT_TRUE(IsSubsetOf({1, 3}, {1, 2, 3}));
  EXPECT_FALSE(IsSubsetOf({1, 4}, {1, 2, 3}));
  EXPECT_TRUE(IsSubsetOf({}, {1}));
  EXPECT_FALSE(IsSubsetOf({1, 2}, {1}));
}

TEST(RiskGroupUtilTest, MinimizeRemovesSupersetsAndDupes) {
  auto minimized = MinimizeRiskGroups({{1, 2}, {2}, {1, 2, 3}, {2}, {1, 3}});
  EXPECT_EQ(minimized, (std::vector<RiskGroup>{{2}, {1, 3}}));
}

// --- Failure sampling ---

TEST(SamplingTest, FindsAllGroupsOnSmallGraph) {
  FaultGraph graph = BuildFig4a();
  SamplingOptions options;
  options.rounds = 20000;
  options.failure_bias = 0.2;
  options.shrink = ShrinkMode::kGreedy;
  auto result = SampleRiskGroups(graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Names(graph, result->groups),
            (std::set<std::vector<std::string>>{{"A2"}, {"A1", "A3"}}));
  EXPECT_GT(result->failing_rounds, 0u);
  EXPECT_EQ(result->rounds_executed, 20000u);
}

TEST(SamplingTest, ShrinkYieldsMinimalGroups) {
  FaultGraph graph = BuildSharedTorGraph();
  SamplingOptions options;
  options.rounds = 30000;
  options.failure_bias = 0.15;
  options.shrink = ShrinkMode::kGreedy;
  auto result = SampleRiskGroups(graph, options);
  ASSERT_TRUE(result.ok());
  for (const RiskGroup& group : result->groups) {
    EXPECT_TRUE(IsMinimalRiskGroup(graph, group));
  }
}

TEST(SamplingTest, WithoutShrinkGroupsStillFailTop) {
  FaultGraph graph = BuildSharedTorGraph();
  SamplingOptions options;
  options.rounds = 5000;
  options.failure_bias = 0.3;
  options.shrink = ShrinkMode::kNone;
  auto result = SampleRiskGroups(graph, options);
  ASSERT_TRUE(result.ok());
  for (const RiskGroup& group : result->groups) {
    EXPECT_TRUE(FailsTopEvent(graph, group));
  }
}

TEST(SamplingTest, DeterministicPerSeed) {
  FaultGraph graph = BuildFig4a();
  SamplingOptions options;
  options.rounds = 2000;
  options.seed = 99;
  auto r1 = SampleRiskGroups(graph, options);
  auto r2 = SampleRiskGroups(graph, options);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->groups, r2->groups);
  EXPECT_EQ(r1->failing_rounds, r2->failing_rounds);
}

TEST(SamplingTest, MultithreadedCoversSameGroups) {
  FaultGraph graph = BuildFig4a();
  SamplingOptions options;
  options.rounds = 40000;
  options.failure_bias = 0.2;
  options.threads = 4;
  options.shrink = ShrinkMode::kGreedy;
  auto result = SampleRiskGroups(graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->groups.size(), 2u);
  EXPECT_EQ(result->rounds_executed, 40000u);
}

TEST(SamplingTest, EventProbBiases) {
  FaultGraph graph = BuildFig4a();
  SamplingOptions options;
  options.rounds = 20000;
  options.use_event_probs = true;  // A2 has p=0.2 etc.
  options.shrink = ShrinkMode::kGreedy;
  auto result = SampleRiskGroups(graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->groups.size(), 1u);
}

TEST(SamplingTest, RejectsBadOptions) {
  FaultGraph graph = BuildFig4a();
  SamplingOptions zero_rounds;
  zero_rounds.rounds = 0;
  EXPECT_FALSE(SampleRiskGroups(graph, zero_rounds).ok());
  SamplingOptions bad_bias;
  bad_bias.failure_bias = 1.5;
  EXPECT_FALSE(SampleRiskGroups(graph, bad_bias).ok());
  FaultGraph unvalidated;
  SamplingOptions ok;
  EXPECT_FALSE(SampleRiskGroups(unvalidated, ok).ok());
}

TEST(SamplingTest, EarlyStopOnDistinctGroups) {
  FaultGraph graph = BuildFig4a();
  SamplingOptions options;
  options.rounds = 1000000;
  options.failure_bias = 0.5;
  options.max_distinct_groups = 1;
  options.shrink = ShrinkMode::kGreedy;
  auto result = SampleRiskGroups(graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->rounds_executed, 1000000u);
}

// --- Ranking ---

TEST(RankingTest, SizeRanking) {
  FaultGraph graph = BuildFig4a();
  auto result = ComputeMinimalRiskGroups(graph);
  ASSERT_TRUE(result.ok());
  auto ranked = RankBySize(result->groups);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].group.size(), 1u);  // {A2} first
  EXPECT_DOUBLE_EQ(ranked[0].score, 1.0);
  EXPECT_DOUBLE_EQ(ranked[1].score, 2.0);
  EXPECT_DOUBLE_EQ(IndependenceScore(ranked), 3.0);
  EXPECT_DOUBLE_EQ(IndependenceScore(ranked, 1), 1.0);
}

TEST(RankingTest, PaperWorkedExample) {
  // §4.1.3: Pr(T) = 0.1*0.3 + 0.2 - 0.1*0.3*0.2 = 0.224;
  // I({A2}) = 0.8929, I({A1,A3}) = 0.1339.
  FaultGraph graph = BuildFig4a();
  auto groups = ComputeMinimalRiskGroups(graph);
  ASSERT_TRUE(groups.ok());
  auto ranking = RankByImportance(graph, groups->groups);
  ASSERT_TRUE(ranking.ok());
  EXPECT_NEAR(ranking->top_event_prob, 0.224, 1e-12);
  ASSERT_EQ(ranking->ranked.size(), 2u);
  EXPECT_EQ(ranking->ranked[0].group.size(), 1u);  // {A2} ranked higher
  EXPECT_NEAR(ranking->ranked[0].score, 0.8929, 1e-4);
  EXPECT_NEAR(ranking->ranked[1].score, 0.1339, 1e-4);
}

// The graph's own failure probabilities, default_prob filling the gaps.
std::vector<double> BaseProbs(const FaultGraph& graph, double default_prob) {
  TopEventOptions options;
  options.default_prob = default_prob;
  return TopEventEngine(graph, options).base_probs();
}

TEST(RankingTest, MonteCarloAgreesWithExact) {
  FaultGraph graph = BuildFig4a();
  double exact = BruteForceTopProb(graph, 0.01);
  double mc = TopEventProbabilityMonteCarlo(graph, BaseProbs(graph, 0.01), 400000, /*seed=*/123,
                                            /*threads=*/1);
  EXPECT_NEAR(mc, exact, 0.005);
}

TEST(RankingTest, ParallelMonteCarloIsDeterministicAndAccurate) {
  FaultGraph graph = BuildFig4a();
  const std::vector<double> probs = BaseProbs(graph, 0.01);
  double exact = BruteForceTopProb(graph, 0.01);
  double first = TopEventProbabilityMonteCarlo(graph, probs, 400000, /*seed=*/9, /*threads=*/4);
  double second = TopEventProbabilityMonteCarlo(graph, probs, 400000, /*seed=*/9, /*threads=*/4);
  EXPECT_DOUBLE_EQ(first, second);  // fixed seed + thread count => fixed result
  EXPECT_NEAR(first, exact, 0.005);
}

TEST(RankingTest, SeventyGroupsMatchTheClosedForm) {
  // 70 single-event minimal RGs: far past what an expansion over the groups
  // could reach (2^70 terms), but Pr(T) is exact from the BDD.
  FaultGraph graph;
  std::vector<NodeId> basics;
  for (int i = 0; i < 70; ++i) {
    basics.push_back(graph.AddBasicEvent("b" + std::to_string(i), 0.001));
  }
  NodeId top = graph.AddGate("top", GateType::kOr, basics);
  graph.SetTopEvent(top);
  ASSERT_TRUE(graph.Validate().ok());
  auto groups = ComputeMinimalRiskGroups(graph);
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->groups.size(), 70u);
  auto ranking = RankByImportance(graph, groups->groups);
  ASSERT_TRUE(ranking.ok());
  // Pr(OR of 70 independent p=0.001 events) = 1 - 0.999^70.
  EXPECT_NEAR(ranking->top_event_prob, 1.0 - std::pow(0.999, 70), 1e-9);
}

TEST(RankingTest, GroupProbabilityUsesDefaults) {
  FaultGraph graph;
  NodeId a = graph.AddBasicEvent("a");  // no prob
  NodeId b = graph.AddBasicEvent("b", 0.5);
  NodeId top = graph.AddGate("top", GateType::kAnd, {a, b});
  graph.SetTopEvent(top);
  ASSERT_TRUE(graph.Validate().ok());
  EXPECT_DOUBLE_EQ(GroupProbability(graph, {a, b}, 0.1), 0.05);
}

// --- Builder ---

DepDb MakeFigure3Db() {
  DepDb db;
  // The exact dependency data of the paper's Figure 3.
  db.Add(NetworkDependency{"S1", "Internet", {"ToR1", "Core1"}});
  db.Add(NetworkDependency{"S1", "Internet", {"ToR1", "Core2"}});
  db.Add(NetworkDependency{"S2", "Internet", {"ToR1", "Core1"}});
  db.Add(NetworkDependency{"S2", "Internet", {"ToR1", "Core2"}});
  db.Add(HardwareDependency{"S1", "CPU", "S1-Intel(R)X5550@2.6GHz"});
  db.Add(HardwareDependency{"S1", "Disk", "S1-SED900"});
  db.Add(HardwareDependency{"S2", "CPU", "S2-Intel(R)X5550@2.6GHz"});
  db.Add(HardwareDependency{"S2", "Disk", "S2-SED900"});
  db.Add(SoftwareDependency{"QueryEngine1", "S1", {"libc6", "libgccl"}});
  db.Add(SoftwareDependency{"Riak1", "S1", {"libc6", "libsvn1"}});
  db.Add(SoftwareDependency{"QueryEngine2", "S2", {"libc6", "libgccl"}});
  db.Add(SoftwareDependency{"Riak2", "S2", {"libc6", "libsvn1"}});
  return db;
}

TEST(BuilderTest, Figure3GraphStructureAndRgs) {
  DepDb db = MakeFigure3Db();
  BuildOptions options;
  options.include_server_event = false;
  auto graph = BuildDeploymentFaultGraph(db, {"S1", "S2"}, options);
  ASSERT_TRUE(graph.ok());
  auto groups = ComputeMinimalRiskGroups(*graph);
  ASSERT_TRUE(groups.ok());
  auto names = Names(*graph, groups->groups);
  // The unexpected common dependencies of Fig 4(c): the shared ToR and the
  // shared libc6 are single-component RGs.
  EXPECT_EQ(names.count({"net:tor1"}), 1u);
  EXPECT_EQ(names.count({"pkg:libc6"}), 1u);
  EXPECT_EQ(names.count({"net:core1", "net:core2"}), 1u);
  EXPECT_EQ(names.count({"pkg:libgccl"}), 1u);  // shared across both servers
  EXPECT_EQ(names.count({"pkg:libsvn1"}), 1u);
  // Per-server disks are NOT shared: {S1-disk} alone must not kill both.
  EXPECT_EQ(names.count({"hw:s1-sed900"}), 0u);
}

TEST(BuilderTest, ServerEventCreatesColocationRg) {
  DepDb db;
  // Two VMs whose only hardware dependency is the same host server.
  db.Add(HardwareDependency{"VM7", "Host", "Server2"});
  db.Add(HardwareDependency{"VM8", "Host", "Server2"});
  auto graph = BuildDeploymentFaultGraph(db, {"VM7", "VM8"});
  ASSERT_TRUE(graph.ok());
  auto groups = ComputeMinimalRiskGroups(*graph);
  ASSERT_TRUE(groups.ok());
  auto names = Names(*graph, groups->groups);
  EXPECT_EQ(names.count({"hw:server2"}), 1u);  // the §6.2.2 co-location RG
  EXPECT_EQ(names.count({"VM7", "VM8"}), 1u);
}

TEST(BuilderTest, RequiredServersMakesKofN) {
  DepDb db = MakeFigure3Db();
  db.Add(HardwareDependency{"S3", "CPU", "S3-cpu"});
  BuildOptions options;
  options.required_servers = 2;  // 2-of-3 must stay up
  auto graph = BuildDeploymentFaultGraph(db, {"S1", "S2", "S3"}, options);
  ASSERT_TRUE(graph.ok());
  const FaultNode& top = graph->node(graph->top_event());
  EXPECT_EQ(top.gate, GateType::kKofN);
  EXPECT_EQ(top.k, 2u);
}

TEST(BuilderTest, SoftwareFilter) {
  DepDb db = MakeFigure3Db();
  BuildOptions options;
  options.software_of_interest = {"Riak1", "Riak2"};
  auto graph = BuildDeploymentFaultGraph(db, {"S1", "S2"}, options);
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(graph->FindNode("pkg:libgccl").ok());  // QueryEngine excluded
  EXPECT_TRUE(graph->FindNode("pkg:libsvn1").ok());
}

TEST(BuilderTest, TypeTogglesExcludeLayers) {
  DepDb db = MakeFigure3Db();
  BuildOptions options;
  options.include_software = false;
  options.include_hardware = false;
  auto graph = BuildDeploymentFaultGraph(db, {"S1", "S2"}, options);
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(graph->FindNode("pkg:libc6").ok());
  EXPECT_FALSE(graph->FindNode("hw:s1-sed900").ok());
  EXPECT_TRUE(graph->FindNode("net:tor1").ok());
}

TEST(BuilderTest, ProbabilityModelAppliesWeights) {
  DepDb db = MakeFigure3Db();
  FailureProbabilityModel model = FailureProbabilityModel::GillEtAlDefaults();
  BuildOptions options;
  options.prob_model = &model;
  auto graph = BuildDeploymentFaultGraph(db, {"S1", "S2"}, options);
  ASSERT_TRUE(graph.ok());
  auto tor = graph->FindNode("net:tor1");
  ASSERT_TRUE(tor.ok());
  EXPECT_DOUBLE_EQ(graph->node(*tor).failure_prob, 0.05);
}

TEST(BuilderTest, RejectsBadInput) {
  DepDb db = MakeFigure3Db();
  EXPECT_FALSE(BuildDeploymentFaultGraph(db, {}).ok());
  EXPECT_FALSE(BuildDeploymentFaultGraph(db, {"S1", "S1"}).ok());
  BuildOptions options;
  options.required_servers = 5;
  EXPECT_FALSE(BuildDeploymentFaultGraph(db, {"S1", "S2"}, options).ok());
  BuildOptions no_self;
  no_self.include_server_event = false;
  EXPECT_FALSE(BuildDeploymentFaultGraph(db, {"unknown-server"}, no_self).ok());
}

TEST(BuilderTest, SingleServerDeployment) {
  DepDb db = MakeFigure3Db();
  auto graph = BuildDeploymentFaultGraph(db, {"S1"});
  ASSERT_TRUE(graph.ok());
  auto groups = ComputeMinimalRiskGroups(*graph);
  ASSERT_TRUE(groups.ok());
  auto names = Names(*graph, groups->groups);
  // Every non-redundant dependency is a singleton RG...
  EXPECT_EQ(names.count({"net:tor1"}), 1u);
  EXPECT_EQ(names.count({"pkg:libc6"}), 1u);
  EXPECT_EQ(names.count({"hw:s1-sed900"}), 1u);
  // ...but the redundant core paths still need both cores.
  EXPECT_EQ(names.count({"net:core1", "net:core2"}), 1u);
  EXPECT_EQ(names.count({"net:core1"}), 0u);
  for (const RiskGroup& group : groups->groups) {
    EXPECT_TRUE(IsMinimalRiskGroup(*graph, group));
  }
}

// Cross-validation: on random two-level graphs, sampling with shrink must
// only produce genuine minimal RGs and must find all of them given enough
// rounds (they are few).
TEST(SamplingVsExactTest, RandomComponentSetGraphsAgree) {
  Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<ComponentSet> sets;
    size_t num_sources = 2 + rng.NextBelow(2);
    for (size_t s = 0; s < num_sources; ++s) {
      ComponentSet set;
      set.source = "E" + std::to_string(s);
      size_t count = 2 + rng.NextBelow(3);
      for (size_t c = 0; c < count; ++c) {
        // Small shared namespace so overlaps are common.
        set.components.push_back("C" + std::to_string(rng.NextBelow(6)));
      }
      NormalizeComponentSet(set);
      sets.push_back(std::move(set));
    }
    auto graph = BuildFromComponentSets(sets);
    if (!graph.ok()) {
      continue;  // e.g. an empty set after dedup — skip.
    }
    auto exact = ComputeMinimalRiskGroups(*graph);
    ASSERT_TRUE(exact.ok());
    SamplingOptions options;
    options.rounds = 30000;
    options.failure_bias = 0.25;
    options.shrink = ShrinkMode::kGreedy;
    options.seed = 7 + static_cast<uint64_t>(trial);
    auto sampled = SampleRiskGroups(*graph, options);
    ASSERT_TRUE(sampled.ok());
    EXPECT_EQ(Names(*graph, sampled->groups), Names(*graph, exact->groups)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace indaas
