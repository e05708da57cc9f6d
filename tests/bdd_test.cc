// Tests for the ROBDD engine, exact top-event probability computation, and
// the BDD oracle for minimal risk groups (CheckMinimalRiskGroups).

#include <gtest/gtest.h>

#include <set>

#include "src/graph/bdd.h"
#include "src/graph/levels.h"
#include "src/sia/ranking.h"
#include "src/sia/risk_groups.h"
#include "src/util/rng.h"
#include "tests/prob_oracle.h"

namespace indaas {
namespace {

TEST(BddManagerTest, TerminalRules) {
  BddManager manager;
  auto x = manager.Var(0);
  ASSERT_TRUE(x.ok());
  auto and_false = manager.And(*x, kBddFalse);
  auto and_true = manager.And(*x, kBddTrue);
  auto or_false = manager.Or(*x, kBddFalse);
  auto or_true = manager.Or(*x, kBddTrue);
  ASSERT_TRUE(and_false.ok());
  ASSERT_TRUE(and_true.ok());
  ASSERT_TRUE(or_false.ok());
  ASSERT_TRUE(or_true.ok());
  EXPECT_EQ(*and_false, kBddFalse);
  EXPECT_EQ(*and_true, *x);
  EXPECT_EQ(*or_false, *x);
  EXPECT_EQ(*or_true, kBddTrue);
}

TEST(BddManagerTest, HashConsingSharesNodes) {
  BddManager manager;
  auto x = manager.Var(3);
  auto y = manager.Var(3);
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(*x, *y);
  auto a = manager.And(*x, *manager.Var(5));
  auto b = manager.And(*manager.Var(5), *x);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);  // Commutative ops hit the same node.
}

TEST(BddManagerTest, ProbabilityOfSimpleFormulas) {
  BddManager manager;
  auto x = manager.Var(0);
  auto y = manager.Var(1);
  auto both = manager.And(*x, *y);
  auto either = manager.Or(*x, *y);
  ASSERT_TRUE(both.ok());
  ASSERT_TRUE(either.ok());
  std::vector<double> probs = {0.1, 0.2};
  EXPECT_NEAR(manager.Probability(*x, probs), 0.1, 1e-15);
  EXPECT_NEAR(manager.Probability(*both, probs), 0.02, 1e-15);
  EXPECT_NEAR(manager.Probability(*either, probs), 0.1 + 0.2 - 0.02, 1e-15);
  EXPECT_DOUBLE_EQ(manager.Probability(kBddFalse, probs), 0.0);
  EXPECT_DOUBLE_EQ(manager.Probability(kBddTrue, probs), 1.0);
}

TEST(BddManagerTest, NodeBudgetEnforced) {
  BddManager manager(/*max_nodes=*/4);  // 2 terminals + 2 real nodes
  ASSERT_TRUE(manager.Var(0).ok());
  ASSERT_TRUE(manager.Var(1).ok());
  EXPECT_FALSE(manager.Var(2).ok());
}

TEST(BddTest, WorkedExampleExact) {
  // Fig 4(b): Pr(T) = 0.224 with A1=0.1, A2=0.2, A3=0.3.
  std::vector<FaultSet> sets = {{"E1", {{"A1", 0.1}, {"A2", 0.2}}},
                                {"E2", {{"A2", 0.2}, {"A3", 0.3}}}};
  auto graph = BuildFromFaultSets(sets);
  ASSERT_TRUE(graph.ok());
  auto prob = TopEventProbabilityBdd(*graph, 0.01);
  ASSERT_TRUE(prob.ok());
  EXPECT_NEAR(*prob, 0.224, 1e-15);
}

// Random graph generator shared with property_test (duplicated locally to
// keep the test binaries independent).
FaultGraph RandomGraph(Rng& rng, size_t num_basic, size_t num_gates) {
  FaultGraph graph;
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < num_basic; ++i) {
    nodes.push_back(graph.AddBasicEvent("b" + std::to_string(i), 0.05 + rng.NextDouble() * 0.4));
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
    switch (rng.NextBelow(3)) {
      case 0:
        nodes.push_back(graph.AddGate("g" + std::to_string(g), GateType::kOr, children));
        break;
      case 1:
        nodes.push_back(graph.AddGate("g" + std::to_string(g), GateType::kAnd, children));
        break;
      default:
        nodes.push_back(graph.AddKofNGate(
            "g" + std::to_string(g), 1 + static_cast<uint32_t>(rng.NextBelow(children.size())),
            children));
        break;
    }
  }
  graph.SetTopEvent(nodes.back());
  EXPECT_TRUE(graph.Validate().ok());
  return graph;
}

class BddVsBruteForceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BddVsBruteForceTest, ExactProbabilityMatches) {
  Rng rng(GetParam() * 1000003);
  for (int trial = 0; trial < 15; ++trial) {
    FaultGraph graph = RandomGraph(rng, 3 + rng.NextBelow(9), 2 + rng.NextBelow(6));
    auto bdd = TopEventProbabilityBdd(graph, 0.1);
    ASSERT_TRUE(bdd.ok());
    double brute = BruteForceTopProb(graph, 0.1);
    EXPECT_NEAR(*bdd, brute, 1e-12) << "seed " << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddVsBruteForceTest, ::testing::Range<uint64_t>(1, 9));

// One compiled BDD read with a basic event's probability set to 1 or 0
// gives Pr(T | event failed / working): what component importance reads.
TEST(BddTest, ConditionedProbabilityMatchesBruteForce) {
  Rng rng(424242);
  for (int trial = 0; trial < 10; ++trial) {
    FaultGraph graph = RandomGraph(rng, 4 + rng.NextBelow(5), 2 + rng.NextBelow(4));
    auto compiled = CompileFaultGraph(graph, 0.1);
    ASSERT_TRUE(compiled.ok());
    for (size_t var = 0; var < compiled->variable_order.size(); ++var) {
      const NodeId id = compiled->variable_order[var];
      for (double value : {1.0, 0.0}) {
        std::vector<double> probs = compiled->probs;
        probs[var] = value;
        EXPECT_NEAR(compiled->manager->Probability(compiled->root, probs),
                    BruteForceTopProb(graph, 0.1, id, value), 1e-12)
            << "trial " << trial << " event " << id << " at " << value;
      }
    }
  }
}

TEST(BddTest, ScalesWhereInclusionExclusionCannot) {
  // 60 shared + unique components across two sources: hundreds of minimal
  // RGs (I-E hopeless at 2^n terms), but the BDD stays small.
  std::vector<ComponentSet> sets;
  for (int s = 0; s < 2; ++s) {
    ComponentSet set{"E" + std::to_string(s), {}};
    for (int c = 0; c < 30; ++c) {
      set.components.push_back("shared" + std::to_string(c % 10));
      set.components.push_back("unique" + std::to_string(s) + "_" + std::to_string(c));
    }
    NormalizeComponentSet(set);
    sets.push_back(std::move(set));
  }
  auto graph = BuildFromComponentSets(sets);
  ASSERT_TRUE(graph.ok());
  auto groups = ComputeMinimalRiskGroups(*graph);
  ASSERT_TRUE(groups.ok());
  EXPECT_GT(groups->groups.size(), 100u);
  auto prob = TopEventProbabilityBdd(*graph, 0.05);
  ASSERT_TRUE(prob.ok());
  // Cross-check against Monte Carlo.
  TopEventOptions options;
  options.default_prob = 0.05;
  double mc = TopEventProbabilityMonteCarlo(*graph, TopEventEngine(*graph, options).base_probs(),
                                            400000, /*seed=*/7, /*threads=*/1);
  EXPECT_NEAR(*prob, mc, 0.01);
}

TEST(BddTest, KofNGateSemantics) {
  FaultGraph graph;
  std::vector<NodeId> basics;
  for (int i = 0; i < 4; ++i) {
    basics.push_back(graph.AddBasicEvent("b" + std::to_string(i), 0.5));
  }
  NodeId top = graph.AddKofNGate("3of4", 3, basics);
  graph.SetTopEvent(top);
  ASSERT_TRUE(graph.Validate().ok());
  auto prob = TopEventProbabilityBdd(graph, 0.5);
  ASSERT_TRUE(prob.ok());
  // P(X >= 3), X ~ Binomial(4, 0.5): (4 + 1) / 16.
  EXPECT_NEAR(*prob, 5.0 / 16.0, 1e-15);
}

TEST(BddTest, RequiresValidatedGraph) {
  FaultGraph graph;
  EXPECT_FALSE(TopEventProbabilityBdd(graph, 0.1).ok());
}

// --- The BDD oracle for minimal risk groups ---

// Random DAGs with up to 40 basic events: past what brute-force enumeration
// can check, the engine's groups must still pass the oracle.
class RgBddOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RgBddOracleTest, EngineGroupsPassOnLargeRandomGraphs) {
  Rng rng(GetParam() * 7727);
  size_t checked = 0;
  for (int trial = 0; trial < 10; ++trial) {
    FaultGraph graph = RandomGraph(rng, 12 + rng.NextBelow(29), 6 + rng.NextBelow(15));
    MinimalRgOptions options;
    options.max_cut_sets_per_node = 200000;
    auto groups = ComputeMinimalRiskGroups(graph, options);
    if (!groups.ok()) {
      ASSERT_EQ(groups.status().code(), StatusCode::kResourceExhausted);
      continue;
    }
    auto oracle = CheckMinimalRiskGroups(graph, groups->groups);
    EXPECT_TRUE(oracle.ok()) << "seed " << GetParam() << " trial " << trial << ": "
                             << oracle.status().ToString();
    ++checked;
  }
  EXPECT_GE(checked, 5u) << "most graphs outgrew the cut-set budget";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RgBddOracleTest, ::testing::Range<uint64_t>(1, 9));

// Each way a list can be wrong is caught: a missing group, a non-minimal or
// non-failing group, a repeat, an unsorted group and a node that is not a
// basic event.
TEST(RgBddOracleTest, RejectsEveryKindOfWrongList) {
  // top = OR(AND(a, b), AND(b, c), d): minimal groups {d}, {a,b}, {b,c}.
  FaultGraph graph;
  NodeId a = graph.AddBasicEvent("a");
  NodeId b = graph.AddBasicEvent("b");
  NodeId c = graph.AddBasicEvent("c");
  NodeId d = graph.AddBasicEvent("d");
  NodeId ab = graph.AddGate("ab", GateType::kAnd, {a, b});
  NodeId bc = graph.AddGate("bc", GateType::kAnd, {b, c});
  NodeId top = graph.AddGate("top", GateType::kOr, {ab, bc, d});
  graph.SetTopEvent(top);
  ASSERT_TRUE(graph.Validate().ok());
  auto result = ComputeMinimalRiskGroups(graph);
  ASSERT_TRUE(result.ok());
  const std::vector<RiskGroup> good = result->groups;
  ASSERT_EQ(good, (std::vector<RiskGroup>{{d}, {a, b}, {b, c}}));
  auto accepted = CheckMinimalRiskGroups(graph, good);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_GT(*accepted, 2u);  // more than the two terminals

  const std::vector<std::pair<std::string, std::vector<RiskGroup>>> broken = {
      {"missing group", {{d}, {a, b}}},
      {"empty list", {}},
      {"superset of a group", {{d}, {a, b}, {b, c}, {a, b, c}}},
      {"group that fails nothing", {{d}, {a, b}, {b, c}, {a, c}}},
      {"repeated group", {{d}, {a, b}, {a, b}, {b, c}}},
      {"unsorted group", {{d}, {b, a}, {b, c}}},
      {"gate instead of event", {{d}, {ab}, {b, c}}},
      {"node out of range", {{d}, {a, b}, {b, c}, {NodeId{999}}}},
  };
  for (const auto& [what, groups] : broken) {
    auto rejected = CheckMinimalRiskGroups(graph, groups);
    ASSERT_FALSE(rejected.ok()) << what;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInternal) << what;
  }
}

TEST(RgBddOracleTest, NodeBudgetFailsCleanly) {
  std::vector<FaultSet> sets = {{"E1", {{"A1", 0.1}, {"A2", 0.2}}},
                                {"E2", {{"A2", 0.2}, {"A3", 0.3}}}};
  auto graph = BuildFromFaultSets(sets);
  ASSERT_TRUE(graph.ok());
  auto result = ComputeMinimalRiskGroups(*graph);
  ASSERT_TRUE(result.ok());
  auto oracle = CheckMinimalRiskGroups(*graph, result->groups, /*max_bdd_nodes=*/3);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace indaas
