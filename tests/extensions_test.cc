// Tests for the extension modules: fault graph serialization, component
// importance measures, and what-if failure simulation.

#include <gtest/gtest.h>

#include <set>

#include "src/graph/levels.h"
#include "src/graph/serialize.h"
#include "src/sia/importance.h"
#include "src/sia/ranking.h"
#include "src/sia/risk_groups.h"
#include "src/sia/whatif.h"
#include "src/util/rng.h"

namespace indaas {
namespace {

FaultGraph BuildSample() {
  FaultGraph graph;
  NodeId a1 = graph.AddBasicEvent("A1", 0.1);
  NodeId a2 = graph.AddBasicEvent("A2", 0.2);
  NodeId a3 = graph.AddBasicEvent("A3", 0.3);
  NodeId e1 = graph.AddGate("E1 fails", GateType::kOr, {a1, a2});
  NodeId e2 = graph.AddGate("E2 fails", GateType::kOr, {a2, a3});
  NodeId top = graph.AddGate("deployment fails", GateType::kAnd, {e1, e2});
  graph.SetTopEvent(top);
  EXPECT_TRUE(graph.Validate().ok());
  return graph;
}

// --- Serialization ---

TEST(SerializeTest, RoundTripPreservesEverything) {
  FaultGraph graph = BuildSample();
  auto text = SerializeFaultGraph(graph);
  ASSERT_TRUE(text.ok());
  auto parsed = ParseFaultGraph(*text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->NodeCount(), graph.NodeCount());
  for (NodeId id = 0; id < graph.NodeCount(); ++id) {
    EXPECT_EQ(parsed->node(id).name, graph.node(id).name);
    EXPECT_EQ(parsed->node(id).gate, graph.node(id).gate);
    EXPECT_EQ(parsed->node(id).children, graph.node(id).children);
    EXPECT_DOUBLE_EQ(parsed->node(id).failure_prob, graph.node(id).failure_prob);
  }
  EXPECT_EQ(parsed->top_event(), graph.top_event());
  // Second round trip is byte-identical (canonical form).
  auto text2 = SerializeFaultGraph(*parsed);
  ASSERT_TRUE(text2.ok());
  EXPECT_EQ(*text, *text2);
}

TEST(SerializeTest, KofNAndEscapedNames) {
  FaultGraph graph;
  NodeId a = graph.AddBasicEvent("name \"with\" quotes");
  NodeId b = graph.AddBasicEvent("back\\slash");
  NodeId c = graph.AddBasicEvent("plain");
  NodeId top = graph.AddKofNGate("2of3", 2, {a, b, c});
  graph.SetTopEvent(top);
  ASSERT_TRUE(graph.Validate().ok());
  auto text = SerializeFaultGraph(graph);
  ASSERT_TRUE(text.ok());
  auto parsed = ParseFaultGraph(*text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->node(a).name, "name \"with\" quotes");
  EXPECT_EQ(parsed->node(b).name, "back\\slash");
  EXPECT_EQ(parsed->node(top).k, 2u);
  EXPECT_EQ(parsed->node(top).gate, GateType::kKofN);
}

TEST(SerializeTest, PreservesMinimalRiskGroups) {
  FaultGraph graph = BuildSample();
  auto text = SerializeFaultGraph(graph);
  ASSERT_TRUE(text.ok());
  auto parsed = ParseFaultGraph(*text);
  ASSERT_TRUE(parsed.ok());
  auto original = ComputeMinimalRiskGroups(graph);
  auto round_tripped = ComputeMinimalRiskGroups(*parsed);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(round_tripped.ok());
  EXPECT_EQ(original->groups, round_tripped->groups);
}

// Random-graph round-trip property, swept over seeds.
class SerializeRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializeRoundTripTest, RandomGraphsSurvive) {
  Rng rng(GetParam() * 6364136223846793005ULL);
  for (int trial = 0; trial < 10; ++trial) {
    FaultGraph graph;
    std::vector<NodeId> nodes;
    size_t basics = 2 + rng.NextBelow(6);
    for (size_t i = 0; i < basics; ++i) {
      double prob = rng.NextBool(0.5) ? rng.NextDouble() : kUnknownProb;
      nodes.push_back(graph.AddBasicEvent("b" + std::to_string(i), prob));
    }
    for (size_t g = 0; g < 2 + rng.NextBelow(4); ++g) {
      std::vector<NodeId> children;
      std::set<NodeId> used;
      for (size_t c = 0; c < 2 + rng.NextBelow(3); ++c) {
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
              "g" + std::to_string(g),
              1 + static_cast<uint32_t>(rng.NextBelow(children.size())), children));
          break;
      }
    }
    graph.SetTopEvent(nodes.back());
    ASSERT_TRUE(graph.Validate().ok());
    auto text = SerializeFaultGraph(graph);
    ASSERT_TRUE(text.ok());
    auto parsed = ParseFaultGraph(*text);
    ASSERT_TRUE(parsed.ok()) << *text;
    // Same minimal RGs and same top-event semantics.
    auto original = ComputeMinimalRiskGroups(graph);
    auto round_tripped = ComputeMinimalRiskGroups(*parsed);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(round_tripped.ok());
    EXPECT_EQ(original->groups, round_tripped->groups) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeRoundTripTest, ::testing::Range<uint64_t>(1, 7));

TEST(SerializeTest, RejectsMalformed) {
  EXPECT_FALSE(ParseFaultGraph("").ok());
  EXPECT_FALSE(ParseFaultGraph("not a graph").ok());
  EXPECT_FALSE(ParseFaultGraph("faultgraph v1\n").ok());  // no top
  EXPECT_FALSE(ParseFaultGraph("faultgraph v1\nnode 0 basic \"a\"\ntop 5\n").ok());
  EXPECT_FALSE(ParseFaultGraph("faultgraph v1\nnode 1 basic \"a\"\ntop 1\n").ok());  // non-dense
  EXPECT_FALSE(
      ParseFaultGraph("faultgraph v1\nnode 0 or \"g\" children=1\ntop 0\n").ok());  // fwd ref
  EXPECT_FALSE(
      ParseFaultGraph("faultgraph v1\nnode 0 wat \"a\"\ntop 0\n").ok());  // unknown kind
}

TEST(SerializeTest, RequiresValidatedGraph) {
  FaultGraph graph;
  graph.AddBasicEvent("a");
  EXPECT_FALSE(SerializeFaultGraph(graph).ok());
}

// --- Importance measures ---

TEST(ImportanceTest, WorkedExample) {
  // Fig 4(b): minimal RGs {A2} and {A1,A3}; Pr(T)=0.224.
  // Birnbaum(A2) = Pr(T|A2) - Pr(T|!A2) = 1 - 0.03 = 0.97.
  // Criticality(A2) = 0.97*0.2/0.224 = 0.8661.
  FaultGraph graph = BuildSample();
  auto groups = ComputeMinimalRiskGroups(graph);
  ASSERT_TRUE(groups.ok());
  auto ranked = RankComponentImportance(graph, groups->groups);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 3u);
  EXPECT_EQ((*ranked)[0].name, "A2");
  EXPECT_NEAR((*ranked)[0].birnbaum, 0.97, 1e-12);
  EXPECT_NEAR((*ranked)[0].criticality, 0.97 * 0.2 / 0.224, 1e-12);
  EXPECT_EQ((*ranked)[0].rg_memberships, 1u);
  // A3's Birnbaum: Pr(T|A3) - Pr(T|!A3) = (0.2 + 0.1*0.8) - 0.2 = 0.08.
  for (const auto& entry : *ranked) {
    if (entry.name == "A3") {
      EXPECT_NEAR(entry.birnbaum, 0.08, 1e-12);
    }
  }
}

TEST(ImportanceTest, MonteCarloPathAgreesWithExact) {
  FaultGraph graph = BuildSample();
  auto groups = ComputeMinimalRiskGroups(graph);
  ASSERT_TRUE(groups.ok());
  TopEventOptions exact;
  TopEventOptions approx;
  approx.bdd_node_budget = 2;  // room for the two terminals only: force Monte Carlo
  approx.monte_carlo_rounds = 400000;
  auto exact_ranked = RankComponentImportance(graph, groups->groups, exact);
  auto approx_ranked = RankComponentImportance(graph, groups->groups, approx);
  ASSERT_TRUE(exact_ranked.ok());
  ASSERT_TRUE(approx_ranked.ok());
  EXPECT_EQ((*exact_ranked)[0].name, (*approx_ranked)[0].name);
  EXPECT_NEAR((*exact_ranked)[0].birnbaum, (*approx_ranked)[0].birnbaum, 0.02);
}

TEST(ImportanceTest, EmptyGroupsYieldEmptyRanking) {
  FaultGraph graph = BuildSample();
  auto ranked = RankComponentImportance(graph, {});
  ASSERT_TRUE(ranked.ok());
  EXPECT_TRUE(ranked->empty());
}

TEST(ImportanceTest, SharedComponentOutranksRedundantOnes) {
  // Shared ToR vs redundant cores: the ToR must rank first.
  std::vector<ComponentSet> sets = {{"S1", {"tor", "core1"}}, {"S2", {"tor", "core2"}}};
  auto graph = BuildFromComponentSets(sets);
  ASSERT_TRUE(graph.ok());
  auto groups = ComputeMinimalRiskGroups(*graph);
  ASSERT_TRUE(groups.ok());
  auto ranked = RankComponentImportance(*graph, groups->groups);
  ASSERT_TRUE(ranked.ok());
  ASSERT_FALSE(ranked->empty());
  EXPECT_EQ((*ranked)[0].name, "tor");
}

// --- What-if simulation ---

TEST(WhatIfTest, PropagatesFailures) {
  FaultGraph graph = BuildSample();
  auto only_a1 = SimulateFailures(graph, {"A1"});
  ASSERT_TRUE(only_a1.ok());
  EXPECT_FALSE(only_a1->top_event_failed);
  // A1 fails E1 but not E2 or the deployment.
  EXPECT_NE(std::find(only_a1->failed_events.begin(), only_a1->failed_events.end(), "E1 fails"),
            only_a1->failed_events.end());
  EXPECT_EQ(std::find(only_a1->failed_events.begin(), only_a1->failed_events.end(),
                      "deployment fails"),
            only_a1->failed_events.end());

  auto shared = SimulateFailures(graph, {"A2"});
  ASSERT_TRUE(shared.ok());
  EXPECT_TRUE(shared->top_event_failed);
  EXPECT_EQ(shared->failed_events.size(), 4u);  // A2, E1, E2, deployment
}

TEST(WhatIfTest, NothingFailedNothingHappens) {
  FaultGraph graph = BuildSample();
  auto result = SimulateFailures(graph, {});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->top_event_failed);
  EXPECT_TRUE(result->failed_events.empty());
}

TEST(WhatIfTest, RejectsUnknownAndNonBasic) {
  FaultGraph graph = BuildSample();
  EXPECT_FALSE(SimulateFailures(graph, {"no-such-component"}).ok());
  EXPECT_FALSE(SimulateFailures(graph, {"E1 fails"}).ok());
  FaultGraph unvalidated;
  EXPECT_FALSE(SimulateFailures(unvalidated, {}).ok());
}

TEST(WhatIfTest, ConsistentWithMinimalRiskGroups) {
  // Failing exactly a minimal RG fails the top; failing any proper subset
  // does not (cross-check on a random component-set graph).
  Rng rng(55);
  std::vector<ComponentSet> sets = {{"E1", {"a", "b", "s"}}, {"E2", {"c", "s"}}};
  auto graph = BuildFromComponentSets(sets);
  ASSERT_TRUE(graph.ok());
  auto groups = ComputeMinimalRiskGroups(*graph);
  ASSERT_TRUE(groups.ok());
  for (const RiskGroup& group : groups->groups) {
    std::vector<std::string> names;
    for (NodeId id : group) {
      names.push_back(graph->node(id).name);
    }
    auto all = SimulateFailures(*graph, names);
    ASSERT_TRUE(all.ok());
    EXPECT_TRUE(all->top_event_failed);
    if (names.size() > 1) {
      auto partial = SimulateFailures(
          *graph, std::vector<std::string>(names.begin() + 1, names.end()));
      ASSERT_TRUE(partial.ok());
      EXPECT_FALSE(partial->top_event_failed);
    }
  }
}

}  // namespace
}  // namespace indaas
