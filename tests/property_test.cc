// Property-based tests: randomized cross-validation of the core algorithms
// against independent oracles (brute force, BDDs, Monte Carlo),
// parameterized over seeds and sizes (TEST_P sweeps).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>

#include "src/bignum/modular.h"
#include "src/bignum/montgomery.h"
#include "src/bignum/prime.h"
#include "src/crypto/commutative.h"
#include "src/deps/depdb.h"
#include "src/graph/fault_graph.h"
#include "src/graph/levels.h"
#include "src/obs/metrics.h"
#include "src/pia/jaccard.h"
#include "src/pia/psop.h"
#include "src/sia/builder.h"
#include "src/sia/cutset.h"
#include "src/sia/importance.h"
#include "src/sia/ranking.h"
#include "src/sia/risk_groups.h"
#include "src/sia/sampling.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "tests/fat_tree_shape.h"
#include "tests/prob_oracle.h"

namespace indaas {
namespace {

// --- Random fault graph generation ---

// A random DAG over `num_basic` basic events and `num_gates` gates; gates
// draw 2-4 children from all earlier nodes (so subgraphs are shared), gate
// types are uniform over OR / AND / k-of-n. The final gate is the top event.
FaultGraph RandomFaultGraph(Rng& rng, size_t num_basic, size_t num_gates) {
  FaultGraph graph;
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < num_basic; ++i) {
    nodes.push_back(
        graph.AddBasicEvent("b" + std::to_string(i), 0.05 + rng.NextDouble() * 0.3));
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
    NodeId gate;
    switch (rng.NextBelow(3)) {
      case 0:
        gate = graph.AddGate(name, GateType::kOr, children);
        break;
      case 1:
        gate = graph.AddGate(name, GateType::kAnd, children);
        break;
      default: {
        uint32_t k = 1 + static_cast<uint32_t>(rng.NextBelow(children.size()));
        gate = graph.AddKofNGate(name, k, children);
        break;
      }
    }
    nodes.push_back(gate);
  }
  graph.SetTopEvent(nodes.back());
  EXPECT_TRUE(graph.Validate().ok());
  return graph;
}

// Brute force: all minimal failing subsets of basic events, by exhaustive
// enumeration (monotone gates => a failing set is minimal iff no
// one-element-removed subset fails).
std::set<RiskGroup> BruteForceMinimalGroups(const FaultGraph& graph) {
  const auto& basics = graph.BasicEvents();
  const size_t n = basics.size();
  EXPECT_LE(n, 20u) << "brute force limited to 20 basic events";
  std::vector<uint8_t> state(graph.NodeCount(), 0);
  std::vector<uint8_t> fails(1u << n, 0);
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    for (size_t i = 0; i < n; ++i) {
      state[basics[i]] = (mask >> i) & 1;
    }
    fails[mask] = graph.Evaluate(state) ? 1 : 0;
  }
  std::set<RiskGroup> minimal;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    if (!fails[mask]) {
      continue;
    }
    bool is_minimal = true;
    for (size_t i = 0; i < n && is_minimal; ++i) {
      if (((mask >> i) & 1) && fails[mask & ~(1u << i)]) {
        is_minimal = false;
      }
    }
    if (is_minimal) {
      RiskGroup group;
      for (size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1) {
          group.push_back(basics[i]);
        }
      }
      minimal.insert(std::move(group));
    }
  }
  return minimal;
}

// --- Minimal RG algorithm vs brute force, swept over seeds and options ---
//
// For every combination of size bound and thread count
// the engine must emit exactly the brute-force minimal groups, in the
// canonical order (size, then lexicographic). A bounded run must return
// exactly the minimal groups within the bound, and may say it is complete
// (size_bounded == false) only when that is the whole truth. Unbounded
// results must also pass the BDD oracle.

using RgOptionsParam = std::tuple<uint64_t, size_t, size_t>;

class MinimalRgVsBruteForceTest : public ::testing::TestWithParam<RgOptionsParam> {};

// `groups` in the engine's canonical order: size ascending, then
// lexicographic.
std::vector<RiskGroup> CanonicalOrder(const std::set<RiskGroup>& groups) {
  std::vector<RiskGroup> ordered(groups.begin(), groups.end());
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const RiskGroup& a, const RiskGroup& b) { return a.size() < b.size(); });
  return ordered;
}

TEST_P(MinimalRgVsBruteForceTest, ExactMatch) {
  const auto [seed, max_rg_size, threads] = GetParam();
  MinimalRgOptions options;
  options.max_rg_size = max_rg_size;
  options.threads = threads;
  Rng rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    size_t num_basic = 3 + rng.NextBelow(10);  // 3..12
    size_t num_gates = 2 + rng.NextBelow(7);   // 2..8
    FaultGraph graph = RandomFaultGraph(rng, num_basic, num_gates);
    const std::string where =
        StrFormat("seed %llu trial %d", static_cast<unsigned long long>(seed), trial);
    std::set<RiskGroup> truth = BruteForceMinimalGroups(graph);
    std::set<RiskGroup> within_bound;
    for (const RiskGroup& group : truth) {
      if (group.size() <= max_rg_size) {
        within_bound.insert(group);
      }
    }
    auto computed = ComputeMinimalRiskGroups(graph, options);
    ASSERT_TRUE(computed.ok()) << where << ": " << computed.status().ToString();
    EXPECT_EQ(computed->groups, CanonicalOrder(within_bound)) << where;
    if (!computed->size_bounded) {
      EXPECT_EQ(within_bound, truth) << where << ": claims completeness but misses groups";
    }
    if (max_rg_size == SIZE_MAX) {
      EXPECT_FALSE(computed->size_bounded) << where;
      auto oracle = CheckMinimalRiskGroups(graph, computed->groups);
      EXPECT_TRUE(oracle.ok()) << where << ": " << oracle.status().ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndOptions, MinimalRgVsBruteForceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89),
                       ::testing::Values(SIZE_MAX, size_t{3}),
                       ::testing::Values(size_t{1}, size_t{4})));

// Every group the engine emits on an unbounded run is truly minimal by
// direct graph evaluation, and the whole list passes the BDD oracle.
TEST(RgOracleTest, EmittedGroupsAreTrulyMinimal) {
  Rng rng(4057);
  for (int trial = 0; trial < 10; ++trial) {
    FaultGraph graph = RandomFaultGraph(rng, 3 + rng.NextBelow(7), 2 + rng.NextBelow(5));
    auto result = ComputeMinimalRiskGroups(graph);
    ASSERT_TRUE(result.ok());
    for (const RiskGroup& group : result->groups) {
      EXPECT_TRUE(IsMinimalRiskGroup(graph, group)) << "trial " << trial;
    }
    auto oracle = CheckMinimalRiskGroups(graph, result->groups);
    EXPECT_TRUE(oracle.ok()) << "trial " << trial << ": " << oracle.status().ToString();
  }
}

// --- AbsorbMinimal vs a brute-force minimal-set oracle ---

uint64_t ComputePoolTasks() {
  return obs::MetricsRegistry::Global().GetCounter("threadpool.tasks_total")->Value();
}

// O(n^2) reference: drop repeats of an earlier row, drop every row that has
// a proper subset among the input rows, then order the survivors by
// popcount, keeping first-appearance order within a popcount.
CutSetArena BruteForceMinimal(const CutSetArena& sets) {
  const size_t stride = sets.stride();
  std::vector<size_t> survivors;
  for (size_t i = 0; i < sets.size(); ++i) {
    bool drop = false;
    for (size_t j = 0; j < sets.size() && !drop; ++j) {
      const bool equal = RowEquals(sets.row(j), sets.row(i), stride);
      drop = equal ? j < i : RowSubsetOf(sets.row(j), sets.row(i), stride);
    }
    if (!drop) {
      survivors.push_back(i);
    }
  }
  std::stable_sort(survivors.begin(), survivors.end(), [&](size_t a, size_t b) {
    return RowPopcount(sets.row(a), stride) < RowPopcount(sets.row(b), stride);
  });
  CutSetArena out(stride);
  for (size_t i : survivors) {
    out.AppendCopy(sets.row(i));
  }
  return out;
}

// Random non-empty rows over stride*64 bits. Most draw from a narrow
// universe so subset relations are common; the rest spread over every word,
// with popcounts up to the full stride*64. Some rows repeat earlier ones,
// and all-ones rows (one word up to every word) show up too.
CutSetArena RandomArena(Rng& rng, size_t stride, size_t rows) {
  const size_t bits = stride * 64;
  CutSetArena arena(stride);
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t kind = rng.NextBelow(20);
    uint64_t* row = arena.AppendZero();
    if (kind == 0 && arena.size() > 1) {
      const uint64_t* earlier = arena.row(rng.NextBelow(arena.size() - 1));
      for (size_t w = 0; w < stride; ++w) {
        row[w] = earlier[w];
      }
    } else if (kind == 1) {
      const size_t words = 1 + rng.NextBelow(stride);
      for (size_t w = 0; w < words; ++w) {
        row[w] = ~0ULL;
      }
    } else if (kind < 12) {
      const size_t universe = 6 + rng.NextBelow(10);
      const size_t members = 1 + rng.NextBelow(universe / 2);
      for (size_t m = 0; m < members; ++m) {
        const size_t bit = rng.NextBelow(universe) * (stride * 64 / 16);
        row[bit / 64] |= 1ULL << (bit % 64);
      }
    } else {
      const size_t members = 1 + rng.NextBelow(bits);
      for (size_t m = 0; m < members; ++m) {
        const size_t bit = rng.NextBelow(bits);
        row[bit / 64] |= 1ULL << (bit % 64);
      }
    }
  }
  return arena;
}

void ExpectSameRows(const CutSetArena& got, const CutSetArena& want, const std::string& where) {
  ASSERT_EQ(got.stride(), want.stride()) << where;
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(RowEquals(got.row(i), want.row(i), got.stride())) << where << " row " << i;
  }
}

class AbsorbOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AbsorbOracleTest, MatchesBruteForceWithAndWithoutThePool) {
  Rng rng(GetParam() * 7919 + 3);
  for (size_t stride = 1; stride <= 3; ++stride) {
    for (size_t rows : {size_t{0}, size_t{1}, size_t{40}, size_t{300}}) {
      CutSetArena sets = RandomArena(rng, stride, rows);
      CutSetArena want = BruteForceMinimal(sets);
      const std::string where =
          StrFormat("seed %llu stride %zu rows %zu", static_cast<unsigned long long>(GetParam()),
                    stride, rows);
      ExpectSameRows(AbsorbMinimal(sets, /*parallel=*/false), want, where + " sequential");
      ExpectSameRows(AbsorbMinimal(sets, /*parallel=*/true), want, where + " pool");
    }
    // An empty row (popcount 0) absorbs every other row.
    CutSetArena sets = RandomArena(rng, stride, 30);
    sets.AppendZero();
    CutSetArena want = BruteForceMinimal(sets);
    ASSERT_EQ(want.size(), 1u);
    ExpectSameRows(AbsorbMinimal(sets, /*parallel=*/false), want, "empty row sequential");
    ExpectSameRows(AbsorbMinimal(sets, /*parallel=*/true), want, "empty row pool");
  }
}

// Shapes that stress AbsorbMinimal's per-bit survivor index, each drawn
// from a narrow universe of bits so that many rows absorb others:
// - every row holds one common bit, the lowest or the highest of the row
//   space, so that bit's bucket could take every survivor;
// - rows are all rotations of a few patterns, so every bit is held by
//   equally many rows and each key is a tie;
// - stride 2 and 3 rows draw their bits around the 64-bit word boundaries.
TEST_P(AbsorbOracleTest, IndexShapesMatchBruteForce) {
  Rng rng(GetParam() * 104723 + 11);
  auto set_bit = [](uint64_t* row, size_t bit) { row[bit / 64] |= 1ULL << (bit % 64); };
  auto check = [&](const CutSetArena& sets, const std::string& where) {
    CutSetArena want = BruteForceMinimal(sets);
    ExpectSameRows(AbsorbMinimal(sets, /*parallel=*/false), want, where + " sequential");
    ExpectSameRows(AbsorbMinimal(sets, /*parallel=*/true), want, where + " pool");
  };
  for (size_t stride = 1; stride <= 3; ++stride) {
    const size_t bits = stride * 64;
    for (size_t common : {size_t{0}, bits - 1}) {
      CutSetArena sets(stride);
      for (size_t r = 0; r < 300; ++r) {
        uint64_t* row = sets.AppendZero();
        set_bit(row, common);
        const size_t members = rng.NextBelow(5);
        for (size_t m = 0; m < members; ++m) {
          set_bit(row, 1 + rng.NextBelow(12) * ((bits - 2) / 12));
        }
      }
      check(sets, StrFormat("stride %zu common bit %zu", stride, common));
    }
    {
      const size_t universe = 8 + rng.NextBelow(8);
      CutSetArena sets(stride);
      for (size_t pattern = 0; pattern < 6; ++pattern) {
        const uint64_t mask = rng.NextBelow((uint64_t{1} << universe) - 1) + 1;
        for (size_t shift = 0; shift < universe; ++shift) {
          uint64_t* row = sets.AppendZero();
          for (size_t b = 0; b < universe; ++b) {
            if ((mask >> b) & 1) {
              set_bit(row, ((b + shift) % universe) * (bits / universe));
            }
          }
        }
      }
      check(sets, StrFormat("stride %zu rotations of %zu bits", stride, universe));
    }
    if (stride > 1) {
      // Bits 60..67, 124..131 (and so on): four either side of each boundary.
      CutSetArena sets(stride);
      for (size_t r = 0; r < 300; ++r) {
        uint64_t* row = sets.AppendZero();
        const size_t members = 1 + rng.NextBelow(6);
        for (size_t m = 0; m < members; ++m) {
          const size_t boundary = 64 * (1 + rng.NextBelow(stride - 1));
          set_bit(row, boundary - 4 + rng.NextBelow(8));
        }
      }
      check(sets, StrFormat("stride %zu across word boundaries", stride));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbsorbOracleTest, ::testing::Range<uint64_t>(1, 9));

// Large enough that popcount levels cross the parallel-absorption threshold,
// so the shared pool really runs shards. That threshold counts the survivor
// index entries a level's candidates walk; 25,000 rows take 15 levels each
// of strides 2 and 3 past it.
TEST(AbsorbOracleTest, LargeArenasTakeThePoolAndStillMatch) {
  Rng rng(104729);
  const uint64_t tasks_before = ComputePoolTasks();
  for (size_t stride = 1; stride <= 3; ++stride) {
    CutSetArena sets(stride);
    // Sparse wide rows rarely contain one another, so the survivor set (and
    // the per-level subset work) grows with the input.
    for (size_t r = 0; r < 25000; ++r) {
      uint64_t* row = sets.AppendZero();
      const size_t members = 2 + rng.NextBelow(stride * 24);
      for (size_t m = 0; m < members; ++m) {
        const size_t bit = rng.NextBelow(stride * 64);
        row[bit / 64] |= 1ULL << (bit % 64);
      }
      if (r % 50 == 49) {
        const uint64_t* earlier = sets.row(rng.NextBelow(sets.size() - 1));
        uint64_t* repeat = sets.AppendZero();
        for (size_t w = 0; w < stride; ++w) {
          repeat[w] = earlier[w];
        }
      }
    }
    CutSetArena want = BruteForceMinimal(sets);
    const std::string where = StrFormat("stride %zu", stride);
    ExpectSameRows(AbsorbMinimal(sets, /*parallel=*/false), want, where + " sequential");
    ExpectSameRows(AbsorbMinimal(sets, /*parallel=*/true), want, where + " pool");
  }
  EXPECT_GT(ComputePoolTasks(), tasks_before) << "no absorption level reached the pool";
}

// The k=16 fat-tree deployments the remote SIA benchmark audits: servers in
// distinct pods, three ECMP routes each, plus shared hardware models and
// package versions. ComputeMinimalRiskGroups must give the same bytes
// sequentially and on the shared pool, for the AND gate and for 2-of-3, and
// the groups must pass the BDD oracle. At three routes no stage is large
// enough for the pool, so two deployments with kWideRoutes routes per
// server follow; their AND products cross the pool's threshold.
TEST(RgOracleTest, FatTreeGroupsIdenticalSequentialAndOnSharedPool) {
  constexpr uint32_t kPorts = 16;
  constexpr size_t kWideRoutes = 5;
  Rng rng(16);
  auto db = FatTreeShapeDepDb(kPorts, rng);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Rng wide_rng(17);
  auto wide_db = FatTreeShapeDepDb(kPorts, wide_rng, kWideRoutes);
  ASSERT_TRUE(wide_db.ok()) << wide_db.status().ToString();
  const uint64_t tasks_before = ComputePoolTasks();
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::string> servers = FatTreeShapeDeployment(kPorts, trial, rng);
    BuildOptions build;
    build.required_servers = trial % 4 == 0 ? 0 : 2;
    auto graph = BuildDeploymentFaultGraph(trial < 8 ? *db : *wide_db, servers, build);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    MinimalRgOptions sequential;
    sequential.threads = 1;
    auto want = ComputeMinimalRiskGroups(*graph, sequential);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    MinimalRgOptions shared;  // threads = 0: the shared pool past the thresholds
    auto got = ComputeMinimalRiskGroups(*graph, shared);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->groups, want->groups) << "trial " << trial;
    EXPECT_EQ(got->size_bounded, want->size_bounded) << "trial " << trial;
    auto oracle = CheckMinimalRiskGroups(*graph, want->groups);
    EXPECT_TRUE(oracle.ok()) << "trial " << trial << ": " << oracle.status().ToString();
  }
  EXPECT_GT(ComputePoolTasks(), tasks_before) << "no fat-tree stage reached the pool";
}

// --- Sampling soundness & convergence on random graphs ---

class SamplingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SamplingPropertyTest, ShrunkGroupsAreMinimalAndConverge) {
  Rng rng(GetParam() * 7919);
  FaultGraph graph = RandomFaultGraph(rng, 3 + rng.NextBelow(6), 2 + rng.NextBelow(5));
  std::set<RiskGroup> truth = BruteForceMinimalGroups(graph);
  SamplingOptions options;
  options.rounds = 30000;
  options.failure_bias = 0.35;
  options.shrink = ShrinkMode::kGreedy;
  options.seed = GetParam();
  auto sampled = SampleRiskGroups(graph, options);
  ASSERT_TRUE(sampled.ok());
  for (const RiskGroup& group : sampled->groups) {
    EXPECT_TRUE(IsMinimalRiskGroup(graph, group)) << "seed " << GetParam();
    EXPECT_EQ(truth.count(group), 1u);
  }
  // With generous rounds on tiny graphs, sampling should find everything
  // (or the top event never fails and truth is empty).
  if (!truth.empty()) {
    EXPECT_EQ(sampled->groups.size(), truth.size()) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplingPropertyTest, ::testing::Range<uint64_t>(1, 11));

// --- Top-event probability engine vs brute force on random weighted graphs ---

class ProbabilityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// The graph's own failure probabilities, default_prob filling the gaps.
std::vector<double> BaseProbs(const FaultGraph& graph, double default_prob) {
  TopEventOptions options;
  options.default_prob = default_prob;
  return TopEventEngine(graph, options).base_probs();
}

uint64_t MonteCarloRounds() {
  return obs::MetricsRegistry::Global().GetCounter("sia.rank.mc_rounds")->Value();
}

TEST_P(ProbabilityPropertyTest, ExactMatchesMonteCarlo) {
  Rng rng(GetParam() * 104729);
  FaultGraph graph = RandomFaultGraph(rng, 3 + rng.NextBelow(5), 2 + rng.NextBelow(4));
  double exact = BruteForceTopProb(graph, 0.1);
  double mc = TopEventProbabilityMonteCarlo(graph, BaseProbs(graph, 0.1), 300000,
                                            /*seed=*/GetParam(), /*threads=*/1);
  EXPECT_NEAR(exact, mc, 0.01) << "seed " << GetParam();
  EXPECT_GE(exact, -1e-12);
  EXPECT_LE(exact, 1.0 + 1e-12);
}

// RankByImportance's Pr(T) and scores, and RankComponentImportance's
// Birnbaum and criticality, all read off the BDD, equal brute force.
TEST_P(ProbabilityPropertyTest, RankingAndImportanceMatchBruteForce) {
  Rng rng(GetParam() * 6151);
  for (int trial = 0; trial < 10; ++trial) {
    FaultGraph graph = RandomFaultGraph(rng, 3 + rng.NextBelow(10), 2 + rng.NextBelow(7));
    const std::string where =
        StrFormat("seed %llu trial %d", static_cast<unsigned long long>(GetParam()), trial);
    auto groups = ComputeMinimalRiskGroups(graph);
    ASSERT_TRUE(groups.ok()) << where;
    const double pr_top = BruteForceTopProb(graph, 0.1);
    const uint64_t mc_before = MonteCarloRounds();
    auto ranking = RankByImportance(graph, groups->groups);
    ASSERT_TRUE(ranking.ok()) << where << ": " << ranking.status().ToString();
    EXPECT_NEAR(ranking->top_event_prob, pr_top, 1e-12) << where;
    ASSERT_EQ(ranking->ranked.size(), groups->groups.size()) << where;
    for (const RankedRiskGroup& entry : ranking->ranked) {
      EXPECT_NEAR(entry.score, GroupProbability(graph, entry.group, 0.1) / pr_top, 1e-9)
          << where;
    }
    auto importance = RankComponentImportance(graph, groups->groups);
    ASSERT_TRUE(importance.ok()) << where << ": " << importance.status().ToString();
    for (const ComponentImportance& entry : *importance) {
      const double birnbaum = BruteForceTopProb(graph, 0.1, entry.id, 1.0) -
                              BruteForceTopProb(graph, 0.1, entry.id, 0.0);
      EXPECT_NEAR(entry.birnbaum, birnbaum, 1e-12) << where << " " << entry.name;
      EXPECT_NEAR(entry.criticality, birnbaum * graph.node(entry.id).failure_prob / pr_top,
                  1e-12)
          << where << " " << entry.name;
    }
    EXPECT_EQ(MonteCarloRounds(), mc_before) << where << ": the BDD fits, nothing samples";
  }
}

// With a node budget too small for any BDD, both run the Monte-Carlo
// fallback: every Pr(T) they read is sampled, and lands near brute force.
TEST_P(ProbabilityPropertyTest, MonteCarloFallbackLandsNearBruteForce) {
  Rng rng(GetParam() * 104729);
  FaultGraph graph = RandomFaultGraph(rng, 3 + rng.NextBelow(5), 2 + rng.NextBelow(4));
  auto groups = ComputeMinimalRiskGroups(graph);
  ASSERT_TRUE(groups.ok());
  TopEventOptions options;
  options.default_prob = 0.1;
  options.bdd_node_budget = 2;  // room for the two terminals only
  options.monte_carlo_rounds = 40000;
  options.seed = GetParam();
  // Five standard deviations of a sampled probability, at its worst (0.5).
  // Birnbaum is sampled as one coupled difference: its two conditioned runs
  // share a seed, so each round's difference is itself a 0/1 draw.
  const double tolerance = 5 * 0.5 / std::sqrt(static_cast<double>(options.monte_carlo_rounds));
  const double pr_top = BruteForceTopProb(graph, 0.1);
  const uint64_t before = MonteCarloRounds();
  auto ranking = RankByImportance(graph, groups->groups, options);
  ASSERT_TRUE(ranking.ok()) << ranking.status().ToString();
  auto importance = RankComponentImportance(graph, groups->groups, options);
  ASSERT_TRUE(importance.ok()) << importance.status().ToString();
  EXPECT_NEAR(ranking->top_event_prob, pr_top, tolerance) << "seed " << GetParam();
  for (const ComponentImportance& entry : *importance) {
    const double birnbaum = BruteForceTopProb(graph, 0.1, entry.id, 1.0) -
                            BruteForceTopProb(graph, 0.1, entry.id, 0.0);
    EXPECT_NEAR(entry.birnbaum, birnbaum, tolerance) << "seed " << GetParam() << " " << entry.name;
  }
  // One sampled Pr(T) for the ranking; for importance, Pr(T) and both
  // conditioned probabilities of every component.
  EXPECT_EQ(MonteCarloRounds() - before, options.monte_carlo_rounds * (2 + 2 * importance->size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbabilityPropertyTest, ::testing::Range<uint64_t>(1, 9));

// --- MinimizeRiskGroups properties ---

TEST(MinimizePropertyTest, IdempotentAndSound) {
  Rng rng(333);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<RiskGroup> raw;
    size_t count = 1 + rng.NextBelow(40);
    for (size_t i = 0; i < count; ++i) {
      RiskGroup group;
      size_t size = 1 + rng.NextBelow(5);
      for (size_t j = 0; j < size; ++j) {
        group.push_back(static_cast<NodeId>(rng.NextBelow(10)));
      }
      std::sort(group.begin(), group.end());
      group.erase(std::unique(group.begin(), group.end()), group.end());
      raw.push_back(std::move(group));
    }
    auto minimized = MinimizeRiskGroups(raw);
    // Idempotence.
    EXPECT_EQ(MinimizeRiskGroups(minimized), minimized);
    // No survivor is a superset of another survivor.
    for (size_t a = 0; a < minimized.size(); ++a) {
      for (size_t b = 0; b < minimized.size(); ++b) {
        if (a != b) {
          EXPECT_FALSE(IsSubsetOf(minimized[a], minimized[b]))
              << "trial " << trial << ": survivor absorbed by survivor";
        }
      }
    }
    // Every input is a superset of some survivor; every survivor was input.
    std::set<RiskGroup> input_set(raw.begin(), raw.end());
    for (const RiskGroup& group : minimized) {
      EXPECT_EQ(input_set.count(group), 1u);
    }
    for (const RiskGroup& group : raw) {
      bool covered = false;
      for (const RiskGroup& survivor : minimized) {
        if (IsSubsetOf(survivor, group)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered);
    }
  }
}

// --- Downgrade consistency ---

TEST(DowngradePropertyTest, ComponentSetRoundTripPreservesMinimalGroups) {
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ComponentSet> sets;
    size_t sources = 2 + rng.NextBelow(3);
    for (size_t s = 0; s < sources; ++s) {
      ComponentSet set{"E" + std::to_string(s), {}};
      size_t width = 1 + rng.NextBelow(4);
      for (size_t c = 0; c < width; ++c) {
        set.components.push_back("C" + std::to_string(rng.NextBelow(8)));
      }
      NormalizeComponentSet(set);
      sets.push_back(std::move(set));
    }
    auto graph = BuildFromComponentSets(sets);
    ASSERT_TRUE(graph.ok());
    auto downgraded = DowngradeToComponentSets(*graph);
    ASSERT_TRUE(downgraded.ok());
    auto rebuilt = BuildFromComponentSets(*downgraded);
    ASSERT_TRUE(rebuilt.ok());
    auto original_groups = ComputeMinimalRiskGroups(*graph);
    auto rebuilt_groups = ComputeMinimalRiskGroups(*rebuilt);
    ASSERT_TRUE(original_groups.ok());
    ASSERT_TRUE(rebuilt_groups.ok());
    // Compare by component names (node ids differ between builds).
    auto names = [](const FaultGraph& g, const std::vector<RiskGroup>& groups) {
      std::set<std::set<std::string>> out;
      for (const RiskGroup& group : groups) {
        std::set<std::string> one;
        for (NodeId id : group) {
          one.insert(g.node(id).name);
        }
        out.insert(std::move(one));
      }
      return out;
    };
    EXPECT_EQ(names(*graph, original_groups->groups), names(*rebuilt, rebuilt_groups->groups))
        << "trial " << trial;
  }
}

// --- Bignum algebraic properties swept over bit sizes ---

class BignumPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BignumPropertyTest, RingAxiomsAndModExpHomomorphism) {
  const size_t bits = GetParam();
  Rng rng(bits);
  for (int trial = 0; trial < 20; ++trial) {
    BigUint a = RandomWithBits(bits, rng);
    BigUint b = RandomWithBits(bits / 2 + 1, rng);
    // Subtraction inverts addition.
    EXPECT_EQ(a.Add(b).Sub(b), a);
    // Division inverts multiplication.
    EXPECT_EQ(a.Mul(b).Div(b), a);
    EXPECT_TRUE(a.Mul(b).Mod(b).IsZero());
  }
  // a^(x+y) == a^x * a^y (mod p).
  auto p = GeneratePrime(std::min<size_t>(bits, 128), rng);
  ASSERT_TRUE(p.ok());
  for (int trial = 0; trial < 10; ++trial) {
    BigUint base = RandomBelow(*p, rng);
    BigUint x = RandomWithBits(40, rng);
    BigUint y = RandomWithBits(40, rng);
    auto lhs = ModExp(base, x.Add(y), *p);
    auto rx = ModExp(base, x, *p);
    auto ry = ModExp(base, y, *p);
    ASSERT_TRUE(lhs.ok());
    ASSERT_TRUE(rx.ok());
    ASSERT_TRUE(ry.ok());
    EXPECT_EQ(*lhs, ModMul(*rx, *ry, *p));
  }
}

// The modexp oracle: left-to-right square-and-multiply with BigUint::Mul and
// division-based Mod. It shares no code with the Montgomery kernels, and
// modular.cc's ModExp() never reaches its own division path for odd moduli.
BigUint OracleModExp(const BigUint& base, const BigUint& exponent, const BigUint& modulus) {
  BigUint result = BigUint(1).Mod(modulus);
  const BigUint b = base.Mod(modulus);
  for (size_t i = exponent.BitLength(); i-- > 0;) {
    result = result.Mul(result).Mod(modulus);
    if (exponent.Bit(i)) {
      result = result.Mul(b).Mod(modulus);
    }
  }
  return result;
}

TEST_P(BignumPropertyTest, ModExpOfOddModuliMatchesOracle) {
  const size_t bits = GetParam();
  Rng rng(bits * 7919);
  for (int trial = 0; trial < 6; ++trial) {
    BigUint modulus = RandomWithBits(bits, rng);
    if (!modulus.IsOdd()) {
      modulus = modulus.Add(BigUint(1));
    }
    BigUint base = RandomWithBits(bits + 9, rng);  // wider than the modulus
    BigUint exponent = RandomWithBits(1 + rng.NextBelow(bits), rng);
    auto got = ModExp(base, exponent, modulus);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, OracleModExp(base, exponent, modulus)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, BignumPropertyTest,
                         ::testing::Values(16, 33, 64, 65, 128, 257, 512, 1024));

// --- Every Montgomery kernel against the oracle ---

// Little-endian 64-bit lanes of a value < 2^(64 * lanes).
std::vector<uint64_t> ToLanes(const BigUint& value, size_t lanes) {
  std::vector<uint64_t> out(lanes, 0);
  for (size_t i = 0; i < value.limbs().size(); ++i) {
    out[i / 2] |= static_cast<uint64_t>(value.limbs()[i]) << (32 * (i % 2));
  }
  return out;
}

BigUint FromLanes(const std::vector<uint64_t>& lanes) {
  std::vector<uint32_t> limbs;
  for (uint64_t lane : lanes) {
    limbs.push_back(static_cast<uint32_t>(lane));
    limbs.push_back(static_cast<uint32_t>(lane >> 32));
  }
  return BigUint::FromLimbs(std::move(limbs));
}

struct ModExpCase {
  BigUint modulus;
  BigUint base;
  BigUint exponent;
  BigUint expected;  // from OracleModExp
  std::string what;
};

// The 768/1024/1536/2048-bit MODP primes with edge exponents (0, 1, 2,
// all-ones, q, p-1) on a random base and edge bases (0, 1, p-1, >= p) on a
// random exponent. Built once; every kernel's test reuses the oracle values.
const std::vector<ModExpCase>& ModpCases() {
  static const std::vector<ModExpCase> cases = [] {
    std::vector<ModExpCase> out;
    Rng rng(4099);
    const BigUint one(1);
    for (size_t bits : {768, 1024, 1536, 2048}) {
      const BigUint p = WellKnownSafePrime(bits).value();
      const BigUint p_minus_1 = p.Sub(one);
      const BigUint random_base = RandomBelow(p, rng);
      const BigUint random_exponent = RandomBelow(p, rng);
      const std::vector<std::pair<std::string, BigUint>> exponents = {
          {"0", BigUint()},
          {"1", one},
          {"2", BigUint(2)},
          {"all-ones", one.ShiftLeft(bits).Sub(one)},
          {"q", p_minus_1.ShiftRight(1)},
          {"p-1", p_minus_1},
          {"random", random_exponent}};
      for (const auto& [name, exponent] : exponents) {
        out.push_back({p, random_base, exponent, {}, "exponent " + name});
      }
      const std::vector<std::pair<std::string, BigUint>> bases = {
          {"0", BigUint()}, {"1", one}, {"p-1", p_minus_1}, {">=p", p.Add(random_base)}};
      for (const auto& [name, base] : bases) {
        out.push_back({p, base, random_exponent, {}, "base " + name});
      }
      for (size_t i = out.size() - exponents.size() - bases.size(); i < out.size(); ++i) {
        out[i].expected = OracleModExp(out[i].base, out[i].exponent, p);
        out[i].what = std::to_string(bits) + "-bit MODP, " + out[i].what;
      }
    }
    return out;
  }();
  return cases;
}

class MontKernelOracleTest : public ::testing::TestWithParam<MontKernel> {
 protected:
  void SetUp() override {
    if (!MontgomeryContext::KernelAvailable(GetParam())) {
      GTEST_SKIP() << "this CPU lacks BMI2 or ADX, which the " << MontKernelName(GetParam())
                   << " kernel needs";
    }
  }
};

TEST_P(MontKernelOracleTest, ModpGroupsEdgeBasesAndExponents) {
  for (const ModExpCase& c : ModpCases()) {
    auto ctx = MontgomeryContext::CreateWithKernel(c.modulus, GetParam());
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    ASSERT_EQ(ctx->kernel(), GetParam());
    EXPECT_EQ(ctx->ModExp(c.base, c.exponent), c.expected) << c.what;
  }
}

// Random odd moduli of 1-65 lanes (the ADX kernel serves exactly 12, 16, 24
// and 32 lanes and must refuse the rest), plus 2^(64 lanes) - 1, whose all-ones lanes make
// every carry chain run full length. Checks ModExp with edge bases, and the
// multiply and square kernels directly against a * b * R^-1 mod n.
TEST_P(MontKernelOracleTest, RandomOddModuliOneToSixtyFiveLanes) {
  const MontKernel kernel = GetParam();
  Rng rng(6007 + static_cast<uint64_t>(kernel));
  const BigUint one(1);
  std::set<size_t> served;
  for (size_t lanes = 1; lanes <= 65; ++lanes) {
    const BigUint r = one.ShiftLeft(64 * lanes);
    BigUint random_modulus = RandomWithBits(64 * lanes, rng);
    if (!random_modulus.IsOdd()) {
      random_modulus = random_modulus.Add(one);
    }
    for (const BigUint& n : {random_modulus, r.Sub(one)}) {
      auto ctx = MontgomeryContext::CreateWithKernel(n, kernel);
      if (!ctx.ok()) {
        continue;
      }
      ASSERT_EQ(ctx->lanes(), lanes);
      served.insert(lanes);
      const BigUint exponent = RandomWithBits(1 + rng.NextBelow(160), rng);
      const BigUint n_minus_1 = n.Sub(one);
      for (const BigUint& base : {BigUint(), one, n_minus_1, n.Add(RandomBelow(n, rng)),
                                  RandomBelow(n, rng)}) {
        EXPECT_EQ(ctx->ModExp(base, exponent), OracleModExp(base, exponent, n))
            << lanes << " lanes, base " << base.ToHex();
      }
      const BigUint r_inv = ModInverse(r.Mod(n), n).value();
      const BigUint a = RandomBelow(n, rng);
      const BigUint b = RandomBelow(n, rng);
      std::vector<uint64_t> out(lanes);
      for (const auto& [x, y] : {std::pair{a, b}, std::pair{n_minus_1, n_minus_1}}) {
        ctx->MulLanes(out.data(), ToLanes(x, lanes).data(), ToLanes(y, lanes).data());
        EXPECT_EQ(FromLanes(out), x.Mul(y).Mul(r_inv).Mod(n)) << lanes << " lanes, mul";
        ctx->SqrLanes(out.data(), ToLanes(x, lanes).data());
        EXPECT_EQ(FromLanes(out), x.Mul(x).Mul(r_inv).Mod(n)) << lanes << " lanes, sqr";
      }
    }
  }
  std::set<size_t> expected = {12, 16, 24, 32};
  if (kernel == MontKernel::kRuntime) {
    expected.clear();
    for (size_t lanes = 1; lanes <= 65; ++lanes) {
      expected.insert(lanes);
    }
  }
  EXPECT_EQ(served, expected);
}

INSTANTIATE_TEST_SUITE_P(Kernels, MontKernelOracleTest,
                         ::testing::Values(MontKernel::kRuntime, MontKernel::kAdx),
                         [](const ::testing::TestParamInfo<MontKernel>& info) {
                           return std::string(MontKernelName(info.param));
                         });

// Create() dispatches the MODP sizes to the ADX kernel where the CPU has it
// and everything else to the runtime-size loop.
TEST(MontKernelDispatchTest, PicksFixedKernelsForModpSizes) {
  const MontKernel fixed = MontgomeryContext::KernelAvailable(MontKernel::kAdx)
                               ? MontKernel::kAdx
                               : MontKernel::kRuntime;
  for (size_t bits : {768, 1024, 1536, 2048}) {
    auto ctx = MontgomeryContext::Create(WellKnownSafePrime(bits).value());
    ASSERT_TRUE(ctx.ok());
    EXPECT_EQ(ctx->kernel(), fixed) << bits;
  }
  auto small = MontgomeryContext::Create(BigUint(1000000007));
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->kernel(), MontKernel::kRuntime);
}

// Create() picks the IFMA batch kernel for the MODP sizes where the CPU has
// AVX-512F and IFMA, and ModExpBatch's serial loop everywhere else. The
// test prints both picks per size, so a log shows which kernels ran.
TEST(MontKernelDispatchTest, PicksBatchKernelsForModpSizes) {
  const MontBatchKernel batch = MontgomeryContext::KernelAvailable(MontBatchKernel::kIfma)
                                    ? MontBatchKernel::kIfma
                                    : MontBatchKernel::kSerial;
  for (size_t bits : {768, 1024, 1536, 2048}) {
    auto ctx = MontgomeryContext::Create(WellKnownSafePrime(bits).value());
    ASSERT_TRUE(ctx.ok());
    std::printf("%zu-bit MODP: ModExp kernel %s, ModExpBatch kernel %s\n", bits,
                MontKernelName(ctx->kernel()), MontBatchKernelName(ctx->batch_kernel()));
    EXPECT_EQ(ctx->batch_kernel(), batch) << bits;
    // Pinning the per-element kernel leaves the batch kernel as dispatched.
    auto pinned = MontgomeryContext::CreateWithKernel(ctx->modulus(), MontKernel::kRuntime);
    ASSERT_TRUE(pinned.ok());
    EXPECT_EQ(pinned->batch_kernel(), batch) << bits;
  }
  for (const BigUint& other : {BigUint(1000000007), BigUint(1).ShiftLeft(640).Add(BigUint(1))}) {
    auto ctx = MontgomeryContext::Create(other);
    ASSERT_TRUE(ctx.ok());
    EXPECT_EQ(ctx->batch_kernel(), MontBatchKernel::kSerial) << other.BitLength();
  }
}

// --- The IFMA batch kernel against the oracle ---

class MontBatchOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!MontgomeryContext::KernelAvailable(MontBatchKernel::kIfma)) {
      GTEST_SKIP() << "this CPU lacks AVX-512F or AVX-512 IFMA, which the ifma batch kernel "
                      "needs; ModExpBatch runs the serial loop here";
    }
  }
};

// ModpCases() (edge exponents on a random base, edge bases on a random
// exponent, four MODP sizes) batched per modulus and exponent, with 0 and 1
// added where a group lacks them. Each group's bases repeat cyclically to
// every batch size 0-17, so a batch holds repeats, neighbouring lanes
// differ, and sizes that leave a group of two to seven put the edge bases
// in a partly filled kernel call. Every result must equal its own index's
// oracle value; the kernel also runs in place.
TEST_F(MontBatchOracleTest, ModpGroupsEveryBatchSizeEdgeBasesAndExponents) {
  struct Group {
    const ModExpCase* first;
    std::vector<BigUint> bases;
    std::vector<BigUint> expected;
  };
  std::map<std::pair<std::string, std::string>, Group> groups;
  for (const ModExpCase& c : ModpCases()) {
    Group& group = groups[{c.modulus.ToHex(), c.exponent.ToHex()}];
    if (group.first == nullptr) {
      group.first = &c;
    }
    group.bases.push_back(c.base);
    group.expected.push_back(c.expected);
  }
  for (auto& [key, group] : groups) {
    const ModExpCase& c = *group.first;
    for (const BigUint& cheap : {BigUint(), BigUint(1)}) {
      if (std::find(group.bases.begin(), group.bases.end(), cheap) == group.bases.end()) {
        group.bases.push_back(cheap);
        group.expected.push_back(OracleModExp(cheap, c.exponent, c.modulus));
      }
    }
    auto ctx = MontgomeryContext::Create(c.modulus);
    ASSERT_TRUE(ctx.ok());
    ASSERT_EQ(ctx->batch_kernel(), MontBatchKernel::kIfma) << c.what;
    const size_t distinct = group.bases.size();
    for (size_t size = 0; size <= 17; ++size) {
      std::vector<BigUint> bases;
      for (size_t i = 0; i < size; ++i) {
        bases.push_back(group.bases[i % distinct]);
      }
      std::vector<BigUint> out(size);
      ctx->ModExpBatch(bases, out, c.exponent);
      for (size_t i = 0; i < size; ++i) {
        EXPECT_EQ(out[i], group.expected[i % distinct])
            << c.what << ", batch of " << size << ", index " << i;
      }
      ctx->ModExpBatch(bases, bases, c.exponent);
      EXPECT_EQ(bases, out) << c.what << ", batch of " << size << " in place";
    }
  }
}

// Random odd moduli that are not MODP primes, of the four lane counts the
// kernel serves: a random one; 2^(64 lanes) - 1, the widest, whose all-ones
// limbs leave the least headroom below R; and 9m, for which the base 3m
// squares to 0 mod n. That base is the one way a result reaches exactly n
// before the final subtraction. Other lane counts take the serial loop and
// must agree with the oracle as well.
TEST_F(MontBatchOracleTest, RandomOddModuliOfEveryServedWidth) {
  Rng rng(131071);
  const BigUint one(1);
  for (size_t lanes : {2, 12, 16, 17, 24, 32}) {
    BigUint random_modulus = RandomWithBits(64 * lanes, rng);
    if (!random_modulus.IsOdd()) {
      random_modulus = random_modulus.Add(one);
    }
    BigUint m = RandomWithBits(64 * lanes - 4, rng);
    if (!m.IsOdd()) {
      m = m.Add(one);
    }
    const BigUint nine_m = m.Mul(BigUint(9));
    for (const BigUint& n : {random_modulus, one.ShiftLeft(64 * lanes).Sub(one), nine_m}) {
      auto ctx = MontgomeryContext::Create(n);
      ASSERT_TRUE(ctx.ok());
      const bool served = lanes == 12 || lanes == 16 || lanes == 24 || lanes == 32;
      EXPECT_EQ(ctx->batch_kernel(), served ? MontBatchKernel::kIfma : MontBatchKernel::kSerial)
          << lanes << " lanes";
      const BigUint exponent = RandomWithBits(2 + rng.NextBelow(95), rng);  // >= 2
      std::vector<BigUint> bases = {n.Sub(one), BigUint(), one, n.Add(RandomBelow(n, rng))};
      if (n == nine_m) {
        bases.push_back(m.Mul(BigUint(3)));
      }
      while (bases.size() < 11) {
        bases.push_back(RandomBelow(n, rng));
      }
      std::vector<BigUint> out(bases.size());
      ctx->ModExpBatch(bases, out, exponent);
      for (size_t i = 0; i < bases.size(); ++i) {
        EXPECT_EQ(out[i], OracleModExp(bases[i], exponent, n))
            << lanes << " lanes, modulus " << n.ToHex() << ", index " << i;
      }
    }
  }
}

// --- Pooled P-SOP hops against a serial reference ---

// The pooled per-element crypto writes element i's ciphertext at index i:
// it equals a serial loop over the oracle, element for element. Sizes
// straddle the eight-element batch: empty, one (inline), a partial batch,
// exactly one, one more, two and a tail, and a party of 200 as in
// psop_ring_k3.
TEST(PsopHopTest, PooledCryptoMatchesSerialOracle) {
  auto group = CommutativeGroup::CreateWellKnown(768);
  ASSERT_TRUE(group.ok());
  Rng rng(17);
  auto key = CommutativeKey::Generate(*group, rng);
  ASSERT_TRUE(key.ok());
  for (int count : {0, 1, 7, 8, 9, 17, 200}) {
    std::vector<std::string> elements;
    for (int i = 0; i < count; ++i) {
      elements.push_back("pkg:" + std::to_string(i));
    }
    std::vector<BigUint> pooled = HashAndEncrypt(*group, *key, elements, HashAlgorithm::kSha256);
    ASSERT_EQ(pooled.size(), elements.size());
    std::vector<BigUint> serial;
    for (const std::string& element : elements) {
      serial.push_back(OracleModExp(group->HashToElement(element, HashAlgorithm::kSha256),
                                    key->exponent(), group->p()));
    }
    EXPECT_EQ(pooled, serial) << count << " elements";
    EncryptInPlace(*group, *key, pooled);
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(pooled[i], OracleModExp(serial[i], key->exponent(), group->p()))
          << count << " elements, " << i;
    }
  }
}

// A seeded RunPsop (768-bit group) against a reference the test computes
// serially: each party's key drawn as its ring party draws it, from
// Rng(seed + 0x9E3779B97F4A7C15 * (index + 1)), each element hashed and
// raised with the oracle to the product of all keys mod q (encryption
// commutes, and hashed elements lie in the order-q subgroup, so that is
// every ring order's ciphertext). The counts follow from the reference
// ciphertexts; PartyStats encrypt_ops and bytes are exactly the protocol's:
// k ring hops and k - 1 all-gather rounds, in which a party forwards every
// set but its successor's. Returns the reference intersection.
size_t ExpectRingMatchesSerialReference(const std::vector<std::vector<std::string>>& datasets,
                                        uint64_t seed) {
  const size_t k = datasets.size();
  PsopOptions options;
  options.group_bits = 768;
  options.seed = seed;
  auto result = RunPsop(datasets, options);
  EXPECT_TRUE(result.ok());
  auto group = CommutativeGroup::CreateWellKnown(768);
  EXPECT_TRUE(group.ok());
  if (!result.ok() || !group.ok()) {
    return 0;
  }
  BigUint all_keys(1);
  for (size_t i = 0; i < k; ++i) {
    Rng rng(options.seed + 0x9E3779B97F4A7C15ULL * (i + 1));
    auto key = CommutativeKey::Generate(*group, rng);
    EXPECT_TRUE(key.ok());
    all_keys = all_keys.Mul(key->exponent()).Mod(group->q());
  }
  std::map<std::string, std::set<size_t>> holders;  // ciphertext -> origins
  size_t total = 0;
  for (size_t origin = 0; origin < k; ++origin) {
    for (const std::string& element : DisambiguateMultiset(datasets[origin])) {
      const BigUint c =
          OracleModExp(group->HashToElement(element, options.hash), all_keys, group->p());
      holders[c.ToHex()].insert(origin);
      ++total;
    }
  }
  size_t intersection = 0;
  for (const auto& [ciphertext, origins] : holders) {
    intersection += origins.size() == k ? 1 : 0;
  }
  EXPECT_EQ(result->union_size, holders.size());
  EXPECT_EQ(result->intersection, intersection);
  const size_t element_bytes = 768 / 8;
  EXPECT_EQ(result->party_stats.size(), k);
  for (size_t p = 0; p < k && p < result->party_stats.size(); ++p) {
    const PartyStats& stats = result->party_stats[p];
    const size_t own = datasets[p].size();
    const size_t successor = datasets[(p + 1) % k].size();
    EXPECT_EQ(stats.encrypt_ops, total) << p;  // every dataset once
    EXPECT_EQ(stats.bytes_sent, (2 * total - successor) * element_bytes) << p;
    EXPECT_EQ(stats.bytes_received, (total + total - own) * element_bytes) << p;
  }
  return intersection;
}

// A 3-party ring of about 10 elements per party, with duplicates, and
// rings whose parties hold 0, 1, 7, 8, 9, 17 and 200 elements, on both
// sides of the eight-element batch.
TEST(PsopHopTest, RingMatchesSerialReference) {
  EXPECT_EQ(ExpectRingMatchesSerialReference(
                {{"a", "b", "c", "d", "e", "f", "g", "h", "i", "a"},
                 {"a", "c", "e", "g", "i", "k", "m", "o", "q", "a", "s"},
                 {"a", "b", "e", "f", "i", "j", "m", "n", "a"}},
                23),
            4u);  // a||1, a||2, e||1, i||1
  // Party p of a ring holds elements "e<i>" for i < size, every third
  // one shared by all parties, the rest tagged with p.
  auto ring = [](std::initializer_list<size_t> sizes) {
    std::vector<std::vector<std::string>> datasets;
    for (size_t size : sizes) {
      std::vector<std::string> dataset;
      for (size_t i = 0; i < size; ++i) {
        dataset.push_back("e" + std::to_string(i) +
                          (i % 3 == 0 ? "" : "@" + std::to_string(datasets.size())));
      }
      datasets.push_back(std::move(dataset));
    }
    return datasets;
  };
  EXPECT_EQ(ExpectRingMatchesSerialReference(ring({0, 1, 7}), 29), 0u);
  EXPECT_EQ(ExpectRingMatchesSerialReference(ring({8, 9, 17}), 31), 3u);  // e0, e3, e6
  EXPECT_EQ(ExpectRingMatchesSerialReference(ring({200, 17, 9}), 37), 3u);
}

// --- P-SOP agrees with plaintext Jaccard, swept over party counts ---

class PsopPartyCountTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PsopPartyCountTest, MatchesPlaintext) {
  const size_t k = GetParam();
  Rng rng(k * 31);
  std::vector<std::vector<std::string>> sets(k);
  for (size_t i = 0; i < k; ++i) {
    size_t count = 4 + rng.NextBelow(10);
    std::set<std::string> unique;
    for (size_t j = 0; j < count; ++j) {
      unique.insert("c" + std::to_string(rng.NextBelow(20)));
    }
    sets[i].assign(unique.begin(), unique.end());
  }
  auto plain = JaccardSimilarity(sets);
  ASSERT_TRUE(plain.ok());
  PsopOptions options;
  options.group_bits = 768;
  options.seed = k;
  auto result = RunPsop(sets, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->jaccard, *plain, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Parties, PsopPartyCountTest, ::testing::Values(2, 3, 4, 5));

}  // namespace
}  // namespace indaas
