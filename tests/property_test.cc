// Property-based tests: randomized cross-validation of the core algorithms
// against brute force and against each other, parameterized over seeds and
// sizes (TEST_P sweeps).

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/bignum/modular.h"
#include "src/bignum/prime.h"
#include "src/deps/depdb.h"
#include "src/graph/fault_graph.h"
#include "src/graph/levels.h"
#include "src/obs/metrics.h"
#include "src/pia/jaccard.h"
#include "src/pia/psop.h"
#include "src/sia/builder.h"
#include "src/sia/cutset.h"
#include "src/sia/ranking.h"
#include "src/sia/risk_groups.h"
#include "src/sia/sampling.h"
#include "src/topology/fat_tree.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

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

// --- Minimal RG algorithm vs brute force, swept over seeds ---

class MinimalRgVsBruteForceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinimalRgVsBruteForceTest, ExactMatch) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    size_t num_basic = 3 + rng.NextBelow(8);   // 3..10
    size_t num_gates = 2 + rng.NextBelow(6);   // 2..7
    FaultGraph graph = RandomFaultGraph(rng, num_basic, num_gates);
    std::set<RiskGroup> truth = BruteForceMinimalGroups(graph);
    auto computed = ComputeMinimalRiskGroups(graph);
    ASSERT_TRUE(computed.ok());
    std::set<RiskGroup> got(computed->groups.begin(), computed->groups.end());
    EXPECT_EQ(got, truth) << "seed " << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimalRgVsBruteForceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --- Bitset engine vs legacy vector engine, swept over seeds and options ---
//
// The two engines must be byte-identical: same groups in the same order and
// the same size_bounded flag, for every combination of inline absorption,
// size bound, and bitset thread count.

class RgEngineParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RgEngineParityTest, BitsetMatchesVectorEngine) {
  Rng rng(GetParam() * 6151);
  for (int trial = 0; trial < 15; ++trial) {
    size_t num_basic = 3 + rng.NextBelow(10);  // 3..12
    size_t num_gates = 2 + rng.NextBelow(7);   // 2..8
    FaultGraph graph = RandomFaultGraph(rng, num_basic, num_gates);
    for (bool inline_absorption : {true, false}) {
      for (size_t max_rg_size : {SIZE_MAX, size_t{3}}) {
        MinimalRgOptions vector_options;
        vector_options.engine = RgEngine::kVector;
        vector_options.inline_absorption = inline_absorption;
        vector_options.max_rg_size = max_rg_size;
        auto expected = ComputeMinimalRiskGroups(graph, vector_options);
        ASSERT_TRUE(expected.ok());
        for (size_t threads : {size_t{1}, size_t{4}}) {
          MinimalRgOptions bitset_options = vector_options;
          bitset_options.engine = RgEngine::kBitset;
          bitset_options.threads = threads;
          auto got = ComputeMinimalRiskGroups(graph, bitset_options);
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(got->groups, expected->groups)
              << "seed " << GetParam() << " trial " << trial << " inline " << inline_absorption
              << " bound " << max_rg_size << " threads " << threads;
          EXPECT_EQ(got->size_bounded, expected->size_bounded)
              << "seed " << GetParam() << " trial " << trial;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RgEngineParityTest, ::testing::Range<uint64_t>(1, 9));

// Every group either engine emits on an unbounded run is truly minimal by
// direct graph evaluation.
TEST(RgEngineParityTest, EmittedGroupsAreTrulyMinimal) {
  Rng rng(4057);
  for (int trial = 0; trial < 10; ++trial) {
    FaultGraph graph = RandomFaultGraph(rng, 3 + rng.NextBelow(7), 2 + rng.NextBelow(5));
    for (RgEngine engine : {RgEngine::kBitset, RgEngine::kVector}) {
      MinimalRgOptions options;
      options.engine = engine;
      auto result = ComputeMinimalRiskGroups(graph, options);
      ASSERT_TRUE(result.ok());
      for (const RiskGroup& group : result->groups) {
        EXPECT_TRUE(IsMinimalRiskGroup(graph, group))
            << "trial " << trial << " engine " << (engine == RgEngine::kBitset ? "bitset" : "vector");
      }
    }
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

INSTANTIATE_TEST_SUITE_P(Seeds, AbsorbOracleTest, ::testing::Range<uint64_t>(1, 9));

// Large enough that popcount levels cross the parallel-absorption threshold,
// so the shared pool really runs shards.
TEST(AbsorbOracleTest, LargeArenasTakeThePoolAndStillMatch) {
  Rng rng(104729);
  const uint64_t tasks_before = ComputePoolTasks();
  for (size_t stride = 1; stride <= 3; ++stride) {
    CutSetArena sets(stride);
    // Sparse wide rows rarely contain one another, so the survivor set (and
    // the per-level subset work) grows with the input.
    for (size_t r = 0; r < 2500; ++r) {
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
// sequentially and on the shared pool, for the AND gate and for 2-of-3.
TEST(RgEngineParityTest, FatTreeGroupsIdenticalSequentialAndOnSharedPool) {
  constexpr uint32_t kPorts = 16;
  auto topo = BuildFatTree(kPorts);
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  auto internet = topo->FindDevice("Internet");
  ASSERT_TRUE(internet.ok());
  Rng rng(16);
  const std::vector<std::string> cpus = {"XeonE5-2650", "XeonE5-2680", "EPYC-7302"};
  const std::vector<std::string> libcs = {"libc6=2.13", "libc6=2.14", "libc6=2.19"};
  DepDb db;
  for (DeviceId server : topo->DevicesOfType(DeviceType::kServer)) {
    const std::string& name = topo->device(server).name;
    std::vector<NetworkDependency> routes = topo->NetworkDependencies(server, *internet, 64);
    rng.Shuffle(routes);
    routes.resize(std::min<size_t>(routes.size(), 3));
    for (const NetworkDependency& route : routes) {
      db.Add(route);
    }
    db.Add(HardwareDependency{name, "CPU", cpus[rng.NextBelow(cpus.size())]});
    db.Add(SoftwareDependency{"riak", name, {libcs[rng.NextBelow(libcs.size())]}});
  }
  const uint64_t tasks_before = ComputePoolTasks();
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::string> servers;
    for (uint32_t pod = 0; pod < 3; ++pod) {
      servers.push_back(StrFormat("pod%u-srv%u-%u", (trial * 3 + pod) % kPorts,
                                  static_cast<uint32_t>(rng.NextBelow(kPorts / 2)),
                                  static_cast<uint32_t>(rng.NextBelow(kPorts / 2))));
    }
    BuildOptions build;
    build.required_servers = trial % 4 == 0 ? 0 : 2;
    auto graph = BuildDeploymentFaultGraph(db, servers, build);
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

// --- Inclusion-exclusion vs Monte Carlo on random weighted graphs ---

class ProbabilityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProbabilityPropertyTest, ExactMatchesMonteCarlo) {
  Rng rng(GetParam() * 104729);
  FaultGraph graph = RandomFaultGraph(rng, 3 + rng.NextBelow(5), 2 + rng.NextBelow(4));
  auto groups = ComputeMinimalRiskGroups(graph);
  ASSERT_TRUE(groups.ok());
  if (groups->groups.empty() || groups->groups.size() > 16) {
    GTEST_SKIP() << "degenerate graph";
  }
  double exact = TopEventProbabilityExact(graph, groups->groups, 0.1);
  Rng mc_rng(GetParam());
  double mc = TopEventProbabilityMonteCarlo(graph, 0.1, 300000, mc_rng);
  EXPECT_NEAR(exact, mc, 0.01) << "seed " << GetParam();
  EXPECT_GE(exact, -1e-12);
  EXPECT_LE(exact, 1.0 + 1e-12);
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

INSTANTIATE_TEST_SUITE_P(Bits, BignumPropertyTest,
                         ::testing::Values(16, 33, 64, 65, 128, 257, 512, 1024));

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
