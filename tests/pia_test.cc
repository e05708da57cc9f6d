// Tests for src/pia/: Jaccard, MinHash, the P-SOP protocol, the KS baseline,
// and the private audit orchestration.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "src/deps/prob_model.h"
#include "src/pia/audit.h"
#include "src/pia/audit_trail.h"
#include "src/pia/jaccard.h"
#include "src/pia/ks.h"
#include "src/pia/network_model.h"
#include "src/pia/psop.h"
#include "src/sketch/sketch.h"
#include "src/util/rng.h"
#include "src/util/timer.h"
#include "src/util/strings.h"
#include "tests/ring_oracle.h"

namespace indaas {
namespace {

std::vector<std::string> MakeSet(int lo, int hi) {
  std::vector<std::string> out;
  for (int i = lo; i < hi; ++i) {
    out.push_back("component-" + std::to_string(i));
  }
  return out;
}

// --- Jaccard ---

TEST(JaccardTest, KnownValues) {
  auto j = JaccardSimilarity({MakeSet(0, 10), MakeSet(5, 15)});
  ASSERT_TRUE(j.ok());
  EXPECT_DOUBLE_EQ(*j, 5.0 / 15.0);
}

TEST(JaccardTest, DisjointAndIdentical) {
  auto disjoint = JaccardSimilarity({MakeSet(0, 5), MakeSet(5, 10)});
  ASSERT_TRUE(disjoint.ok());
  EXPECT_DOUBLE_EQ(*disjoint, 0.0);
  auto identical = JaccardSimilarity({MakeSet(0, 5), MakeSet(0, 5)});
  ASSERT_TRUE(identical.ok());
  EXPECT_DOUBLE_EQ(*identical, 1.0);
}

TEST(JaccardTest, MultiWay) {
  // {0..9}, {5..14}, {5..9 plus 20..24}: intersection {5..9}=5, union=20.
  std::vector<std::string> third = MakeSet(5, 10);
  auto extra = MakeSet(20, 25);
  third.insert(third.end(), extra.begin(), extra.end());
  auto j = JaccardSimilarity({MakeSet(0, 10), MakeSet(5, 15), third});
  ASSERT_TRUE(j.ok());
  EXPECT_DOUBLE_EQ(*j, 5.0 / 20.0);
}

TEST(JaccardTest, DuplicatesInInputIgnored) {
  std::vector<std::string> with_dupes = {"a", "a", "b"};
  auto j = JaccardSimilarity({with_dupes, {"a", "b"}});
  ASSERT_TRUE(j.ok());
  EXPECT_DOUBLE_EQ(*j, 1.0);
}

TEST(JaccardTest, NeedsTwoSets) {
  EXPECT_FALSE(JaccardSimilarity({MakeSet(0, 3)}).ok());
}

// --- MinHash ---

TEST(MinHashTest, EstimateWithinBroderBound) {
  // Expected error O(1/sqrt(m)); allow 4 sigma.
  const size_t m = 512;
  HashFamily family(7, m);
  std::vector<std::string> a = MakeSet(0, 400);
  std::vector<std::string> b = MakeSet(200, 600);  // J = 200/600 = 1/3
  MinHashSignature sa(family, a);
  MinHashSignature sb(family, b);
  auto estimate = EstimateJaccard({sa, sb});
  ASSERT_TRUE(estimate.ok());
  double sigma = 1.0 / std::sqrt(static_cast<double>(m));
  EXPECT_NEAR(*estimate, 1.0 / 3.0, 4 * sigma);
}

TEST(MinHashTest, ErrorShrinksWithM) {
  std::vector<std::string> a = MakeSet(0, 300);
  std::vector<std::string> b = MakeSet(100, 400);  // J = 0.5
  double err_small = 0;
  double err_large = 0;
  // Average over several families to smooth noise.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    HashFamily small_family(seed, 16);
    HashFamily large_family(seed, 1024);
    auto je_small = EstimateJaccard(
        {MinHashSignature(small_family, a), MinHashSignature(small_family, b)});
    auto je_large = EstimateJaccard(
        {MinHashSignature(large_family, a), MinHashSignature(large_family, b)});
    ASSERT_TRUE(je_small.ok());
    ASSERT_TRUE(je_large.ok());
    err_small += std::abs(*je_small - 0.5);
    err_large += std::abs(*je_large - 0.5);
  }
  EXPECT_LT(err_large, err_small);
}

TEST(MinHashTest, MismatchedSizesRejected) {
  HashFamily f1(1, 8);
  HashFamily f2(1, 16);
  MinHashSignature a(f1, MakeSet(0, 5));
  MinHashSignature b(f2, MakeSet(0, 5));
  EXPECT_FALSE(EstimateJaccard({a, b}).ok());
  EXPECT_FALSE(EstimateJaccard({a}).ok());
}

// --- P-SOP ---

// 768-bit group keeps tests fast while using the real protocol code path.
PsopOptions FastPsop() {
  PsopOptions options;
  options.group_bits = 768;
  return options;
}

TEST(PsopTest, TwoPartyExactCounts) {
  auto result = RunPsop({MakeSet(0, 20), MakeSet(10, 30)}, FastPsop());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->intersection, 10u);
  EXPECT_EQ(result->union_size, 30u);
  EXPECT_NEAR(result->jaccard, 10.0 / 30.0, 1e-12);
}

TEST(PsopTest, ThreePartyExactCounts) {
  auto result = RunPsop({MakeSet(0, 12), MakeSet(4, 16), MakeSet(8, 20)}, FastPsop());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->intersection, 4u);  // {8..11}
  EXPECT_EQ(result->union_size, 20u);
}

TEST(PsopTest, DisjointSets) {
  auto result = RunPsop({MakeSet(0, 5), MakeSet(5, 10)}, FastPsop());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->intersection, 0u);
  EXPECT_DOUBLE_EQ(result->jaccard, 0.0);
}

TEST(PsopTest, MultisetDisambiguation) {
  // a appears twice on one side, once on the other: counts once.
  auto result = RunPsop({{"a", "a", "b"}, {"a", "b", "c"}}, FastPsop());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->intersection, 2u);  // a||1 and b||1
  EXPECT_EQ(result->union_size, 4u);    // a||1, a||2, b||1, c||1
}

TEST(PsopTest, TrafficAccounting) {
  const size_t n = 8;
  auto result = RunPsop({MakeSet(0, n), MakeSet(0, n)}, FastPsop());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->party_stats.size(), 2u);
  const size_t element_bytes = 768 / 8;
  // Each party: k=2 ring sends of its held dataset + broadcast to 1 peer.
  // Ring phase moves each dataset twice; each party holds one dataset per
  // hop, so it sends n elements per hop + n for the final share.
  size_t expected = (2 + 1) * n * element_bytes;
  EXPECT_EQ(result->party_stats[0].bytes_sent, expected);
  EXPECT_EQ(result->party_stats[0].bytes_received, expected);
  // Each party encrypts every dataset it forwards: its own + the peer's.
  EXPECT_EQ(result->party_stats[0].encrypt_ops, 2 * n);
  EXPECT_GT(result->party_stats[0].compute_seconds, 0.0);
}

TEST(PsopTest, ComputeSecondsBoundedBySerialWallTime) {
  // The simulation runs the parties serially on one thread, so the sum of
  // per-party compute_seconds (all measured with the same monotonic clock,
  // including the share/count phase) cannot exceed the run's wall time.
  WallTimer timer;
  auto result = RunPsop({MakeSet(0, 25), MakeSet(5, 30), MakeSet(10, 35)}, FastPsop());
  double wall = timer.ElapsedSeconds();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->party_stats.size(), 3u);
  double total = 0.0;
  for (const PartyStats& stats : result->party_stats) {
    EXPECT_GT(stats.compute_seconds, 0.0);
    total += stats.compute_seconds;
  }
  EXPECT_LE(total, wall);
}

TEST(PsopTest, NeedsTwoParties) {
  EXPECT_FALSE(RunPsop({MakeSet(0, 3)}, FastPsop()).ok());
}

TEST(PsopTest, MinHashVariantEstimatesJaccard) {
  PsopOptions options = FastPsop();
  const size_t m = 128;
  auto result = RunPsopWithMinHash({MakeSet(0, 200), MakeSet(100, 300)}, m, options);
  ASSERT_TRUE(result.ok());
  // True J = 100/300 = 1/3; 4-sigma MinHash tolerance.
  EXPECT_NEAR(result->jaccard, 1.0 / 3.0, 4.0 / std::sqrt(static_cast<double>(m)));
  // Each party's protocol cost is m elements, not 200.
  EXPECT_EQ(result->party_stats[0].encrypt_ops, 2 * m);
}

TEST(PsopTest, MinHashRejectsBadInput) {
  EXPECT_FALSE(RunPsopWithMinHash({MakeSet(0, 5), MakeSet(0, 5)}, 0, FastPsop()).ok());
  EXPECT_FALSE(RunPsopWithMinHash({MakeSet(0, 5), {}}, 16, FastPsop()).ok());
}

TEST(PsopTest, MinHashSamplingMatchesSketchArgmin) {
  // Regression cross-check for the deterministic-seed audit: the elements
  // MinHash-compressed P-SOP feeds into the ring must be exactly the sketch
  // engine's arg-min picks under the derived seed — so the sampled sets (and
  // with them the protocol bytes) are identical across runs and hosts.
  const size_t m = 64;
  PsopOptions options = FastPsop();
  const std::vector<std::vector<std::string>> datasets = {MakeSet(0, 150), MakeSet(50, 200)};
  auto result = RunPsopWithMinHash(datasets, m, options);
  ASSERT_TRUE(result.ok());
  sketch::SketchParams params;
  params.k = static_cast<uint32_t>(m);
  params.seed = options.seed ^ 0x4D696E4861736821ULL;  // the documented salt
  std::vector<std::vector<std::string>> samples;
  std::vector<uint32_t> registers(m);
  std::vector<uint32_t> argmin;
  for (const std::vector<std::string>& dataset : datasets) {
    sketch::BuildSketch(params, dataset, registers.data(), &argmin);
    std::vector<std::string> sample;
    for (size_t i = 0; i < m; ++i) {
      sample.push_back(StrFormat("%zu#", i) + dataset[argmin[i]]);
    }
    samples.push_back(std::move(sample));
  }
  auto expected = RunPsop(samples, options);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(result->intersection, expected->intersection);
  EXPECT_DOUBLE_EQ(result->jaccard,
                   static_cast<double>(expected->intersection) / static_cast<double>(m));
  // And the whole pipeline is run-to-run deterministic.
  auto again = RunPsopWithMinHash(datasets, m, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->intersection, result->intersection);
  EXPECT_EQ(again->union_size, result->union_size);
}

// --- Sketch-exchange P-SOP mode ---

TEST(PsopTest, SketchVariantEstimatesJaccard) {
  const uint32_t sketch_k = 256;
  auto result = RunPsopWithSketch({MakeSet(0, 200), MakeSet(100, 300)}, sketch_k, FastPsop());
  ASSERT_TRUE(result.ok());
  // True J = 100/300; 4-sigma register-agreement tolerance.
  EXPECT_NEAR(result->jaccard, 1.0 / 3.0, 4.0 / std::sqrt(static_cast<double>(sketch_k)));
  ASSERT_EQ(result->party_stats.size(), 2u);
  for (const PartyStats& stats : result->party_stats) {
    // No encryption, and bytes independent of dataset size: k-1 = 1 ring hop
    // of one fixed-width sketch frame.
    EXPECT_EQ(stats.encrypt_ops, 0u);
    EXPECT_EQ(stats.bytes_sent, kSketchHopOverheadBytes + sketch::SketchBytes(sketch_k));
  }
}

TEST(PsopTest, SketchVariantDeterministicAcrossRuns) {
  const std::vector<std::vector<std::string>> datasets = {MakeSet(0, 80), MakeSet(40, 120),
                                                          MakeSet(20, 100)};
  auto first = RunPsopWithSketch(datasets, 128, FastPsop());
  auto second = RunPsopWithSketch(datasets, 128, FastPsop());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->intersection, second->intersection);
  EXPECT_EQ(first->union_size, second->union_size);
  EXPECT_DOUBLE_EQ(first->jaccard, second->jaccard);
}

TEST(PsopTest, SketchVariantIdenticalSetsAndDisjointSets) {
  auto identical = RunPsopWithSketch({MakeSet(0, 50), MakeSet(0, 50)}, 64, FastPsop());
  ASSERT_TRUE(identical.ok());
  EXPECT_DOUBLE_EQ(identical->jaccard, 1.0);
  auto disjoint = RunPsopWithSketch({MakeSet(0, 500), MakeSet(500, 1000)}, 64, FastPsop());
  ASSERT_TRUE(disjoint.ok());
  EXPECT_LT(disjoint->jaccard, 0.1);
}

TEST(PsopTest, SketchVariantRejectsBadInput) {
  EXPECT_FALSE(RunPsopWithSketch({MakeSet(0, 5)}, 64, FastPsop()).ok());
  EXPECT_FALSE(RunPsopWithSketch({MakeSet(0, 5), MakeSet(0, 5)}, 0, FastPsop()).ok());
  EXPECT_FALSE(RunPsopWithSketch({MakeSet(0, 5), {}}, 64, FastPsop()).ok());
}

// The in-process runner against the plaintext oracles, both modes, on
// rings of two to five parties with duplicates, empty overlaps and sets off
// the eight-element crypto batch.
TEST(PsopTest, InProcessRingsMatchPlaintextOracles) {
  const std::vector<std::vector<std::vector<std::string>>> rings = {
      {{"a", "a", "b", "c"}, {"a", "b", "b", "d"}},
      {MakeSet(0, 13), MakeSet(4, 25), MakeSet(8, 18)},
      {MakeSet(0, 5), MakeSet(5, 10), MakeSet(10, 15)},
      {{"shared", "net:core1", "own:0", "pair:0"},
       {"shared", "net:core1", "own:1", "pair:0"},
       {"shared", "net:core1", "own:2", "pair:1"},
       {"shared", "net:core1", "own:3", "pair:1"},
       {"shared", "net:core1", "own:4", "pair:2"}},
  };
  for (size_t r = 0; r < rings.size(); ++r) {
    PsopOptions options = FastPsop();
    options.seed = 40 + r;
    auto exact = RunPsop(rings[r], options);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_TRUE(MatchesOracle(*exact, ExactRingOracle(rings[r]))) << "ring " << r;
    for (uint32_t sketch_k : {1u, 64u, 257u}) {
      auto sketched = RunPsopWithSketch(rings[r], sketch_k, options);
      ASSERT_TRUE(sketched.ok()) << sketched.status().ToString();
      EXPECT_TRUE(MatchesOracle(*sketched, SketchRingOracle(rings[r], sketch_k, options.seed)))
          << "ring " << r << ", sketch_k " << sketch_k;
    }
  }
}

// --- KS baseline ---

KsOptions FastKs() {
  KsOptions options;
  options.paillier_bits = 256;  // small keys: tests exercise the code path
  return options;
}

TEST(KsTest, TwoPartyIntersection) {
  auto result = RunKsIntersectionCardinality({MakeSet(0, 15), MakeSet(5, 20)}, FastKs());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->intersection, 10u);
}

TEST(KsTest, ThreePartyIntersection) {
  auto result =
      RunKsIntersectionCardinality({MakeSet(0, 12), MakeSet(4, 16), MakeSet(8, 20)}, FastKs());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->intersection, 4u);
}

TEST(KsTest, DisjointSets) {
  auto result = RunKsIntersectionCardinality({MakeSet(0, 8), MakeSet(8, 16)}, FastKs());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->intersection, 0u);
}

TEST(KsTest, IdenticalSets) {
  auto result = RunKsIntersectionCardinality({MakeSet(0, 10), MakeSet(0, 10)}, FastKs());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->intersection, 10u);
}

TEST(KsTest, StatsAccounting) {
  auto result = RunKsIntersectionCardinality({MakeSet(0, 10), MakeSet(0, 10)}, FastKs());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->party_stats.size(), 2u);
  for (const PartyStats& stats : result->party_stats) {
    EXPECT_GT(stats.encrypt_ops, 0u);
    EXPECT_GT(stats.homomorphic_ops, 0u);
    EXPECT_GT(stats.bytes_sent, 0u);
  }
}

TEST(KsTest, ComputeSecondsAttribution) {
  // Key generation, partial aggregation, and every decryption run at party 0
  // (the key holder); that work must be charged to party 0, not to whichever
  // party produced the ciphertext. The ordering check uses op counts rather
  // than compute_seconds: wall-clock per-party times invert under scheduler
  // contention, but party 0's extra decryptions are deterministic. All
  // parties still accrue measurable time, and the serial simulation bounds
  // the sum of per-party times by the wall time.
  WallTimer timer;
  auto result =
      RunKsIntersectionCardinality({MakeSet(0, 12), MakeSet(4, 16), MakeSet(8, 20)}, FastKs());
  double wall = timer.ElapsedSeconds();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->party_stats.size(), 3u);
  double total = 0.0;
  for (const PartyStats& stats : result->party_stats) {
    EXPECT_GT(stats.compute_seconds, 0.0);
    total += stats.compute_seconds;
  }
  EXPECT_LE(total, wall);
  for (size_t i = 1; i < result->party_stats.size(); ++i) {
    EXPECT_GT(result->party_stats[0].encrypt_ops,
              result->party_stats[i].encrypt_ops);
  }
}

TEST(KsTest, RejectsBadInput) {
  EXPECT_FALSE(RunKsIntersectionCardinality({MakeSet(0, 5)}, FastKs()).ok());
  EXPECT_FALSE(RunKsIntersectionCardinality({MakeSet(0, 5), {}}, FastKs()).ok());
}

// --- Cross-validation: P-SOP vs plain Jaccard vs KS ---

TEST(CrossValidationTest, ProtocolsAgreeWithPlaintextJaccard) {
  Rng rng(5);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<std::vector<std::string>> sets;
    size_t k = 2 + rng.NextBelow(2);
    for (size_t i = 0; i < k; ++i) {
      std::vector<std::string> set;
      size_t count = 5 + rng.NextBelow(15);
      for (size_t j = 0; j < count; ++j) {
        set.push_back("c" + std::to_string(rng.NextBelow(30)));
      }
      std::sort(set.begin(), set.end());
      set.erase(std::unique(set.begin(), set.end()), set.end());
      sets.push_back(std::move(set));
    }
    auto plain = JaccardSimilarity(sets);
    ASSERT_TRUE(plain.ok());
    PsopOptions psop = FastPsop();
    psop.seed = 10 + static_cast<uint64_t>(trial);
    auto private_result = RunPsop(sets, psop);
    ASSERT_TRUE(private_result.ok());
    EXPECT_NEAR(private_result->jaccard, *plain, 1e-12) << "trial " << trial;

    KsOptions ks = FastKs();
    ks.seed = 20 + static_cast<uint64_t>(trial);
    auto ks_result = RunKsIntersectionCardinality(sets, ks);
    ASSERT_TRUE(ks_result.ok());
    // KS computes the same intersection cardinality P-SOP does.
    EXPECT_EQ(ks_result->intersection, private_result->intersection) << "trial " << trial;
  }
}

// --- Network model ---

TEST(NetworkModelTest, TransferSecondsArithmetic) {
  NetworkModel model{0.01, 1000.0};  // 10 ms RTT, 1 kB/s
  EXPECT_DOUBLE_EQ(model.TransferSeconds(2000, 0), 2.0);
  EXPECT_DOUBLE_EQ(model.TransferSeconds(0, 5), 0.05);
  EXPECT_DOUBLE_EQ(model.TransferSeconds(1000, 2), 1.02);
}

TEST(NetworkModelTest, WallClockAddsCompute) {
  NetworkModel model{0.0, 100.0};
  PartyStats stats;
  stats.compute_seconds = 1.5;
  stats.bytes_sent = 200;
  EXPECT_DOUBLE_EQ(model.EstimateWallSeconds(stats, 0), 1.5 + 2.0);
}

TEST(NetworkModelTest, WallClockChargesBytesReceived) {
  // Regression: the estimate used to ship only bytes_sent, so a
  // receive-heavy party (the KS aggregator collects every peer's
  // ciphertexts) was under-charged. Both directions serialize on the link.
  NetworkModel model{0.0, 100.0};
  PartyStats aggregator;
  aggregator.bytes_sent = 100;
  aggregator.bytes_received = 900;
  PartyStats leaf;
  leaf.bytes_sent = 100;
  leaf.bytes_received = 0;
  EXPECT_DOUBLE_EQ(model.EstimateWallSeconds(aggregator, 0), 10.0);
  EXPECT_DOUBLE_EQ(model.EstimateWallSeconds(leaf, 0), 1.0);
  EXPECT_GT(model.EstimateWallSeconds(aggregator, 0),
            model.EstimateWallSeconds(leaf, 0));
  // The directional TransferSeconds overload sums both directions.
  EXPECT_DOUBLE_EQ(model.TransferSeconds(100, 900, 0),
                   model.TransferSeconds(1000, 0));
}

TEST(NetworkModelTest, ProfilesAreOrdered) {
  // The WAN is slower than the data center network for any message.
  PartyStats stats;
  stats.bytes_sent = 1 << 20;
  EXPECT_GT(WideAreaNetwork().EstimateWallSeconds(stats, 10),
            DatacenterNetwork().EstimateWallSeconds(stats, 10));
}

// --- Provider construction from DepDB (§4.2.3 normalization) ---

TEST(MakeProviderTest, NormalizesAllRecordTypes) {
  DepDb db;
  db.Add(NetworkDependency{"S1", "Internet", {"ToR1", "Core1"}});
  db.Add(HardwareDependency{"S1", "Disk", "SED900"});
  db.Add(SoftwareDependency{"riak", "S1", {"libc6=2.13", "OpenSSL=1.0.1e"}});
  CloudProvider provider = MakeProviderFromDepDb("Cloud1", db);
  EXPECT_EQ(provider.name, "Cloud1");
  std::set<std::string> components(provider.components.begin(), provider.components.end());
  EXPECT_EQ(components.count("net:tor1"), 1u);
  EXPECT_EQ(components.count("net:core1"), 1u);
  EXPECT_EQ(components.count("hw:sed900"), 1u);
  EXPECT_EQ(components.count("pkg:libc6=2.13"), 1u);
  EXPECT_EQ(components.count("pkg:openssl=1.0.1e"), 1u);
  EXPECT_EQ(components.size(), 5u);
}

TEST(MakeProviderTest, TwoProvidersShareNormalizedComponents) {
  // The whole point of §4.2.3: the same third-party component reported by
  // different providers must produce identical set elements.
  DepDb db1;
  db1.Add(SoftwareDependency{"svc-a", "host-a", {"OpenSSL=1.0.1e"}});
  DepDb db2;
  db2.Add(SoftwareDependency{"svc-b", "host-b", {"openssl=1.0.1e"}});
  CloudProvider p1 = MakeProviderFromDepDb("A", db1);
  CloudProvider p2 = MakeProviderFromDepDb("B", db2);
  auto j = JaccardSimilarity({p1.components, p2.components});
  ASSERT_TRUE(j.ok());
  EXPECT_DOUBLE_EQ(*j, 1.0);
}

TEST(MakeProviderTest, EmptyDbYieldsEmptyProvider) {
  DepDb db;
  CloudProvider provider = MakeProviderFromDepDb("Empty", db);
  EXPECT_TRUE(provider.components.empty());
}

// --- Audit trail (§5.2) ---

TEST(AuditTrailTest, CommitVerifyRoundTrip) {
  std::vector<std::string> dataset = {"net:tor1", "pkg:openssl=1.0.1e", "hw:sed900"};
  std::string commitment = CommitDataset(dataset, 12345);
  EXPECT_EQ(commitment.size(), 64u);  // hex SHA-256
  EXPECT_TRUE(VerifyDatasetCommitment(dataset, 12345, commitment));
}

TEST(AuditTrailTest, OrderInsensitive) {
  std::vector<std::string> a = {"x", "y", "z"};
  std::vector<std::string> b = {"z", "x", "y"};
  EXPECT_EQ(CommitDataset(a, 7), CommitDataset(b, 7));
}

TEST(AuditTrailTest, DetectsUnderReporting) {
  // The §5.2 cheat: a provider that committed to the full set cannot later
  // open the commitment with a subset (or vice versa).
  std::vector<std::string> full = {"a", "b", "c"};
  std::vector<std::string> trimmed = {"a", "b"};
  std::string commitment = CommitDataset(full, 99);
  EXPECT_FALSE(VerifyDatasetCommitment(trimmed, 99, commitment));
  EXPECT_FALSE(VerifyDatasetCommitment(full, 100, commitment));  // wrong nonce
}

TEST(AuditTrailTest, LengthPrefixPreventsSplicing) {
  // {"ab","c"} and {"a","bc"} must commit differently.
  EXPECT_NE(CommitDataset({"ab", "c"}, 1), CommitDataset({"a", "bc"}, 1));
}

// --- Gill et al. estimator (§5.1) ---

TEST(FailureObservationTest, EstimatorDividesFailedByPopulation) {
  auto model = FailureProbabilityModel::FromObservations(
      {{"net:tor", 5, 100}, {"net:agg", 1, 10}}, 0.02);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->Lookup("net:tor7"), 0.05);
  EXPECT_DOUBLE_EQ(model->Lookup("net:agg3"), 0.1);
  EXPECT_DOUBLE_EQ(model->Lookup("hw:disk"), 0.02);  // default
}

TEST(FailureObservationTest, RejectsBadObservations) {
  EXPECT_FALSE(FailureProbabilityModel::FromObservations({{"x", 1, 0}}).ok());
  EXPECT_FALSE(FailureProbabilityModel::FromObservations({{"x", 5, 3}}).ok());
}

// --- PIA audit orchestration ---

TEST(PiaAuditTest, RanksByAscendingJaccard) {
  std::vector<CloudProvider> providers = {
      {"Cloud1", MakeSet(0, 10)},
      {"Cloud2", MakeSet(8, 18)},   // small overlap with Cloud1
      {"Cloud3", MakeSet(0, 10)},   // identical to Cloud1
  };
  PiaAuditOptions options;
  options.psop.group_bits = 768;
  options.max_redundancy = 2;
  auto report = RunPiaAudit(providers, options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->rankings.size(), 1u);
  const auto& ranking = report->rankings[0];
  ASSERT_EQ(ranking.size(), 3u);
  // Most independent first; Cloud1&Cloud3 (identical) must be last.
  EXPECT_LE(ranking[0].jaccard, ranking[1].jaccard);
  EXPECT_LE(ranking[1].jaccard, ranking[2].jaccard);
  EXPECT_EQ(ranking[2].providers, (std::vector<std::string>{"Cloud1", "Cloud3"}));
  EXPECT_DOUBLE_EQ(ranking[2].jaccard, 1.0);
}

TEST(PiaAuditTest, TwoAndThreeWayRankings) {
  std::vector<CloudProvider> providers = {
      {"Cloud1", MakeSet(0, 10)},
      {"Cloud2", MakeSet(5, 15)},
      {"Cloud3", MakeSet(10, 20)},
      {"Cloud4", MakeSet(15, 25)},
  };
  PiaAuditOptions options;
  options.psop.group_bits = 768;
  auto report = RunPiaAudit(providers, options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->rankings.size(), 2u);
  EXPECT_EQ(report->rankings[0].size(), 6u);  // C(4,2) — Table 2's shape
  EXPECT_EQ(report->rankings[1].size(), 4u);  // C(4,3)
  std::string rendered = RenderPiaReport(*report);
  EXPECT_NE(rendered.find("2-Way Redundancy Deployment"), std::string::npos);
  EXPECT_NE(rendered.find("3-Way Redundancy Deployment"), std::string::npos);
  EXPECT_NE(rendered.find("Cloud1 & Cloud2"), std::string::npos);
}

TEST(PiaAuditTest, AggregatesProviderStats) {
  std::vector<CloudProvider> providers = {
      {"A", MakeSet(0, 5)}, {"B", MakeSet(0, 5)}, {"C", MakeSet(0, 5)}};
  PiaAuditOptions options;
  options.psop.group_bits = 768;
  options.max_redundancy = 2;
  auto report = RunPiaAudit(providers, options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->provider_stats.size(), 3u);
  for (const PartyStats& stats : report->provider_stats) {
    // Each provider participates in 2 of the 3 pairings.
    EXPECT_EQ(stats.encrypt_ops, 2u * 2u * 5u);
  }
}

TEST(PiaAuditTest, RejectsBadInput) {
  PiaAuditOptions options;
  EXPECT_FALSE(RunPiaAudit({}, options).ok());
  EXPECT_FALSE(RunPiaAudit({{"A", MakeSet(0, 3)}}, options).ok());
  EXPECT_FALSE(RunPiaAudit({{"A", MakeSet(0, 3)}, {"A", MakeSet(0, 3)}}, options).ok());
  EXPECT_FALSE(RunPiaAudit({{"A", MakeSet(0, 3)}, {"B", {}}}, options).ok());
  PiaAuditOptions bad;
  bad.min_redundancy = 1;
  EXPECT_FALSE(RunPiaAudit({{"A", MakeSet(0, 3)}, {"B", MakeSet(0, 3)}}, bad).ok());
}

TEST(PiaAuditTest, ParallelMatchesSequential) {
  std::vector<CloudProvider> providers = {
      {"A", MakeSet(0, 12)}, {"B", MakeSet(6, 18)}, {"C", MakeSet(3, 15)}, {"D", MakeSet(9, 21)}};
  PiaAuditOptions options;
  options.psop.group_bits = 768;
  options.max_redundancy = 3;
  auto sequential = RunPiaAudit(providers, options);
  options.parallel_deployments = 4;
  auto parallel = RunPiaAudit(providers, options);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(sequential->rankings.size(), parallel->rankings.size());
  for (size_t level = 0; level < sequential->rankings.size(); ++level) {
    ASSERT_EQ(sequential->rankings[level].size(), parallel->rankings[level].size());
    for (size_t i = 0; i < sequential->rankings[level].size(); ++i) {
      EXPECT_EQ(sequential->rankings[level][i].providers,
                parallel->rankings[level][i].providers);
      EXPECT_DOUBLE_EQ(sequential->rankings[level][i].jaccard,
                       parallel->rankings[level][i].jaccard);
    }
  }
  for (size_t p = 0; p < providers.size(); ++p) {
    EXPECT_EQ(sequential->provider_stats[p].bytes_sent, parallel->provider_stats[p].bytes_sent);
  }
}

TEST(PiaAuditTest, MinHashMethodApproximates) {
  std::vector<CloudProvider> providers = {
      {"A", MakeSet(0, 100)},
      {"B", MakeSet(50, 150)},  // J = 1/3
  };
  PiaAuditOptions options;
  options.method = PiaMethod::kPsopMinHash;
  options.minhash_m = 128;
  options.psop.group_bits = 768;
  options.max_redundancy = 2;
  auto report = RunPiaAudit(providers, options);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->rankings[0][0].jaccard, 1.0 / 3.0, 4.0 / std::sqrt(128.0));
}

TEST(PiaAuditTest, SketchMethodApproximatesWithoutEncryption) {
  std::vector<CloudProvider> providers = {
      {"A", MakeSet(0, 100)},
      {"B", MakeSet(50, 150)},  // J = 1/3
      {"C", MakeSet(0, 100)},   // identical to A
  };
  PiaAuditOptions options;
  options.method = PiaMethod::kSketch;
  options.sketch_k = 256;
  options.max_redundancy = 2;
  auto report = RunPiaAudit(providers, options);
  ASSERT_TRUE(report.ok());
  const auto& ranking = report->rankings[0];
  ASSERT_EQ(ranking.size(), 3u);
  // A&C (identical) must rank least independent with J = 1.
  EXPECT_EQ(ranking[2].providers, (std::vector<std::string>{"A", "C"}));
  EXPECT_DOUBLE_EQ(ranking[2].jaccard, 1.0);
  EXPECT_NEAR(ranking[0].jaccard, 1.0 / 3.0, 4.0 / std::sqrt(256.0));
  // Sketch exchange never encrypts.
  for (const PartyStats& stats : report->provider_stats) {
    EXPECT_EQ(stats.encrypt_ops, 0u);
  }
}

// --- All-pairs audit (sketch + LSH) ---

TEST(AllPairsAuditTest, SurfacesLeastIndependentPairsFirst) {
  std::vector<CloudProvider> providers;
  for (size_t p = 0; p < 10; ++p) {
    CloudProvider provider;
    provider.name = "Cloud" + std::to_string(p);
    // Clouds 0 and 1 are near-duplicates; the rest are disjoint.
    for (size_t e = 0; e < 300; ++e) {
      const bool shared = p < 2 && e < 250;
      provider.components.push_back(shared ? "dup-" + std::to_string(e)
                                           : StrFormat("own%zu-%zu", p, e));
    }
    providers.push_back(std::move(provider));
  }
  PiaAllPairsOptions options;
  options.sketch.k = 256;
  auto report = RunAllPairsPiaAudit(providers, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->providers, 10u);
  EXPECT_EQ(report->pairs_possible, 45u);
  EXPECT_LT(report->pairs_evaluated, 45u);
  ASSERT_FALSE(report->pairs.empty());
  EXPECT_EQ(report->pairs[0].a, "Cloud0");
  EXPECT_EQ(report->pairs[0].b, "Cloud1");
  EXPECT_NEAR(report->pairs[0].jaccard, 250.0 / 350.0, 0.1);
  std::string rendered = RenderAllPairsReport(*report);
  EXPECT_NE(rendered.find("Cloud0 & Cloud1"), std::string::npos);
  EXPECT_NE(rendered.find("candidate pairs"), std::string::npos);
}

TEST(AllPairsAuditTest, RejectsBadInput) {
  PiaAllPairsOptions options;
  EXPECT_FALSE(RunAllPairsPiaAudit({}, options).ok());
  EXPECT_FALSE(RunAllPairsPiaAudit({{"A", MakeSet(0, 3)}}, options).ok());
  EXPECT_FALSE(
      RunAllPairsPiaAudit({{"A", MakeSet(0, 3)}, {"A", MakeSet(0, 3)}}, options).ok());
  EXPECT_FALSE(RunAllPairsPiaAudit({{"A", MakeSet(0, 3)}, {"B", {}}}, options).ok());
}

}  // namespace
}  // namespace indaas
