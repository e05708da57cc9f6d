// Micro-benchmarks (google-benchmark) for the building blocks underlying the
// paper's experiments: bignum arithmetic, digests, commutative encryption,
// Paillier, fault graph evaluation, and the two RG algorithms.

#include <benchmark/benchmark.h>

#include "src/bignum/modular.h"
#include "src/bignum/montgomery.h"
#include "src/bignum/prime.h"
#include "src/crypto/commutative.h"
#include "src/crypto/digest.h"
#include "src/crypto/paillier.h"
#include "src/graph/bdd.h"
#include "src/graph/levels.h"
#include "src/sia/risk_groups.h"
#include "src/sia/sampling.h"
#include "src/sketch/intersect.h"
#include "src/sketch/sketch.h"
#include "src/util/rng.h"

namespace indaas {
namespace {

void BM_BigUintMul(benchmark::State& state) {
  Rng rng(1);
  size_t bits = static_cast<size_t>(state.range(0));
  BigUint a = RandomWithBits(bits, rng);
  BigUint b = RandomWithBits(bits, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Mul(b));
  }
}
BENCHMARK(BM_BigUintMul)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BigUintDivMod(benchmark::State& state) {
  Rng rng(2);
  size_t bits = static_cast<size_t>(state.range(0));
  BigUint a = RandomWithBits(2 * bits, rng);
  BigUint b = RandomWithBits(bits, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.DivMod(b));
  }
}
BENCHMARK(BM_BigUintDivMod)->Arg(256)->Arg(1024);

void BM_ModExp(benchmark::State& state) {
  Rng rng(3);
  size_t bits = static_cast<size_t>(state.range(0));
  auto p = WellKnownSafePrime(bits);
  auto ctx = MontgomeryContext::Create(*p);
  BigUint base = RandomBelow(*p, rng);
  BigUint exp = RandomBelow(*p, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->ModExp(base, exp));
  }
}
BENCHMARK(BM_ModExp)->Arg(768)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

// One Montgomery multiply / square on raw lanes with the kernel Create()
// dispatches to (named in the row's label); ModExp is ~1/5 multiplies and
// ~4/5 squarings.
void MontKernelBench(benchmark::State& state, bool square) {
  Rng rng(3);
  auto p = WellKnownSafePrime(static_cast<size_t>(state.range(0)));
  auto ctx = MontgomeryContext::Create(*p);
  std::vector<uint64_t> a(ctx->lanes());
  std::vector<uint64_t> b(ctx->lanes());
  for (size_t i = 0; i + 1 < a.size(); ++i) {  // top lane 0 keeps both < p
    a[i] = rng.Next();
    b[i] = rng.Next();
  }
  for (auto _ : state) {
    if (square) {
      ctx->SqrLanes(a.data(), a.data());
    } else {
      ctx->MulLanes(a.data(), a.data(), b.data());
    }
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(MontKernelName(ctx->kernel()));
}

void BM_MulMont(benchmark::State& state) { MontKernelBench(state, false); }
BENCHMARK(BM_MulMont)->Arg(1024)->Arg(2048);

void BM_SqrMont(benchmark::State& state) { MontKernelBench(state, true); }
BENCHMARK(BM_SqrMont)->Arg(1024)->Arg(2048);

void BM_Digest(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Digest)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Md5(benchmark::State& state) {
  std::string data(4096, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Md5);

void BM_CommutativeEncrypt(benchmark::State& state) {
  Rng rng(4);
  auto group = CommutativeGroup::CreateWellKnown(static_cast<size_t>(state.range(0)));
  auto key = CommutativeKey::Generate(*group, rng);
  BigUint element = group->HashToElement("pkg:openssl=1.0.1e", HashAlgorithm::kSha256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key->Encrypt(*group, element));
  }
}
BENCHMARK(BM_CommutativeEncrypt)->Arg(768)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_PaillierEncrypt(benchmark::State& state) {
  Rng rng(5);
  auto keypair = GeneratePaillierKeyPair(static_cast<size_t>(state.range(0)), rng);
  BigUint m(123456);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keypair->pub.Encrypt(m, rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_PaillierHomomorphicAdd(benchmark::State& state) {
  Rng rng(6);
  auto keypair = GeneratePaillierKeyPair(512, rng);
  auto c1 = keypair->pub.Encrypt(BigUint(1), rng);
  auto c2 = keypair->pub.Encrypt(BigUint(2), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keypair->pub.AddCiphertexts(*c1, *c2));
  }
}
BENCHMARK(BM_PaillierHomomorphicAdd);

// A two-level component-set graph with `sources` sources of `width`
// components each, 30% drawn from a shared pool.
FaultGraph MakeGraph(size_t sources, size_t width) {
  Rng rng(7);
  std::vector<ComponentSet> sets;
  for (size_t s = 0; s < sources; ++s) {
    ComponentSet set;
    set.source = "E" + std::to_string(s);
    for (size_t c = 0; c < width; ++c) {
      set.components.push_back(rng.NextBool(0.3)
                                   ? "shared" + std::to_string(rng.NextBelow(width))
                                   : "u" + std::to_string(s) + "_" + std::to_string(c));
    }
    NormalizeComponentSet(set);
    sets.push_back(std::move(set));
  }
  auto graph = BuildFromComponentSets(sets);
  return std::move(graph).value();
}

void BM_FaultGraphEvaluate(benchmark::State& state) {
  FaultGraph graph = MakeGraph(4, static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> graph_state(graph.NodeCount(), 0);
  Rng rng(8);
  for (auto _ : state) {
    for (NodeId id : graph.BasicEvents()) {
      graph_state[id] = rng.NextBool(0.05) ? 1 : 0;
    }
    benchmark::DoNotOptimize(graph.Evaluate(graph_state));
  }
}
BENCHMARK(BM_FaultGraphEvaluate)->Arg(50)->Arg(500);

void BM_MinimalRiskGroups(benchmark::State& state) {
  FaultGraph graph = MakeGraph(2, static_cast<size_t>(state.range(0)));
  MinimalRgOptions options;
  options.max_rg_size = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeMinimalRiskGroups(graph, options));
  }
}
BENCHMARK(BM_MinimalRiskGroups)->Arg(20)->Arg(100)->Unit(benchmark::kMicrosecond);

void BM_BddCompileAndProbability(benchmark::State& state) {
  FaultGraph graph = MakeGraph(4, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopEventProbabilityBdd(graph, 0.05));
  }
}
BENCHMARK(BM_BddCompileAndProbability)->Arg(50)->Arg(200)->Unit(benchmark::kMicrosecond);

void BM_SamplingRounds(benchmark::State& state) {
  FaultGraph graph = MakeGraph(3, 100);
  for (auto _ : state) {
    SamplingOptions options;
    options.rounds = static_cast<size_t>(state.range(0));
    options.failure_bias = 0.05;
    benchmark::DoNotOptimize(SampleRiskGroups(graph, options));
  }
}
BENCHMARK(BM_SamplingRounds)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

// --- MinHash sketch engine (src/sketch) ---

std::vector<std::string> MakeElements(size_t n, uint64_t salt) {
  std::vector<std::string> elements;
  elements.reserve(n);
  for (size_t e = 0; e < n; ++e) {
    elements.push_back("elem-" + std::to_string(salt) + "-" + std::to_string(e));
  }
  return elements;
}

void BM_SketchBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::string> elements = MakeElements(n, 7);
  sketch::SketchParams params;
  params.k = 256;
  std::vector<uint32_t> out(params.k);
  for (auto _ : state) {
    sketch::BuildSketch(params, elements, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SketchBuild)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

bool PinLevel(benchmark::State& state, sketch::SimdLevel* level) {
  *level = static_cast<sketch::SimdLevel>(state.range(0));
  if (!sketch::SimdLevelAvailable(*level)) {
    state.SkipWithError("SIMD level unavailable on this host");
    return false;
  }
  return true;
}

void BM_SketchAgreeCount(benchmark::State& state) {
  sketch::SimdLevel level;
  if (!PinLevel(state, &level)) {
    return;
  }
  sketch::SketchParams params;
  params.k = 256;
  std::vector<uint32_t> a(params.k), b(params.k);
  sketch::BuildSketch(params, MakeElements(2000, 1), a.data());
  sketch::BuildSketch(params, MakeElements(2000, 2), b.data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch::AgreeCount(a.data(), b.data(), params.k, level));
  }
}
BENCHMARK(BM_SketchAgreeCount)->Arg(0)->Arg(1)->Arg(2);

// Rotates among many distinct pairs so the branch predictor cannot memorize
// one merge pattern — a single repeated pair understates scalar cost and
// with it the SIMD speedup.
void BM_SketchIntersect(benchmark::State& state) {
  sketch::SimdLevel level;
  if (!PinLevel(state, &level)) {
    return;
  }
  const size_t n = static_cast<size_t>(state.range(1));
  std::vector<std::vector<uint32_t>> fps;
  for (size_t i = 0; i < 32; ++i) {
    fps.push_back(sketch::BuildFingerprints(1, MakeElements(n, i)));
  }
  size_t i = 0, j = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch::IntersectCount(fps[i].data(), fps[i].size(),
                                                    fps[j].data(), fps[j].size(), level));
    if (++j == fps.size()) {
      j = ++i + 1;
      if (j >= fps.size()) {
        i = 0;
        j = 1;
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * state.range(1));
}
BENCHMARK(BM_SketchIntersect)
    ->Args({0, 2000})
    ->Args({1, 2000})
    ->Args({2, 2000})
    ->Args({2, 16384})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace indaas

BENCHMARK_MAIN();
