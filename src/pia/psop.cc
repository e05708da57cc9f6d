#include "src/pia/psop.h"

#include <algorithm>
#include <functional>
#include <map>

#include "src/obs/trace.h"
#include "src/sketch/sketch.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace indaas {
namespace {

// One ring party: its key, its in-flight dataset, and its accounting.
struct Party {
  CommutativeKey key;
  std::vector<BigUint> dataset;  // the dataset currently held (in transit)
  PartyStats stats;
};

// Runs fn(i) for i in [0, n): on ComputePool() once there are two elements
// to spread, inline otherwise, so a one-element party never starts the pool.
void ForEachElement(size_t n, const std::function<void(size_t)>& fn) {
  if (n < 2) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  ComputePool().ParallelFor(n, fn);
}

}  // namespace

std::vector<std::string> DisambiguateMultiset(const std::vector<std::string>& elements) {
  std::map<std::string, size_t> seen;
  std::vector<std::string> out;
  out.reserve(elements.size());
  for (const std::string& element : elements) {
    size_t occurrence = ++seen[element];
    out.push_back(element + "||" + std::to_string(occurrence));
  }
  return out;
}

std::vector<BigUint> HashAndEncrypt(const CommutativeGroup& group, const CommutativeKey& key,
                                    const std::vector<std::string>& elements,
                                    HashAlgorithm hash) {
  std::vector<BigUint> out(elements.size());
  ForEachElement(elements.size(), [&](size_t i) {
    out[i] = key.Encrypt(group, group.HashToElement(elements[i], hash));
  });
  return out;
}

void EncryptInPlace(const CommutativeGroup& group, const CommutativeKey& key,
                    std::vector<BigUint>& elements) {
  ForEachElement(elements.size(),
                 [&](size_t i) { elements[i] = key.Encrypt(group, elements[i]); });
}

Result<PsopResult> RunPsop(const std::vector<std::vector<std::string>>& datasets,
                           const PsopOptions& options) {
  const size_t k = datasets.size();
  if (k < 2) {
    return InvalidArgumentError("RunPsop: need at least two parties");
  }
  INDAAS_TRACE_SPAN_NAMED(span, "pia.psop");
  span.Annotate("parties", std::to_string(k));
  INDAAS_ASSIGN_OR_RETURN(CommutativeGroup group,
                          CommutativeGroup::CreateWellKnown(options.group_bits));
  const size_t element_bytes = group.ElementBytes();

  Rng rng(options.seed);
  std::vector<Party> parties;
  parties.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    INDAAS_ASSIGN_OR_RETURN(CommutativeKey key, CommutativeKey::Generate(group, rng));
    parties.push_back(Party{std::move(key), {}, {}});
  }
  // Meters bind to parties' stats; `parties` must not reallocate below.
  std::vector<PartyMeter> meters;
  meters.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    meters.emplace_back(&parties[i].stats, "psop");
  }

  // Phase 0: hash into the group, first encryption, permutation.
  {
    INDAAS_TRACE_SPAN("pia.psop.encrypt_permute");
    for (size_t i = 0; i < k; ++i) {
      Party& party = parties[i];
      PartyComputeTimer timer(meters[i]);
      party.dataset =
          HashAndEncrypt(group, party.key, DisambiguateMultiset(datasets[i]), options.hash);
      meters[i].AddEncryptOps(party.dataset.size());
      rng.Shuffle(party.dataset);
    }
  }

  // Phase 1: pass each dataset around the ring; every hop encrypts and
  // permutes. After k hops a dataset is back at its origin, encrypted by all.
  {
    INDAAS_TRACE_SPAN("pia.psop.ring");
    for (size_t hop = 0; hop < k; ++hop) {
      // Dataset originated by party i currently sits at party (i + hop) % k.
      std::vector<std::vector<BigUint>> in_flight(k);
      for (size_t i = 0; i < k; ++i) {
        size_t holder = (i + hop) % k;
        size_t next = (i + hop + 1) % k;
        size_t bytes = parties[holder].dataset.size() * element_bytes;
        meters[holder].AddBytesSent(bytes);
        meters[next].AddBytesReceived(bytes);
        in_flight[next] = std::move(parties[holder].dataset);
      }
      for (size_t next = 0; next < k; ++next) {
        parties[next].dataset = std::move(in_flight[next]);
        if (hop + 1 == k) {
          continue;  // Dataset is back home fully encrypted; no more crypto.
        }
        Party& party = parties[next];
        PartyComputeTimer timer(meters[next]);
        EncryptInPlace(group, party.key, party.dataset);
        meters[next].AddEncryptOps(party.dataset.size());
        rng.Shuffle(party.dataset);
      }
    }
  }

  // Phase 2: parties share the fully-encrypted datasets (each holder
  // broadcasts to the k-1 peers) and count common/unique ciphertexts.
  INDAAS_TRACE_SPAN("pia.psop.share_count");
  for (size_t i = 0; i < k; ++i) {
    size_t bytes = parties[i].dataset.size() * element_bytes;
    meters[i].AddBytesSent(bytes * (k - 1));
    for (size_t j = 0; j < k; ++j) {
      if (j != i) {
        meters[j].AddBytesReceived(bytes);
      }
    }
  }
  std::map<std::string, size_t> presence;  // ciphertext -> #parties holding it
  for (size_t i = 0; i < k; ++i) {
    const Party& party = parties[i];
    std::map<std::string, size_t> local;  // multiset within one party
    {
      // Each party scans its own ciphertexts; that cost is the party's.
      PartyComputeTimer timer(meters[i]);
      for (const BigUint& element : party.dataset) {
        ++local[element.ToHex()];
      }
    }
    // The simulation merges the broadcasts once; charge the counting party.
    PartyComputeTimer timer(meters[0]);
    for (const auto& [ciphertext, count] : local) {
      (void)count;  // Disambiguated elements are unique per party.
      ++presence[ciphertext];
    }
  }
  PsopResult result;
  {
    PartyComputeTimer timer(meters[0]);
    result.union_size = presence.size();
    for (const auto& [ciphertext, count] : presence) {
      if (count == k) {
        ++result.intersection;
      }
    }
  }
  result.jaccard = result.union_size == 0
                       ? 0.0
                       : static_cast<double>(result.intersection) /
                             static_cast<double>(result.union_size);
  result.party_stats.reserve(k);
  for (Party& party : parties) {
    result.party_stats.push_back(party.stats);
  }
  return result;
}

Result<PsopResult> RunPsopWithMinHash(const std::vector<std::vector<std::string>>& datasets,
                                      size_t m, const PsopOptions& options) {
  if (m == 0) {
    return InvalidArgumentError("RunPsopWithMinHash: m must be > 0");
  }
  if (m > UINT32_MAX) {
    return InvalidArgumentError("RunPsopWithMinHash: m too large");
  }
  INDAAS_TRACE_SPAN("pia.psop.minhash");
  // All parties derive the same register hashes from the protocol seed (as
  // they would agree on hash functions out of band). Sampling reuses the
  // sketch engine's arg-min, so the chosen elements match the registers the
  // sketch-exchange mode would ship — and are stable across runs and hosts.
  sketch::SketchParams params;
  params.k = static_cast<uint32_t>(m);
  params.seed = options.seed ^ 0x4D696E4861736821ULL;
  std::vector<std::vector<std::string>> samples;
  samples.reserve(datasets.size());
  std::vector<uint32_t> registers(m);
  std::vector<uint32_t> argmin;
  for (const std::vector<std::string>& dataset : datasets) {
    if (dataset.empty()) {
      return InvalidArgumentError("RunPsopWithMinHash: empty dataset");
    }
    sketch::BuildSketch(params, dataset, registers.data(), &argmin);
    std::vector<std::string> sample;
    sample.reserve(m);
    for (size_t i = 0; i < m; ++i) {
      // arg-min element under register hash i, tagged with the register
      // index so index-i entries only match index-i entries.
      sample.push_back(StrFormat("%zu#", i) + dataset[argmin[i]]);
    }
    samples.push_back(std::move(sample));
  }
  INDAAS_ASSIGN_OR_RETURN(PsopResult result, RunPsop(samples, options));
  // Jaccard estimate is |∩ samples| / m (§4.2.4), not intersection/union.
  result.jaccard = static_cast<double>(result.intersection) / static_cast<double>(m);
  return result;
}

uint64_t PsopSketchSeed(uint64_t protocol_seed) {
  return protocol_seed ^ 0x536B657463682121ULL;  // "Sketch!!"
}

Result<PsopResult> RunPsopWithSketch(const std::vector<std::vector<std::string>>& datasets,
                                     uint32_t sketch_k, const PsopOptions& options) {
  const size_t k = datasets.size();
  if (k < 2) {
    return InvalidArgumentError("RunPsopWithSketch: need at least two parties");
  }
  if (sketch_k == 0) {
    return InvalidArgumentError("RunPsopWithSketch: sketch_k must be > 0");
  }
  for (const std::vector<std::string>& dataset : datasets) {
    if (dataset.empty()) {
      return InvalidArgumentError("RunPsopWithSketch: empty dataset");
    }
  }
  INDAAS_TRACE_SPAN_NAMED(span, "pia.psop.sketch");
  span.Annotate("parties", std::to_string(k));

  std::vector<PartyStats> stats(k);
  std::vector<PartyMeter> meters;
  meters.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    meters.emplace_back(&stats[i], "sketch");
  }

  sketch::SketchParams params;
  params.k = sketch_k;
  params.seed = PsopSketchSeed(options.seed);
  sketch::SketchArena arena(sketch_k, k);
  {
    INDAAS_TRACE_SPAN("pia.psop.sketch.build");
    for (size_t i = 0; i < k; ++i) {
      PartyComputeTimer timer(meters[i]);
      sketch::BuildSketch(params, datasets[i], arena.At(i));
    }
  }

  // Ring all-gather: k-1 hops, each party forwarding one fixed-size sketch
  // per hop, after which everyone holds all k register arrays.
  const size_t hop_bytes = kSketchHopOverheadBytes + sketch::SketchBytes(sketch_k);
  for (size_t hop = 0; hop + 1 < k; ++hop) {
    for (size_t i = 0; i < k; ++i) {
      meters[i].AddBytesSent(hop_bytes);
      meters[(i + 1) % k].AddBytesReceived(hop_bytes);
    }
  }

  PsopResult result;
  {
    // Every party counts locally; the simulation does it once and charges
    // party 0, mirroring RunPsop's counting convention.
    PartyComputeTimer timer(meters[0]);
    size_t agree = 0;
    for (uint32_t r = 0; r < sketch_k; ++r) {
      const uint32_t v = arena.At(0)[r];
      bool all = true;
      for (size_t i = 1; i < k && all; ++i) {
        all = arena.At(i)[r] == v;
      }
      agree += all;
    }
    result.intersection = agree;
    result.union_size = sketch_k;
    result.jaccard = static_cast<double>(agree) / static_cast<double>(sketch_k);
  }
  result.party_stats = stats;
  return result;
}

}  // namespace indaas
