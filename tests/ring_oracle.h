// Plaintext references for P-SOP rings: the counts a correct ring must
// report, computed from the parties' plaintext sets with no cryptography and
// no ring at all. Tests and the fig8 harness check both ring runners
// (in-process and sockets) against these, so neither runner is the other's
// reference.

#ifndef TESTS_RING_ORACLE_H_
#define TESTS_RING_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/pia/psop.h"
#include "src/sketch/sketch.h"

namespace indaas {

struct RingCounts {
  size_t intersection = 0;
  size_t union_size = 0;
  double jaccard = 0.0;
};

// Exact rings: the multiset intersection and union of the parties' sets,
// each made unique by DisambiguateMultiset as the ring does before hashing.
inline RingCounts ExactRingOracle(const std::vector<std::vector<std::string>>& datasets) {
  std::map<std::string, size_t> holders;  // disambiguated element -> #parties
  for (const std::vector<std::string>& dataset : datasets) {
    for (const std::string& element : DisambiguateMultiset(dataset)) {
      ++holders[element];
    }
  }
  RingCounts counts;
  counts.union_size = holders.size();
  for (const auto& [element, parties] : holders) {
    counts.intersection += parties == datasets.size() ? 1 : 0;
  }
  counts.jaccard = counts.union_size == 0 ? 0.0
                                          : static_cast<double>(counts.intersection) /
                                                static_cast<double>(counts.union_size);
  return counts;
}

// Sketch rings: every set sketched under PsopSketchSeed(seed), then the
// registers on which all parties agree, out of sketch_k.
inline RingCounts SketchRingOracle(const std::vector<std::vector<std::string>>& datasets,
                                   uint32_t sketch_k, uint64_t seed) {
  const sketch::SketchParams params{sketch_k, PsopSketchSeed(seed)};
  std::vector<std::vector<uint32_t>> registers(datasets.size(),
                                               std::vector<uint32_t>(sketch_k));
  for (size_t i = 0; i < datasets.size(); ++i) {
    sketch::BuildSketch(params, datasets[i], registers[i].data());
  }
  RingCounts counts;
  counts.union_size = sketch_k;
  for (uint32_t r = 0; r < sketch_k; ++r) {
    bool all = true;
    for (const std::vector<uint32_t>& sketch : registers) {
      all = all && sketch[r] == registers[0][r];
    }
    counts.intersection += all ? 1 : 0;
  }
  counts.jaccard = static_cast<double>(counts.intersection) / static_cast<double>(sketch_k);
  return counts;
}

// The datasets of the parties a degraded ring kept: all but `excluded`.
inline std::vector<std::vector<std::string>> Survivors(
    const std::vector<std::vector<std::string>>& datasets, const std::vector<uint32_t>& excluded) {
  std::vector<std::vector<std::string>> survivors;
  for (size_t i = 0; i < datasets.size(); ++i) {
    if (std::find(excluded.begin(), excluded.end(), static_cast<uint32_t>(i)) == excluded.end()) {
      survivors.push_back(datasets[i]);
    }
  }
  return survivors;
}

// True when a ring result reports exactly `counts` (bit-exact Jaccard: the
// same two integers divided the same way).
inline bool MatchesOracle(const PsopResult& result, const RingCounts& counts) {
  return result.intersection == counts.intersection && result.union_size == counts.union_size &&
         result.jaccard == counts.jaccard;
}

}  // namespace indaas

#endif  // TESTS_RING_ORACLE_H_
