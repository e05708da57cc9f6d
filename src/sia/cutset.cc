#include "src/sia/cutset.h"

#include <algorithm>
#include <unordered_map>

#include "src/obs/metrics.h"
#include "src/util/thread_pool.h"

namespace indaas {

EventIndex::EventIndex(const FaultGraph& graph) {
  bit_of_.assign(graph.NodeCount(), SIZE_MAX);
  id_of_ = graph.BasicEvents();
  for (size_t bit = 0; bit < id_of_.size(); ++bit) {
    bit_of_[id_of_[bit]] = bit;
  }
  stride_ = std::max<size_t>(1, (id_of_.size() + 63) / 64);
}

namespace {

// A popcount level only pays for parallel dispatch when candidate×survivor
// subset work is at least this many word operations.
constexpr size_t kParallelAbsorbWork = 1 << 15;

}  // namespace

CutSetArena AbsorbMinimal(const CutSetArena& sets, bool parallel) {
  const size_t n = sets.size();
  const size_t stride = sets.stride();
  CutSetArena out(stride);
  if (n == 0) {
    return out;
  }

  // Popcount + fingerprint per row, then a counting sort by popcount (keys
  // are at most stride*64) into popcount-ascending order. Filling each
  // level in input order keeps rows in first-appearance order within it.
  std::vector<uint32_t> pc(n);
  std::vector<uint64_t> fp(n);
  std::vector<size_t> level_start(stride * 64 + 2, 0);
  for (size_t i = 0; i < n; ++i) {
    pc[i] = static_cast<uint32_t>(RowPopcount(sets.row(i), stride));
    fp[i] = RowFingerprint(sets.row(i), stride);
    ++level_start[pc[i] + 1];
  }
  for (size_t level = 1; level < level_start.size(); ++level) {
    level_start[level] += level_start[level - 1];
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[level_start[pc[i]]++] = i;
  }

  // Hash-based exact-duplicate elimination (equal rows share a fingerprint;
  // full word compare disambiguates collisions). Small inputs skip the hash
  // map: a fingerprint-prechecked quadratic scan beats its allocations.
  std::vector<size_t> candidates;
  candidates.reserve(n);
  if (n <= 64) {
    for (size_t i : order) {
      bool duplicate = false;
      for (size_t j : candidates) {
        if (fp[j] == fp[i] && pc[j] == pc[i] && RowEquals(sets.row(j), sets.row(i), stride)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        candidates.push_back(i);
      }
    }
  } else {
    std::unordered_map<uint64_t, std::vector<size_t>> buckets;
    buckets.reserve(n * 2);
    for (size_t i : order) {
      std::vector<size_t>& bucket = buckets[fp[i]];
      bool duplicate = false;
      for (size_t j : bucket) {
        if (pc[j] == pc[i] && RowEquals(sets.row(j), sets.row(i), stride)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        bucket.push_back(i);
        candidates.push_back(i);
      }
    }
  }

  // Level-by-level absorption: within one popcount level no row can absorb
  // another (equal sizes + no duplicates), so the survivor set from smaller
  // levels is frozen while a level is tested — safe to shard across threads.
  std::vector<size_t> kept;
  kept.reserve(candidates.size());
  std::vector<uint8_t> absorbed(n, 0);
  size_t level_begin = 0;
  while (level_begin < candidates.size()) {
    size_t level_end = level_begin;
    const uint32_t level_pc = pc[candidates[level_begin]];
    while (level_end < candidates.size() && pc[candidates[level_end]] == level_pc) {
      ++level_end;
    }
    const size_t level_size = level_end - level_begin;
    auto test_range = [&](size_t begin, size_t end) {
      for (size_t c = begin; c < end; ++c) {
        const size_t i = candidates[level_begin + c];
        const uint64_t* candidate = sets.row(i);
        for (size_t j : kept) {
          if (RowSubsetOf(sets.row(j), candidate, stride)) {
            absorbed[i] = 1;
            break;
          }
        }
      }
    };
    const size_t work = level_size * kept.size() * stride;
    if (parallel && work >= kParallelAbsorbWork) {
      const size_t grain =
          std::max<size_t>(1, kParallelAbsorbWork / std::max<size_t>(1, kept.size() * stride));
      ComputePool().ParallelForChunked(level_size, grain, test_range);
    } else {
      test_range(0, level_size);
    }
    for (size_t c = level_begin; c < level_end; ++c) {
      if (!absorbed[candidates[c]]) {
        kept.push_back(candidates[c]);
      }
    }
    level_begin = level_end;
  }

  out.Reserve(kept.size());
  for (size_t i : kept) {
    out.AppendCopy(sets.row(i));
  }
  // Batch counter updates: two relaxed adds per absorption sweep, not per row.
  static obs::Counter* deduped = obs::MetricsRegistry::Global().GetCounter("sia.cutsets.deduped");
  static obs::Counter* absorbed_count =
      obs::MetricsRegistry::Global().GetCounter("sia.cutsets.absorbed");
  deduped->Add(n - candidates.size());
  absorbed_count->Add(candidates.size() - kept.size());
  return out;
}

}  // namespace indaas
