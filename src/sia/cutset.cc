#include "src/sia/cutset.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

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

// A popcount level goes to the pool only when its candidates would walk at
// least this many survivor entries of the index (one subset test each, if
// none exits early), and then in chunks of about kAbsorbChunkWork entries.
constexpr size_t kParallelAbsorbWork = 1 << 18;
constexpr size_t kAbsorbChunkWork = 1 << 15;

// A call on more rows than this hands its thread's scratch memory back.
constexpr size_t kKeepScratchRows = 1 << 16;

constexpr uint32_t kNoRow = UINT32_MAX;

// AbsorbMinimal's working memory, kept per thread from call to call: most
// gates absorb a handful of rows, and a call then allocates only its output.
struct AbsorbScratch {
  std::vector<uint32_t> pc;         // per input row
  std::vector<uint64_t> fp;         // per input row
  std::vector<uint32_t> order;      // popcount order, then the candidates
  std::vector<uint32_t> table;      // dedup: row indices by fingerprint
  std::vector<uint32_t> frequency;  // per bit: input rows holding it
  std::vector<uint32_t> level;      // per popcount: where its rows start
  std::vector<uint32_t> head;       // per bit: first survivor keyed by it
  std::vector<uint32_t> length;     // per bit: survivors keyed by it
  std::vector<uint32_t> next;       // per survivor: next in its bucket
  std::vector<uint8_t> absorbed;    // per candidate
};

// Calls `fn(bit)` for each set bit of the row, in ascending order, until
// `fn` returns true; returns whether it did.
template <typename Fn>
inline bool AnyBit(const uint64_t* row, size_t stride, const Fn& fn) {
  for (size_t w = 0; w < stride; ++w) {
    for (uint64_t word = row[w]; word != 0; word &= word - 1) {
      if (fn(w * 64 + static_cast<size_t>(__builtin_ctzll(word)))) {
        return true;
      }
    }
  }
  return false;
}

// AbsorbMinimal, working in `scratch`.
CutSetArena Absorb(const CutSetArena& sets, bool parallel, AbsorbScratch& scratch) {
  static obs::Counter* deduped = obs::MetricsRegistry::Global().GetCounter("sia.cutsets.deduped");
  static obs::Counter* absorbed_count =
      obs::MetricsRegistry::Global().GetCounter("sia.cutsets.absorbed");
  static obs::Counter* subset_tests =
      obs::MetricsRegistry::Global().GetCounter("sia.cutsets.subset_tests");
  const size_t n = sets.size();
  const size_t stride = sets.stride();
  CutSetArena out(stride);
  if (n == 0) {
    return out;
  }
  if (n >= kNoRow) {
    std::fprintf(stderr, "AbsorbMinimal: %zu rows overflow its 32-bit row indices\n", n);
    std::abort();
  }
  const size_t bits = stride * 64;
  std::vector<uint32_t>& pc = scratch.pc;
  std::vector<uint64_t>& fp = scratch.fp;
  std::vector<uint32_t>& order = scratch.order;
  std::vector<uint32_t>& frequency = scratch.frequency;
  std::vector<uint32_t>& level = scratch.level;
  pc.resize(n);
  fp.resize(n);
  order.resize(n);
  frequency.assign(bits, 0);
  level.assign(bits + 2, 0);

  // Popcount + fingerprint per row and how many rows hold each bit, then a
  // counting sort by popcount (keys are at most stride*64) into
  // popcount-ascending order. Filling each level in input order keeps rows
  // in first-appearance order within it.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* row = sets.row(i);
    pc[i] = static_cast<uint32_t>(RowPopcount(row, stride));
    fp[i] = RowFingerprint(row, stride);
    ++level[pc[i] + 1];
    AnyBit(row, stride, [&](size_t bit) {
      ++frequency[bit];
      return false;
    });
  }
  for (size_t p = 1; p < level.size(); ++p) {
    level[p] += level[p - 1];
  }
  for (size_t i = 0; i < n; ++i) {
    order[level[pc[i]]++] = static_cast<uint32_t>(i);
  }

  // Exact-duplicate elimination through one open-addressed table of row
  // indices, probed by fingerprint (equal rows share one; a full word
  // compare disambiguates collisions). At most half full; the home slot is
  // the fingerprint's top bits, since its low bits mix only the rows' low
  // bits. The first copy of each row stays in `order`, whose prefix becomes
  // the candidate list.
  int shift = 60;  // 16 slots
  while ((size_t{1} << (64 - shift)) < 2 * n) {
    --shift;
  }
  const size_t capacity = size_t{1} << (64 - shift);
  std::vector<uint32_t>& table = scratch.table;
  table.assign(capacity, kNoRow);
  size_t candidates = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t i = order[k];
    size_t slot = fp[i] >> shift;
    bool duplicate = false;
    for (; table[slot] != kNoRow; slot = (slot + 1) & (capacity - 1)) {
      const uint32_t j = table[slot];
      if (fp[j] == fp[i] && RowEquals(sets.row(j), sets.row(i), stride)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      table[slot] = i;
      order[candidates++] = i;
    }
  }
  deduped->Add(n - candidates);

  // Level-by-level absorption: within one popcount level no row can absorb
  // another (equal sizes + no duplicates), so the survivors of smaller
  // levels are frozen while a level is tested — safe to shard across
  // threads. Survivors are the rows of `out`, each filed in an index under
  // one key bit: its bit that the fewest input rows hold. A survivor can be
  // a subset of a candidate only if the candidate holds its key bit, so a
  // candidate walks just the buckets of its own bits. head[bit] and
  // next[survivor] thread each bucket as an intrusive list. An empty row
  // has no key bit, but it is a subset of every row: it alone survives.
  if (pc[order[0]] == 0) {
    out.AppendCopy(sets.row(order[0]));
    absorbed_count->Add(candidates - 1);
    return out;
  }
  std::vector<uint32_t>& head = scratch.head;
  std::vector<uint32_t>& length = scratch.length;
  std::vector<uint32_t>& next = scratch.next;
  std::vector<uint8_t>& absorbed = scratch.absorbed;
  head.assign(bits, kNoRow);
  length.assign(bits, 0);
  next.clear();
  absorbed.assign(candidates, 0);
  out.Reserve(candidates);
  std::atomic<size_t> tests{0};
  size_t level_begin = 0;
  while (level_begin < candidates) {
    size_t level_end = level_begin;
    const uint32_t level_pc = pc[order[level_begin]];
    while (level_end < candidates && pc[order[level_end]] == level_pc) {
      ++level_end;
    }
    auto test_range = [&](size_t begin, size_t end) {
      size_t range_tests = 0;
      for (size_t c = level_begin + begin; c < level_begin + end; ++c) {
        const uint64_t* candidate = sets.row(order[c]);
        absorbed[c] = AnyBit(candidate, stride, [&](size_t bit) {
          for (uint32_t j = head[bit]; j != kNoRow; j = next[j]) {
            ++range_tests;
            if (RowSubsetOf(out.row(j), candidate, stride)) {
              return true;
            }
          }
          return false;
        });
      }
      tests.fetch_add(range_tests, std::memory_order_relaxed);
    };
    if (!out.empty()) {
      // The level's work: the survivors its candidates' buckets hold.
      size_t work = 0;
      if (parallel) {
        for (size_t c = level_begin; c < level_end; ++c) {
          AnyBit(sets.row(order[c]), stride, [&](size_t bit) {
            work += length[bit];
            return false;
          });
        }
      }
      const size_t level_size = level_end - level_begin;
      if (work >= kParallelAbsorbWork) {
        const size_t grain = std::max<size_t>(1, level_size * kAbsorbChunkWork / work);
        ComputePool().ParallelForChunked(level_size, grain, test_range);
      } else {
        test_range(0, level_size);
      }
    }
    for (size_t c = level_begin; c < level_end; ++c) {
      if (absorbed[c]) {
        continue;
      }
      const uint64_t* row = sets.row(order[c]);
      size_t key = SIZE_MAX;
      AnyBit(row, stride, [&](size_t bit) {
        if (key == SIZE_MAX || frequency[bit] < frequency[key]) {
          key = bit;
        }
        return false;
      });
      next.push_back(head[key]);
      head[key] = static_cast<uint32_t>(out.size());
      ++length[key];
      out.AppendCopy(row);
    }
    level_begin = level_end;
  }

  // Batch counter updates: one relaxed add each per absorption sweep, not
  // per row.
  absorbed_count->Add(candidates - out.size());
  subset_tests->Add(tests.load(std::memory_order_relaxed));
  return out;
}

}  // namespace

CutSetArena AbsorbMinimal(const CutSetArena& sets, bool parallel) {
  thread_local AbsorbScratch scratch;
  CutSetArena out = Absorb(sets, parallel, scratch);
  if (sets.size() > kKeepScratchRows) {
    scratch = AbsorbScratch();
  }
  return out;
}

}  // namespace indaas
