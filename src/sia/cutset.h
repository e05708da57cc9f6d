// Bitset-backed cut-set engine substrate (perf backbone of the minimal-RG
// algorithm, paper §4.1.2).
//
// A cut set over a fault graph's basic events is represented as a
// fixed-stride dynamic bitset: `stride` dense uint64_t words, one bit per
// basic event. All rows produced during one enumeration live in append-only
// CutSetArena word pools, so AND-gate Cartesian products allocate by bumping
// a vector instead of churning the heap with one std::vector per set.
// Primitive costs (vs the legacy sorted-vector representation):
//   union        O(stride) word ORs            (vs std::set_union + alloc)
//   subset test  O(stride) `a & ~b` words      (vs std::includes)
//   size         O(stride) popcounts
//   fingerprint  O(stride) multiply-xor mix, for hash-based exact dedup
// AbsorbMinimal implements bucket-by-popcount absorption: after exact
// duplicates are hashed out, a row can only be absorbed by a *strictly
// smaller* row, so rows are processed level by level (popcount ascending)
// and each level is tested — optionally in parallel shards — against the
// frozen set of smaller survivors. A counting sort by popcount orders the
// rows: keys are at most stride*64, so it is stable and O(n). The survivors
// sit in a per-bit index, each under one of its bits, so a row is tested
// only against survivors filed under one of its own bits. The surviving
// set is unique, and rows are emitted in (popcount, first-appearance)
// order, so results are byte-identical no matter how many threads
// participate.

#ifndef SRC_SIA_CUTSET_H_
#define SRC_SIA_CUTSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/graph/fault_graph.h"

namespace indaas {

// --- Word-wise row primitives (rows are uint64_t[stride]) ---

inline void RowClear(uint64_t* row, size_t stride) {
  for (size_t w = 0; w < stride; ++w) {
    row[w] = 0;
  }
}

inline void RowUnion(uint64_t* dst, const uint64_t* a, const uint64_t* b, size_t stride) {
  for (size_t w = 0; w < stride; ++w) {
    dst[w] = a[w] | b[w];
  }
}

// True if every bit of `a` is set in `b` (a subset-of b): a & ~b == 0.
inline bool RowSubsetOf(const uint64_t* a, const uint64_t* b, size_t stride) {
  for (size_t w = 0; w < stride; ++w) {
    if ((a[w] & ~b[w]) != 0) {
      return false;
    }
  }
  return true;
}

inline bool RowEquals(const uint64_t* a, const uint64_t* b, size_t stride) {
  for (size_t w = 0; w < stride; ++w) {
    if (a[w] != b[w]) {
      return false;
    }
  }
  return true;
}

inline size_t RowPopcount(const uint64_t* row, size_t stride) {
  size_t bits = 0;
  for (size_t w = 0; w < stride; ++w) {
    bits += static_cast<size_t>(__builtin_popcountll(row[w]));
  }
  return bits;
}

// 64-bit content fingerprint for hash-based duplicate elimination. Equal rows
// always collide; unequal rows almost never do (full compare disambiguates).
inline uint64_t RowFingerprint(const uint64_t* row, size_t stride) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (size_t w = 0; w < stride; ++w) {
    h ^= row[w] + 0xBF58476D1CE4E5B9ULL + (h << 6) + (h >> 2);
    h *= 0x94D049BB133111EBULL;
  }
  return h;
}

// --- Basic-event <-> bit index mapping ---

// Dense bit indices for a validated graph's basic events. Bit order follows
// BasicEvents() insertion order, which is ascending NodeId — so scanning a
// row's set bits low-to-high yields an already-sorted RiskGroup.
class EventIndex {
 public:
  explicit EventIndex(const FaultGraph& graph);

  size_t num_events() const { return id_of_.size(); }
  // Words per cut-set row.
  size_t stride() const { return stride_; }
  // Dense bit index of basic event `id` (must be a basic event).
  size_t BitFor(NodeId id) const { return bit_of_[id]; }
  NodeId IdFor(size_t bit) const { return id_of_[bit]; }

 private:
  std::vector<size_t> bit_of_;
  std::vector<NodeId> id_of_;
  size_t stride_ = 0;
};

// --- Arena of fixed-stride rows ---

// Append-only list of cut-set rows backed by one contiguous word vector.
class CutSetArena {
 public:
  explicit CutSetArena(size_t stride = 1) : stride_(stride) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  size_t stride() const { return stride_; }

  void Reserve(size_t rows) { words_.reserve(rows * stride_); }

  // Appends a zeroed row and returns its (arena-owned) word pointer. The
  // pointer is invalidated by subsequent appends.
  uint64_t* AppendZero() {
    words_.resize(words_.size() + stride_, 0);
    ++count_;
    return words_.data() + (count_ - 1) * stride_;
  }

  void AppendCopy(const uint64_t* row) {
    words_.insert(words_.end(), row, row + stride_);
    ++count_;
  }

  // Appends all rows of `other` (same stride) in order.
  void AppendAll(const CutSetArena& other) {
    words_.insert(words_.end(), other.words_.begin(), other.words_.end());
    count_ += other.count_;
  }

  uint64_t* row(size_t i) { return words_.data() + i * stride_; }
  const uint64_t* row(size_t i) const { return words_.data() + i * stride_; }

  void Clear() {
    words_.clear();
    count_ = 0;
  }

 private:
  size_t stride_;
  size_t count_ = 0;
  std::vector<uint64_t> words_;
};

// --- Absorption ---

// Returns `sets` reduced to its unique minimal rows: exact duplicates are
// hash-eliminated, then any row that is a proper superset of another row is
// dropped (bucket-by-popcount, smaller buckets absorb larger ones). Rows are
// emitted in (popcount ascending, first-appearance) order. When `parallel`
// is set and the survivors a popcount level must be tested against pass a
// work threshold, the subset tests for that level run as shards on the
// shared ComputePool(); the output is byte-identical to the sequential
// path. `sets` must hold fewer than 2^32 - 1 rows (row indices are 32-bit).
CutSetArena AbsorbMinimal(const CutSetArena& sets, bool parallel);

}  // namespace indaas

#endif  // SRC_SIA_CUTSET_H_
