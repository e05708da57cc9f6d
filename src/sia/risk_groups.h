// Risk group determination (paper §4.1.2).
//
// A risk group (RG) is a set of basic failure events whose simultaneous
// occurrence fails the top event. A *minimal* RG stops being an RG if any
// member is removed. Two pluggable algorithms:
//   * ComputeMinimalRiskGroups — exact bottom-up cut-set computation adapted
//     from classic fault tree analysis; precise but NP-hard (exponential in
//     the worst case). Supports size-bounded analysis and inline absorption.
//   * SampleRiskGroups (sampling.h) — linear-time randomized detection.

#ifndef SRC_SIA_RISK_GROUPS_H_
#define SRC_SIA_RISK_GROUPS_H_

#include <cstddef>
#include <vector>

#include "src/graph/fault_graph.h"
#include "src/util/status.h"

namespace indaas {

// A set of basic-event node ids, sorted ascending.
using RiskGroup = std::vector<NodeId>;

// True if `a` is a subset of `b`; both must be sorted.
bool IsSubsetOf(const RiskGroup& a, const RiskGroup& b);

// Removes duplicates and non-minimal groups (supersets of another group).
// The result is sorted by size, then lexicographically.
std::vector<RiskGroup> MinimizeRiskGroups(std::vector<RiskGroup> groups);

// Which cut-set representation drives the bottom-up computation. Both
// engines produce byte-identical MinimalRgResults (property-tested); the
// legacy vector engine is retained as the parity baseline and perf yardstick.
enum class RgEngine : uint8_t {
  // Fixed-stride uint64_t bitsets over the basic events, arena-allocated,
  // with hash dedup, bucket-by-popcount absorption, and optional sharding of
  // AND products and absorption passes on the shared pool (DESIGN.md §5).
  kBitset,
  // Sorted std::vector<NodeId> per cut set, std::set_union products,
  // pairwise std::includes absorption; single-threaded.
  kVector,
};

struct MinimalRgOptions {
  // Cut sets larger than this are pruned during computation: the analysis is
  // then exact for all minimal RGs of size <= max_rg_size (size-bounded fault
  // tree analysis). SIZE_MAX means unbounded.
  size_t max_rg_size = SIZE_MAX;
  // Safety valve: if any node accumulates more cut sets than this, the
  // computation fails with kResourceExhausted rather than consuming all
  // memory. SIZE_MAX means unbounded.
  size_t max_cut_sets_per_node = SIZE_MAX;
  // Apply absorption (subset pruning) after every combination step instead of
  // only at the end. Usually a large win; ablatable (DESIGN.md §4).
  bool inline_absorption = true;
  RgEngine engine = RgEngine::kBitset;
  // 1 = fully sequential. Any other value lets the bitset engine shard AND
  // products and absorption levels on the shared ComputePool()
  // (util/thread_pool.h), but only for stages past a work threshold; small
  // graphs never touch the pool. Output is byte-identical either way.
  size_t threads = 0;
};

struct MinimalRgResult {
  std::vector<RiskGroup> groups;  // minimal RGs, sorted by size
  // True if max_rg_size pruned anything (result complete only up to bound).
  bool size_bounded = false;
};

// Exact minimal risk groups of the validated graph's top event.
Result<MinimalRgResult> ComputeMinimalRiskGroups(const FaultGraph& graph,
                                                 const MinimalRgOptions& options = {});

// Verifies by evaluation that every member of `group` is needed: `group`
// fails the top event and no proper subset obtained by dropping one element
// does. (Test/debug helper; O(|group| * |graph|).)
bool IsMinimalRiskGroup(const FaultGraph& graph, const RiskGroup& group);

// True if failing exactly `group` fails the top event.
bool FailsTopEvent(const FaultGraph& graph, const RiskGroup& group);

}  // namespace indaas

#endif  // SRC_SIA_RISK_GROUPS_H_
