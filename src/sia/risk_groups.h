// Risk group determination (paper §4.1.2).
//
// A risk group (RG) is a set of basic failure events whose simultaneous
// occurrence fails the top event. A *minimal* RG stops being an RG if any
// member is removed. Two pluggable algorithms:
//   * ComputeMinimalRiskGroups — exact bottom-up cut-set computation adapted
//     from classic fault tree analysis; precise but NP-hard (exponential in
//     the worst case). Supports size-bounded analysis; every gate absorbs
//     (drops supersets from) its cut sets as soon as it combines them.
//     Cut sets are bitset rows over the basic events (src/sia/cutset.h);
//     large stages shard on the shared compute pool (DESIGN.md §5).
//   * SampleRiskGroups (sampling.h) — linear-time randomized detection.
//
// Two independent oracles check the exact engine (DESIGN.md §5): brute-force
// enumeration on small graphs (tests/property_test.cc), and, at fat-tree
// scale, CheckMinimalRiskGroups below, which compares the emitted list with
// the ROBDD of the fault graph.

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

struct MinimalRgOptions {
  // Cut sets larger than this are pruned during computation: the analysis is
  // then exact for all minimal RGs of size <= max_rg_size (size-bounded fault
  // tree analysis). SIZE_MAX means unbounded.
  size_t max_rg_size = SIZE_MAX;
  // Safety valve: if any node accumulates more cut sets than this, the
  // computation fails with kResourceExhausted rather than consuming all
  // memory. SIZE_MAX means unbounded.
  size_t max_cut_sets_per_node = SIZE_MAX;
  // 1 = fully sequential. Any other value lets the engine shard AND
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

// Oracle for a complete (not size-bounded) minimal-RG list of the validated
// graph, independent of the cut-set engine. It compiles the graph's
// structure function into a ROBDD (CompileFaultGraph) and, in the same
// manager and variable order, the OR over `groups` of the AND over each
// group's events, and requires the two BDDs to be equal. It also requires
// every group to be sorted, made of basic events, unique, and minimal
// (IsMinimalRiskGroup). A monotone function has exactly one set of minimal
// terms, so passing proves `groups` is exactly the set of minimal cut sets
// (the check behind Rauzy's BDD minimal-solutions algorithm, RESS 40(3),
// 1993). Returns the BDD node count; kInternal names the first fault found,
// and kResourceExhausted means the BDD outgrew `max_bdd_nodes`.
Result<size_t> CheckMinimalRiskGroups(const FaultGraph& graph,
                                      const std::vector<RiskGroup>& groups,
                                      size_t max_bdd_nodes = 4000000);

}  // namespace indaas

#endif  // SRC_SIA_RISK_GROUPS_H_
