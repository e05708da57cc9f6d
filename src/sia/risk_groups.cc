#include "src/sia/risk_groups.h"

#include <algorithm>
#include <set>

#include "src/graph/bdd.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sia/cutset.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace indaas {
namespace {

// Engine-level counters (DESIGN.md §6), bumped once per batch operation.
// AbsorbMinimal (cutset.cc) counts sia.cutsets.deduped / .absorbed.
struct CutSetMetrics {
  obs::Counter* generated;   // AND products kept (within the size bound)
  obs::Counter* size_pruned; // products dropped by max_rg_size
};

CutSetMetrics& Metrics() {
  static CutSetMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return CutSetMetrics{
        registry.GetCounter("sia.cutsets.generated"),
        registry.GetCounter("sia.cutsets.size_pruned"),
    };
  }();
  return metrics;
}

}  // namespace

bool IsSubsetOf(const RiskGroup& a, const RiskGroup& b) {
  if (a.size() > b.size()) {
    return false;
  }
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

namespace {

// The rows as public RiskGroups in the canonical order documented on
// MinimizeRiskGroups: size ascending, then lexicographic. `id_of` must
// ascend with the bit index, so each group comes out sorted and the lowest
// bit at which two rows of one size differ belongs to the lexicographically
// smaller group: the rows are ordered as words before any group is built.
template <typename IdOf>
std::vector<RiskGroup> SortedGroups(const CutSetArena& rows, const IdOf& id_of) {
  const size_t stride = rows.stride();
  std::vector<uint32_t> pc(rows.size());
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    pc[i] = static_cast<uint32_t>(RowPopcount(rows.row(i), stride));
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (pc[a] != pc[b]) {
      return pc[a] < pc[b];
    }
    const uint64_t* row_a = rows.row(a);
    const uint64_t* row_b = rows.row(b);
    for (size_t w = 0; w < stride; ++w) {
      if (row_a[w] != row_b[w]) {
        const uint64_t differ = row_a[w] ^ row_b[w];
        return (row_a[w] & differ & (~differ + 1)) != 0;
      }
    }
    return false;
  });
  std::vector<RiskGroup> groups;
  groups.reserve(rows.size());
  for (size_t i : order) {
    const uint64_t* row = rows.row(i);
    RiskGroup group;
    group.reserve(pc[i]);
    for (size_t w = 0; w < stride; ++w) {
      for (uint64_t word = row[w]; word != 0; word &= word - 1) {
        group.push_back(id_of(w * 64 + static_cast<size_t>(__builtin_ctzll(word))));
      }
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

// The cut-set engine: fixed-stride uint64_t rows over the basic events
// (src/sia/cutset.h), arena storage, hash dedup + bucket-by-popcount
// absorption, and sharding of large AND products and absorption levels on
// the shared ComputePool(). Output is byte-identical for every thread
// count: the surviving minimal set is unique, shards merge in chunk order,
// and the public RiskGroup form is canonically sorted at the API boundary.

// Products per shard of a parallel AND-product sweep. Fixed (never derived
// from the worker count) so shard boundaries — and thus the merged row
// order — are identical for every thread count.
constexpr size_t kProductGrain = 1024;
// A product sweep must be at least this large before the pool is engaged;
// with kParallelAbsorbWork (cutset.cc) it is the only gate, so small audits
// never touch — or start — the pool.
constexpr size_t kMinParallelProducts = 4096;

// Cartesian AND product over bitset rows: every union of one row from each
// side, dropping products larger than max_rg_size (and setting *pruned).
// Fails with kResourceExhausted past the cut-set budget. Flat product index
// t maps to (t / |rhs|, t % |rhs|), so the sequential append order and the
// shard-merged order are the same sequence.
Status CombineAndBitset(const CutSetArena& lhs, const CutSetArena& rhs,
                        const MinimalRgOptions& options, CutSetArena* out, bool* pruned) {
  const size_t stride = lhs.stride();
  out->Clear();
  if (lhs.size() * rhs.size() > 0 &&
      lhs.size() > options.max_cut_sets_per_node / std::max<size_t>(rhs.size(), 1)) {
    return ResourceExhaustedError(
        StrFormat("minimal RG analysis exceeded cut-set budget (%zu x %zu products)", lhs.size(),
                  rhs.size()));
  }
  const size_t total = lhs.size() * rhs.size();
  auto emit_range = [&](CutSetArena& dst, bool& dst_pruned, size_t begin, size_t end) {
    std::vector<uint64_t> merged(stride);
    for (size_t t = begin; t < end; ++t) {
      const uint64_t* a = lhs.row(t / rhs.size());
      const uint64_t* b = rhs.row(t % rhs.size());
      RowUnion(merged.data(), a, b, stride);
      if (options.max_rg_size == SIZE_MAX ||
          RowPopcount(merged.data(), stride) <= options.max_rg_size) {
        dst.AppendCopy(merged.data());
      } else {
        dst_pruned = true;
      }
    }
  };
  if (options.threads == 1 || total < kMinParallelProducts) {
    out->Reserve(total);
    bool local_pruned = false;
    emit_range(*out, local_pruned, 0, total);
    if (local_pruned) {
      *pruned = true;
    }
  } else {
    const size_t chunks = (total + kProductGrain - 1) / kProductGrain;
    std::vector<CutSetArena> parts(chunks, CutSetArena(stride));
    std::vector<uint8_t> part_pruned(chunks, 0);
    ComputePool().ParallelForChunked(total, kProductGrain, [&](size_t begin, size_t end) {
      const size_t chunk = begin / kProductGrain;
      parts[chunk].Reserve(end - begin);
      bool chunk_pruned = false;
      emit_range(parts[chunk], chunk_pruned, begin, end);
      part_pruned[chunk] = chunk_pruned ? 1 : 0;
    });
    size_t kept = 0;
    for (const CutSetArena& part : parts) {
      kept += part.size();
    }
    out->Reserve(kept);
    for (size_t c = 0; c < chunks; ++c) {
      out->AppendAll(parts[c]);
      if (part_pruned[c]) {
        *pruned = true;
      }
    }
  }
  Metrics().generated->Add(out->size());
  Metrics().size_pruned->Add(total - out->size());
  return Status::Ok();
}

Result<MinimalRgResult> EnumerateMinimalRiskGroups(const FaultGraph& graph,
                                                       const MinimalRgOptions& options) {
  MinimalRgResult result;
  EventIndex index(graph);
  const size_t stride = index.stride();
  const bool parallel = options.threads != 1;
  std::vector<CutSetArena> cut_sets(graph.NodeCount(), CutSetArena(stride));
  for (NodeId id : graph.TopologicalOrder()) {
    const FaultNode& node = graph.node(id);
    CutSetArena& mine = cut_sets[id];
    switch (node.gate) {
      case GateType::kBasic: {
        uint64_t* row = mine.AppendZero();
        const size_t bit = index.BitFor(id);
        row[bit / 64] |= 1ULL << (bit % 64);
        break;
      }
      case GateType::kOr: {
        size_t total = 0;
        for (NodeId child : node.children) {
          total += cut_sets[child].size();
        }
        mine.Reserve(total);
        for (NodeId child : node.children) {
          mine.AppendAll(cut_sets[child]);
        }
        mine = AbsorbMinimal(mine, parallel);
        break;
      }
      case GateType::kAnd: {
        bool first = true;
        for (NodeId child : node.children) {
          if (first) {
            mine.AppendAll(cut_sets[child]);
            first = false;
          } else {
            CutSetArena next(stride);
            INDAAS_RETURN_IF_ERROR(CombineAndBitset(mine, cut_sets[child], options, &next,
                                                    &result.size_bounded));
            mine = AbsorbMinimal(next, parallel);
          }
          if (mine.empty()) {
            // All products exceeded the size bound: no cut sets within bound.
            result.size_bounded = true;
            break;
          }
        }
        break;
      }
      case GateType::kKofN: {
        // Cut sets of a k-of-n gate: for every k-subset of children, the AND
        // combination of their cut sets; union over subsets.
        CutSetArena acc(stride);
        const size_t n = node.children.size();
        const uint32_t k = node.k;
        std::vector<size_t> pick(k);
        for (uint32_t i = 0; i < k; ++i) {
          pick[i] = i;
        }
        for (;;) {
          CutSetArena product(stride);
          product.AppendAll(cut_sets[node.children[pick[0]]]);
          for (uint32_t i = 1; i < k && !product.empty(); ++i) {
            CutSetArena next(stride);
            INDAAS_RETURN_IF_ERROR(CombineAndBitset(product, cut_sets[node.children[pick[i]]],
                                                    options, &next, &result.size_bounded));
            product = AbsorbMinimal(next, parallel);
          }
          acc.AppendAll(product);
          // Next k-combination.
          int pos = static_cast<int>(k) - 1;
          while (pos >= 0 && pick[pos] == n - k + static_cast<size_t>(pos)) {
            --pos;
          }
          if (pos < 0) {
            break;
          }
          ++pick[pos];
          for (size_t i = static_cast<size_t>(pos) + 1; i < k; ++i) {
            pick[i] = pick[i - 1] + 1;
          }
        }
        mine = AbsorbMinimal(acc, parallel);
        break;
      }
    }
    if (mine.size() > options.max_cut_sets_per_node) {
      return ResourceExhaustedError(
          StrFormat("node '%s' accumulated %zu cut sets (budget %zu)", node.name.c_str(),
                    mine.size(), options.max_cut_sets_per_node));
    }
    if (options.max_rg_size != SIZE_MAX) {
      CutSetArena within(stride);
      within.Reserve(mine.size());
      for (size_t i = 0; i < mine.size(); ++i) {
        if (RowPopcount(mine.row(i), stride) <= options.max_rg_size) {
          within.AppendCopy(mine.row(i));
        }
      }
      if (within.size() != mine.size()) {
        result.size_bounded = true;
        mine = std::move(within);
      }
    }
  }
  // Every gate already left its rows minimal.
  result.groups =
      SortedGroups(cut_sets[graph.top_event()], [&](size_t bit) { return index.IdFor(bit); });
  return result;
}

}  // namespace

std::vector<RiskGroup> MinimizeRiskGroups(std::vector<RiskGroup> groups) {
  // Remap the distinct ids to dense bits, absorb word-wise, map back. The
  // sorted id universe keeps bit order == id order, so extracted groups come
  // out sorted.
  std::vector<NodeId> universe;
  for (const RiskGroup& group : groups) {
    universe.insert(universe.end(), group.begin(), group.end());
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()), universe.end());
  const size_t stride = std::max<size_t>(1, (universe.size() + 63) / 64);
  auto bit_for = [&](NodeId id) {
    return static_cast<size_t>(
        std::lower_bound(universe.begin(), universe.end(), id) - universe.begin());
  };
  CutSetArena arena(stride);
  arena.Reserve(groups.size());
  for (const RiskGroup& group : groups) {
    uint64_t* row = arena.AppendZero();
    for (NodeId id : group) {
      const size_t bit = bit_for(id);
      row[bit / 64] |= 1ULL << (bit % 64);
    }
  }
  return SortedGroups(AbsorbMinimal(arena, /*parallel=*/false),
                      [&](size_t bit) { return universe[bit]; });
}

Result<MinimalRgResult> ComputeMinimalRiskGroups(const FaultGraph& graph,
                                                 const MinimalRgOptions& options) {
  if (!graph.validated()) {
    return FailedPreconditionError("ComputeMinimalRiskGroups: graph not validated");
  }
  INDAAS_TRACE_SPAN_NAMED(span, "sia.enumerate");
  Result<MinimalRgResult> result = EnumerateMinimalRiskGroups(graph, options);
  if (result.ok()) {
    span.Annotate("groups", std::to_string(result->groups.size()));
  }
  return result;
}

bool FailsTopEvent(const FaultGraph& graph, const RiskGroup& group) {
  std::vector<uint8_t> state(graph.NodeCount(), 0);
  for (NodeId id : group) {
    state[id] = 1;
  }
  return graph.Evaluate(state);
}

bool IsMinimalRiskGroup(const FaultGraph& graph, const RiskGroup& group) {
  if (group.empty() || !FailsTopEvent(graph, group)) {
    return false;
  }
  for (size_t drop = 0; drop < group.size(); ++drop) {
    RiskGroup reduced;
    reduced.reserve(group.size() - 1);
    for (size_t i = 0; i < group.size(); ++i) {
      if (i != drop) {
        reduced.push_back(group[i]);
      }
    }
    if (FailsTopEvent(graph, reduced)) {
      return false;
    }
  }
  return true;
}

Result<size_t> CheckMinimalRiskGroups(const FaultGraph& graph,
                                      const std::vector<RiskGroup>& groups,
                                      size_t max_bdd_nodes) {
  INDAAS_ASSIGN_OR_RETURN(CompiledFaultGraph compiled,
                          CompileFaultGraph(graph, /*default_prob=*/0.5, max_bdd_nodes));
  BddManager& manager = *compiled.manager;
  constexpr uint32_t kNotBasic = UINT32_MAX;
  std::vector<uint32_t> var_of(graph.NodeCount(), kNotBasic);
  for (size_t var = 0; var < compiled.variable_order.size(); ++var) {
    var_of[compiled.variable_order[var]] = static_cast<uint32_t>(var);
  }
  std::set<RiskGroup> seen;
  BddRef any_group = kBddFalse;
  for (size_t i = 0; i < groups.size(); ++i) {
    const RiskGroup& group = groups[i];
    for (size_t j = 0; j < group.size(); ++j) {
      if (group[j] >= graph.NodeCount() || var_of[group[j]] == kNotBasic) {
        return InternalError(StrFormat("risk group %zu: node %u is not a basic event", i,
                                       static_cast<unsigned>(group[j])));
      }
      if (j > 0 && group[j - 1] >= group[j]) {
        return InternalError(StrFormat("risk group %zu is not strictly ascending", i));
      }
    }
    if (!seen.insert(group).second) {
      return InternalError(StrFormat("risk group %zu repeats an earlier group", i));
    }
    if (!IsMinimalRiskGroup(graph, group)) {
      return InternalError(StrFormat("risk group %zu is not a minimal risk group", i));
    }
    // AND over the group's events, built from the highest variable down so
    // every step only adds one node on top.
    BddRef all_events = kBddTrue;
    for (auto it = group.rbegin(); it != group.rend(); ++it) {
      INDAAS_ASSIGN_OR_RETURN(BddRef var, manager.Var(var_of[*it]));
      INDAAS_ASSIGN_OR_RETURN(all_events, manager.And(var, all_events));
    }
    INDAAS_ASSIGN_OR_RETURN(any_group, manager.Or(any_group, all_events));
  }
  if (any_group != compiled.root) {
    return InternalError(
        StrFormat("the %zu risk groups do not fail the top event exactly when the fault graph "
                  "does: a minimal risk group is missing",
                  groups.size()));
  }
  return manager.NodeCount();
}

}  // namespace indaas
