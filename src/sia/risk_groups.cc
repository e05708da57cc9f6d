#include "src/sia/risk_groups.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sia/cutset.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace indaas {
namespace {

// Engine-level counters (DESIGN.md §6), bumped once per batch operation.
struct CutSetMetrics {
  obs::Counter* generated;   // AND products kept (within the size bound)
  obs::Counter* size_pruned; // products dropped by max_rg_size
  obs::Counter* deduped;     // exact duplicates removed (vector engine)
  obs::Counter* absorbed;    // rows absorbed by a subset (vector engine)
};

CutSetMetrics& Metrics() {
  static CutSetMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return CutSetMetrics{
        registry.GetCounter("sia.cutsets.generated"),
        registry.GetCounter("sia.cutsets.size_pruned"),
        registry.GetCounter("sia.cutsets.deduped"),
        registry.GetCounter("sia.cutsets.absorbed"),
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

// Canonical output order shared by both engines: size ascending, then
// lexicographic — the contract documented on MinimizeRiskGroups.
void SortGroups(std::vector<RiskGroup>& groups) {
  std::sort(groups.begin(), groups.end(), [](const RiskGroup& a, const RiskGroup& b) {
    if (a.size() != b.size()) {
      return a.size() < b.size();
    }
    return a < b;
  });
}

// ===========================================================================
// Legacy vector engine (RgEngine::kVector): sorted std::vector<NodeId> cut
// sets, std::set_union products, pairwise std::includes absorption. Kept
// verbatim as the parity baseline for the bitset engine and as the reference
// implementation the property tests compare against.
// ===========================================================================

std::vector<RiskGroup> MinimizeRiskGroupsVector(std::vector<RiskGroup> groups) {
  const size_t before_dedup = groups.size();
  SortGroups(groups);
  groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
  Metrics().deduped->Add(before_dedup - groups.size());
  const size_t after_dedup = groups.size();
  std::vector<RiskGroup> minimal;
  for (RiskGroup& candidate : groups) {
    bool absorbed = false;
    // `minimal` is size-ascending (candidates arrive in size order); only
    // strictly smaller groups can be proper subsets, and equal-size
    // duplicates were removed above — so stop at the first same-size entry.
    for (const RiskGroup& kept : minimal) {
      if (kept.size() >= candidate.size()) {
        break;
      }
      if (IsSubsetOf(kept, candidate)) {
        absorbed = true;
        break;
      }
    }
    if (!absorbed) {
      minimal.push_back(std::move(candidate));
    }
  }
  Metrics().absorbed->Add(after_dedup - minimal.size());
  return minimal;
}

// Merges two sorted id sets (set union).
RiskGroup UnionOf(const RiskGroup& a, const RiskGroup& b) {
  RiskGroup out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

// Cartesian combination for AND gates: every union of one cut set from each
// side, pruned by max size and (optionally) absorption. Sets *pruned when a
// product exceeds the size bound.
Result<std::vector<RiskGroup>> CombineAnd(const std::vector<RiskGroup>& lhs,
                                          const std::vector<RiskGroup>& rhs,
                                          const MinimalRgOptions& options, bool* pruned) {
  std::vector<RiskGroup> out;
  if (lhs.size() * rhs.size() > 0 &&
      lhs.size() > options.max_cut_sets_per_node / std::max<size_t>(rhs.size(), 1)) {
    return ResourceExhaustedError(
        StrFormat("minimal RG analysis exceeded cut-set budget (%zu x %zu products)", lhs.size(),
                  rhs.size()));
  }
  out.reserve(lhs.size() * rhs.size());
  for (const RiskGroup& a : lhs) {
    for (const RiskGroup& b : rhs) {
      RiskGroup merged = UnionOf(a, b);
      if (merged.size() <= options.max_rg_size) {
        out.push_back(std::move(merged));
      } else {
        *pruned = true;
      }
    }
  }
  Metrics().generated->Add(out.size());
  Metrics().size_pruned->Add(lhs.size() * rhs.size() - out.size());
  if (options.inline_absorption) {
    out = MinimizeRiskGroupsVector(std::move(out));
  }
  return out;
}

Result<MinimalRgResult> ComputeMinimalRiskGroupsVector(const FaultGraph& graph,
                                                       const MinimalRgOptions& options) {
  MinimalRgResult result;
  // Per-node cut set lists, built in topological (children-first) order.
  std::vector<std::vector<RiskGroup>> cut_sets(graph.NodeCount());
  for (NodeId id : graph.TopologicalOrder()) {
    const FaultNode& node = graph.node(id);
    std::vector<RiskGroup>& mine = cut_sets[id];
    switch (node.gate) {
      case GateType::kBasic:
        mine.push_back(RiskGroup{id});
        break;
      case GateType::kOr: {
        for (NodeId child : node.children) {
          mine.insert(mine.end(), cut_sets[child].begin(), cut_sets[child].end());
        }
        if (options.inline_absorption) {
          mine = MinimizeRiskGroupsVector(std::move(mine));
        }
        break;
      }
      case GateType::kAnd: {
        bool first = true;
        for (NodeId child : node.children) {
          if (first) {
            mine = cut_sets[child];
            first = false;
          } else {
            INDAAS_ASSIGN_OR_RETURN(
                mine, CombineAnd(mine, cut_sets[child], options, &result.size_bounded));
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
        std::vector<RiskGroup> acc;
        const size_t n = node.children.size();
        const uint32_t k = node.k;
        std::vector<size_t> pick(k);
        for (uint32_t i = 0; i < k; ++i) {
          pick[i] = i;
        }
        for (;;) {
          std::vector<RiskGroup> product = cut_sets[node.children[pick[0]]];
          for (uint32_t i = 1; i < k && !product.empty(); ++i) {
            INDAAS_ASSIGN_OR_RETURN(product,
                                    CombineAnd(product, cut_sets[node.children[pick[i]]], options,
                                               &result.size_bounded));
          }
          acc.insert(acc.end(), product.begin(), product.end());
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
        mine = options.inline_absorption ? MinimizeRiskGroupsVector(std::move(acc))
                                         : std::move(acc);
        break;
      }
    }
    if (mine.size() > options.max_cut_sets_per_node) {
      return ResourceExhaustedError(
          StrFormat("node '%s' accumulated %zu cut sets (budget %zu)", node.name.c_str(),
                    mine.size(), options.max_cut_sets_per_node));
    }
    if (options.max_rg_size != SIZE_MAX) {
      size_t before = mine.size();
      mine.erase(std::remove_if(mine.begin(), mine.end(),
                                [&](const RiskGroup& rg) {
                                  return rg.size() > options.max_rg_size;
                                }),
                 mine.end());
      if (mine.size() != before) {
        result.size_bounded = true;
      }
    }
  }
  result.groups = MinimizeRiskGroupsVector(std::move(cut_sets[graph.top_event()]));
  return result;
}

// ===========================================================================
// Bitset engine (RgEngine::kBitset): fixed-stride uint64_t rows over the
// basic events (src/sia/cutset.h), arena storage, hash dedup +
// bucket-by-popcount absorption, and sharding of large AND products and
// absorption levels on the shared ComputePool(). Byte-identical results to
// the vector engine: the surviving minimal set is unique, shards merge in
// chunk order, and the public RiskGroup form is canonically sorted at the
// API boundary.
// ===========================================================================

// Products per shard of a parallel AND-product sweep. Fixed (never derived
// from the worker count) so shard boundaries — and thus the merged row
// order — are identical for every thread count.
constexpr size_t kProductGrain = 1024;
// A product sweep must be at least this large before the pool is engaged;
// with kParallelAbsorbWork (cutset.cc) it is the only gate, so small audits
// never touch — or start — the pool.
constexpr size_t kMinParallelProducts = 4096;

// Cartesian AND product over bitset rows; same budget / size-bound semantics
// as the vector CombineAnd. Flat product index t maps to (t / |rhs|,
// t % |rhs|), so the sequential append order and the shard-merged order are
// the same sequence.
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

Result<MinimalRgResult> ComputeMinimalRiskGroupsBitset(const FaultGraph& graph,
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
        if (options.inline_absorption) {
          mine = AbsorbMinimal(mine, parallel);
        }
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
            if (options.inline_absorption) {
              next = AbsorbMinimal(next, parallel);
            }
            mine = std::move(next);
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
            if (options.inline_absorption) {
              next = AbsorbMinimal(next, parallel);
            }
            product = std::move(next);
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
        mine = options.inline_absorption ? AbsorbMinimal(acc, parallel) : std::move(acc);
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
  CutSetArena minimal = AbsorbMinimal(cut_sets[graph.top_event()], parallel);
  result.groups.reserve(minimal.size());
  for (size_t i = 0; i < minimal.size(); ++i) {
    const uint64_t* row = minimal.row(i);
    RiskGroup group;
    for (size_t w = 0; w < stride; ++w) {
      uint64_t word = row[w];
      while (word != 0) {
        const size_t bit = w * 64 + static_cast<size_t>(__builtin_ctzll(word));
        group.push_back(index.IdFor(bit));
        word &= word - 1;
      }
    }
    result.groups.push_back(std::move(group));
  }
  SortGroups(result.groups);
  return result;
}

// MinimizeRiskGroups inputs above this size take the bitset path; below it
// the remap overhead outweighs the word-parallel wins.
constexpr size_t kMinBitsetMinimize = 16;

}  // namespace

std::vector<RiskGroup> MinimizeRiskGroups(std::vector<RiskGroup> groups) {
  if (groups.size() <= kMinBitsetMinimize) {
    return MinimizeRiskGroupsVector(std::move(groups));
  }
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
  CutSetArena minimal = AbsorbMinimal(arena, /*parallel=*/false);
  std::vector<RiskGroup> out;
  out.reserve(minimal.size());
  for (size_t i = 0; i < minimal.size(); ++i) {
    const uint64_t* row = minimal.row(i);
    RiskGroup group;
    for (size_t w = 0; w < stride; ++w) {
      uint64_t word = row[w];
      while (word != 0) {
        const size_t bit = w * 64 + static_cast<size_t>(__builtin_ctzll(word));
        group.push_back(universe[bit]);
        word &= word - 1;
      }
    }
    out.push_back(std::move(group));
  }
  SortGroups(out);
  return out;
}

Result<MinimalRgResult> ComputeMinimalRiskGroups(const FaultGraph& graph,
                                                 const MinimalRgOptions& options) {
  if (!graph.validated()) {
    return FailedPreconditionError("ComputeMinimalRiskGroups: graph not validated");
  }
  INDAAS_TRACE_SPAN_NAMED(span, "sia.enumerate");
  span.Annotate("engine", options.engine == RgEngine::kBitset ? "bitset" : "vector");
  Result<MinimalRgResult> result = InternalError("ComputeMinimalRiskGroups: unknown engine");
  switch (options.engine) {
    case RgEngine::kBitset:
      result = ComputeMinimalRiskGroupsBitset(graph, options);
      break;
    case RgEngine::kVector:
      result = ComputeMinimalRiskGroupsVector(graph, options);
      break;
  }
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

}  // namespace indaas
