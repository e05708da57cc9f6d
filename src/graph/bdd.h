// Reduced ordered binary decision diagrams (ROBDDs) for exact fault graph
// probability analysis.
//
// Inclusion-exclusion over minimal risk groups (§4.1.3) is exponential in
// the number of groups; the classical fault-tree-analysis alternative
// (Vesely et al. [60] lineage) compiles the monotone structure function into
// a BDD and reads the top-event probability off it in time linear in BDD
// size. The ranking and importance code take every top-event probability
// from it (TopEventEngine, src/sia/ranking.h).

#ifndef SRC_GRAPH_BDD_H_
#define SRC_GRAPH_BDD_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/graph/fault_graph.h"
#include "src/util/status.h"

namespace indaas {

using BddRef = uint32_t;
inline constexpr BddRef kBddFalse = 0;
inline constexpr BddRef kBddTrue = 1;

// A shared-node BDD store over variables 0..num_vars-1 (variable order =
// numeric order). Supports the monotone operations fault graphs need.
class BddManager {
 public:
  // `max_nodes` bounds memory; operations exceeding it fail cleanly.
  explicit BddManager(size_t max_nodes = 4000000);

  // The BDD testing a single variable.
  Result<BddRef> Var(uint32_t var);

  Result<BddRef> And(BddRef a, BddRef b);
  Result<BddRef> Or(BddRef a, BddRef b);

  // Pr[f = 1] given independent Pr[var_i = 1] = probs[i].
  double Probability(BddRef f, const std::vector<double>& probs) const;

  size_t NodeCount() const { return nodes_.size(); }

 private:
  struct Node {
    uint32_t var;
    BddRef lo;
    BddRef hi;
  };
  enum class Op : uint8_t { kAnd, kOr };

  Result<BddRef> MakeNode(uint32_t var, BddRef lo, BddRef hi);
  Result<BddRef> Apply(Op op, BddRef a, BddRef b);
  uint32_t VarOf(BddRef ref) const;

  size_t max_nodes_;
  std::vector<Node> nodes_;  // [0]=false, [1]=true sentinels
  // Unique table per variable: (lo,hi) packed exactly into 64 bits -> ref.
  std::vector<std::unordered_map<uint64_t, BddRef>> unique_;
  std::unordered_map<uint64_t, BddRef> apply_cache_[2];  // per op
};

// Compiles the fault graph's structure function into a BDD (basic event i is
// variable i in BasicEvents() order) and returns the exact top-event
// probability; events without failure_prob use `default_prob`.
Result<double> TopEventProbabilityBdd(const FaultGraph& graph, double default_prob,
                                      size_t max_nodes = 4000000);

// Compiles the structure function and hands back manager + root + the
// variable probability vector, for callers that evaluate several
// probability assignments (e.g. Birnbaum conditioning).
struct CompiledFaultGraph {
  std::unique_ptr<BddManager> manager;
  BddRef root = kBddFalse;
  std::vector<double> probs;           // per BasicEvents() index
  std::vector<NodeId> variable_order;  // variable -> basic event node id
};

Result<CompiledFaultGraph> CompileFaultGraph(const FaultGraph& graph, double default_prob,
                                             size_t max_nodes = 4000000);

}  // namespace indaas

#endif  // SRC_GRAPH_BDD_H_
