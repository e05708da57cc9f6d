// Plaintext reference for top-event probabilities: Pr(T) summed over every
// assignment of the basic events, with no BDD, no minimal risk groups and no
// sampling. Tests check the probability engine (ranking.h's TopEventEngine,
// its Monte-Carlo fallback, RankByImportance and RankComponentImportance)
// against it, so none of those is its own reference. Exponential in the
// number of basic events; keep graphs to about 20 events.

#ifndef TESTS_PROB_ORACLE_H_
#define TESTS_PROB_ORACLE_H_

#include <cstdint>
#include <vector>

#include "src/graph/fault_graph.h"

namespace indaas {

// Pr(T) with independent basic events failing with their failure_prob
// (default_prob where they have none). If `conditioned` names a basic event,
// that event fails with probability `conditioned_prob` instead, so 1.0 and
// 0.0 give Pr(T | event failed) and Pr(T | event working).
inline double BruteForceTopProb(const FaultGraph& graph, double default_prob,
                                NodeId conditioned = kInvalidNode,
                                double conditioned_prob = 0.0) {
  const std::vector<NodeId>& basics = graph.BasicEvents();
  std::vector<double> probs;
  for (NodeId id : basics) {
    double p = graph.node(id).failure_prob;
    probs.push_back(id == conditioned ? conditioned_prob
                                      : (p == kUnknownProb ? default_prob : p));
  }
  std::vector<uint8_t> state(graph.NodeCount(), 0);
  double total = 0.0;
  for (uint32_t mask = 0; mask < (1u << basics.size()); ++mask) {
    double weight = 1.0;
    for (size_t i = 0; i < basics.size(); ++i) {
      bool failed = ((mask >> i) & 1) != 0;
      state[basics[i]] = failed ? 1 : 0;
      weight *= failed ? probs[i] : 1.0 - probs[i];
    }
    if (weight != 0.0 && graph.Evaluate(state)) {
      total += weight;
    }
  }
  return total;
}

}  // namespace indaas

#endif  // TESTS_PROB_ORACLE_H_
