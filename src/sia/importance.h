// Component importance measures from classical fault tree analysis
// (Vesely et al., the Fault Tree Handbook the paper builds on [52, 60]).
//
// Beyond ranking whole risk groups (§4.1.3), operators ask "which single
// component should I fix first?". Three standard answers, all computed from
// the minimal RGs and the failure-probability assignment:
//   * membership count — in how many minimal RGs the component appears;
//   * Birnbaum importance  B_i = Pr(T | i failed) − Pr(T | i working);
//   * criticality importance C_i = B_i · p_i / Pr(T) — the probability that
//     i's failure is contributing *and* the system is down.
// Pr(T) and both conditioned probabilities come from ranking.h's
// TopEventEngine: the fault graph's BDD, compiled once per call and read
// with one event's probability set to 1 or 0, or past the BDD's node budget
// its Monte-Carlo fallback.

#ifndef SRC_SIA_IMPORTANCE_H_
#define SRC_SIA_IMPORTANCE_H_

#include <string>
#include <vector>

#include "src/graph/fault_graph.h"
#include "src/sia/ranking.h"
#include "src/sia/risk_groups.h"
#include "src/util/status.h"

namespace indaas {

struct ComponentImportance {
  NodeId id = kInvalidNode;
  std::string name;
  size_t rg_memberships = 0;
  double birnbaum = 0.0;
  double criticality = 0.0;
};

// Ranks every basic event that appears in at least one minimal RG, most
// critical first (by criticality importance, then Birnbaum).
Result<std::vector<ComponentImportance>> RankComponentImportance(
    const FaultGraph& graph, const std::vector<RiskGroup>& minimal_groups,
    const TopEventOptions& options = {});

}  // namespace indaas

#endif  // SRC_SIA_IMPORTANCE_H_
