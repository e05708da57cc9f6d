#include "src/sia/importance.h"

#include <algorithm>
#include <map>

namespace indaas {

Result<std::vector<ComponentImportance>> RankComponentImportance(
    const FaultGraph& graph, const std::vector<RiskGroup>& minimal_groups,
    const TopEventOptions& options) {
  if (!graph.validated()) {
    return FailedPreconditionError("RankComponentImportance: graph not validated");
  }
  if (minimal_groups.empty()) {
    return std::vector<ComponentImportance>{};
  }
  std::map<NodeId, size_t> memberships;
  for (const RiskGroup& group : minimal_groups) {
    for (NodeId id : group) {
      ++memberships[id];
    }
  }
  // One engine for Pr(T) and every conditioned Pr(T | i failed / working):
  // a conditioned call overrides one entry of the probability vector.
  TopEventEngine engine(graph, options);
  std::vector<double> probs = engine.base_probs();
  const double pr_top = engine.Probability(probs);
  if (pr_top <= 0.0) {
    return InternalError("RankComponentImportance: top event probability is zero");
  }

  const std::vector<NodeId>& basics = graph.BasicEvents();  // ascending ids (insertion order)
  std::vector<ComponentImportance> out;
  out.reserve(memberships.size());
  for (const auto& [id, count] : memberships) {
    const size_t var = std::lower_bound(basics.begin(), basics.end(), id) - basics.begin();
    const double base = probs[var];
    ComponentImportance entry;
    entry.id = id;
    entry.name = graph.node(id).name;
    entry.rg_memberships = count;
    probs[var] = 1.0;
    const double up = engine.Probability(probs);  // Pr(T | i failed)
    probs[var] = 0.0;
    const double down = engine.Probability(probs);  // Pr(T | i working)
    probs[var] = base;
    entry.birnbaum = up - down;
    entry.criticality = entry.birnbaum * base / pr_top;
    out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(), [](const ComponentImportance& a,
                                       const ComponentImportance& b) {
    if (a.criticality != b.criticality) {
      return a.criticality > b.criticality;
    }
    if (a.birnbaum != b.birnbaum) {
      return a.birnbaum > b.birnbaum;
    }
    return a.name < b.name;
  });
  return out;
}

}  // namespace indaas
