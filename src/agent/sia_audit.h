// Structural independence auditing end-to-end (paper §4.1): build the fault
// graph per candidate deployment, determine risk groups, rank them, compute
// independence scores, and assemble the auditing report returned to the
// client (§4.1.4).

#ifndef SRC_AGENT_SIA_AUDIT_H_
#define SRC_AGENT_SIA_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/agent/spec.h"
#include "src/deps/depdb.h"
#include "src/deps/prob_model.h"
#include "src/sia/ranking.h"
#include "src/sia/risk_groups.h"
#include "src/util/status.h"

namespace indaas {

// Audit outcome for one candidate deployment.
struct DeploymentAudit {
  std::vector<std::string> servers;
  // Names of the fault graph's basic events that appear in at least one
  // ranked group, in ascending NodeId order: the one name table the
  // deployment's groups index into.
  std::vector<std::string> components;
  // A ranked RG as strictly increasing indices into `components`; ascending
  // indices are ascending NodeIds, the order the RG engines emit.
  struct RankedGroup {
    std::vector<uint32_t> ids;
    double score = 0.0;
  };
  std::vector<RankedGroup> ranked_groups;
  double independence_score = 0.0;
  // Number of RGs smaller than the deployment's redundancy width — the
  // "unexpected RGs" of §1 (any of these defeats the redundancy).
  size_t unexpected_rgs = 0;
  double top_event_prob = 0.0;  // probability metric only

  // The component names of `group`, in table order.
  std::vector<std::string> Names(const RankedGroup& group) const;
};

struct SiaAuditReport {
  // Sorted most-independent first (see §4.1.4: by independence score).
  std::vector<DeploymentAudit> deployments;
  RgAlgorithm algorithm = RgAlgorithm::kMinimal;
  RankingMetric metric = RankingMetric::kSize;
};

// Runs the full SIA pipeline over every candidate deployment in `spec`.
// `prob_model` may be null (required for the probability metric).
Result<SiaAuditReport> RunSiaAudit(const DepDb& db, const AuditSpecification& spec,
                                   const FailureProbabilityModel* prob_model = nullptr);

// Renders the report as text (deployment ranking + top RGs per deployment).
std::string RenderSiaReport(const SiaAuditReport& report, size_t top_rgs_per_deployment = 4);

}  // namespace indaas

#endif  // SRC_AGENT_SIA_AUDIT_H_
