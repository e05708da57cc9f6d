#include "src/agent/sia_audit.h"

#include <algorithm>
#include <cstdint>

#include "src/obs/trace.h"
#include "src/sia/builder.h"
#include "src/sia/sampling.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace indaas {
namespace {

// For each basic event (by NodeId), the number of the top gate's children
// whose subgraph reaches it. A count of two or more marks a component in the
// dependency closure of several of the deployment's servers — a common
// dependency whose presence in an RG marks it unexpected.
std::vector<uint32_t> ServersReaching(const FaultGraph& graph) {
  std::vector<uint32_t> counts(graph.NodeCount(), 0);
  const FaultNode& top = graph.node(graph.top_event());
  if (top.gate == GateType::kBasic) {
    return counts;
  }
  // seen[id] == stamp: already visited from the current child.
  std::vector<uint32_t> seen(graph.NodeCount(), 0);
  std::vector<NodeId> stack;
  uint32_t stamp = 0;
  for (NodeId child : top.children) {
    ++stamp;
    stack.push_back(child);
    while (!stack.empty()) {
      NodeId id = stack.back();
      stack.pop_back();
      if (seen[id] == stamp) {
        continue;
      }
      seen[id] = stamp;
      const FaultNode& node = graph.node(id);
      if (node.gate == GateType::kBasic) {
        ++counts[id];
      } else {
        stack.insert(stack.end(), node.children.begin(), node.children.end());
      }
    }
  }
  return counts;
}

}  // namespace

std::vector<std::string> DeploymentAudit::Names(const RankedGroup& group) const {
  std::vector<std::string> names;
  names.reserve(group.ids.size());
  for (uint32_t id : group.ids) {
    names.push_back(components[id]);
  }
  return names;
}

Result<SiaAuditReport> RunSiaAudit(const DepDb& db, const AuditSpecification& spec,
                                   const FailureProbabilityModel* prob_model) {
  if (spec.candidate_deployments.empty()) {
    return InvalidArgumentError("RunSiaAudit: no candidate deployments");
  }
  if (spec.metric == RankingMetric::kFailureProbability && prob_model == nullptr) {
    return InvalidArgumentError("RunSiaAudit: probability metric requires a probability model");
  }
  SiaAuditReport report;
  report.algorithm = spec.algorithm;
  report.metric = spec.metric;
  INDAAS_TRACE_SPAN_NAMED(audit_span, "sia.audit");
  audit_span.Annotate("deployments", std::to_string(spec.candidate_deployments.size()));

  // One deployment's audit, independent of every other deployment's.
  auto audit_one =
      [&](const std::vector<std::string>& servers) -> Result<DeploymentAudit> {
    INDAAS_TRACE_SPAN_NAMED(span, "sia.audit.deployment");
    span.Annotate("servers", Join(servers, ","));
    BuildOptions build;
    build.required_servers = spec.required_servers;
    build.software_of_interest = spec.software_of_interest;
    build.include_network = spec.include_network;
    build.include_hardware = spec.include_hardware;
    build.include_software = spec.include_software;
    build.prob_model = prob_model;
    INDAAS_ASSIGN_OR_RETURN(FaultGraph graph, BuildDeploymentFaultGraph(db, servers, build));

    // Determine risk groups.
    std::vector<RiskGroup> groups;
    if (spec.algorithm == RgAlgorithm::kMinimal) {
      INDAAS_ASSIGN_OR_RETURN(MinimalRgResult exact, ComputeMinimalRiskGroups(graph));
      groups = std::move(exact.groups);
    } else {
      SamplingOptions sampling;
      sampling.rounds = spec.sampling_rounds;
      sampling.failure_bias = spec.sampling_bias;
      sampling.seed = spec.seed;
      sampling.threads = spec.parallel_deployments > 1 ? 1 : spec.threads;
      sampling.shrink = ShrinkMode::kGreedy;
      INDAAS_ASSIGN_OR_RETURN(SamplingResult sampled, SampleRiskGroups(graph, sampling));
      groups = std::move(sampled.groups);
    }

    // Rank.
    DeploymentAudit audit;
    audit.servers = servers;
    std::vector<RankedRiskGroup> ranked;
    if (spec.metric == RankingMetric::kSize) {
      ranked = RankBySize(std::move(groups));
    } else {
      TopEventOptions prob_options;
      prob_options.default_prob = prob_model->default_prob();
      prob_options.seed = spec.seed;
      INDAAS_ASSIGN_OR_RETURN(ProbabilityRanking prob_ranking,
                              RankByImportance(graph, groups, prob_options));
      ranked = std::move(prob_ranking.ranked);
      audit.top_event_prob = prob_ranking.top_event_prob;
    }
    audit.independence_score = IndependenceScore(ranked, spec.score_top_n);

    // Unexpected RGs: smaller than the redundancy width, or touching a
    // component shared by several replicas.
    size_t width = spec.required_servers == 0
                       ? servers.size()
                       : servers.size() - spec.required_servers + 1;
    std::vector<uint32_t> reaching = ServersReaching(graph);
    // The name table: every basic event some group names, in NodeId order.
    constexpr uint32_t kNotInTable = UINT32_MAX;
    std::vector<uint32_t> table_index(graph.NodeCount(), kNotInTable);
    for (const RankedRiskGroup& entry : ranked) {
      for (NodeId id : entry.group) {
        table_index[id] = 0;
      }
    }
    for (NodeId id = 0; id < table_index.size(); ++id) {
      if (table_index[id] != kNotInTable) {
        table_index[id] = static_cast<uint32_t>(audit.components.size());
        audit.components.push_back(graph.node(id).name);
      }
    }
    audit.ranked_groups.reserve(ranked.size());
    for (const RankedRiskGroup& entry : ranked) {
      DeploymentAudit::RankedGroup group;
      group.score = entry.score;
      group.ids.reserve(entry.group.size());
      bool touches_shared = false;
      for (NodeId id : entry.group) {
        group.ids.push_back(table_index[id]);
        touches_shared = touches_shared || reaching[id] >= 2;
      }
      if (entry.group.size() < width || touches_shared) {
        ++audit.unexpected_rgs;
      }
      audit.ranked_groups.push_back(std::move(group));
    }
    return audit;
  };

  const size_t count = spec.candidate_deployments.size();
  std::vector<Result<DeploymentAudit>> results(count, Status(StatusCode::kInternal, "not run"));
  if (spec.parallel_deployments > 1 && count > 1) {
    ComputePool().ParallelFor(count, [&](size_t i) {
      results[i] = audit_one(spec.candidate_deployments[i]);
    });
  } else {
    for (size_t i = 0; i < count; ++i) {
      results[i] = audit_one(spec.candidate_deployments[i]);
    }
  }
  for (Result<DeploymentAudit>& result : results) {
    if (!result.ok()) {
      return result.status();
    }
    report.deployments.push_back(std::move(result).value());
  }

  // Rank deployments. Size metric: higher score (larger RGs among the top-n)
  // = more independent. Probability metric: lower top-event probability
  // = more independent (the cross-deployment-comparable quantity; §6.2.1
  // validates the winner by lowest failure probability).
  std::stable_sort(report.deployments.begin(), report.deployments.end(),
                   [&](const DeploymentAudit& a, const DeploymentAudit& b) {
                     if (spec.metric == RankingMetric::kSize) {
                       if (a.unexpected_rgs != b.unexpected_rgs) {
                         return a.unexpected_rgs < b.unexpected_rgs;
                       }
                       return a.independence_score > b.independence_score;
                     }
                     return a.top_event_prob < b.top_event_prob;
                   });
  return report;
}

std::string RenderSiaReport(const SiaAuditReport& report, size_t top_rgs_per_deployment) {
  std::string out = "SIA auditing report";
  out += StrFormat(" (algorithm: %s, metric: %s)\n",
                   report.algorithm == RgAlgorithm::kMinimal ? "minimal-RG" : "failure-sampling",
                   report.metric == RankingMetric::kSize ? "size" : "failure-probability");
  size_t rank = 1;
  for (const DeploymentAudit& audit : report.deployments) {
    out += StrFormat("#%zu  deployment {%s}  score=%.4f  unexpected RGs=%zu", rank++,
                     Join(audit.servers, ", ").c_str(), audit.independence_score,
                     audit.unexpected_rgs);
    if (audit.top_event_prob > 0.0) {
      out += StrFormat("  Pr(outage)=%.6f", audit.top_event_prob);
    }
    out += '\n';
    size_t shown = 0;
    for (const auto& group : audit.ranked_groups) {
      if (shown++ >= top_rgs_per_deployment) {
        break;
      }
      out += StrFormat("    RG %zu: {%s}  score=%.4f\n", shown,
                       Join(audit.Names(group), ", ").c_str(), group.score);
    }
  }
  return out;
}

}  // namespace indaas
