#include "src/agent/report_diff.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/util/strings.h"

namespace indaas {
namespace {

// Order-insensitive deployment key.
std::vector<std::string> DeploymentKey(const std::vector<std::string>& servers) {
  std::vector<std::string> key = servers;
  std::sort(key.begin(), key.end());
  return key;
}

// Risk groups of an audit as a set of sorted component-name vectors.
std::set<std::vector<std::string>> GroupSet(const DeploymentAudit& audit) {
  std::set<std::vector<std::string>> out;
  for (const auto& group : audit.ranked_groups) {
    std::vector<std::string> names = audit.Names(group);
    std::sort(names.begin(), names.end());
    out.insert(std::move(names));
  }
  return out;
}

}  // namespace

bool AuditDiff::HasRegressions() const {
  for (const DeploymentDiff& diff : deployments) {
    if (diff.Regressed()) {
      return true;
    }
  }
  return false;
}

AuditDiff DiffSiaReports(const SiaAuditReport& before, const SiaAuditReport& after) {
  AuditDiff diff;
  std::map<std::vector<std::string>, const DeploymentAudit*> before_by_key;
  for (const DeploymentAudit& audit : before.deployments) {
    before_by_key.emplace(DeploymentKey(audit.servers), &audit);
  }
  std::set<std::vector<std::string>> matched;
  for (const DeploymentAudit& after_audit : after.deployments) {
    std::vector<std::string> key = DeploymentKey(after_audit.servers);
    auto it = before_by_key.find(key);
    if (it == before_by_key.end()) {
      diff.only_in_after.push_back(after_audit.servers);
      continue;
    }
    matched.insert(key);
    const DeploymentAudit& before_audit = *it->second;
    DeploymentDiff entry;
    entry.servers = after_audit.servers;
    entry.unexpected_before = before_audit.unexpected_rgs;
    entry.unexpected_after = after_audit.unexpected_rgs;
    std::set<std::vector<std::string>> old_groups = GroupSet(before_audit);
    std::set<std::vector<std::string>> new_groups = GroupSet(after_audit);
    std::set_difference(new_groups.begin(), new_groups.end(), old_groups.begin(),
                        old_groups.end(), std::back_inserter(entry.appeared));
    std::set_difference(old_groups.begin(), old_groups.end(), new_groups.begin(),
                        new_groups.end(), std::back_inserter(entry.disappeared));
    diff.deployments.push_back(std::move(entry));
  }
  for (const DeploymentAudit& audit : before.deployments) {
    if (matched.count(DeploymentKey(audit.servers)) == 0) {
      diff.only_in_before.push_back(audit.servers);
    }
  }
  return diff;
}

std::string RenderAuditDiff(const AuditDiff& diff) {
  std::string out;
  for (const DeploymentDiff& entry : diff.deployments) {
    if (entry.appeared.empty() && entry.disappeared.empty() &&
        entry.unexpected_before == entry.unexpected_after) {
      continue;
    }
    out += StrFormat("deployment {%s}: unexpected RGs %zu -> %zu%s\n",
                     Join(entry.servers, ", ").c_str(), entry.unexpected_before,
                     entry.unexpected_after, entry.Regressed() ? "  ** REGRESSION **" : "");
    for (const auto& group : entry.appeared) {
      out += StrFormat("  + new RG {%s}\n", Join(group, ", ").c_str());
    }
    for (const auto& group : entry.disappeared) {
      out += StrFormat("  - resolved RG {%s}\n", Join(group, ", ").c_str());
    }
  }
  for (const auto& servers : diff.only_in_before) {
    out += StrFormat("deployment {%s}: removed from audit\n", Join(servers, ", ").c_str());
  }
  for (const auto& servers : diff.only_in_after) {
    out += StrFormat("deployment {%s}: newly audited\n", Join(servers, ", ").c_str());
  }
  if (out.empty()) {
    out = "no changes\n";
  }
  return out;
}

}  // namespace indaas
