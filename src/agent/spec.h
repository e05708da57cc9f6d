// Auditing client specification (paper §2, Step 1).
//
// The client tells the agent: (a) the relevant data sources, (b) the desired
// redundancy level, (c) which dependency types to consider, and (d) the
// metric used to quantify independence.

#ifndef SRC_AGENT_SPEC_H_
#define SRC_AGENT_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

namespace indaas {

enum class RgAlgorithm {
  kMinimal,   // exact minimal RG algorithm (NP-hard, precise)
  kSampling,  // failure sampling (linear, approximate)
};

enum class RankingMetric {
  kSize,                // size-based ranking (component-set / unweighted)
  kFailureProbability,  // relative-importance ranking (weighted)
};

struct AuditSpecification {
  // Candidate deployments to compare: each entry is the list of servers/VMs
  // that would host the redundant service.
  std::vector<std::vector<std::string>> candidate_deployments;
  // Survivability threshold passed to the fault graph builder (0 = all
  // servers must fail to lose the service).
  uint32_t required_servers = 0;
  // Dependency types to include.
  bool include_network = true;
  bool include_hardware = true;
  bool include_software = true;
  // Software components of interest (empty = all known).
  std::vector<std::string> software_of_interest;
  RgAlgorithm algorithm = RgAlgorithm::kMinimal;
  RankingMetric metric = RankingMetric::kSize;
  // Sampling parameters (used when algorithm == kSampling).
  size_t sampling_rounds = 100000;
  double sampling_bias = 0.05;
  uint64_t seed = 1;
  size_t threads = 1;
  // Audit candidate deployments concurrently (deployments are independent;
  // results keep specification order). 1 = sequential; any larger value
  // fans the audits out on the shared ComputePool() (util/thread_pool.h).
  size_t parallel_deployments = 1;
  // How many top RGs feed the independence score (0 = all).
  size_t score_top_n = 0;
};

}  // namespace indaas

#endif  // SRC_AGENT_SPEC_H_
