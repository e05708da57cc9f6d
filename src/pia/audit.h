// Private independence auditing orchestration (paper §4.2.4–4.2.5).
//
// Given k cloud providers with normalized component-sets, evaluates the
// Jaccard similarity of every candidate n-way redundancy deployment via the
// P-SOP protocol (exact, or MinHash-compressed for large sets) and produces
// the ranking the auditing agent returns to the client — lowest similarity
// (most independent) first, exactly like Table 2.

#ifndef SRC_PIA_AUDIT_H_
#define SRC_PIA_AUDIT_H_

#include <string>
#include <vector>

#include "src/deps/depdb.h"
#include "src/pia/protocol_stats.h"
#include "src/pia/psop.h"
#include "src/sketch/allpairs.h"
#include "src/util/status.h"

namespace indaas {

struct CloudProvider {
  std::string name;
  std::vector<std::string> components;  // normalized ids
};

// Builds a provider's normalized component-set from its own DepDB (§4.2.3:
// each provider generates its local dependency graph at the component-set
// level and normalizes identifiers before entering the protocol). Expands
// every record into normalized component ids, deduplicated and sorted.
CloudProvider MakeProviderFromDepDb(const std::string& name, const DepDb& db);

enum class PiaMethod {
  kPsopExact,    // full component-sets through P-SOP
  kPsopMinHash,  // MinHash samples through P-SOP (large sets)
  kSketch,       // sketch-exchange: ship MinHash registers, no encryption
};

struct PiaAuditOptions {
  PiaMethod method = PiaMethod::kPsopExact;
  size_t minhash_m = 256;   // sample size when method == kPsopMinHash
  uint32_t sketch_k = 256;  // registers per sketch when method == kSketch
  PsopOptions psop;
  uint32_t min_redundancy = 2;  // smallest deployment size to evaluate
  uint32_t max_redundancy = 3;  // largest deployment size to evaluate
  // Evaluate candidate deployments concurrently (each deployment's protocol
  // run is independent). 1 = sequential; any larger value fans the runs out
  // on the shared ComputePool() (util/thread_pool.h).
  size_t parallel_deployments = 1;
};

struct DeploymentSimilarity {
  std::vector<std::string> providers;  // provider names in the deployment
  double jaccard = 0.0;
};

struct PiaAuditReport {
  // One ranking per redundancy level (index 0 = min_redundancy), each sorted
  // ascending by Jaccard (most independent first).
  std::vector<std::vector<DeploymentSimilarity>> rankings;
  uint32_t min_redundancy = 2;
  // Aggregate protocol cost across all evaluated deployments, per provider
  // (indexed like the input providers).
  std::vector<PartyStats> provider_stats;
};

// Evaluates every min..max-way deployment. Requires >= min_redundancy
// providers with unique names and non-empty component sets.
Result<PiaAuditReport> RunPiaAudit(const std::vector<CloudProvider>& providers,
                                   const PiaAuditOptions& options = {});

// Renders the Table 2 style ranking list.
std::string RenderPiaReport(const PiaAuditReport& report);

// All-pairs audit at provider scale (DESIGN.md §8). Instead of one protocol
// ring per pair (N(N-1)/2 executions), every provider is sketched once, LSH
// banding nominates the candidate pairs, and only those are scored. The
// report surfaces the *least independent* (highest-Jaccard) pairs first —
// the correlated-failure risk view an operator acts on.
struct PiaAllPairsOptions {
  sketch::SketchParams sketch;
  sketch::LshParams lsh;
  // kRegisters (default) scores candidates from the sketches alone — the
  // mode matching the sketch-exchange protocol's privacy posture, where the
  // auditor only ever holds registers. kFingerprints computes collision-
  // exact Jaccard over hashed element fingerprints (needs set access; used
  // by accuracy benchmarks).
  sketch::VerifyMode verify = sketch::VerifyMode::kRegisters;
  double min_jaccard = 0.0;  // drop pairs provably below this similarity
  size_t top = 10;           // keep the top-N riskiest pairs; 0 = all
};

struct RankedProviderPair {
  std::string a;
  std::string b;
  double jaccard = 0.0;
};

struct PiaAllPairsReport {
  std::vector<RankedProviderPair> pairs;  // descending Jaccard (riskiest first)
  size_t providers = 0;
  size_t pairs_possible = 0;   // what an exact per-pair audit would run
  size_t pairs_evaluated = 0;  // LSH candidates actually scored
  size_t pairs_pruned = 0;
  size_t sketch_bytes = 0;     // total register bytes across providers
};

Result<PiaAllPairsReport> RunAllPairsPiaAudit(const std::vector<CloudProvider>& providers,
                                              const PiaAllPairsOptions& options = {});

// Renders the riskiest-pairs table plus the candidate-generation summary.
std::string RenderAllPairsReport(const PiaAllPairsReport& report);

}  // namespace indaas

#endif  // SRC_PIA_AUDIT_H_
