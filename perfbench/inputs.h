// Seeded input generators for the three perfbench workloads. The program
// under test sees only what these produce; the same seed always yields the
// same inputs, and each generator's Digest() fingerprints them so a run can
// be matched to its inputs and re-run on an unseen seed.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/agent/spec.h"
#include "src/util/status.h"

namespace indaas {
namespace perfbench {

// remote_sia_fattree: a k=16 fat tree's DepDB (ECMP routes plus hardware and
// software records for every server) and a pool of structural audits, each
// comparing a few 3-server deployments spread over distinct pods. A quarter
// of the pool uses the AND gate (required_servers = 0), the rest 2-of-3.
struct FatTreeInputs {
  std::string depdb_text;
  std::vector<AuditSpecification> specs;
  // Per closed-loop client, the pool indices it requests, in order (cycled).
  std::vector<std::vector<uint32_t>> schedules;

  std::string Digest() const;
};

inline constexpr uint32_t kFatTreePorts = 16;
inline constexpr size_t kFatTreeClients = 2;

Result<FatTreeInputs> MakeFatTreeInputs(uint64_t seed);

// svc_small_mixed: the 3-server DepDB the svc benches audit, a pool of small
// structural audits, DepDB slices to re-import, and a Poisson arrival
// schedule mixing audits, pings and imports.
struct MixedRequest {
  enum class Kind : uint8_t { kAudit, kPing, kImport };
  double due_s = 0;  // offset from the start of the schedule
  Kind kind = Kind::kAudit;
  uint32_t index = 0;  // into specs or import_slices
};

struct MixedInputs {
  std::string depdb_text;
  std::vector<AuditSpecification> specs;
  std::vector<std::string> import_slices;
  std::vector<MixedRequest> arrivals;  // ascending due_s

  std::string Digest() const;
};

inline constexpr double kMixedRate = 250.0;  // requests per second, all kinds

// `seconds` bounds the schedule: arrivals are due in [0, seconds).
MixedInputs MakeMixedInputs(uint64_t seed, double seconds);

// psop_ring_k3: one multiset of component names per party, overlapping by
// construction, with the plaintext multiset intersection and union counts
// the exact ring must reproduce.
struct RingInputs {
  std::vector<std::vector<std::string>> datasets;
  size_t expected_intersection = 0;
  size_t expected_union = 0;

  std::string Digest() const;
};

inline constexpr size_t kRingParties = 3;
inline constexpr size_t kRingElements = 200;  // per party, duplicates included

RingInputs MakeRingInputs(uint64_t seed);

}  // namespace perfbench
}  // namespace indaas

#endif  // PERFBENCH_INPUTS_H_
