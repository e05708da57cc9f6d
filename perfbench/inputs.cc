#include "perfbench/inputs.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "src/crypto/digest.h"
#include "src/deps/depdb.h"
#include "src/pia/psop.h"
#include "src/svc/proto.h"
#include "src/topology/fat_tree.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace indaas {
namespace perfbench {
namespace {

// ECMP routes kept per server (of the 64 a k=16 fat tree offers).
constexpr size_t kFatTreePaths = 3;
constexpr size_t kFatTreeSpecs = 256;
constexpr size_t kFatTreeDeploymentsPerSpec = 3;
constexpr size_t kFatTreeScheduleLength = 1 << 16;

constexpr size_t kMixedImportSlices = 12;

// Per-workload stream salts, so the three generators never share a stream
// for the same seed.
constexpr uint64_t kFatTreeSalt = 0xFA7743EE16ULL;
constexpr uint64_t kMixedSalt = 0x5A11A1D3ULL;
constexpr uint64_t kRingSalt = 0x9125095ULL;

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& items) {
  return items[rng.NextBelow(items.size())];
}

std::string HexDigest(const std::string& canonical) {
  return DigestToHex(Sha256(canonical)).substr(0, 16);
}

std::string SpecsCanonical(const std::vector<AuditSpecification>& specs) {
  std::string out;
  for (const AuditSpecification& spec : specs) {
    out += svc::EncodeAuditSpecification(spec);
    out += '\x1e';
  }
  return out;
}

}  // namespace

Result<FatTreeInputs> MakeFatTreeInputs(uint64_t seed) {
  Rng rng(seed ^ kFatTreeSalt);
  INDAAS_ASSIGN_OR_RETURN(DataCenterTopology topo, BuildFatTree(kFatTreePorts));
  INDAAS_ASSIGN_OR_RETURN(DeviceId internet, topo.FindDevice("Internet"));

  // Small catalogs, so hardware models and package versions are shared by
  // many servers: the common dependencies SIA exists to surface.
  const std::vector<std::string> cpus = {"XeonE5-2650", "XeonE5-2680", "EPYC-7302",
                                         "EPYC-7402"};
  const std::vector<std::string> disks = {"SED900", "WD200", "ST4000", "MZ7LH"};
  const std::vector<std::string> libcs = {"libc6=2.13", "libc6=2.14", "libc6=2.19"};
  const std::vector<std::string> ssls = {"libssl=1.0.1", "libssl=1.0.2", "libssl=1.1.0"};

  DepDb db;
  for (DeviceId server : topo.DevicesOfType(DeviceType::kServer)) {
    const std::string& name = topo.device(server).name;
    std::vector<NetworkDependency> routes = topo.NetworkDependencies(server, internet, 64);
    rng.Shuffle(routes);
    routes.resize(std::min(routes.size(), kFatTreePaths));
    for (const NetworkDependency& route : routes) {
      db.Add(route);
    }
    db.Add(HardwareDependency{name, "CPU", Pick(rng, cpus)});
    db.Add(HardwareDependency{name, "Disk", Pick(rng, disks)});
    db.Add(SoftwareDependency{"riak", name, {Pick(rng, libcs), Pick(rng, ssls)}});
  }

  FatTreeInputs inputs;
  inputs.depdb_text = db.ExportText();
  const uint32_t half = kFatTreePorts / 2;
  for (size_t i = 0; i < kFatTreeSpecs; ++i) {
    AuditSpecification spec;
    // One spec in four uses the AND gate, the rest 2-of-3. An AND audit
    // costs about four times a 2-of-3 one, so the two form separate latency
    // clusters; at this mix p50 falls inside the 2-of-3 cluster and p90
    // inside the AND cluster, never on the boundary between them, where a
    // small shift in the drawn mix would move the percentile a lot.
    spec.required_servers = i % 4 == 0 ? 0 : 2;
    for (size_t d = 0; d < kFatTreeDeploymentsPerSpec; ++d) {
      std::vector<uint32_t> pods(kFatTreePorts);
      for (uint32_t p = 0; p < kFatTreePorts; ++p) {
        pods[p] = p;
      }
      rng.Shuffle(pods);
      std::vector<std::string> servers;
      for (size_t s = 0; s < 3; ++s) {
        std::string name = StrFormat("pod%u-srv%u-%u", pods[s],
                                     static_cast<uint32_t>(rng.NextBelow(half)),
                                     static_cast<uint32_t>(rng.NextBelow(half)));
        INDAAS_RETURN_IF_ERROR(topo.FindDevice(name).status());
        servers.push_back(std::move(name));
      }
      spec.candidate_deployments.push_back(std::move(servers));
    }
    inputs.specs.push_back(std::move(spec));
  }
  inputs.schedules.resize(kFatTreeClients);
  for (std::vector<uint32_t>& schedule : inputs.schedules) {
    schedule.resize(kFatTreeScheduleLength);
    for (uint32_t& index : schedule) {
      index = static_cast<uint32_t>(rng.NextBelow(inputs.specs.size()));
    }
  }
  return inputs;
}

std::string FatTreeInputs::Digest() const {
  std::string canonical = depdb_text + '\x1d' + SpecsCanonical(specs);
  for (const std::vector<uint32_t>& schedule : schedules) {
    for (uint32_t index : schedule) {
      canonical += std::to_string(index);
      canonical += ',';
    }
    canonical += '\x1d';
  }
  return HexDigest(canonical);
}

MixedInputs MakeMixedInputs(uint64_t seed, double seconds) {
  Rng rng(seed ^ kMixedSalt);
  // The DepDB the svc tests and bench_svc_rpc audit.
  DepDb db;
  db.Add(NetworkDependency{"S1", "Internet", {"ToR1", "Core1"}});
  db.Add(NetworkDependency{"S2", "Internet", {"ToR1", "Core1"}});
  db.Add(NetworkDependency{"S3", "Internet", {"ToR2", "Core1"}});
  db.Add(HardwareDependency{"S1", "Disk", "SED900"});
  db.Add(HardwareDependency{"S2", "Disk", "SED900"});
  db.Add(HardwareDependency{"S3", "Disk", "WD200"});
  db.Add(SoftwareDependency{"riak", "S1", {"libc6=2.13"}});
  db.Add(SoftwareDependency{"riak", "S2", {"libc6=2.13"}});
  db.Add(SoftwareDependency{"riak", "S3", {"libc6=2.14"}});

  MixedInputs inputs;
  inputs.depdb_text = db.ExportText();
  // A fixed pool, the same for every seed, so the seed moves only which
  // spec each request draws and when it arrives: every combination of the
  // candidate sets below with three choices of dependency types.
  const std::vector<std::string> s12 = {"S1", "S2"};
  const std::vector<std::string> s13 = {"S1", "S3"};
  const std::vector<std::string> s23 = {"S2", "S3"};
  const std::vector<std::string> all = {"S1", "S2", "S3"};
  const std::vector<std::vector<std::vector<std::string>>> candidate_sets = {
      {s12, s13}, {s12, s23}, {s13, s23}, {s12, s13, s23},
      {all},      {s12, all}, {s13, all}, {all, s23}};
  for (const auto& candidates : candidate_sets) {
    for (int types = 0; types < 3; ++types) {
      AuditSpecification spec;
      spec.candidate_deployments = candidates;
      // A lone triple is audited 2-of-3; mixed sets use the AND gate.
      spec.required_servers = candidates.size() == 1 ? 2 : 0;
      spec.include_hardware = types != 2;
      spec.include_software = types != 1;
      inputs.specs.push_back(std::move(spec));
    }
  }

  // Slices of records already in the DepDB: dedup makes re-importing them a
  // no-op for every audit result, but each still takes the exclusive lock.
  std::vector<std::string> lines = Split(inputs.depdb_text, '\n');
  lines.erase(std::remove(lines.begin(), lines.end(), std::string()), lines.end());
  for (size_t i = 0; i < kMixedImportSlices; ++i) {
    const size_t length = 2 + rng.NextBelow(3);
    const size_t start = rng.NextBelow(lines.size() - length + 1);
    std::string slice;
    for (size_t l = start; l < start + length; ++l) {
      slice += lines[l];
      slice += '\n';
    }
    inputs.import_slices.push_back(std::move(slice));
  }

  // Poisson arrivals: 85% audits, 10% pings, 5% imports.
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / kMixedRate;
    if (t >= seconds) {
      break;
    }
    MixedRequest request;
    request.due_s = t;
    const double u = rng.NextDouble();
    if (u < 0.85) {
      request.kind = MixedRequest::Kind::kAudit;
      request.index = static_cast<uint32_t>(rng.NextBelow(inputs.specs.size()));
    } else if (u < 0.95) {
      request.kind = MixedRequest::Kind::kPing;
    } else {
      request.kind = MixedRequest::Kind::kImport;
      request.index = static_cast<uint32_t>(rng.NextBelow(inputs.import_slices.size()));
    }
    inputs.arrivals.push_back(request);
  }
  return inputs;
}

std::string MixedInputs::Digest() const {
  std::string canonical = depdb_text + '\x1d' + SpecsCanonical(specs);
  for (const std::string& slice : import_slices) {
    canonical += slice + '\x1e';
  }
  for (const MixedRequest& request : arrivals) {
    canonical += StrFormat("%.9f:%d:%u,", request.due_s, static_cast<int>(request.kind),
                           request.index);
  }
  return HexDigest(canonical);
}

RingInputs MakeRingInputs(uint64_t seed) {
  Rng rng(seed ^ kRingSalt);
  constexpr size_t kUniverse = 600;
  constexpr size_t kShared = 60;      // in every party's dataset
  constexpr size_t kDuplicates = 20;  // repeated occurrences (multiset)
  std::vector<std::string> universe;
  for (size_t i = 0; i < kUniverse; ++i) {
    universe.push_back(StrFormat("pkg-%08llx=%u.%u",
                                 static_cast<unsigned long long>(rng.Next() & 0xFFFFFFFFULL),
                                 static_cast<uint32_t>(rng.NextBelow(4)),
                                 static_cast<uint32_t>(rng.NextBelow(20))));
  }
  std::vector<std::string> shared;
  for (size_t i = 0; i < kShared; ++i) {
    shared.push_back(universe[i]);
  }

  RingInputs inputs;
  for (size_t party = 0; party < kRingParties; ++party) {
    std::vector<std::string> dataset = shared;
    while (dataset.size() < kRingElements - kDuplicates) {
      dataset.push_back(universe[kShared + rng.NextBelow(kUniverse - kShared)]);
    }
    for (size_t i = 0; i < kDuplicates; ++i) {
      dataset.push_back(dataset[rng.NextBelow(kRingElements - kDuplicates)]);
    }
    rng.Shuffle(dataset);
    inputs.datasets.push_back(std::move(dataset));
  }

  // Plaintext oracle with the protocol's multiset semantics.
  std::map<std::string, size_t> presence;
  for (const std::vector<std::string>& dataset : inputs.datasets) {
    std::vector<std::string> unique = DisambiguateMultiset(dataset);
    for (const std::string& element : std::set<std::string>(unique.begin(), unique.end())) {
      ++presence[element];
    }
  }
  inputs.expected_union = presence.size();
  for (const auto& [element, count] : presence) {
    if (count == kRingParties) {
      ++inputs.expected_intersection;
    }
  }
  return inputs;
}

std::string RingInputs::Digest() const {
  std::string canonical;
  for (const std::vector<std::string>& dataset : datasets) {
    canonical += Join(dataset, "\x1e");
    canonical += '\x1d';
  }
  return HexDigest(canonical);
}

}  // namespace perfbench
}  // namespace indaas
