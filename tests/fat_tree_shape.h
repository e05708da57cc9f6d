// The fat-tree deployments the remote SIA benchmark audits, as a test
// generator: every server of a k-port fat tree with up to
// `routes_per_server` ECMP routes to the Internet (three by default, as the
// benchmark uses), a CPU model and a libc version drawn from three each, and
// deployments of three servers in distinct pods. One Rng drives both, so a
// seed names one DepDB and one sequence of deployments.

#ifndef TESTS_FAT_TREE_SHAPE_H_
#define TESTS_FAT_TREE_SHAPE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/deps/depdb.h"
#include "src/topology/fat_tree.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace indaas {

inline Result<DepDb> FatTreeShapeDepDb(uint32_t ports, Rng& rng, size_t routes_per_server = 3) {
  INDAAS_ASSIGN_OR_RETURN(DataCenterTopology topo, BuildFatTree(ports));
  INDAAS_ASSIGN_OR_RETURN(DeviceId internet, topo.FindDevice("Internet"));
  const std::vector<std::string> cpus = {"XeonE5-2650", "XeonE5-2680", "EPYC-7302"};
  const std::vector<std::string> libcs = {"libc6=2.13", "libc6=2.14", "libc6=2.19"};
  DepDb db;
  for (DeviceId server : topo.DevicesOfType(DeviceType::kServer)) {
    const std::string& name = topo.device(server).name;
    std::vector<NetworkDependency> routes = topo.NetworkDependencies(server, internet, 64);
    rng.Shuffle(routes);
    routes.resize(std::min(routes.size(), routes_per_server));
    for (const NetworkDependency& route : routes) {
      db.Add(route);
    }
    db.Add(HardwareDependency{name, "CPU", cpus[rng.NextBelow(cpus.size())]});
    db.Add(SoftwareDependency{"riak", name, {libcs[rng.NextBelow(libcs.size())]}});
  }
  return db;
}

// Deployment `trial`: one server in each of pods 3·trial .. 3·trial+2
// (mod `ports`), at a random edge switch and slot.
inline std::vector<std::string> FatTreeShapeDeployment(uint32_t ports, int trial, Rng& rng) {
  std::vector<std::string> servers;
  for (uint32_t pod = 0; pod < 3; ++pod) {
    servers.push_back(StrFormat("pod%u-srv%u-%u", (trial * 3 + pod) % ports,
                                static_cast<uint32_t>(rng.NextBelow(ports / 2)),
                                static_cast<uint32_t>(rng.NextBelow(ports / 2))));
  }
  return servers;
}

}  // namespace indaas

#endif  // TESTS_FAT_TREE_SHAPE_H_
