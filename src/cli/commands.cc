#include "src/cli/commands.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <thread>

#include "src/acquire/apt_sim.h"
#include "src/acquire/lshw_sim.h"
#include "src/acquire/nsdminer_sim.h"
#include "src/agent/agent.h"
#include "src/agent/report_diff.h"
#include "src/deps/cvss.h"
#include "src/obs/export.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/trace_merge.h"
#include "src/graph/fault_graph.h"
#include "src/graph/serialize.h"
#include "src/net/chaos.h"
#include "src/net/socket.h"
#include "src/sia/builder.h"
#include "src/sia/importance.h"
#include "src/sia/whatif.h"
#include "src/svc/client.h"
#include "src/svc/pia_peer.h"
#include "src/svc/server.h"
#include "src/topology/case_study.h"
#include "src/topology/fat_tree.h"
#include "src/util/file.h"
#include "src/util/flags.h"
#include "src/util/strings.h"

namespace indaas {
namespace {

// "S1,S2;S3,S4" -> {{S1,S2},{S3,S4}}.
Result<std::vector<std::vector<std::string>>> ParseDeployments(const std::string& spec) {
  std::vector<std::vector<std::string>> out;
  for (const std::string& group : SplitAndTrim(spec, ';')) {
    std::vector<std::string> servers = SplitAndTrim(group, ',');
    if (servers.empty()) {
      return InvalidArgumentError("empty deployment in '" + spec + "'");
    }
    out.push_back(std::move(servers));
  }
  if (out.empty()) {
    return InvalidArgumentError("no deployments given (use --deployments=\"S1,S2;S1,S3\")");
  }
  return out;
}

// Builds the selected infrastructure and returns its topology plus the list
// of auditable server names.
Result<DataCenterTopology> BuildInfra(const std::string& infra,
                                      std::vector<std::string>* servers) {
  if (infra == "case6a") {
    INDAAS_ASSIGN_OR_RETURN(DataCenterTopology topo, BuildCaseStudyDatacenter(33, 1));
    for (uint32_t r = 1; r <= 33; ++r) {
      servers->push_back(StrFormat("rack%u-srv1", r));
    }
    return topo;
  }
  if (infra == "lab") {
    INDAAS_ASSIGN_OR_RETURN(DataCenterTopology topo, BuildLabCloud());
    for (int i = 1; i <= 4; ++i) {
      servers->push_back(StrFormat("Server%d", i));
    }
    return topo;
  }
  if (StartsWith(infra, "fat")) {
    char* end = nullptr;
    long ports = std::strtol(infra.c_str() + 3, &end, 10);
    if (*end != '\0' || ports < 4) {
      return InvalidArgumentError("bad fat-tree spec '" + infra + "' (use e.g. fat16)");
    }
    INDAAS_ASSIGN_OR_RETURN(DataCenterTopology topo,
                            BuildFatTree(static_cast<uint32_t>(ports)));
    // One server per pod keeps the default collection small.
    for (long p = 0; p < ports; ++p) {
      servers->push_back(StrFormat("pod%ld-srv0-0", p));
    }
    return topo;
  }
  return InvalidArgumentError("unknown --infra '" + infra + "' (case6a | lab | fat<k>)");
}

// Observability outputs shared by the audit-style commands.
struct ObsOutputs {
  std::string metrics_path;
  std::string trace_path;
};

void AddObsFlags(FlagSet& flags, ObsOutputs& obs) {
  flags.AddString("metrics-out", &obs.metrics_path,
                  "write a JSON metrics dump (counters/gauges/histograms/stages) here");
  flags.AddString("trace-out", &obs.trace_path,
                  "write a Chrome trace-event file (chrome://tracing, Perfetto) here");
}

// Arms the registry and span recorder for a fresh run. Tracing is needed for
// either output: the metrics dump's "stages" section aggregates spans.
void BeginObs(const ObsOutputs& out) {
  if (out.metrics_path.empty() && out.trace_path.empty()) {
    return;
  }
  obs::MetricsRegistry::Global().Reset();
  obs::TraceRecorder::Global().Reset();
  obs::TraceRecorder::Global().SetEnabled(true);
}

// Writes the requested dumps and prints the stage-timing table.
Status FinishObs(const ObsOutputs& out) {
  if (out.metrics_path.empty() && out.trace_path.empty()) {
    return Status::Ok();
  }
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.SetEnabled(false);
  std::vector<obs::SpanRecord> spans = recorder.Snapshot();
  std::vector<obs::StageStat> stages = obs::AggregateStages(spans);
  if (!out.metrics_path.empty()) {
    INDAAS_RETURN_IF_ERROR(WriteFile(
        out.metrics_path, obs::MetricsToJson(obs::MetricsRegistry::Global().Snapshot(), stages)));
  }
  if (!out.trace_path.empty()) {
    INDAAS_RETURN_IF_ERROR(WriteFile(out.trace_path, obs::SpansToChromeTrace(spans)));
  }
  if (!stages.empty()) {
    std::printf("\n%s", obs::RenderStageTable(stages).c_str());
  }
  if (!out.metrics_path.empty()) {
    std::printf("wrote metrics -> %s\n", out.metrics_path.c_str());
  }
  if (!out.trace_path.empty()) {
    std::printf("wrote Chrome trace (%zu spans) -> %s\n", spans.size(), out.trace_path.c_str());
  }
  if (recorder.dropped() > 0) {
    INDAAS_SLOG(Warn, "cli.spans_dropped").Kv("dropped", recorder.dropped());
  }
  return Status::Ok();
}

}  // namespace

Status RunCollectCommand(int argc, char** argv) {
  std::string infra = "case6a";
  std::string out_path = "depdb.txt";
  int64_t flows = 60;
  int64_t seed = 1;
  bool with_software = false;
  FlagSet flags;
  flags.AddString("infra", &infra, "infrastructure: case6a | lab | fat<k>");
  flags.AddString("out", &out_path, "output DepDB file (Table 1 format)");
  flags.AddInt("flows", &flows, "traffic flows per server for NSDMiner");
  flags.AddInt("seed", &seed, "RNG seed");
  flags.AddBool("with-software", &with_software, "install the Riak stack on every server");
  INDAAS_RETURN_IF_ERROR(flags.Parse(argc, argv));

  std::vector<std::string> servers;
  INDAAS_ASSIGN_OR_RETURN(DataCenterTopology topo, BuildInfra(infra, &servers));

  NsdMinerSim miner(3);
  LshwSim lshw;
  PackageUniverse universe = PackageUniverse::KeyValueStoreUniverse();
  AptRdependsSim apt(&universe);
  Rng rng(static_cast<uint64_t>(seed));
  for (const std::string& server : servers) {
    INDAAS_ASSIGN_OR_RETURN(
        std::vector<FlowRecord> generated,
        GenerateTraffic(topo, server, "Internet", static_cast<size_t>(flows), rng));
    miner.IngestFlows(generated);
    lshw.RegisterMachine(server, LshwSim::RandomSpec(rng));
    if (with_software) {
      INDAAS_RETURN_IF_ERROR(apt.InstallProgram(server, "riak"));
    }
  }
  DepDb db;
  std::vector<const DependencyAcquisitionModule*> modules = {&miner, &lshw};
  if (with_software) {
    modules.push_back(&apt);
  }
  INDAAS_RETURN_IF_ERROR(RunAcquisition(modules, servers, db));
  INDAAS_RETURN_IF_ERROR(WriteFile(out_path, db.ExportText()));
  std::printf("collected %zu records (%zu network, %zu hardware, %zu software) -> %s\n",
              db.TotalCount(), db.NetworkCount(), db.HardwareCount(), db.SoftwareCount(),
              out_path.c_str());
  return Status::Ok();
}

Status RunAuditCommand(int argc, char** argv) {
  std::string depdb_path;
  std::string baseline_path;
  std::string deployments_spec;
  std::string algorithm = "minimal";
  std::string metric = "size";
  std::string cvss_path;
  std::string remote;
  int64_t rounds = 100000;
  int64_t seed = 1;
  int64_t parallel = 1;
  FlagSet flags;
  flags.AddString("depdb", &depdb_path, "DepDB file to audit");
  flags.AddString("remote", &remote,
                  "audit on a remote `indaas serve` instance at host:port "
                  "(ships --depdb there first)");
  flags.AddString("baseline", &baseline_path, "older DepDB file; prints a regression diff");
  flags.AddString("deployments", &deployments_spec, "candidate deployments: \"S1,S2;S1,S3\"");
  flags.AddString("algorithm", &algorithm, "minimal | sampling");
  flags.AddString("metric", &metric, "size | prob");
  flags.AddString("cvss", &cvss_path, "optional CVSS feed file for software probabilities");
  flags.AddInt("rounds", &rounds, "sampling rounds");
  flags.AddInt("seed", &seed, "sampling seed");
  flags.AddInt("parallel", &parallel, "audit deployments concurrently on the compute pool if > 1");
  ObsOutputs obs_out;
  AddObsFlags(flags, obs_out);
  INDAAS_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (depdb_path.empty()) {
    return InvalidArgumentError("--depdb is required");
  }
  INDAAS_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> deployments,
                          ParseDeployments(deployments_spec));

  AuditSpecification spec;
  spec.candidate_deployments = std::move(deployments);
  if (algorithm == "sampling") {
    spec.algorithm = RgAlgorithm::kSampling;
  } else if (algorithm != "minimal") {
    return InvalidArgumentError("--algorithm must be minimal or sampling");
  }
  if (metric == "prob") {
    spec.metric = RankingMetric::kFailureProbability;
  } else if (metric != "size") {
    return InvalidArgumentError("--metric must be size or prob");
  }
  spec.sampling_rounds = static_cast<size_t>(rounds);
  spec.seed = static_cast<uint64_t>(seed);
  spec.parallel_deployments = static_cast<size_t>(std::max<int64_t>(1, parallel));

  if (!remote.empty()) {
    // Remote audits run against the server's agent; the options that
    // configure a local agent don't apply.
    if (!baseline_path.empty() || !cvss_path.empty()) {
      return InvalidArgumentError("--baseline and --cvss are not supported with --remote");
    }
    INDAAS_ASSIGN_OR_RETURN(net::Endpoint endpoint, net::ParseEndpoint(remote));
    INDAAS_ASSIGN_OR_RETURN(std::string text, ReadFile(depdb_path));
    BeginObs(obs_out);
    INDAAS_ASSIGN_OR_RETURN(svc::AuditClient client, svc::AuditClient::Connect(endpoint));
    INDAAS_ASSIGN_OR_RETURN(svc::ImportAck ack, client.ImportDepDb(text));
    std::printf("imported DepDB into %s (%llu network, %llu hardware, %llu software)\n",
                endpoint.ToString().c_str(), static_cast<unsigned long long>(ack.network),
                static_cast<unsigned long long>(ack.hardware),
                static_cast<unsigned long long>(ack.software));
    INDAAS_ASSIGN_OR_RETURN(SiaAuditReport report, client.AuditStructural(spec));
    std::printf("%s", RenderSiaReport(report).c_str());
    return FinishObs(obs_out);
  }

  FailureProbabilityModel model = FailureProbabilityModel::GillEtAlDefaults();
  if (!cvss_path.empty()) {
    INDAAS_ASSIGN_OR_RETURN(std::string feed, ReadFile(cvss_path));
    INDAAS_RETURN_IF_ERROR(LoadCvssFeed(feed, model));
  }

  auto run_audit = [&](const std::string& path) -> Result<SiaAuditReport> {
    AuditingAgent agent;
    agent.SetProbabilityModel(&model);
    INDAAS_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
    INDAAS_RETURN_IF_ERROR(agent.depdb().ImportText(text));
    return agent.AuditStructural(spec);
  };

  BeginObs(obs_out);
  INDAAS_ASSIGN_OR_RETURN(SiaAuditReport report, run_audit(depdb_path));
  std::printf("%s", RenderSiaReport(report).c_str());
  if (!baseline_path.empty()) {
    INDAAS_ASSIGN_OR_RETURN(SiaAuditReport baseline, run_audit(baseline_path));
    AuditDiff diff = DiffSiaReports(baseline, report);
    std::printf("\n=== changes since baseline ===\n%s", RenderAuditDiff(diff).c_str());
  }
  return FinishObs(obs_out);
}

Status RunDotCommand(int argc, char** argv) {
  std::string depdb_path;
  std::string deployment_spec;
  FlagSet flags;
  flags.AddString("depdb", &depdb_path, "DepDB file");
  flags.AddString("deployment", &deployment_spec, "servers, e.g. \"S1,S2\"");
  INDAAS_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (depdb_path.empty() || deployment_spec.empty()) {
    return InvalidArgumentError("--depdb and --deployment are required");
  }
  DepDb db;
  INDAAS_ASSIGN_OR_RETURN(std::string text, ReadFile(depdb_path));
  INDAAS_RETURN_IF_ERROR(db.ImportText(text));
  std::vector<std::string> servers = SplitAndTrim(deployment_spec, ',');
  INDAAS_ASSIGN_OR_RETURN(FaultGraph graph, BuildDeploymentFaultGraph(db, servers));
  std::printf("%s", graph.ToDot("deployment").c_str());
  return Status::Ok();
}

Status RunGraphCommand(int argc, char** argv) {
  std::string depdb_path;
  std::string deployment_spec;
  std::string out_path;
  FlagSet flags;
  flags.AddString("depdb", &depdb_path, "DepDB file");
  flags.AddString("deployment", &deployment_spec, "servers, e.g. \"S1,S2\"");
  flags.AddString("out", &out_path, "output fault-graph file (stdout if empty)");
  INDAAS_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (depdb_path.empty() || deployment_spec.empty()) {
    return InvalidArgumentError("--depdb and --deployment are required");
  }
  DepDb db;
  INDAAS_ASSIGN_OR_RETURN(std::string text, ReadFile(depdb_path));
  INDAAS_RETURN_IF_ERROR(db.ImportText(text));
  std::vector<std::string> servers = SplitAndTrim(deployment_spec, ',');
  INDAAS_ASSIGN_OR_RETURN(FaultGraph graph, BuildDeploymentFaultGraph(db, servers));
  INDAAS_ASSIGN_OR_RETURN(std::string serialized, SerializeFaultGraph(graph));
  if (out_path.empty()) {
    std::printf("%s", serialized.c_str());
  } else {
    INDAAS_RETURN_IF_ERROR(WriteFile(out_path, serialized));
    std::printf("wrote %zu-node fault graph -> %s\n", graph.NodeCount(), out_path.c_str());
  }
  return Status::Ok();
}

Status RunWhatIfCommand(int argc, char** argv) {
  std::string graph_path;
  std::string fail_spec;
  FlagSet flags;
  flags.AddString("graph", &graph_path, "fault-graph file (from `indaas graph`)");
  flags.AddString("fail", &fail_spec, "components to fail, comma separated");
  INDAAS_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (graph_path.empty()) {
    return InvalidArgumentError("--graph is required");
  }
  INDAAS_ASSIGN_OR_RETURN(std::string text, ReadFile(graph_path));
  INDAAS_ASSIGN_OR_RETURN(FaultGraph graph, ParseFaultGraph(text));
  INDAAS_ASSIGN_OR_RETURN(WhatIfResult result,
                          SimulateFailures(graph, SplitAndTrim(fail_spec, ',')));
  std::printf("deployment %s\n", result.top_event_failed ? "FAILS" : "survives");
  for (const std::string& event : result.failed_events) {
    std::printf("  failed: %s\n", event.c_str());
  }
  return Status::Ok();
}

Status RunImportanceCommand(int argc, char** argv) {
  std::string graph_path;
  double default_prob = 0.01;
  FlagSet flags;
  flags.AddString("graph", &graph_path, "fault-graph file (from `indaas graph`)");
  flags.AddDouble("default-prob", &default_prob, "probability for unweighted events");
  INDAAS_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (graph_path.empty()) {
    return InvalidArgumentError("--graph is required");
  }
  INDAAS_ASSIGN_OR_RETURN(std::string text, ReadFile(graph_path));
  INDAAS_ASSIGN_OR_RETURN(FaultGraph graph, ParseFaultGraph(text));
  INDAAS_ASSIGN_OR_RETURN(MinimalRgResult groups, ComputeMinimalRiskGroups(graph));
  ImportanceOptions options;
  options.default_prob = default_prob;
  INDAAS_ASSIGN_OR_RETURN(std::vector<ComponentImportance> ranked,
                          RankComponentImportance(graph, groups.groups, options));
  std::printf("%-40s %6s %10s %12s\n", "component", "in-RGs", "Birnbaum", "criticality");
  for (const ComponentImportance& entry : ranked) {
    std::printf("%-40s %6zu %10.4f %12.4f\n", entry.name.c_str(), entry.rg_memberships,
                entry.birnbaum, entry.criticality);
  }
  return Status::Ok();
}

Status RunPiaCommand(int argc, char** argv) {
  std::string sets_path;
  std::string depdbs_spec;
  std::string peers_spec;
  std::string method_name;
  bool minhash = false;
  bool all_pairs = false;
  bool allow_degraded = false;
  int64_t m = 256;
  int64_t sketch_k = 256;
  int64_t lsh_bands = 64;
  int64_t lsh_rows = 4;
  int64_t top = 10;
  int64_t self_index = 0;
  int64_t seed = 1;
  int64_t group_bits = 768;
  int64_t max_redundancy = 3;
  int64_t parallel = 1;
  FlagSet flags;
  flags.AddString("sets", &sets_path, "provider file: '<name>: c1, c2, ...' per line");
  flags.AddString("depdbs", &depdbs_spec,
                  "providers from DepDB files: \"Cloud1=a.txt;Cloud2=b.txt\" "
                  "(normalized per §4.2.3)");
  flags.AddString("peers", &peers_spec,
                  "socket mode: the P-SOP ring as \"hostA:p1,hostB:p2,...\" "
                  "(one `indaas pia` process per peer)");
  flags.AddString("method", &method_name,
                  "exact | minhash | sketch (sketch ships MinHash registers "
                  "instead of running encrypted P-SOP)");
  flags.AddBool("minhash", &minhash, "MinHash-compress sets before P-SOP (alias "
                "for --method=minhash)");
  flags.AddBool("all-pairs", &all_pairs,
                "rank every provider pair via sketches + LSH banding "
                "(DESIGN.md §8; in-process mode only)");
  flags.AddBool("allow-degraded", &allow_degraded,
                "socket mode: survive peer deaths by reforming the ring among "
                "the survivors and returning a partial (degraded) result");
  flags.AddInt("m", &m, "MinHash sample size");
  flags.AddInt("sketch-k", &sketch_k, "registers per sketch (--method=sketch / --all-pairs)");
  flags.AddInt("lsh-bands", &lsh_bands, "LSH bands for --all-pairs candidate generation");
  flags.AddInt("lsh-rows", &lsh_rows, "LSH rows per band for --all-pairs");
  flags.AddInt("top", &top, "riskiest pairs to keep in the --all-pairs report (0 = all)");
  flags.AddInt("self", &self_index, "socket mode: this peer's index into --peers");
  flags.AddInt("seed", &seed,
               "shared session seed (socket key material and sketch permutations)");
  flags.AddInt("group-bits", &group_bits, "commutative group bits");
  flags.AddInt("max-redundancy", &max_redundancy, "largest deployment size to rank");
  flags.AddInt("parallel", &parallel,
               "run protocol instances concurrently on the compute pool if > 1");
  ObsOutputs obs_out;
  AddObsFlags(flags, obs_out);
  INDAAS_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (sets_path.empty() == depdbs_spec.empty()) {
    return InvalidArgumentError("exactly one of --sets or --depdbs is required");
  }
  PiaMethod method = minhash ? PiaMethod::kPsopMinHash : PiaMethod::kPsopExact;
  if (!method_name.empty()) {
    if (method_name == "exact") {
      method = PiaMethod::kPsopExact;
    } else if (method_name == "minhash") {
      method = PiaMethod::kPsopMinHash;
    } else if (method_name == "sketch") {
      method = PiaMethod::kSketch;
    } else {
      return InvalidArgumentError("--method must be exact, minhash or sketch (got '" +
                                  method_name + "')");
    }
  }
  if (sketch_k < 1 || sketch_k > kMaxSketchK) {
    return InvalidArgumentError(
        StrFormat("--sketch-k=%lld is outside [1, %u]",
                  static_cast<long long>(sketch_k), kMaxSketchK));
  }
  if (lsh_bands < 0 || lsh_bands > UINT16_MAX || lsh_rows < 0 || lsh_rows > UINT16_MAX) {
    return InvalidArgumentError("--lsh-bands/--lsh-rows must be in [0, 65535]");
  }
  std::vector<CloudProvider> providers;
  if (!sets_path.empty()) {
    INDAAS_ASSIGN_OR_RETURN(std::string text, ReadFile(sets_path));
    for (const std::string& raw_line : Split(text, '\n')) {
      std::string_view line = Trim(raw_line);
      if (line.empty() || line.front() == '#') {
        continue;
      }
      size_t colon = line.find(':');
      if (colon == std::string_view::npos) {
        return ParseError("provider line missing ':' — " + std::string(line));
      }
      CloudProvider provider;
      provider.name = std::string(Trim(line.substr(0, colon)));
      provider.components = SplitAndTrim(line.substr(colon + 1), ',');
      providers.push_back(std::move(provider));
    }
  } else {
    for (const std::string& entry : SplitAndTrim(depdbs_spec, ';')) {
      size_t eq = entry.find('=');
      if (eq == std::string::npos) {
        return InvalidArgumentError("--depdbs entries must be '<name>=<file>': " + entry);
      }
      DepDb db;
      INDAAS_ASSIGN_OR_RETURN(std::string text, ReadFile(entry.substr(eq + 1)));
      INDAAS_RETURN_IF_ERROR(db.ImportText(text));
      providers.push_back(MakeProviderFromDepDb(entry.substr(0, eq), db));
    }
  }
  if (!peers_spec.empty()) {
    // Socket mode: this process is ring peer `self` and audits its own
    // provider set against the others over TCP.
    if (all_pairs) {
      return InvalidArgumentError(
          "--all-pairs is the in-process auditor view; drop --peers to use it");
    }
    if (method == PiaMethod::kPsopMinHash) {
      return InvalidArgumentError(
          "--method=minhash is in-process only; socket rings run exact or sketch");
    }
    INDAAS_ASSIGN_OR_RETURN(std::vector<net::Endpoint> peers,
                            net::ParseEndpointList(peers_spec));
    if (peers.size() < 2) {
      return InvalidArgumentError("--peers needs at least two ring endpoints");
    }
    if (self_index < 0 || static_cast<size_t>(self_index) >= peers.size()) {
      return InvalidArgumentError(
          StrFormat("--self=%lld is out of the %zu-peer ring",
                    static_cast<long long>(self_index), peers.size()));
    }
    if (static_cast<size_t>(self_index) >= providers.size()) {
      return InvalidArgumentError(
          StrFormat("--self=%lld has no provider line in %s",
                    static_cast<long long>(self_index), sets_path.c_str()));
    }
    svc::PiaPeerOptions peer_options;
    peer_options.peers = std::move(peers);
    peer_options.self_index = static_cast<size_t>(self_index);
    peer_options.psop.group_bits = static_cast<size_t>(group_bits);
    peer_options.psop.seed = static_cast<uint64_t>(seed);
    peer_options.sketch_k = static_cast<uint32_t>(sketch_k);
    peer_options.allow_degraded = allow_degraded;
    const CloudProvider& self_provider = providers[static_cast<size_t>(self_index)];
    BeginObs(obs_out);
    INDAAS_ASSIGN_OR_RETURN(
        svc::PiaPeer peer,
        svc::PiaPeer::Listen(peer_options.peers[peer_options.self_index].port));
    const bool sketch_session = method == PiaMethod::kSketch;
    std::printf("peer %lld/%zu (%s) listening on port %u, running %s...\n",
                static_cast<long long>(self_index), peer_options.peers.size(),
                self_provider.name.c_str(), peer.listen_port(),
                sketch_session ? "sketch exchange" : "P-SOP");
    INDAAS_ASSIGN_OR_RETURN(
        PsopResult result,
        sketch_session ? peer.RunPsopWithSketch(self_provider.components, peer_options)
                       : peer.RunPsop(self_provider.components, peer_options));
    const PartyStats& stats = result.party_stats[peer_options.self_index];
    if (result.degraded()) {
      // Make a partial answer impossible to mistake for a full one: name the
      // peers whose sets the overlap estimate does NOT cover.
      std::string excluded_list;
      for (uint32_t excluded_peer : result.excluded) {
        if (!excluded_list.empty()) {
          excluded_list += ",";
        }
        excluded_list += StrFormat("%u", excluded_peer);
      }
      std::printf(
          "DEGRADED result: ring reformed %u time(s); peers {%s} excluded — "
          "the overlap below does not cover their sets\n",
          result.recovery_attempts, excluded_list.c_str());
    }
    std::printf("jaccard=%.6f intersection=%zu union=%zu\n", result.jaccard,
                result.intersection, result.union_size);
    std::printf("self: %.3fs compute, %zu encrypt ops, %zu B sent, %zu B received\n",
                stats.compute_seconds, stats.encrypt_ops, stats.bytes_sent,
                stats.bytes_received);
    return FinishObs(obs_out);
  }

  if (all_pairs) {
    // Provider-scale view: sketch every provider once, let LSH banding
    // nominate the candidate pairs, report the least independent first.
    PiaAllPairsOptions ap_options;
    ap_options.sketch.k = static_cast<uint32_t>(sketch_k);
    ap_options.sketch.seed = static_cast<uint64_t>(seed);
    ap_options.lsh.bands = static_cast<uint32_t>(lsh_bands);
    ap_options.lsh.rows = static_cast<uint32_t>(lsh_rows);
    ap_options.top = static_cast<size_t>(std::max<int64_t>(0, top));
    BeginObs(obs_out);
    INDAAS_ASSIGN_OR_RETURN(PiaAllPairsReport report,
                            RunAllPairsPiaAudit(providers, ap_options));
    std::printf("%s", RenderAllPairsReport(report).c_str());
    return FinishObs(obs_out);
  }

  PiaAuditOptions options;
  options.method = method;
  options.minhash_m = static_cast<size_t>(m);
  options.sketch_k = static_cast<uint32_t>(sketch_k);
  options.psop.group_bits = static_cast<size_t>(group_bits);
  options.psop.seed = static_cast<uint64_t>(seed);
  options.max_redundancy =
      static_cast<uint32_t>(std::min<int64_t>(max_redundancy, providers.size()));
  options.parallel_deployments = static_cast<size_t>(std::max<int64_t>(1, parallel));
  BeginObs(obs_out);
  AuditingAgent agent;
  INDAAS_ASSIGN_OR_RETURN(PiaAuditReport report, agent.AuditPrivate(providers, options));
  std::printf("%s", RenderPiaReport(report).c_str());
  return FinishObs(obs_out);
}

Status RunStatsCommand(int argc, char** argv) {
  std::string remote;
  std::string format = "text";
  FlagSet flags;
  flags.AddString("remote", &remote, "the `indaas serve` instance to scrape, host:port");
  flags.AddString("format", &format, "text | prometheus | json");
  INDAAS_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (remote.empty()) {
    return InvalidArgumentError("--remote is required (e.g. --remote=localhost:7341)");
  }
  if (format != "text" && format != "prometheus" && format != "json") {
    return InvalidArgumentError("--format must be text, prometheus or json");
  }
  INDAAS_ASSIGN_OR_RETURN(net::Endpoint endpoint, net::ParseEndpoint(remote));
  INDAAS_ASSIGN_OR_RETURN(svc::AuditClient client, svc::AuditClient::Connect(endpoint));
  INDAAS_ASSIGN_OR_RETURN(svc::HealthStatus health, client.Health());
  INDAAS_ASSIGN_OR_RETURN(svc::ServerStats stats, client.GetStats());
  if (format == "prometheus") {
    std::printf("%s", obs::MetricsToPrometheus(stats.metrics).c_str());
    std::printf("# TYPE indaas_server_serving gauge\nindaas_server_serving %d\n",
                health.serving ? 1 : 0);
    std::printf("# TYPE indaas_server_uptime_seconds gauge\nindaas_server_uptime_seconds %.3f\n",
                static_cast<double>(stats.uptime_us) / 1e6);
    std::printf("# TYPE indaas_server_depdb_records gauge\nindaas_server_depdb_records %llu\n",
                static_cast<unsigned long long>(stats.depdb_records));
    return Status::Ok();
  }
  if (format == "json") {
    std::printf("%s", obs::MetricsToJson(stats.metrics).c_str());
    return Status::Ok();
  }
  std::printf("%s: %s, up %.1f s, %llu DepDB records\n", endpoint.ToString().c_str(),
              health.serving ? "serving" : "NOT serving",
              static_cast<double>(stats.uptime_us) / 1e6,
              static_cast<unsigned long long>(stats.depdb_records));
  std::printf("%s", obs::RenderMetricsText(stats.metrics).c_str());
  return Status::Ok();
}

Status RunDebugCommand(int argc, char** argv) {
  std::string remote;
  int64_t events = 32;
  int64_t top = 10;
  FlagSet flags;
  flags.AddString("remote", &remote, "the `indaas serve` instance to introspect, host:port");
  flags.AddInt("events", &events, "recent flight-recorder events to show");
  flags.AddInt("top", &top, "slowest retained RPCs to show");
  INDAAS_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (remote.empty()) {
    return InvalidArgumentError("--remote is required (e.g. --remote=localhost:7341)");
  }
  INDAAS_ASSIGN_OR_RETURN(net::Endpoint endpoint, net::ParseEndpoint(remote));
  INDAAS_ASSIGN_OR_RETURN(svc::AuditClient client, svc::AuditClient::Connect(endpoint));
  INDAAS_ASSIGN_OR_RETURN(svc::DebugInfo info, client.GetDebugInfo());

  std::printf("%s: up %.1f s, %llu in flight\n", endpoint.ToString().c_str(),
              static_cast<double>(info.uptime_us) / 1e6,
              static_cast<unsigned long long>(info.inflight_global));
  if (!info.shards.empty()) {
    std::printf("shards (%zu):\n", info.shards.size());
    for (const svc::DebugShard& shard : info.shards) {
      std::printf("  shard %u: %llu conns, %llu in flight%s\n", shard.index,
                  static_cast<unsigned long long>(shard.connections),
                  static_cast<unsigned long long>(shard.inflight),
                  shard.has_listener ? ", listening" : "");
    }
  }
  if (!info.connections.empty()) {
    std::printf("connections (%zu):\n", info.connections.size());
    for (const svc::DebugConnection& conn : info.connections) {
      std::printf(
          "  conn %llu shard=%u age=%.1fs in_buf=%lluB out_buf=%lluB inflight=%llu"
          " oldest_pending=%.3fs\n",
          static_cast<unsigned long long>(conn.id), conn.shard,
          static_cast<double>(conn.age_us) / 1e6,
          static_cast<unsigned long long>(conn.in_buffer_bytes),
          static_cast<unsigned long long>(conn.write_buffer_bytes),
          static_cast<unsigned long long>(conn.inflight),
          static_cast<double>(conn.oldest_pending_us) / 1e6);
    }
  }
  size_t event_count = std::min(info.events.size(), static_cast<size_t>(std::max<int64_t>(0, events)));
  if (event_count > 0) {
    std::printf("recent flight-recorder events (%zu of %zu):\n", event_count,
                info.events.size());
    for (size_t i = info.events.size() - event_count; i < info.events.size(); ++i) {
      const svc::DebugFlightEvent& e = info.events[i];
      std::printf("  t=%llu tid=%u %s a=%llu b=%llu code=%u",
                  static_cast<unsigned long long>(e.t_us), e.tid,
                  obs::FlightEventTypeName(static_cast<obs::FlightEventType>(e.type)),
                  static_cast<unsigned long long>(e.a), static_cast<unsigned long long>(e.b),
                  e.code);
      if (e.trace_id != 0) {
        std::printf(" trace=%llu", static_cast<unsigned long long>(e.trace_id));
      }
      std::printf("\n");
    }
  }
  size_t slow_count = std::min(info.slowest.size(), static_cast<size_t>(std::max<int64_t>(0, top)));
  if (slow_count > 0) {
    std::printf("slowest retained RPCs (%zu of %zu):\n", slow_count, info.slowest.size());
    for (size_t i = 0; i < slow_count; ++i) {
      const svc::DebugSlowRpc& rpc = info.slowest[i];
      std::printf("  %-12s %8.3f ms  %s%s conn=%llu req=%llu",
                  svc::MsgTypeName(static_cast<svc::MsgType>(rpc.rpc_type)),
                  rpc.total_s * 1e3,
                  obs::TailOutcomeName(static_cast<obs::TailOutcome>(rpc.outcome)),
                  rpc.ok ? "" : " (error)", static_cast<unsigned long long>(rpc.conn_id),
                  static_cast<unsigned long long>(rpc.request_id));
      if (rpc.trace_id != 0) {
        std::printf(" trace=%llu", static_cast<unsigned long long>(rpc.trace_id));
      }
      std::printf("\n    stages:");
      for (int s = 0; s < 6; ++s) {
        std::printf(" %s=%.3fms", obs::RpcStageName(static_cast<obs::RpcStage>(s)),
                    rpc.stage_s[s] * 1e3);
      }
      std::printf("\n");
    }
  }
  return Status::Ok();
}

Status RunProfileCommand(int argc, char** argv) {
  std::string remote;
  int64_t seconds = 5;
  int64_t hz = 99;
  bool alloc = true;
  std::string out_path;
  std::string format = "dump";
  FlagSet flags;
  flags.AddString("remote", &remote, "the `indaas serve` instance to profile, host:port");
  flags.AddInt("seconds", &seconds, "capture window length (1..60)");
  flags.AddInt("hz", &hz, "CPU sampling frequency (1..1000)");
  flags.AddBool("alloc", &alloc, "also capture allocation samples");
  flags.AddString("out", &out_path, "write the profile here (empty = stdout)");
  flags.AddString("format", &format,
                  "dump (symbolizable text for tools/symbolize_profile.py) | "
                  "collapsed (flamegraph.pl input, CPU samples, raw addresses) | "
                  "collapsed-alloc (flamegraph.pl input, allocation samples, "
                  "byte-weighted) | "
                  "chrome (trace-event JSON, feeds trace-merge)");
  INDAAS_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (remote.empty()) {
    return InvalidArgumentError("--remote is required (e.g. --remote=localhost:7341)");
  }
  if (format != "dump" && format != "collapsed" && format != "collapsed-alloc" &&
      format != "chrome") {
    return InvalidArgumentError(
        "--format must be dump, collapsed, collapsed-alloc or chrome");
  }
  if (format == "collapsed-alloc" && !alloc) {
    return InvalidArgumentError("--format=collapsed-alloc requires --alloc=1");
  }
  if (seconds < 1 || seconds > svc::kMaxProfileSeconds) {
    return InvalidArgumentError(StrFormat("--seconds must be in [1, %u]",
                                          svc::kMaxProfileSeconds));
  }
  if (hz < 1 || hz > svc::kMaxProfileHz) {
    return InvalidArgumentError(StrFormat("--hz must be in [1, %u]", svc::kMaxProfileHz));
  }
  INDAAS_ASSIGN_OR_RETURN(net::Endpoint endpoint, net::ParseEndpoint(remote));
  INDAAS_ASSIGN_OR_RETURN(svc::AuditClient client, svc::AuditClient::Connect(endpoint));
  svc::ProfileRequest request;
  request.hz = static_cast<uint32_t>(hz);
  request.seconds = static_cast<uint32_t>(seconds);
  request.alloc = alloc;
  std::fprintf(stderr, "profiling %s for %lld s at %lld Hz...\n", remote.c_str(),
               static_cast<long long>(seconds), static_cast<long long>(hz));
  INDAAS_ASSIGN_OR_RETURN(svc::ProfileReply reply, client.GetProfile(request));

  std::string output;
  if (format == "dump") {
    output = std::move(reply.dump);
  } else {
    obs::ProfileData data;
    if (!obs::ParseProfileDumpText(reply.dump, &data)) {
      return ProtocolError("server returned an unparseable profile dump");
    }
    if (format == "collapsed") {
      output = obs::ProfileToCollapsed(data, /*alloc=*/false);
    } else if (format == "collapsed-alloc") {
      output = obs::ProfileToCollapsed(data, /*alloc=*/true);
    } else {
      output = obs::ProfileToChromeTrace(data);
    }
  }
  if (out_path.empty()) {
    std::printf("%s", output.c_str());
    return Status::Ok();
  }
  INDAAS_RETURN_IF_ERROR(WriteFile(out_path, output));
  obs::ProfileData parsed;
  if (obs::ParseProfileDumpText(reply.dump, &parsed)) {
    std::printf("captured %zu samples (%llu dropped, %llu truncated) over %.1f s -> %s\n",
                parsed.samples.size(), static_cast<unsigned long long>(parsed.dropped),
                static_cast<unsigned long long>(parsed.truncated_stacks),
                static_cast<double>(parsed.end_us - parsed.start_us) / 1e6, out_path.c_str());
    if (format == "dump") {
      std::printf("symbolize: python3 tools/symbolize_profile.py %s\n", out_path.c_str());
    }
  } else {
    std::printf("wrote %zu bytes -> %s\n", output.size(), out_path.c_str());
  }
  return Status::Ok();
}

Status RunTraceMergeCommand(int argc, char** argv) {
  // Positional inputs plus an optional --out: parsed by hand because the
  // FlagSet grammar is flags-only.
  std::string out_path;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (StartsWith(arg, "--out=")) {
      out_path = std::string(arg.substr(6));
    } else if (StartsWith(arg, "--")) {
      return InvalidArgumentError("unknown flag '" + std::string(arg) +
                                  "' (usage: trace-merge [--out=merged.json] a.json b.json ...)");
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.size() < 2) {
    return InvalidArgumentError("trace-merge needs at least two per-process trace files");
  }
  std::vector<obs::ProcessTrace> traces;
  traces.reserve(inputs.size());
  for (const std::string& path : inputs) {
    INDAAS_ASSIGN_OR_RETURN(std::string json, ReadFile(path));
    INDAAS_ASSIGN_OR_RETURN(obs::ProcessTrace trace, obs::ParseChromeTrace(json, path));
    traces.push_back(std::move(trace));
  }
  INDAAS_ASSIGN_OR_RETURN(std::string merged, obs::MergeChromeTraces(traces));
  if (out_path.empty()) {
    std::printf("%s", merged.c_str());
    return Status::Ok();
  }
  INDAAS_RETURN_IF_ERROR(WriteFile(out_path, merged));
  size_t spans = 0;
  for (const obs::ProcessTrace& trace : traces) {
    spans += trace.events.size();
  }
  std::printf("merged %zu spans from %zu processes -> %s\n", spans, traces.size(),
              out_path.c_str());
  return Status::Ok();
}

namespace {
// SIGINT/SIGTERM flip this; the serve loop polls it.
std::atomic<bool> g_serve_interrupted{false};
void HandleServeSignal(int) { g_serve_interrupted.store(true); }
}  // namespace

Status RunServeCommand(int argc, char** argv) {
  int64_t port = 7341;
  int64_t threads = 4;
  int64_t reactor_shards = 2;
  int64_t max_inflight = 256;
  int64_t max_inflight_per_conn = 64;
  int64_t backlog = 128;
  int64_t read_deadline_ms = 10000;
  int64_t slow_rpc_ms = 100;
  std::string admission = "adaptive";
  int64_t target_queue_delay_ms = 5;
  int64_t profile_hz = 0;
  std::string depdb_path;
  std::string cvss_path;
  std::string flight_dump;
  FlagSet flags;
  flags.AddInt("port", &port, "TCP port to listen on (0 picks a free port)");
  flags.AddInt("threads", &threads, "worker threads serving requests");
  flags.AddInt("reactor-shards", &reactor_shards, "epoll reactor shards");
  flags.AddInt("max-inflight", &max_inflight,
               "global in-flight request cap before shedding with UNAVAILABLE");
  flags.AddInt("max-inflight-per-conn", &max_inflight_per_conn,
               "per-connection in-flight request cap (pipelining window)");
  flags.AddInt("backlog", &backlog, "listen(2) backlog for every listener");
  flags.AddInt("read-deadline-ms", &read_deadline_ms,
               "drop connections stalled mid-frame for this long");
  flags.AddInt("slow-rpc-ms", &slow_rpc_ms,
               "RPCs slower than this keep their stage breakdown for `indaas debug`"
               " (0 = sheds/errors only)");
  flags.AddString("admission", &admission,
                  "adaptive (CoDel-style shedding on standing queue delay; the "
                  "in-flight caps stay as hard ceilings) or fixed (caps only)");
  flags.AddInt("target-queue-delay-ms", &target_queue_delay_ms,
               "adaptive admission: dispatch->worker queue-delay target");
  flags.AddInt("profile-hz", &profile_hz,
               "continuous profiling: sample registered threads at this frequency for the"
               " server's lifetime (0 = off; `indaas profile` then runs its own window)");
  flags.AddString("depdb", &depdb_path, "preload this DepDB file before serving");
  flags.AddString("cvss", &cvss_path, "optional CVSS feed file for software probabilities");
  flags.AddString("flight-dump", &flight_dump,
                  "install SIGUSR2/crash handlers dumping the flight recorder to this file"
                  " (empty = handlers not installed)");
  ObsOutputs obs_out;
  AddObsFlags(flags, obs_out);
  INDAAS_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (port < 0 || port > 65535) {
    return InvalidArgumentError(StrFormat("--port=%lld is not a TCP port",
                                          static_cast<long long>(port)));
  }
  if (admission != "adaptive" && admission != "fixed") {
    return InvalidArgumentError("--admission must be 'adaptive' or 'fixed'");
  }
  if (target_queue_delay_ms < 1) {
    return InvalidArgumentError("--target-queue-delay-ms must be at least 1");
  }
  if (profile_hz < 0 || profile_hz > svc::kMaxProfileHz) {
    return InvalidArgumentError(StrFormat("--profile-hz must be in [0, %u]",
                                          svc::kMaxProfileHz));
  }

  svc::AuditServerOptions options;
  options.port = static_cast<uint16_t>(port);
  options.worker_threads = static_cast<size_t>(std::max<int64_t>(1, threads));
  options.reactor_shards = static_cast<size_t>(std::max<int64_t>(1, reactor_shards));
  options.max_inflight_global = static_cast<size_t>(std::max<int64_t>(1, max_inflight));
  options.max_inflight_per_connection =
      static_cast<size_t>(std::max<int64_t>(1, max_inflight_per_conn));
  options.listen_backlog = static_cast<int>(std::max<int64_t>(1, backlog));
  options.read_deadline_ms = static_cast<int>(read_deadline_ms);
  options.slow_rpc_threshold_s = static_cast<double>(slow_rpc_ms) / 1e3;
  // The CLI server defaults to adaptive admission (an operator-facing server
  // should push back before its queue is seconds deep); the library default
  // stays fixed for embedded/bench determinism.
  options.adaptive_admission = admission == "adaptive";
  options.target_queue_delay_s = static_cast<double>(target_queue_delay_ms) / 1e3;
  options.profile_hz = static_cast<uint32_t>(profile_hz);
  svc::AuditServer server(options);
  if (profile_hz > 0) {
    // The serve loop itself is mostly asleep, but registering it makes the
    // main thread visible in continuous profiles (signal handling, shutdown).
    obs::Profiler::Global().RegisterCurrentThread();
    std::printf("continuous profiling at %lld Hz; capture windows with "
                "`indaas profile --remote=localhost:%lld`\n",
                static_cast<long long>(profile_hz), static_cast<long long>(port));
  }

  if (!flight_dump.empty()) {
    obs::InstallFlightRecorderSignalHandlers(flight_dump);
    std::printf("flight recorder: kill -USR2 %d dumps to %s (crashes dump there too)\n",
                static_cast<int>(::getpid()), flight_dump.c_str());
  }

  // The probability model must outlive the server's agent.
  FailureProbabilityModel model = FailureProbabilityModel::GillEtAlDefaults();
  if (!cvss_path.empty()) {
    INDAAS_ASSIGN_OR_RETURN(std::string feed, ReadFile(cvss_path));
    INDAAS_RETURN_IF_ERROR(LoadCvssFeed(feed, model));
    server.agent().SetProbabilityModel(&model);
  }
  if (!depdb_path.empty()) {
    INDAAS_ASSIGN_OR_RETURN(std::string text, ReadFile(depdb_path));
    INDAAS_RETURN_IF_ERROR(server.agent().depdb().ImportText(text));
    std::printf("preloaded %zu DepDB records from %s\n",
                server.agent().depdb().TotalCount(), depdb_path.c_str());
  }

  BeginObs(obs_out);
  INDAAS_RETURN_IF_ERROR(server.Start());
  std::printf(
      "indaas audit server listening on port %u (%zu reactor shards, %zu workers); "
      "Ctrl-C to stop\n",
      server.port(), server.reactor_shards(), options.worker_threads);
  std::fflush(stdout);
  g_serve_interrupted.store(false);
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  while (!g_serve_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::printf("shutting down...\n");
  server.Stop();
  return FinishObs(obs_out);
}

int RunCli(int argc, char** argv) {
  // --log-level, --log-format and --chaos-plan are global: valid anywhere on
  // the command line, consumed here so the per-command flag parsers never see
  // them.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (StartsWith(arg, "--chaos-plan=")) {
      // Deterministic fault injection (src/net/chaos.h): every socket this
      // process opens — server, client or PIA ring — runs under the plan.
      Result<net::chaos::FaultPlan> plan = net::chaos::ParseFaultPlan(arg.substr(13));
      if (!plan.ok()) {
        std::fprintf(stderr, "bad --chaos-plan: %s\n", plan.status().ToString().c_str());
        return 2;
      }
      net::chaos::InstallPlan(*plan);
      if (plan->active()) {
        std::fprintf(stderr, "chaos plan installed: %s\n",
                     net::chaos::FaultPlanToString(*plan).c_str());
      }
    } else if (StartsWith(arg, "--log-level=")) {
      std::string_view value = arg.substr(12);
      obs::Logger& logger = obs::Logger::Global();
      if (value == "debug") {
        logger.SetMinSeverity(obs::LogSeverity::kDebug);
      } else if (value == "info") {
        logger.SetMinSeverity(obs::LogSeverity::kInfo);
      } else if (value == "warning") {
        logger.SetMinSeverity(obs::LogSeverity::kWarn);
      } else if (value == "error") {
        logger.SetMinSeverity(obs::LogSeverity::kError);
      } else {
        std::fprintf(stderr, "bad --log-level '%s' (debug | info | warning | error)\n",
                     std::string(value).c_str());
        return 2;
      }
    } else if (StartsWith(arg, "--log-format=")) {
      std::string_view value = arg.substr(13);
      if (value == "json") {
        obs::Logger::Global().SetSink(std::make_shared<obs::JsonLogSink>(stderr));
      } else if (value == "text") {
        obs::Logger::Global().SetSink(nullptr);  // restores the stderr text sink
      } else {
        std::fprintf(stderr, "bad --log-format '%s' (text | json)\n",
                     std::string(value).c_str());
        return 2;
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: indaas [--log-level=debug|info|warning|error] [--log-format=text|json] "
                 "[--chaos-plan=seed=N,reset=P,...] <command> [flags]\n"
                 "commands:\n"
                 "  collect  run simulated dependency acquisition into a DepDB file\n"
                 "  audit    structural independence audit of candidate deployments\n"
                 "  dot         emit a deployment's fault graph as Graphviz DOT\n"
                 "  graph       save a deployment's fault graph (text format)\n"
                 "  whatif      simulate component failures against a saved graph\n"
                 "  importance  rank components by fault-tree importance measures\n"
                 "  pia         private independence audit across provider component sets\n"
                 "  serve       run the networked audit service (see audit --remote)\n"
                 "  stats       scrape a live server's metrics (--remote=host:P "
                 "[--format=text|prometheus|json])\n"
                 "  debug       live introspection of a server: shards, connections, flight\n"
                 "              recorder, slowest RPCs (--remote=host:P [--events=N] [--top=K])\n"
                 "  profile     capture a remote CPU/alloc profile window (--remote=host:P\n"
                 "              [--seconds=S --hz=N --alloc=0|1 --out=FILE "
                 "--format=dump|collapsed|collapsed-alloc|chrome])\n"
                 "  trace-merge merge per-process --trace-out files into one Chrome trace\n"
                 "audit, pia and serve accept --metrics-out=<file> and --trace-out=<file>\n"
                 "networked: serve --port=P [--reactor-shards=N\n"
                 "  --max-inflight=N --max-inflight-per-conn=N --backlog=N "
                 "--read-deadline-ms=MS --slow-rpc-ms=MS --flight-dump=FILE\n"
                 "  --admission=adaptive|fixed --target-queue-delay-ms=MS];\n"
                 "  audit --remote=host:P; pia --peers=a:p1,b:p2,c:p3 --self=i "
                 "[--allow-degraded]\n");
    return 2;
  }
  std::string command = argv[1];
  Status status;
  if (command == "collect") {
    status = RunCollectCommand(argc - 1, argv + 1);
  } else if (command == "audit") {
    status = RunAuditCommand(argc - 1, argv + 1);
  } else if (command == "dot") {
    status = RunDotCommand(argc - 1, argv + 1);
  } else if (command == "graph") {
    status = RunGraphCommand(argc - 1, argv + 1);
  } else if (command == "whatif") {
    status = RunWhatIfCommand(argc - 1, argv + 1);
  } else if (command == "importance") {
    status = RunImportanceCommand(argc - 1, argv + 1);
  } else if (command == "pia") {
    status = RunPiaCommand(argc - 1, argv + 1);
  } else if (command == "serve") {
    status = RunServeCommand(argc - 1, argv + 1);
  } else if (command == "stats") {
    status = RunStatsCommand(argc - 1, argv + 1);
  } else if (command == "debug") {
    status = RunDebugCommand(argc - 1, argv + 1);
  } else if (command == "profile") {
    status = RunProfileCommand(argc - 1, argv + 1);
  } else if (command == "trace-merge") {
    status = RunTraceMergeCommand(argc - 1, argv + 1);
  } else {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace indaas
