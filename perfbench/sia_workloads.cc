// remote_sia_fattree and svc_small_mixed: structural audits against an
// in-process AuditServer over loopback.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>

#include "perfbench/inputs.h"
#include "perfbench/workloads.h"
#include "src/agent/sia_audit.h"
#include "src/deps/depdb.h"
#include "src/net/chaos.h"
#include "src/net/frame.h"
#include "src/sia/builder.h"
#include "src/sia/ranking.h"
#include "src/sia/risk_groups.h"
#include "src/svc/client.h"
#include "src/svc/mux_client.h"
#include "src/svc/proto.h"
#include "src/svc/server.h"
#include "src/util/strings.h"
#include "src/util/timer.h"

namespace indaas {
namespace perfbench {
namespace {

constexpr double kWarmupSeconds = 0.5;
constexpr double kProbeWarmupSeconds = 0.2;
constexpr const char* kStages[] = {"read", "decode", "queue", "compute", "encode", "write"};
constexpr size_t kStageCount = sizeof(kStages) / sizeof(kStages[0]);

// Keeps the compiler from discarding the results of calls timed for the
// ladder.
volatile size_t g_sink = 0;

// Mean seconds per call of `fn`, over at least `min_calls` calls and 2 ms.
template <typename Fn>
double MeanSecondsPerCall(Fn&& fn, int min_calls = 3) {
  int calls = 0;
  WallTimer timer;
  do {
    fn();
    ++calls;
  } while (calls < min_calls || timer.ElapsedSeconds() < 0.002);
  return timer.ElapsedSeconds() / calls;
}

// In-process reference answers: for every distinct spec, in order, the
// report bytes a correct server must send back, handed to `sink`.
Status ForEachOracleReport(const std::string& depdb_text,
                           const std::vector<AuditSpecification>& specs,
                           const std::function<void(std::string)>& sink) {
  DepDb db;
  INDAAS_RETURN_IF_ERROR(db.ImportText(depdb_text));
  for (const AuditSpecification& spec : specs) {
    INDAAS_ASSIGN_OR_RETURN(SiaAuditReport report, RunSiaAudit(db, spec));
    sink(svc::EncodeSiaAuditReport(report));
  }
  return Status::Ok();
}

Result<std::vector<std::string>> BuildOracle(const std::string& depdb_text,
                                             const std::vector<AuditSpecification>& specs) {
  std::vector<std::string> oracle;
  INDAAS_RETURN_IF_ERROR(ForEachOracleReport(
      depdb_text, specs, [&](std::string report) { oracle.push_back(std::move(report)); }));
  return oracle;
}

// Length and 64-bit hash of an encoded report. The fat-tree oracle keeps
// these instead of the reports themselves (about 240 KB each), so the
// benchmark's own bookkeeping stays out of the process's peak RSS.
struct Fingerprint {
  size_t size = 0;
  size_t hash = 0;

  explicit Fingerprint(std::string_view bytes)
      : size(bytes.size()), hash(std::hash<std::string_view>{}(bytes)) {}
  bool operator==(const Fingerprint&) const = default;
};

std::vector<Fingerprint> Fingerprints(const std::vector<std::string>& reports) {
  std::vector<Fingerprint> out;
  for (const std::string& report : reports) {
    out.emplace_back(report);
  }
  return out;
}

// The oracle as fingerprints only, built one report at a time.
Result<std::vector<Fingerprint>> BuildFingerprintOracle(
    const std::string& depdb_text, const std::vector<AuditSpecification>& specs) {
  std::vector<Fingerprint> oracle;
  INDAAS_RETURN_IF_ERROR(ForEachOracleReport(
      depdb_text, specs, [&](std::string report) { oracle.emplace_back(report); }));
  return oracle;
}

// Mean seconds per RPC of each server stage, from svc.stage.* deltas.
struct StageMeans {
  double s[kStageCount] = {};
  uint64_t rpcs = 0;

  double Get(const char* stage) const {
    for (size_t i = 0; i < kStageCount; ++i) {
      if (std::string(kStages[i]) == stage) {
        return s[i];
      }
    }
    return 0;
  }
};

StageMeans StageDelta(const RegistryReading& before, const RegistryReading& after) {
  StageMeans means;
  for (size_t i = 0; i < kStageCount; ++i) {
    const std::string name = std::string("svc.stage.") + kStages[i] + "_seconds";
    const uint64_t count = after.HistogramCount(name) - before.HistogramCount(name);
    const double sum = after.HistogramSum(name) - before.HistogramSum(name);
    means.s[i] = count == 0 ? 0 : sum / static_cast<double>(count);
    means.rpcs = std::max(means.rpcs, count);
  }
  return means;
}

// Client-side codec cost per RPC, timed on the pass's own requests and
// replies outside the request path.
struct CodecEstimate {
  double payload_encode_s = 0;  // EncodeAuditSpecification, audits only
  double frame_encode_s = 0;    // net::EncodeFrame of the request payload
  double decode_s = 0;        // decoding the reply payload
  double request_bytes = 0;   // request frame bytes
  double report_bytes = 0;    // reply frame bytes
};

// `counts[i]` weights spec i; pings and imports (mixed workload) weigh in
// with their own request and reply shapes.
CodecEstimate EstimateCodec(const std::vector<AuditSpecification>& specs,
                            const std::vector<std::string>& oracle,
                            const std::vector<uint64_t>& counts, uint64_t pings,
                            const std::vector<std::string>& slices,
                            const std::vector<uint64_t>& slice_counts,
                            const std::string& ack_bytes) {
  CodecEstimate estimate;
  double rpcs = 0;
  auto add = [&](uint64_t count, uint8_t type, const std::string& payload,
                 const std::string& reply, double decode_s) {
    if (count == 0) {
      return;
    }
    const double weight = static_cast<double>(count);
    const std::string frame = net::EncodeFrame(type, payload, {}, 1);
    estimate.frame_encode_s += weight * MeanSecondsPerCall([&] {
      g_sink = g_sink + net::EncodeFrame(type, payload, {}, 1).size();
    });
    estimate.decode_s += weight * decode_s;
    estimate.request_bytes += weight * static_cast<double>(frame.size());
    estimate.report_bytes +=
        weight * static_cast<double>(net::EncodeFrame(1, reply, {}, 1).size());
    rpcs += weight;
  };
  for (size_t i = 0; i < specs.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    const double decode_s = MeanSecondsPerCall(
        [&] { g_sink = g_sink + svc::DecodeSiaAuditReport(oracle[i]).ok(); });
    estimate.payload_encode_s +=
        static_cast<double>(counts[i]) * MeanSecondsPerCall([&] {
          g_sink = g_sink + svc::EncodeAuditSpecification(specs[i]).size();
        });
    add(counts[i], static_cast<uint8_t>(svc::MsgType::kAuditRequest),
        svc::EncodeAuditSpecification(specs[i]), oracle[i], decode_s);
  }
  add(pings, static_cast<uint8_t>(svc::MsgType::kPing), "", "", 0);
  for (size_t i = 0; i < slices.size(); ++i) {
    if (slice_counts[i] == 0) {
      continue;
    }
    const double decode_s =
        MeanSecondsPerCall([&] { g_sink = g_sink + svc::DecodeImportAck(ack_bytes).ok(); });
    add(slice_counts[i], static_cast<uint8_t>(svc::MsgType::kImportDepDb), slices[i], ack_bytes,
        decode_s);
  }
  if (rpcs > 0) {
    estimate.payload_encode_s /= rpcs;
    estimate.frame_encode_s /= rpcs;
    estimate.decode_s /= rpcs;
    estimate.request_bytes /= rpcs;
    estimate.report_bytes /= rpcs;
  }
  return estimate;
}

// Per-RPC work counters of the service and pool layers over one pass.
void ReportServiceCounters(const RegistryReading& before, const RegistryReading& after,
                           uint64_t rpcs, uint64_t audits, MetricSet* layers) {
  auto delta = [&](const char* name) {
    return static_cast<double>(after.Counter(name) - before.Counter(name));
  };
  const double per_rpc = rpcs == 0 ? 0 : 1.0 / static_cast<double>(rpcs);
  const double per_audit = audits == 0 ? 0 : 1.0 / static_cast<double>(audits);
  layers->SetIfAbsent("net.frames_per_rpc",
                      (delta("net.frames_sent") + delta("net.frames_recv")) * per_rpc, "count");
  layers->SetIfAbsent("net.loop_iterations_per_rpc", delta("net.loop.iterations") * per_rpc,
                      "count");
  layers->SetIfAbsent("svc.shed", delta("svc.requests_shed"), "count");
  layers->SetIfAbsent("threadpool.tasks_per_audit", delta("threadpool.tasks_total") * per_audit,
                      "count");
  layers->SetIfAbsent("threadpool.busy_ms_per_audit",
                      delta("threadpool.busy_micros") / 1e3 * per_audit, "ms");
}

// The agent/sia layers timed in-process on the workload's specs, weighted
// by how often the pass requested each one. All values are per audit.
struct SiaLayers {
  double audit_s = 0;
  double build_s = 0;
  double enumerate_s = 0;
  double rank_s = 0;
  double graph_nodes = 0;
  double basic_events = 0;
  double cutsets_generated = 0;
  double cutsets_absorbed = 0;
  double rgs = 0;
};

Result<SiaLayers> MeasureSiaLayers(const std::string& depdb_text,
                                   const std::vector<AuditSpecification>& specs,
                                   const std::vector<uint64_t>& counts, SpanRecorder* spans,
                                   const std::string& prefix) {
  DepDb db;
  INDAAS_RETURN_IF_ERROR(db.ImportText(depdb_text));
  SiaLayers layers;
  double total = 0;
  const std::string audit_name = prefix + ".agent.audit";
  for (size_t i = 0; i < specs.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    const AuditSpecification& spec = specs[i];
    const double weight = static_cast<double>(counts[i]);
    total += weight;
    {
      ScopedSpan span(spans, audit_name.c_str());
      WallTimer timer;
      INDAAS_RETURN_IF_ERROR(RunSiaAudit(db, spec).status());
      layers.audit_s += weight * timer.ElapsedSeconds();
    }
    for (const std::vector<std::string>& servers : spec.candidate_deployments) {
      BuildOptions build;
      build.required_servers = spec.required_servers;
      build.software_of_interest = spec.software_of_interest;
      build.include_network = spec.include_network;
      build.include_hardware = spec.include_hardware;
      build.include_software = spec.include_software;
      WallTimer build_timer;
      INDAAS_ASSIGN_OR_RETURN(FaultGraph graph, BuildDeploymentFaultGraph(db, servers, build));
      layers.build_s += weight * build_timer.ElapsedSeconds();

      const RegistryReading before = RegistryReading::Take();
      WallTimer enumerate_timer;
      INDAAS_ASSIGN_OR_RETURN(MinimalRgResult exact, ComputeMinimalRiskGroups(graph));
      layers.enumerate_s += weight * enumerate_timer.ElapsedSeconds();
      const RegistryReading after = RegistryReading::Take();

      std::vector<RiskGroup> groups = exact.groups;
      WallTimer rank_timer;
      std::vector<RankedRiskGroup> ranked = RankBySize(std::move(groups));
      layers.rank_s += weight * rank_timer.ElapsedSeconds();
      g_sink = g_sink + ranked.size();

      size_t basic = 0;
      for (NodeId id = 0; id < graph.NodeCount(); ++id) {
        basic += graph.node(id).gate == GateType::kBasic ? 1 : 0;
      }
      layers.graph_nodes += weight * static_cast<double>(graph.NodeCount());
      layers.basic_events += weight * static_cast<double>(basic);
      layers.cutsets_generated +=
          weight * static_cast<double>(after.Counter("sia.cutsets.generated") -
                                       before.Counter("sia.cutsets.generated"));
      layers.cutsets_absorbed +=
          weight * static_cast<double>(after.Counter("sia.cutsets.absorbed") -
                                       before.Counter("sia.cutsets.absorbed"));
      layers.rgs += weight * static_cast<double>(exact.groups.size());
    }
  }
  if (total > 0) {
    for (double* value : {&layers.audit_s, &layers.build_s, &layers.enumerate_s, &layers.rank_s,
                          &layers.graph_nodes, &layers.basic_events, &layers.cutsets_generated,
                          &layers.cutsets_absorbed, &layers.rgs}) {
      *value /= total;
    }
  }
  return layers;
}

void ReportSiaLayers(const SiaLayers& sia, MetricSet* layers) {
  layers->SetIfAbsent("sia.build_us", sia.build_s * 1e6, "us");
  layers->SetIfAbsent("sia.enumerate_us", sia.enumerate_s * 1e6, "us");
  layers->SetIfAbsent("sia.rank_us", sia.rank_s * 1e6, "us");
  layers->SetIfAbsent("agent.audit_us", sia.audit_s * 1e6, "us");
  layers->SetIfAbsent("agent.residual_us",
                      (sia.audit_s - sia.build_s - sia.enumerate_s - sia.rank_s) * 1e6, "us");
  layers->SetIfAbsent("sia.graph_nodes", sia.graph_nodes, "count");
  layers->SetIfAbsent("sia.basic_events", sia.basic_events, "count");
  layers->SetIfAbsent("sia.cutsets_generated", sia.cutsets_generated, "count");
  layers->SetIfAbsent("sia.cutsets_absorbed", sia.cutsets_absorbed, "count");
  layers->SetIfAbsent("sia.rgs", sia.rgs, "count");
  layers->SetIfAbsent("sia.cutset_yield",
                      sia.cutsets_generated > 0 ? sia.rgs / sia.cutsets_generated : 0, "ratio");
  std::printf("layers agent/sia per audit: audit %.1f us = build %.1f + enumerate %.1f + rank "
              "%.1f + agent residual %.1f; %.1f cut sets generated, %.1f RGs\n",
              sia.audit_s * 1e6, sia.build_s * 1e6, sia.enumerate_s * 1e6, sia.rank_s * 1e6,
              (sia.audit_s - sia.build_s - sia.enumerate_s - sia.rank_s) * 1e6,
              sia.cutsets_generated, sia.rgs);
}

// Median ms of DepDb::ImportText(import_text) into a copy of the DepDB
// holding `base_text`.
Result<double> MeasureImportMs(const std::string& base_text, const std::string& import_text) {
  DepDb base;
  INDAAS_RETURN_IF_ERROR(base.ImportText(base_text));
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    DepDb db = base;
    WallTimer timer;
    INDAAS_RETURN_IF_ERROR(db.ImportText(import_text));
    samples.push_back(timer.ElapsedMillis());
  }
  return Median(samples);
}

// Ladder rows shared by both SIA workloads: client codec around the six
// server stages. `payload_encode_s` is the request payload's encoding,
// timed in the request path where the harness encodes it itself.
void AddServiceRows(const CodecEstimate& codec, double payload_encode_s, const StageMeans& stages,
                    Ladder* ladder) {
  ladder->rows.push_back({"svc.client_encode", payload_encode_s + codec.frame_encode_s});
  for (size_t i = 0; i < kStageCount; ++i) {
    ladder->rows.push_back({std::string("svc.stage.") + kStages[i], stages.s[i]});
  }
  ladder->rows.push_back({"svc.client_decode", codec.decode_s});
}

void ReportServiceRows(const Ladder& ladder, const CodecEstimate& codec, MetricSet* layers) {
  for (const LadderRow& row : ladder.rows) {
    if (row.name.rfind("svc.", 0) == 0) {
      layers->SetIfAbsent(row.name + "_us", row.seconds * 1e6, "us");
    }
  }
  layers->SetIfAbsent("svc.rpc_residual_us", ladder.Residual() * 1e6, "us");
  layers->SetIfAbsent("svc.request_bytes", codec.request_bytes, "bytes");
  layers->SetIfAbsent("svc.report_bytes", codec.report_bytes, "bytes");
}

// ---------------------------------------------------------------------------
// remote_sia_fattree: closed loop, one AuditClient connection per thread.

struct FatTreeRig {
  std::unique_ptr<svc::AuditServer> server;
  std::vector<svc::AuditClient> clients;
  double setup_s = 0;
  double import_s = 0;

  void Stop() {
    clients.clear();
    if (server != nullptr) {
      server->Stop();
    }
  }
};

// Starts a server, connects the clients and imports the DepDB: the set-up a
// user of the service pays before the first audit.
Result<std::unique_ptr<FatTreeRig>> StartFatTreeRig(const FatTreeInputs& inputs) {
  auto rig = std::make_unique<FatTreeRig>();
  WallTimer setup;
  rig->server = std::make_unique<svc::AuditServer>();
  INDAAS_RETURN_IF_ERROR(rig->server->Start());
  const net::Endpoint endpoint{"127.0.0.1", rig->server->port()};
  for (size_t c = 0; c < kFatTreeClients; ++c) {
    INDAAS_ASSIGN_OR_RETURN(svc::AuditClient client, svc::AuditClient::Connect(endpoint));
    rig->clients.push_back(std::move(client));
  }
  WallTimer import;
  INDAAS_RETURN_IF_ERROR(rig->clients[0].ImportDepDb(inputs.depdb_text).status());
  rig->import_s = import.ElapsedSeconds();
  rig->setup_s = setup.ElapsedSeconds();
  return rig;
}

struct ClosedLoopResult {
  std::vector<double> latencies;  // seconds, successful audits
  std::vector<double> end_s;      // completion offsets of the same audits
  std::vector<double> and_latencies;  // the subset audited with the AND gate
  std::vector<double> and_end_s;
  std::vector<double> window_cpu_s;  // process CPU per window, when windowed
  std::vector<uint64_t> spec_counts;
  Outcome outcome;
  double wall_s = 0;
};

// Every client thread audits its schedule back to back for `seconds`.
// `cursors` carries each client's schedule position across passes. A
// windowed pass also records the process CPU time of each window.
ClosedLoopResult RunClosedLoop(FatTreeRig& rig, const FatTreeInputs& inputs,
                               const std::vector<Fingerprint>& oracle, double seconds,
                               std::vector<size_t>* cursors, SpanRecorder* spans,
                               bool windowed = false) {
  std::vector<ClosedLoopResult> per_client(rig.clients.size());
  const int64_t start_ns = NowNs();
  const int64_t deadline_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  std::unique_ptr<CpuWindowSampler> sampler;
  if (windowed) {
    sampler = std::make_unique<CpuWindowSampler>(start_ns, Windows(seconds));
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < rig.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      ClosedLoopResult& mine = per_client[c];
      mine.spec_counts.assign(inputs.specs.size(), 0);
      const std::vector<uint32_t>& schedule = inputs.schedules[c];
      size_t& cursor = (*cursors)[c];
      while (NowNs() < deadline_ns) {
        const uint32_t index = schedule[cursor++ % schedule.size()];
        ++mine.spec_counts[index];
        ++mine.outcome.attempted;
        const int64_t begin_ns = NowNs();
        Result<SiaAuditReport> report = rig.clients[c].AuditStructural(inputs.specs[index]);
        const int64_t end_ns = NowNs();
        if (spans != nullptr) {
          const uint64_t id = spans->NewId();
          spans->Record(Span{"fattree.audit_rpc", id, 0, id, begin_ns, end_ns});
        }
        if (!report.ok()) {
          ++mine.outcome.failed;
        } else if (!(Fingerprint(svc::EncodeSiaAuditReport(*report)) == oracle[index])) {
          ++mine.outcome.failed;
          ++mine.outcome.wrong;
        } else {
          mine.latencies.push_back(static_cast<double>(end_ns - begin_ns) / 1e9);
          mine.end_s.push_back(static_cast<double>(end_ns - start_ns) / 1e9);
          if (inputs.specs[index].required_servers == 0) {
            mine.and_latencies.push_back(mine.latencies.back());
            mine.and_end_s.push_back(mine.end_s.back());
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  ClosedLoopResult result;
  result.wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  if (sampler != nullptr) {
    result.window_cpu_s = sampler->Finish();
  }
  result.spec_counts.assign(inputs.specs.size(), 0);
  for (const ClosedLoopResult& mine : per_client) {
    result.latencies.insert(result.latencies.end(), mine.latencies.begin(),
                            mine.latencies.end());
    result.end_s.insert(result.end_s.end(), mine.end_s.begin(), mine.end_s.end());
    result.and_latencies.insert(result.and_latencies.end(), mine.and_latencies.begin(),
                                mine.and_latencies.end());
    result.and_end_s.insert(result.and_end_s.end(), mine.and_end_s.begin(),
                            mine.and_end_s.end());
    for (size_t i = 0; i < mine.spec_counts.size(); ++i) {
      result.spec_counts[i] += mine.spec_counts[i];
    }
    result.outcome.Merge(mine.outcome);
  }
  return result;
}

// ---------------------------------------------------------------------------
// svc_small_mixed: open loop through one MuxAuditClient.

struct MixedRig {
  std::unique_ptr<svc::AuditServer> server;
  std::unique_ptr<svc::MuxAuditClient> client;
  double setup_s = 0;

  void Stop() {
    if (client != nullptr) {
      client->Shutdown();
    }
    if (server != nullptr) {
      server->Stop();
    }
  }
};

Result<std::unique_ptr<MixedRig>> StartMixedRig(const MixedInputs& inputs) {
  auto rig = std::make_unique<MixedRig>();
  WallTimer setup;
  rig->server = std::make_unique<svc::AuditServer>();
  INDAAS_RETURN_IF_ERROR(rig->server->Start());
  svc::MuxClientOptions options;
  options.connections = 2;
  INDAAS_ASSIGN_OR_RETURN(
      svc::MuxAuditClient client,
      svc::MuxAuditClient::Connect(net::Endpoint{"127.0.0.1", rig->server->port()}, options));
  rig->client = std::make_unique<svc::MuxAuditClient>(std::move(client));
  INDAAS_RETURN_IF_ERROR(rig->client->ImportDepDb(inputs.depdb_text).status());
  rig->setup_s = setup.ElapsedSeconds();
  return rig;
}

// Expected reply payloads that do not depend on the spec.
struct MixedOracle {
  std::vector<std::string> reports;  // per spec
  std::string import_ack;            // counts are unchanged by re-imports
};

Result<MixedOracle> BuildMixedOracle(const MixedInputs& inputs) {
  MixedOracle oracle;
  INDAAS_ASSIGN_OR_RETURN(oracle.reports, BuildOracle(inputs.depdb_text, inputs.specs));
  DepDb db;
  INDAAS_RETURN_IF_ERROR(db.ImportText(inputs.depdb_text));
  svc::ImportAck ack;
  ack.network = db.NetworkCount();
  ack.hardware = db.HardwareCount();
  ack.software = db.SoftwareCount();
  oracle.import_ack = svc::EncodeImportAck(ack);
  return oracle;
}

struct OpenLoopResult {
  std::vector<double> audit_latency;   // seconds from due time, successful audits
  std::vector<double> import_latency;  // seconds from due time, successful imports
  std::vector<double> lateness;        // seconds the generator sent late, every request
  double mean_from_due_s = 0;          // successful RPCs of every kind
  double mean_from_send_s = 0;
  double mean_lateness_s = 0;
  double mean_encode_s = 0;  // in-band payload encoding
  std::vector<double> audit_end_s;   // completion offsets of audit_latency's audits
  std::vector<double> import_end_s;  // completion offsets of import_latency's imports
  std::vector<double> rpc_end_s;     // completion offsets of every successful RPC
  std::vector<double> window_cpu_s;  // process CPU per window, when windowed
  std::vector<uint64_t> spec_counts;
  std::vector<uint64_t> slice_counts;
  uint64_t pings = 0;
  uint64_t rpcs_ok = 0;
  Outcome outcome;
};

// Sends every arrival due before `seconds` at its due time and waits for all
// replies. Latency counts from the due time, so a stalled generator charges
// the wait to the requests it delayed.
Result<OpenLoopResult> RunOpenLoop(svc::MuxAuditClient& client, const MixedInputs& inputs,
                                   const MixedOracle& oracle, double seconds,
                                   SpanRecorder* spans, bool windowed = false) {
  enum : uint8_t { kPending, kOk, kWrong, kFailed };
  struct Slot {
    int64_t due_ns = 0;
    int64_t send_ns = 0;
    int64_t encoded_ns = 0;
    int64_t end_ns = 0;
    uint8_t status = kPending;
  };
  size_t n = 0;
  while (n < inputs.arrivals.size() && inputs.arrivals[n].due_s < seconds) {
    ++n;
  }
  OpenLoopResult result;
  std::vector<Slot> slots(n);
  std::mutex mu;
  std::condition_variable all_done;
  size_t done = 0;
  const std::string empty;

  const int64_t start_ns = NowNs() + 2'000'000;
  std::unique_ptr<CpuWindowSampler> sampler;
  if (windowed) {
    sampler = std::make_unique<CpuWindowSampler>(start_ns, Windows(seconds));
  }
  for (size_t i = 0; i < n; ++i) {
    const MixedRequest& request = inputs.arrivals[i];
    Slot& slot = slots[i];
    slot.due_ns = start_ns + static_cast<int64_t>(request.due_s * 1e9);
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(slot.due_ns)));
    slot.send_ns = NowNs();
    std::string payload;
    svc::MsgType type = svc::MsgType::kPing;
    svc::MsgType expected = svc::MsgType::kPong;
    const std::string* want = &empty;
    switch (request.kind) {
      case MixedRequest::Kind::kAudit:
        payload = svc::EncodeAuditSpecification(inputs.specs[request.index]);
        type = svc::MsgType::kAuditRequest;
        expected = svc::MsgType::kAuditReport;
        want = &oracle.reports[request.index];
        break;
      case MixedRequest::Kind::kPing:
        break;
      case MixedRequest::Kind::kImport:
        payload = inputs.import_slices[request.index];
        type = svc::MsgType::kImportDepDb;
        expected = svc::MsgType::kImportAck;
        want = &oracle.import_ack;
        break;
    }
    slot.encoded_ns = NowNs();
    client.AsyncCall(type, std::move(payload), expected,
                     [&slot, want, &mu, &all_done, &done](Result<net::Frame> reply) {
                       slot.end_ns = NowNs();
                       slot.status = !reply.ok()                 ? kFailed
                                     : reply->payload == *want ? kOk
                                                               : kWrong;
                       std::lock_guard<std::mutex> lock(mu);
                       ++done;
                       all_done.notify_one();
                     });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    if (!all_done.wait_for(lock, std::chrono::seconds(60), [&] { return done == n; })) {
      lock.unlock();
      client.Shutdown();  // completes every pending call before returning
      return DeadlineExceededError("svc_small_mixed: replies still pending after 60 s");
    }
  }
  if (sampler != nullptr) {
    result.window_cpu_s = sampler->Finish();
  }

  result.spec_counts.assign(inputs.specs.size(), 0);
  result.slice_counts.assign(inputs.import_slices.size(), 0);
  double from_due = 0, from_send = 0, lateness = 0, encode = 0;
  for (size_t i = 0; i < n; ++i) {
    const MixedRequest& request = inputs.arrivals[i];
    const Slot& slot = slots[i];
    ++result.outcome.attempted;
    result.lateness.push_back(static_cast<double>(slot.send_ns - slot.due_ns) / 1e9);
    switch (request.kind) {
      case MixedRequest::Kind::kAudit:
        ++result.spec_counts[request.index];
        break;
      case MixedRequest::Kind::kPing:
        ++result.pings;
        break;
      case MixedRequest::Kind::kImport:
        ++result.slice_counts[request.index];
        break;
    }
    if (slot.status != kOk) {
      ++result.outcome.failed;
      result.outcome.wrong += slot.status == kWrong ? 1 : 0;
      continue;
    }
    const double latency = static_cast<double>(slot.end_ns - slot.due_ns) / 1e9;
    const double end_s = static_cast<double>(slot.end_ns - start_ns) / 1e9;
    result.rpc_end_s.push_back(end_s);
    if (request.kind == MixedRequest::Kind::kAudit) {
      result.audit_latency.push_back(latency);
      result.audit_end_s.push_back(end_s);
    } else if (request.kind == MixedRequest::Kind::kImport) {
      result.import_latency.push_back(latency);
      result.import_end_s.push_back(end_s);
    }
    ++result.rpcs_ok;
    from_due += latency;
    from_send += static_cast<double>(slot.end_ns - slot.send_ns) / 1e9;
    lateness += static_cast<double>(slot.send_ns - slot.due_ns) / 1e9;
    encode += static_cast<double>(slot.encoded_ns - slot.send_ns) / 1e9;
    if (spans != nullptr) {
      const uint64_t root = spans->NewId();
      spans->Record(Span{"mixed.request", root, 0, root, slot.due_ns, slot.end_ns});
      spans->Record(Span{"mixed.gen_lateness", spans->NewId(), root, root, slot.due_ns,
                         slot.send_ns});
      spans->Record(Span{"mixed.client_encode", spans->NewId(), root, root, slot.send_ns,
                         slot.encoded_ns});
    }
  }
  if (result.rpcs_ok > 0) {
    const double ok = static_cast<double>(result.rpcs_ok);
    result.mean_from_due_s = from_due / ok;
    result.mean_from_send_s = from_send / ok;
    result.mean_lateness_s = lateness / ok;
    result.mean_encode_s = encode / ok;
  }
  return result;
}

// One traced open-loop pass with its ladder (latency from the due time).
struct MixedTracedPass {
  OpenLoopResult loop;
  StageMeans stages;
  CodecEstimate codec;
  Ladder ladder;
  RegistryReading before;
  RegistryReading after;
};

Result<MixedTracedPass> RunMixedTracedPass(MixedRig& rig, const MixedInputs& inputs,
                                           const MixedOracle& oracle, double seconds,
                                           SpanRecorder* spans, const char* title) {
  MixedTracedPass pass;
  pass.before = RegistryReading::Take();
  INDAAS_ASSIGN_OR_RETURN(pass.loop, RunOpenLoop(*rig.client, inputs, oracle, seconds, spans));
  pass.after = RegistryReading::Take();
  pass.stages = StageDelta(pass.before, pass.after);
  pass.codec = EstimateCodec(inputs.specs, oracle.reports, pass.loop.spec_counts,
                             pass.loop.pings, inputs.import_slices, pass.loop.slice_counts,
                             oracle.import_ack);
  pass.ladder.title = std::string(title) + " (per RPC, from due time)";
  pass.ladder.e2e_seconds = pass.loop.mean_from_due_s;
  pass.ladder.rows.push_back({"gen.lateness", pass.loop.mean_lateness_s});
  AddServiceRows(pass.codec, pass.loop.mean_encode_s, pass.stages, &pass.ladder);
  return pass;
}

// One side of the chaos check, summed over its slices: per-RPC latency
// from the send time and the server's stage times.
constexpr int kChaosRounds = 4;

struct ChaosSide {
  double rpcs = 0;
  double from_send_s = 0;    // summed over successful RPCs
  double non_transport_s = 0;  // client encode + server decode/queue/compute/encode
  double compute_s = 0;
  std::vector<double> slice_compute_s;

  void Add(const OpenLoopResult& loop, const StageMeans& stages) {
    const double n = static_cast<double>(loop.rpcs_ok);
    rpcs += n;
    from_send_s += n * loop.mean_from_send_s;
    non_transport_s += n * (loop.mean_encode_s + stages.Get("decode") + stages.Get("queue") +
                            stages.Get("compute") + stages.Get("encode"));
    compute_s += n * stages.Get("compute");
    slice_compute_s.push_back(stages.Get("compute"));
  }
  double FromSendSeconds() const { return rpcs > 0 ? from_send_s / rpcs : 0; }
  // Read, write, client decode and everything between the stages.
  double TransportSeconds() const {
    return rpcs > 0 ? (from_send_s - non_transport_s) / rpcs : 0;
  }
  double ComputeSeconds() const { return rpcs > 0 ? compute_s / rpcs : 0; }
  double ComputeSpread() const {
    if (slice_compute_s.empty() || ComputeSeconds() <= 0) {
      return 0;
    }
    auto [low, high] = std::minmax_element(slice_compute_s.begin(), slice_compute_s.end());
    return (*high - *low) / ComputeSeconds();
  }
};

// The calm quartile over `seconds`' windows of the p50 of `latencies`, in ms.
double WindowedP50Ms(double seconds, const std::vector<double>& end_s,
                     const std::vector<double>& latencies) {
  return CalmQuartileOverWindows(SplitByWindow(end_s, latencies, Windows(seconds)), P50,
                                 Better::kLower) *
         1e3;
}

// Latency percentiles, operation rate and CPU per operation of one windowed
// pass, each the calm quartile over the pass's windows. `latency_end_s` and
// `op_end_s` are completion offsets of the timed operations and of every
// operation that counts towards CPU per operation.
struct WindowedFigures {
  double p50_ms = 0;
  double p90_ms = 0;
  double ops_per_s = 0;
  double cpu_ms_per_op = 0;
};

WindowedFigures FiguresOverWindows(double seconds, const std::vector<double>& latency_end_s,
                                   const std::vector<double>& latencies,
                                   const std::vector<double>& op_end_s,
                                   const std::vector<double>& window_cpu_s) {
  const Windows windows(seconds);
  const auto latency_windows = SplitByWindow(latency_end_s, latencies, windows);
  const auto op_windows = SplitByWindow(op_end_s, op_end_s, windows);
  WindowedFigures figures;
  figures.p50_ms = CalmQuartileOverWindows(latency_windows, P50, Better::kLower) * 1e3;
  figures.p90_ms = CalmQuartileOverWindows(latency_windows, P90, Better::kLower) * 1e3;
  figures.ops_per_s = CalmQuartileOverWindows(
                          latency_windows,
                          [](const std::vector<double>& values) {
                            return static_cast<double>(values.size());
                          },
                          Better::kHigher) /
                      windows.seconds;
  std::vector<double> cpu_per_op;
  for (size_t k = 0; k < std::min(window_cpu_s.size(), op_windows.size()); ++k) {
    if (!op_windows[k].empty()) {
      cpu_per_op.push_back(window_cpu_s[k] / static_cast<double>(op_windows[k].size()));
    }
  }
  figures.cpu_ms_per_op = CalmQuartile(cpu_per_op, Better::kLower) * 1e3;
  std::vector<double> window_p50_ms;
  for (const std::vector<double>& values : latency_windows) {
    window_p50_ms.push_back(Percentile(values, 0.5) * 1e3);
  }
  PrintSamples("p50_ms_by_window", window_p50_ms);
  return figures;
}

uint64_t Total(const std::vector<uint64_t>& counts) {
  uint64_t total = 0;
  for (uint64_t count : counts) {
    total += count;
  }
  return total;
}

}  // namespace

void PauseBeforeSetup() {
  std::this_thread::sleep_for(std::chrono::duration<double>(kSetupGapSeconds));
}

void ReportLadder(const Ladder& ladder, MetricSet* layers) {
  ladder.Print();
  layers->Set("ladder.e2e_us", ladder.e2e_seconds * 1e6, "us");
  layers->Set("ladder.residual_share", ladder.ResidualShare(), "ratio");
  layers->Set("ladder.negative_residual", ladder.Residual() < 0 ? 1 : 0, "count");
}

Status MeasureFatTree(const RunConfig& config, MetricSet* metrics, Outcome* outcome) {
  INDAAS_ASSIGN_OR_RETURN(FatTreeInputs inputs, MakeFatTreeInputs(config.seed));
  INDAAS_ASSIGN_OR_RETURN(std::vector<Fingerprint> oracle,
                          BuildFingerprintOracle(inputs.depdb_text, inputs.specs));

  std::vector<double> setups;
  std::vector<double> imports;
  std::unique_ptr<FatTreeRig> rig;
  // The rig set up last before the measurement is the one measured.
  auto set_up = [&]() -> Status {
    if (rig != nullptr) {
      rig->Stop();
    }
    PauseBeforeSetup();
    INDAAS_ASSIGN_OR_RETURN(rig, StartFatTreeRig(inputs));
    setups.push_back(rig->setup_s);
    imports.push_back(rig->import_s);
    return Status::Ok();
  };
  for (int rep = 0; rep < kSetupRepsPerSide; ++rep) {
    INDAAS_RETURN_IF_ERROR(set_up());
  }
  std::vector<size_t> cursors(kFatTreeClients, 0);
  ClosedLoopResult warmup = RunClosedLoop(*rig, inputs, oracle, kWarmupSeconds, &cursors, nullptr);
  outcome->Merge(warmup.outcome);

  const RegistryReading before = RegistryReading::Take();
  ClosedLoopResult pass =
      RunClosedLoop(*rig, inputs, oracle, config.seconds, &cursors, nullptr, /*windowed=*/true);
  const RegistryReading after = RegistryReading::Take();
  outcome->Merge(pass.outcome);
  for (int rep = 0; rep < kSetupRepsPerSide; ++rep) {
    INDAAS_RETURN_IF_ERROR(set_up());
  }
  rig->Stop();

  const double audits = static_cast<double>(std::max<uint64_t>(pass.outcome.attempted, 1));
  const WindowedFigures figures = FiguresOverWindows(config.seconds, pass.end_s, pass.latencies,
                                                     pass.end_s, pass.window_cpu_s);
  const double p50_ms = figures.p50_ms;
  const double p90_ms = figures.p90_ms;
  const double p99_ms = Percentile(pass.latencies, 0.99) * 1e3;
  const double audits_per_s = figures.ops_per_s;
  // The AND-gate audits alone: the largest RG enumerations of the mix.
  const double and_p50_ms = WindowedP50Ms(config.seconds, pass.and_end_s, pass.and_latencies);
  metrics->Set("setup_s", Median(setups), "s");
  metrics->Set("p50_ms", p50_ms, "ms");
  metrics->Set("p90_ms", p90_ms, "ms");
  metrics->Set("aux_p50_ms", and_p50_ms, "ms");
  metrics->Set("ops_per_s", audits_per_s, "1/s");
  metrics->Set("bytes_per_op",
               static_cast<double>(after.Counter("net.bytes_sent") -
                                   before.Counter("net.bytes_sent")) / audits,
               "bytes");
  metrics->Set("cpu_ms_per_op", figures.cpu_ms_per_op, "ms");
  metrics->Set("peak_rss_mb", PeakRssMb(), "MB");

  std::printf("remote_sia_fattree: %zu audits in %.2f s over %zu connections\n",
              pass.latencies.size(), pass.wall_s, kFatTreeClients);
  PrintSamples("setup_s", setups);
  std::printf("metric setup_s %.6f s\n", Median(setups));
  std::printf("metric audit_p50_ms %.4f ms\n", p50_ms);
  std::printf("metric audit_p90_ms %.4f ms\n", p90_ms);
  std::printf("metric audit_p99_ms %.4f ms\n", p99_ms);
  std::printf("metric audits_per_s %.2f 1/s\n", audits_per_s);
  std::printf("metric and_audit_p50_ms %.4f ms\n", and_p50_ms);
  std::printf("metric import_p50_ms %.4f ms  (full DepDB import during set-up)\n",
              Median(imports) * 1e3);
  return Status::Ok();
}

Status TraceFatTree(const RunConfig& config, bool primary, MetricSet* layers, Outcome* outcome,
                    SpanRecorder* spans) {
  INDAAS_ASSIGN_OR_RETURN(FatTreeInputs inputs, MakeFatTreeInputs(config.seed));
  INDAAS_ASSIGN_OR_RETURN(std::vector<std::string> reports,
                          BuildOracle(inputs.depdb_text, inputs.specs));
  const std::vector<Fingerprint> oracle = Fingerprints(reports);
  INDAAS_ASSIGN_OR_RETURN(std::unique_ptr<FatTreeRig> rig, StartFatTreeRig(inputs));
  std::vector<size_t> cursors(kFatTreeClients, 0);
  outcome->Merge(
      RunClosedLoop(*rig, inputs, oracle, kProbeWarmupSeconds, &cursors, nullptr).outcome);

  double untraced_p50 = 0;
  double traced_seconds = kProbeSeconds;
  if (primary) {
    ClosedLoopResult untraced =
        RunClosedLoop(*rig, inputs, oracle, 0.4 * config.seconds, &cursors, nullptr);
    outcome->Merge(untraced.outcome);
    untraced_p50 = Percentile(untraced.latencies, 0.5);
    traced_seconds = 0.6 * config.seconds;
  }
  const RegistryReading before = RegistryReading::Take();
  ClosedLoopResult pass = RunClosedLoop(*rig, inputs, oracle, traced_seconds, &cursors, spans);
  const RegistryReading after = RegistryReading::Take();
  rig->Stop();
  outcome->Merge(pass.outcome);

  const uint64_t audits = pass.outcome.attempted;
  const StageMeans stages = StageDelta(before, after);
  const CodecEstimate codec =
      EstimateCodec(inputs.specs, reports, pass.spec_counts, 0, {}, {}, "");
  Ladder ladder;
  ladder.title = "remote_sia_fattree audit";
  ladder.e2e_seconds =
      spans->TotalSeconds("fattree.audit_rpc") / static_cast<double>(std::max<uint64_t>(audits, 1));
  AddServiceRows(codec, codec.payload_encode_s, stages, &ladder);
  if (primary) {
    ReportLadder(ladder, layers);
    const double traced_p50 = Percentile(pass.latencies, 0.5);
    layers->Set("trace.overhead_frac",
                untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 : 0, "ratio");
  } else {
    ladder.Print();
  }
  ReportServiceRows(ladder, codec, layers);
  ReportServiceCounters(before, after, stages.rpcs, audits, layers);

  INDAAS_ASSIGN_OR_RETURN(
      SiaLayers sia, MeasureSiaLayers(inputs.depdb_text, inputs.specs, pass.spec_counts, spans,
                                      "fattree"));
  ReportSiaLayers(sia, layers);
  INDAAS_ASSIGN_OR_RETURN(double import_ms, MeasureImportMs("", inputs.depdb_text));
  layers->SetIfAbsent("deps.import_ms", import_ms, "ms");
  return Status::Ok();
}

Status MeasureMixed(const RunConfig& config, MetricSet* metrics, Outcome* outcome) {
  const MixedInputs inputs = MakeMixedInputs(config.seed, config.seconds);
  INDAAS_ASSIGN_OR_RETURN(MixedOracle oracle, BuildMixedOracle(inputs));

  std::vector<double> setups;
  std::unique_ptr<MixedRig> rig;
  // The rig set up last before the measurement is the one measured.
  auto set_up = [&]() -> Status {
    if (rig != nullptr) {
      rig->Stop();
    }
    PauseBeforeSetup();
    INDAAS_ASSIGN_OR_RETURN(rig, StartMixedRig(inputs));
    setups.push_back(rig->setup_s);
    return Status::Ok();
  };
  for (int rep = 0; rep < kSetupRepsPerSide; ++rep) {
    INDAAS_RETURN_IF_ERROR(set_up());
  }
  INDAAS_ASSIGN_OR_RETURN(OpenLoopResult warmup,
                          RunOpenLoop(*rig->client, inputs, oracle, kWarmupSeconds, nullptr));
  outcome->Merge(warmup.outcome);

  const RegistryReading before = RegistryReading::Take();
  INDAAS_ASSIGN_OR_RETURN(OpenLoopResult pass,
                          RunOpenLoop(*rig->client, inputs, oracle, config.seconds, nullptr,
                                      /*windowed=*/true));
  const RegistryReading after = RegistryReading::Take();
  outcome->Merge(pass.outcome);
  for (int rep = 0; rep < kSetupRepsPerSide; ++rep) {
    INDAAS_RETURN_IF_ERROR(set_up());
  }
  rig->Stop();

  const double rpcs = static_cast<double>(std::max<uint64_t>(pass.outcome.attempted, 1));
  const WindowedFigures figures =
      FiguresOverWindows(config.seconds, pass.audit_end_s, pass.audit_latency, pass.rpc_end_s,
                         pass.window_cpu_s);
  const double p50_ms = figures.p50_ms;
  const double p90_ms = figures.p90_ms;
  const double p99_ms = Percentile(pass.audit_latency, 0.99) * 1e3;
  const double import_p50_ms = WindowedP50Ms(config.seconds, pass.import_end_s,
                                             pass.import_latency);
  const double audits_per_s = figures.ops_per_s;
  metrics->Set("setup_s", Median(setups), "s");
  metrics->Set("p50_ms", p50_ms, "ms");
  metrics->Set("p90_ms", p90_ms, "ms");
  metrics->Set("aux_p50_ms", import_p50_ms, "ms");
  metrics->Set("ops_per_s", audits_per_s, "1/s");
  metrics->Set("bytes_per_op",
               static_cast<double>(after.Counter("net.bytes_sent") -
                                   before.Counter("net.bytes_sent")) / rpcs,
               "bytes");
  metrics->Set("cpu_ms_per_op", figures.cpu_ms_per_op, "ms");
  metrics->Set("peak_rss_mb", PeakRssMb(), "MB");

  std::printf("svc_small_mixed: %llu requests at %.0f/s (%zu audits, %llu pings, %zu imports)\n",
              static_cast<unsigned long long>(pass.outcome.attempted), kMixedRate,
              pass.audit_latency.size(), static_cast<unsigned long long>(pass.pings),
              pass.import_latency.size());
  PrintSamples("setup_s", setups);
  std::printf("metric setup_s %.6f s\n", Median(setups));
  std::printf("metric audit_p50_ms %.4f ms\n", p50_ms);
  std::printf("metric audit_p90_ms %.4f ms\n", p90_ms);
  std::printf("metric audit_p99_ms %.4f ms\n", p99_ms);
  std::printf("metric import_p50_ms %.4f ms\n", import_p50_ms);
  std::printf("metric generator_lateness_p99_us %.1f us\n",
              Percentile(pass.lateness, 0.99) * 1e6);
  return Status::Ok();
}

Status TraceMixed(const RunConfig& config, bool primary, MetricSet* layers, Outcome* outcome,
                  SpanRecorder* spans) {
  const MixedInputs inputs = MakeMixedInputs(config.seed, config.seconds);
  INDAAS_ASSIGN_OR_RETURN(MixedOracle oracle, BuildMixedOracle(inputs));
  INDAAS_ASSIGN_OR_RETURN(std::unique_ptr<MixedRig> rig, StartMixedRig(inputs));
  INDAAS_ASSIGN_OR_RETURN(OpenLoopResult warmup,
                          RunOpenLoop(*rig->client, inputs, oracle, kProbeWarmupSeconds, nullptr));
  outcome->Merge(warmup.outcome);

  // An untraced pass (the reference for the tracing overhead), then the
  // traced pass the layer rows come from.
  const double slice = primary ? config.seconds / 4 : kProbeSeconds;
  INDAAS_ASSIGN_OR_RETURN(OpenLoopResult untraced,
                          RunOpenLoop(*rig->client, inputs, oracle, slice, nullptr));
  outcome->Merge(untraced.outcome);
  INDAAS_ASSIGN_OR_RETURN(MixedTracedPass clean, RunMixedTracedPass(*rig, inputs, oracle, slice,
                                                                    spans, "svc_small_mixed"));
  outcome->Merge(clean.loop.outcome);

  const uint64_t audits = Total(clean.loop.spec_counts);
  if (primary) {
    ReportLadder(clean.ladder, layers);
    const double untraced_p50 = Percentile(untraced.audit_latency, 0.5);
    const double traced_p50 = Percentile(clean.loop.audit_latency, 0.5);
    layers->Set("trace.overhead_frac",
                untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 : 0, "ratio");
  } else {
    clean.ladder.Print();
  }
  ReportServiceRows(clean.ladder, clean.codec, layers);
  ReportServiceCounters(clean.before, clean.after, clean.stages.rpcs, audits, layers);
  layers->SetIfAbsent("gen.lateness_p99_us", Percentile(clean.loop.lateness, 0.99) * 1e6, "us");

  // Attribution self-check: slices with and without a chaos delay plan
  // alternate, so drift in the host's speed hits both sides alike. The
  // injected socket and loop delays must land in the transport rows
  // (svc.stage.read/write and the residual), not in compute.
  INDAAS_ASSIGN_OR_RETURN(
      net::chaos::FaultPlan plan,
      net::chaos::ParseFaultPlan(StrFormat("seed=%llu,delay=0.05,delay_ms=2",
                                           static_cast<unsigned long long>(config.seed))));
  const double chaos_slice = primary ? config.seconds / 16 : kProbeSeconds / 2;
  ChaosSide sides[2];  // [0] clean, [1] under the plan
  for (int round = 0; round < kChaosRounds; ++round) {
    for (int side = 0; side < 2; ++side) {
      if (side == 1) {
        net::chaos::InstallPlan(plan);
      }
      const RegistryReading before = RegistryReading::Take();
      Result<OpenLoopResult> loop = RunOpenLoop(*rig->client, inputs, oracle, chaos_slice, nullptr);
      net::chaos::UninstallPlan();
      if (!loop.ok()) {
        return loop.status();
      }
      outcome->Merge(loop->outcome);
      sides[side].Add(*loop, StageDelta(before, RegistryReading::Take()));
    }
  }
  rig->Stop();
  const double added = sides[1].FromSendSeconds() - sides[0].FromSendSeconds();
  const double transport_added = sides[1].TransportSeconds() - sides[0].TransportSeconds();
  const double compute_clean = sides[0].ComputeSeconds();
  const double compute_shift =
      compute_clean > 0 ? (sides[1].ComputeSeconds() - compute_clean) / compute_clean : 0;
  const double compute_spread = sides[0].ComputeSpread();
  const double transport_share = added > 0 ? transport_added / added : 0;
  const bool attributed = transport_share >= 0.5;
  std::printf("chaos check: +%.1f us per RPC, %.0f%% in read/write/residual; compute stage "
              "moved %+.1f%% (spread over clean slices %.1f%%): %s\n",
              added * 1e6, 100 * transport_share, 100 * compute_shift, 100 * compute_spread,
              attributed ? "attributed to transport" : "NOT attributed to transport");
  layers->SetIfAbsent("chaos.added_us", added * 1e6, "us");
  layers->SetIfAbsent("chaos.transport_share", transport_share, "ratio");
  layers->SetIfAbsent("chaos.sia_shift", compute_shift, "ratio");
  layers->SetIfAbsent("chaos.attributed", attributed ? 1 : 0, "count");

  INDAAS_ASSIGN_OR_RETURN(
      SiaLayers sia, MeasureSiaLayers(inputs.depdb_text, inputs.specs, clean.loop.spec_counts,
                                      spans, "mixed"));
  ReportSiaLayers(sia, layers);
  INDAAS_ASSIGN_OR_RETURN(double import_ms,
                          MeasureImportMs(inputs.depdb_text, inputs.import_slices[0]));
  layers->SetIfAbsent("deps.import_ms", import_ms, "ms");
  return Status::Ok();
}

}  // namespace perfbench
}  // namespace indaas
