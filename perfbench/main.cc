// perfbench: the INDaaS end-to-end benchmark.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--trace-out=<spans.jsonl>] [--source-id=<sha>]
//
// Workloads: remote_sia_fattree, svc_small_mixed, psop_ring_k3 (see
// perfbench/README.md). With --trace=0 the run measures the workload's
// end-to-end metrics; with --trace=1 it records spans around every layer call
// and reports the per-layer ladder instead. Human-readable lines come first;
// the last line of stdout is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/inputs.h"
#include "perfbench/workloads.h"
#include "src/sketch/intersect.h"
#include "src/util/flags.h"
#include "src/util/strings.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace indaas {
namespace perfbench {
namespace {

const std::vector<std::string> kWorkloads = {"remote_sia_fattree", "svc_small_mixed",
                                             "psop_ring_k3"};

// The metric names BENCHMARK.json declares; a run must report exactly these.
const std::set<std::string> kEndToEndMetrics = {
    "setup_s",      "p50_ms",        "p90_ms" ,     "aux_p50_ms",
    "ops_per_s",    "bytes_per_op",  "cpu_ms_per_op", "peak_rss_mb",
};

const std::set<std::string> kPerLayerMetrics = {
    "svc.client_encode_us", "svc.stage.read_us", "svc.stage.decode_us", "svc.stage.queue_us",
    "svc.stage.compute_us", "svc.stage.encode_us", "svc.stage.write_us",
    "svc.client_decode_us", "svc.rpc_residual_us", "svc.request_bytes", "svc.report_bytes",
    "net.frames_per_rpc", "net.loop_iterations_per_rpc", "svc.shed",
    "threadpool.tasks_per_audit", "threadpool.busy_ms_per_audit", "sia.build_us",
    "sia.enumerate_us", "sia.rank_us", "agent.audit_us", "agent.residual_us",
    "sia.graph_nodes", "sia.basic_events", "sia.cutsets_generated", "sia.cutsets_absorbed",
    "sia.rgs", "sia.cutset_yield", "deps.import_ms", "crypto.hash_to_group_us",
    "bignum.modexp_us", "pia.party_compute_s", "pia.party_wait_s",
    "pia.encrypt_ops_per_party", "net.exchange_ms", "net.sketch_exchange_us",
    "sketch.build_us", "sketch.agree_ns", "gen.lateness_p99_us", "ladder.e2e_us",
    "ladder.residual_share", "ladder.negative_residual", "ladder.sketch_residual_share",
    "trace.overhead_frac", "chaos.added_us", "chaos.transport_share", "chaos.sia_shift",
    "chaos.attributed",
};

// First "key : value" line of /proc/cpuinfo whose key is `key`.
std::string CpuInfoField(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? "" : std::string(Trim(line.substr(colon + 1)));
    }
  }
  return "unknown";
}

std::string Governor() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  std::string governor;
  return std::getline(in, governor) ? governor : "unknown";
}

// Host-wide CPU time and the part of it the hypervisor stole from this
// machine's vCPUs (the "cpu" line of /proc/stat, in clock ticks).
struct HostCpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

HostCpuTicks ReadHostCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  HostCpuTicks ticks;
  in >> label;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user).
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) {
      break;
    }
    ticks.total += value;
    if (field == 7) {
      ticks.steal = value;
    }
  }
  return ticks;
}

void PrintProvenance(const std::string& source_id) {
  std::printf("provenance nproc=%u cpu=\"%s\" governor=%s build_type=%s source=%s simd=%s\n",
              std::thread::hardware_concurrency(), CpuInfoField("model name").c_str(),
              Governor().c_str(), PERFBENCH_BUILD_TYPE, source_id.c_str(),
              sketch::SimdLevelName(sketch::BestSimdLevel()));
}

Result<std::string> InputsDigest(const std::string& workload, uint64_t seed, double seconds) {
  if (workload == "remote_sia_fattree") {
    INDAAS_ASSIGN_OR_RETURN(FatTreeInputs inputs, MakeFatTreeInputs(seed));
    return inputs.Digest();
  }
  if (workload == "svc_small_mixed") {
    return MakeMixedInputs(seed, seconds).Digest();
  }
  return MakeRingInputs(seed).Digest();
}

// Prints the digest of a workload's inputs and checks that the generator is
// a function of the seed: the same seed reproduces the digest and the next
// seed changes it.
Status CheckInputs(const std::string& workload, const RunConfig& config, Outcome* outcome) {
  INDAAS_ASSIGN_OR_RETURN(std::string digest, InputsDigest(workload, config.seed, config.seconds));
  INDAAS_ASSIGN_OR_RETURN(std::string again, InputsDigest(workload, config.seed, config.seconds));
  INDAAS_ASSIGN_OR_RETURN(std::string next,
                          InputsDigest(workload, config.seed + 1, config.seconds));
  const bool reproduced = digest == again;
  const bool seed_matters = digest != next;
  std::printf("inputs %s seed=%llu digest=%s reproduced=%s next_seed_differs=%s\n",
              workload.c_str(), static_cast<unsigned long long>(config.seed), digest.c_str(),
              reproduced ? "yes" : "NO", seed_matters ? "yes" : "NO");
  outcome->inputs_ok = outcome->inputs_ok && reproduced && seed_matters;
  return Status::Ok();
}

Status Run(int argc, char** argv) {
  std::string workload;
  int64_t seed = 1;
  double seconds = 10;
  int64_t trace = 0;
  std::string trace_out;
  std::string source_id = "unknown";
  FlagSet flags;
  flags.AddString("workload", &workload, "remote_sia_fattree | svc_small_mixed | psop_ring_k3");
  flags.AddInt("seed", &seed, "seed every input is generated from");
  flags.AddDouble("seconds", &seconds, "how long the run measures");
  flags.AddInt("trace", &trace, "0: end-to-end metrics; 1: traced per-layer ladder");
  flags.AddString("trace-out", &trace_out, "traced runs write their spans here (JSON lines)");
  flags.AddString("source-id", &source_id, "source revision, stamped into the provenance line");
  INDAAS_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) == kWorkloads.end()) {
    return InvalidArgumentError("--workload must be one of " + Join(kWorkloads, ", "));
  }
  if (seed < 0 || !(seconds >= 1 && seconds <= 120) || (trace != 0 && trace != 1)) {
    return InvalidArgumentError("need --seed >= 0, 1 <= --seconds <= 120 and --trace 0 or 1");
  }
  RunConfig config;
  config.seed = static_cast<uint64_t>(seed);
  config.seconds = seconds;
  PrintProvenance(source_id);
  const HostCpuTicks ticks_before = ReadHostCpuTicks();

  Outcome outcome;
  MetricSet metrics;
  if (trace == 0) {
    INDAAS_RETURN_IF_ERROR(CheckInputs(workload, config, &outcome));
    if (workload == "remote_sia_fattree") {
      INDAAS_RETURN_IF_ERROR(MeasureFatTree(config, &metrics, &outcome));
    } else if (workload == "svc_small_mixed") {
      INDAAS_RETURN_IF_ERROR(MeasureMixed(config, &metrics, &outcome));
    } else {
      INDAAS_RETURN_IF_ERROR(MeasureRing(config, &metrics, &outcome));
    }
    std::printf("metric cpu_ms_per_op %.4f ms\n", metrics.Get("cpu_ms_per_op"));
    std::printf("metric peak_rss_mb %.1f MB\n", metrics.Get("peak_rss_mb"));
  } else {
    // The selected workload runs first and owns the ladder closure; short
    // probes of the others fill the layers its own path does not reach
    // (the mixed probe also carries the chaos attribution check).
    std::vector<std::string> order = {workload};
    if (workload != "svc_small_mixed") {
      order.push_back("svc_small_mixed");
    }
    if (workload != "psop_ring_k3") {
      order.push_back("psop_ring_k3");
    }
    SpanRecorder spans;
    for (const std::string& name : order) {
      INDAAS_RETURN_IF_ERROR(CheckInputs(name, config, &outcome));
      const bool primary = name == workload;
      std::printf("traced pass %s (%s)\n", name.c_str(), primary ? "selected" : "probe");
      if (name == "remote_sia_fattree") {
        INDAAS_RETURN_IF_ERROR(TraceFatTree(config, primary, &metrics, &outcome, &spans));
      } else if (name == "svc_small_mixed") {
        INDAAS_RETURN_IF_ERROR(TraceMixed(config, primary, &metrics, &outcome, &spans));
      } else {
        INDAAS_RETURN_IF_ERROR(TraceRing(config, primary, &metrics, &outcome, &spans));
      }
    }
    if (!trace_out.empty()) {
      INDAAS_RETURN_IF_ERROR(spans.WriteJsonLines(trace_out));
      std::printf("spans written to %s\n", trace_out.c_str());
    }
  }
  std::printf("metric failed_frac %.6f  (%llu failed of %llu, %llu with a wrong result)\n",
              outcome.attempted == 0 ? 1.0
                                     : static_cast<double>(outcome.failed) /
                                           static_cast<double>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.wrong));

  // Time stolen by the hypervisor stretches every latency without adding CPU
  // time; printed so a slow run on a busy host is visible as such.
  const HostCpuTicks ticks_after = ReadHostCpuTicks();
  const uint64_t total_ticks = ticks_after.total - ticks_before.total;
  std::printf("host steal_frac=%.4f over the run\n",
              total_ticks == 0 ? 0.0
                               : static_cast<double>(ticks_after.steal - ticks_before.steal) /
                                     static_cast<double>(total_ticks));

  const std::set<std::string>& expected = trace == 0 ? kEndToEndMetrics : kPerLayerMetrics;
  for (const std::string& name : expected) {
    if (!metrics.Has(name)) {
      return InternalError("metric " + name + " was not measured");
    }
  }
  std::string json;
  for (const auto& [name, metric] : metrics.values()) {
    if (expected.count(name) == 0) {
      return InternalError("metric " + name + " is not declared");
    }
    if (!std::isfinite(metric.value)) {
      return InternalError("metric " + name + " is not a finite number");
    }
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", json.empty() ? "" : ", ",
                      name.c_str(), metric.value, metric.unit.c_str());
  }
  const bool correct = outcome.failed == 0 && outcome.inputs_ok && outcome.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), json.c_str());
  std::fflush(stdout);
  return Status::Ok();
}

}  // namespace
}  // namespace perfbench
}  // namespace indaas

int main(int argc, char** argv) {
  if (indaas::Status status = indaas::perfbench::Run(argc, argv); !status.ok()) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
