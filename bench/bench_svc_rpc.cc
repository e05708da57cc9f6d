// Round-trip latency of the audit-service RPC path over loopback: one
// in-process AuditServer, one AuditClient, many sequential RPCs from a
// single connection. Unlike the CLI-driven walkthroughs this isolates the
// wire path (framing, trace-context extension, server dispatch, codecs)
// from process spawn and connect cost, which is what the EXPERIMENTS.md
// observability-overhead A/B needs.
//
//   bench_svc_rpc [--pings=5000] [--audits=200] [--flight-recorder=on|off]
//                 [--profile-hz=0] [--json-out=...]
//
// --profile-hz > 0 runs the whole measurement inside a continuous
// sampling-profiler session (the `indaas serve --profile-hz` deployment),
// which is the EXPERIMENTS.md profiler-overhead A/B: same RPC mix with the
// profiler off vs. sampling at the production default of 99 Hz.

#include <cstdio>

#include "src/deps/depdb.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/profiler.h"
#include "src/svc/client.h"
#include "src/svc/server.h"
#include "src/util/file.h"
#include "src/util/flags.h"
#include "src/util/strings.h"
#include "src/util/timer.h"

namespace indaas {
namespace {

// Same small-but-structured DepDB the svc tests audit.
std::string BenchDepDbText() {
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
  return db.ExportText();
}

Status Run(int argc, char** argv) {
  int64_t pings = 5000;
  int64_t audits = 200;
  std::string flight = "on";
  int64_t profile_hz = 0;
  std::string json_out;
  FlagSet flags;
  flags.AddInt("pings", &pings, "timed Ping round trips");
  flags.AddInt("audits", &audits, "timed structural-audit round trips");
  flags.AddString("flight-recorder", &flight,
                  "on (default) | off: A/B the always-on observability cost");
  flags.AddInt("profile-hz", &profile_hz,
               "run the measurement under a continuous profiling session at this"
               " frequency (0 = profiler off; 99 = production default)");
  flags.AddString("json-out", &json_out, "write machine-readable results here");
  INDAAS_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (flight != "on" && flight != "off") {
    return InvalidArgumentError("--flight-recorder must be on or off");
  }
  if (profile_hz < 0 || profile_hz > obs::Profiler::kMaxHz) {
    return InvalidArgumentError("--profile-hz out of range");
  }
  obs::FlightRecorder::Global().SetEnabled(flight == "on");

  svc::AuditServerOptions options;
  options.profile_hz = static_cast<uint32_t>(profile_hz);
  svc::AuditServer server(options);
  INDAAS_RETURN_IF_ERROR(server.Start());
  INDAAS_ASSIGN_OR_RETURN(svc::AuditClient client,
                          svc::AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()}));
  INDAAS_RETURN_IF_ERROR(client.ImportDepDb(BenchDepDbText()).status());
  AuditSpecification spec;
  spec.candidate_deployments = {{"S1", "S2"}, {"S1", "S3"}};

  for (int i = 0; i < 100; ++i) {  // warm-up: page in both sides of the path
    INDAAS_RETURN_IF_ERROR(client.Ping());
  }
  WallTimer ping_timer;
  for (int64_t i = 0; i < pings; ++i) {
    INDAAS_RETURN_IF_ERROR(client.Ping());
  }
  const double ping_s = ping_timer.ElapsedSeconds();

  WallTimer audit_timer;
  for (int64_t i = 0; i < audits; ++i) {
    INDAAS_RETURN_IF_ERROR(client.AuditStructural(spec).status());
  }
  const double audit_s = audit_timer.ElapsedSeconds();
  server.Stop();

  const double ping_us = ping_s * 1e6 / static_cast<double>(pings);
  const double audit_us = audit_s * 1e6 / static_cast<double>(audits);
  std::printf("ping:  %lld round trips in %.3f s  (%.1f us/rpc)\n",
              static_cast<long long>(pings), ping_s, ping_us);
  std::printf("audit: %lld round trips in %.3f s  (%.1f us/rpc)\n",
              static_cast<long long>(audits), audit_s, audit_us);
  if (!json_out.empty()) {
    std::string doc = StrFormat(
        "{\n  \"benchmark\": \"svc_rpc\",\n  \"flight_recorder\": \"%s\",\n"
        "  \"profile_hz\": %lld,\n"
        "  \"ping\": {\"rpcs\": %lld, \"seconds\": %.6f, \"us_per_rpc\": %.2f},\n"
        "  \"audit\": {\"rpcs\": %lld, \"seconds\": %.6f, \"us_per_rpc\": %.2f}\n}\n",
        flight.c_str(), static_cast<long long>(profile_hz),
        static_cast<long long>(pings), ping_s, ping_us,
        static_cast<long long>(audits), audit_s, audit_us);
    INDAAS_RETURN_IF_ERROR(WriteFile(json_out, doc));
  }
  return Status::Ok();
}

}  // namespace
}  // namespace indaas

int main(int argc, char** argv) {
  if (indaas::Status status = indaas::Run(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
