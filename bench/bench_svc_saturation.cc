// Saturation study for the audit service: how many concurrent auditing
// clients the reactor sustains, and what pipelining buys on one
// connection. Three phases:
//
//   1. Pipelining gain — sequential AuditClient pings (one in flight) vs
//      the same client keeping a window of pipelined pings in flight on
//      one connection.
//   2. Sustained concurrency — closed-loop clients auditing at a low
//      per-connection rate (think time between audits, like real periodic
//      auditors), once with as many connections as pool workers and once
//      with --reactor-conns. The reactor multiplexes idle connections, so
//      pool size does not cap them. The server "sustains" a connection when
//      that connection keeps completing audits for the whole run.
//   3. Open-loop Poisson arrivals against the reactor — offered load swept
//      across rates, recording completion p50/p99, achieved throughput and
//      shed (kUnavailable) counts as the offered load passes capacity.
//
//   bench_svc_saturation [--workers=16] [--duration-s=1.2] [--think-ms=200]
//     [--reactor-conns=160] [--openloop-rates=1000,4000,12000] [--json-out=...]
//     [--profile-hz=0 --profile-dump=prof.txt]
//
// --profile-hz + --profile-dump run the whole study inside a sampling
// session and write the raw profile dump at the end; feed it through
// tools/symbolize_profile.py to get the collapsed flamegraph of the
// saturated server (pool workers and reactor shards register with the
// sampler on their own; the closed-loop client threads stay unregistered
// so the capture is the server's view, not 160 copies of the driver).

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "src/deps/depdb.h"
#include "src/obs/export.h"
#include "src/obs/profiler.h"
#include "src/svc/client.h"
#include "src/svc/server.h"
#include "src/util/file.h"
#include "src/util/flags.h"
#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/util/timer.h"

namespace indaas {
namespace {

// Same small-but-structured DepDB the svc tests and bench_svc_rpc audit.
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

AuditSpecification BenchSpec() {
  AuditSpecification spec;
  spec.candidate_deployments = {{"S1", "S2"}, {"S1", "S3"}};
  return spec;
}

struct SustainedResult {
  size_t conns = 0;
  size_t progressed = 0;  // connections that completed at least one audit
  size_t sustained = 0;   // connections still completing in the final third
  uint64_t completed = 0;
  uint64_t errors = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

// Closed-loop phase: `conns` client threads each audit, then idle for
// `think_ms` — a fleet of periodic auditors, mostly waiting. Returns what
// the server could actually sustain.
SustainedResult RunSustained(size_t workers, size_t conns, double duration_s, int think_ms) {
  svc::AuditServerOptions options;
  options.worker_threads = workers;
  options.reactor_shards = 2;
  options.listen_backlog = static_cast<int>(conns + 16);
  svc::AuditServer server(options);
  SustainedResult result;
  result.conns = conns;
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", started.ToString().c_str());
    return result;
  }
  {
    auto seed = svc::AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
    if (!seed.ok() || !seed->ImportDepDb(BenchDepDbText()).ok()) {
      std::fprintf(stderr, "depdb seed failed\n");
      server.Stop();
      return result;
    }
  }

  const AuditSpecification spec = BenchSpec();
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double>(duration_s);
  const auto final_third = start + std::chrono::duration<double>(duration_s * 2.0 / 3.0);

  std::mutex mu;
  std::vector<double> latencies_ms;
  std::vector<uint64_t> per_conn_completed(conns, 0);
  std::vector<bool> completed_late(conns, false);
  std::vector<uint64_t> per_conn_errors(conns, 0);

  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      svc::AuditClientOptions client_options;
      // Starved connections must fail fast, not hang past the bench window.
      client_options.io_timeout_ms = 500;
      client_options.retry.max_attempts = 1;
      auto client = svc::AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()},
                                              client_options);
      if (!client.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        per_conn_errors[c]++;
        return;
      }
      // Periodic auditors are phase-shifted in practice; without a stagger
      // all `conns` audits land in lockstep and measure queueing, not
      // steady-state latency.
      std::mt19937 stagger_rng(static_cast<uint32_t>(c) * 2654435761u + 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::uniform_int_distribution<int>(0, think_ms > 0 ? think_ms - 1 : 0)(
              stagger_rng)));
      while (std::chrono::steady_clock::now() < deadline) {
        WallTimer timer;
        auto report = client->AuditStructural(spec);
        const double elapsed_ms = timer.ElapsedSeconds() * 1000.0;
        const bool late = std::chrono::steady_clock::now() >= final_third;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (report.ok()) {
            per_conn_completed[c]++;
            completed_late[c] = completed_late[c] || late;
            latencies_ms.push_back(elapsed_ms);
          } else {
            per_conn_errors[c]++;
          }
        }
        if (!report.ok()) {
          // Starved or shed: the serial client's stream may be poisoned
          // (e.g. a late reply to a timed-out request); stop this conn.
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(think_ms));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  server.Stop();

  for (size_t c = 0; c < conns; ++c) {
    if (per_conn_completed[c] > 0) {
      result.progressed++;
    }
    if (completed_late[c]) {
      result.sustained++;
    }
    result.completed += per_conn_completed[c];
    result.errors += per_conn_errors[c];
  }
  result.p50_ms = Percentile(latencies_ms, 50);
  result.p99_ms = Percentile(latencies_ms, 99);
  return result;
}

struct OpenLoopResult {
  double rate = 0;  // offered arrivals per second
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  double achieved_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

// Open-loop phase: Poisson arrivals at `rate`/s fired through a client pool at
// the reactor. If the driver falls behind (or the window fills), requests
// queue at the client — latency, sheds and achieved throughput tell the
// saturation story.
Result<OpenLoopResult> RunOpenLoop(svc::AuditClient& client, double rate,
                                   double duration_s, uint64_t seed) {
  OpenLoopResult result;
  result.rate = rate;
  const std::string spec_payload = svc::EncodeAuditSpecification(BenchSpec());

  std::mutex mu;
  std::condition_variable cv;
  uint64_t pending = 0;
  std::vector<double> latencies_ms;

  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> inter_arrival(rate);
  auto next = std::chrono::steady_clock::now();
  const auto deadline = next + std::chrono::duration<double>(duration_s);
  WallTimer wall;
  while (next < deadline) {
    std::this_thread::sleep_until(next);
    next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(inter_arrival(rng)));
    result.offered++;
    {
      std::lock_guard<std::mutex> lock(mu);
      pending++;
    }
    WallTimer rpc_timer;
    client.AsyncCall(svc::MsgType::kAuditRequest, spec_payload, svc::MsgType::kAuditReport,
                     [&, rpc_timer](Result<net::Frame> reply) mutable {
                       const double elapsed_ms = rpc_timer.ElapsedSeconds() * 1000.0;
                       std::lock_guard<std::mutex> lock(mu);
                       if (reply.ok()) {
                         latencies_ms.push_back(elapsed_ms);
                       } else if (reply.status().code() == StatusCode::kUnavailable) {
                         result.shed++;
                       } else {
                         result.errors++;
                       }
                       pending--;
                       cv.notify_one();
                     });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(30), [&] { return pending == 0; })) {
      return DeadlineExceededError("open-loop drain timed out");
    }
  }
  const double elapsed = wall.ElapsedSeconds();
  result.completed = latencies_ms.size();
  result.achieved_rps = elapsed > 0 ? static_cast<double>(result.completed) / elapsed : 0;
  result.p50_ms = Percentile(latencies_ms, 50);
  result.p99_ms = Percentile(latencies_ms, 99);
  return result;
}

Status Run(int argc, char** argv) {
  int64_t workers = 16;
  int64_t pings = 2000;
  int64_t window = 64;
  int64_t reactor_conns = 160;
  double duration_s = 1.2;
  int64_t think_ms = 200;
  std::string openloop_rates = "1000,4000,12000";
  double openloop_duration_s = 1.0;
  int64_t profile_hz = 0;
  std::string profile_dump;
  std::string json_out;
  FlagSet flags;
  flags.AddInt("workers", &workers, "server worker threads in every scenario");
  flags.AddInt("pings", &pings, "round trips in the pipelining A/B");
  flags.AddInt("window", &window, "pipelined client in-flight window");
  flags.AddInt("reactor-conns", &reactor_conns, "closed-loop connections at the reactor");
  flags.AddDouble("duration-s", &duration_s, "closed-loop scenario duration");
  flags.AddInt("think-ms", &think_ms, "idle time between a connection's audits");
  flags.AddString("openloop-rates", &openloop_rates,
                  "comma-separated Poisson arrival rates (audits/s), empty to skip");
  flags.AddDouble("openloop-duration-s", &openloop_duration_s, "duration per offered rate");
  flags.AddInt("profile-hz", &profile_hz,
               "sample the whole study at this frequency (0 = profiler off)");
  flags.AddString("profile-dump", &profile_dump,
                  "where the raw profile dump lands (requires --profile-hz)");
  flags.AddString("json-out", &json_out, "write machine-readable results here");
  INDAAS_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (profile_hz < 0 || profile_hz > obs::Profiler::kMaxHz) {
    return InvalidArgumentError("--profile-hz out of range");
  }
  if (!profile_dump.empty() && profile_hz == 0) {
    return InvalidArgumentError("--profile-dump requires --profile-hz > 0");
  }
  if (profile_hz > 0) {
    obs::Profiler::Global().RegisterCurrentThread();
    obs::ProfileOptions popts;
    popts.hz = static_cast<uint32_t>(profile_hz);
    popts.alloc = true;
    INDAAS_RETURN_IF_ERROR(obs::Profiler::Global().Start(popts));
  }

  // --- Phase 1: pipelining gain on one connection ---
  double serial_rps = 0;
  double mux_rps = 0;
  {
    svc::AuditServerOptions options;
    options.worker_threads = static_cast<size_t>(workers);
    svc::AuditServer server(options);
    INDAAS_RETURN_IF_ERROR(server.Start());
    const net::Endpoint endpoint{"127.0.0.1", server.port()};
    {
      INDAAS_ASSIGN_OR_RETURN(svc::AuditClient client, svc::AuditClient::Connect(endpoint));
      for (int i = 0; i < 100; ++i) {
        INDAAS_RETURN_IF_ERROR(client.Ping());
      }
      WallTimer timer;
      for (int64_t i = 0; i < pings; ++i) {
        INDAAS_RETURN_IF_ERROR(client.Ping());
      }
      serial_rps = static_cast<double>(pings) / timer.ElapsedSeconds();
    }
    {
      svc::AuditClientOptions mux_options;
      mux_options.connections = 1;
      mux_options.window = static_cast<size_t>(window);
      INDAAS_ASSIGN_OR_RETURN(svc::AuditClient client,
                              svc::AuditClient::Connect(endpoint, mux_options));
      std::mutex mu;
      std::condition_variable cv;
      int64_t done = 0;
      int64_t failed = 0;
      WallTimer timer;
      for (int64_t i = 0; i < pings; ++i) {
        client.AsyncCall(svc::MsgType::kPing, "", svc::MsgType::kPong,
                         [&](Result<net::Frame> reply) {
                           std::lock_guard<std::mutex> lock(mu);
                           if (!reply.ok()) {
                             failed++;
                           }
                           done++;
                           cv.notify_one();
                         });
      }
      {
        std::unique_lock<std::mutex> lock(mu);
        if (!cv.wait_for(lock, std::chrono::seconds(30), [&] { return done == pings; })) {
          return DeadlineExceededError("pipelined ping drain timed out");
        }
      }
      mux_rps = static_cast<double>(pings) / timer.ElapsedSeconds();
      if (failed > 0) {
        return InternalError(StrFormat("%lld pipelined pings failed",
                                       static_cast<long long>(failed)));
      }
      client.Shutdown();
    }
    server.Stop();
  }
  std::printf("pipelining: serial %.0f pings/s, window-%lld mux %.0f pings/s (%.1fx)\n",
              serial_rps, static_cast<long long>(window), mux_rps,
              serial_rps > 0 ? mux_rps / serial_rps : 0.0);

  // --- Phase 2: sustained concurrent auditors ---
  std::vector<SustainedResult> sustained;
  for (int64_t conns : {workers, reactor_conns}) {
    sustained.push_back(RunSustained(static_cast<size_t>(workers), static_cast<size_t>(conns),
                                     duration_s, static_cast<int>(think_ms)));
    const SustainedResult& r = sustained.back();
    std::printf(
        "reactor conns=%-4zu progressed=%-4zu sustained=%-4zu audits=%-6llu errors=%-5llu "
        "p50=%.2fms p99=%.2fms\n",
        r.conns, r.progressed, r.sustained, static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.errors), r.p50_ms, r.p99_ms);
  }

  // --- Phase 3: open-loop Poisson sweep at the reactor ---
  std::vector<OpenLoopResult> open_loop;
  std::vector<std::string> rate_fields = SplitAndTrim(openloop_rates, ',');
  if (!rate_fields.empty()) {
    svc::AuditServerOptions options;
    options.worker_threads = static_cast<size_t>(workers);
    options.reactor_shards = 2;
    svc::AuditServer server(options);
    INDAAS_RETURN_IF_ERROR(server.Start());
    {
      INDAAS_ASSIGN_OR_RETURN(
          svc::AuditClient seed,
          svc::AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()}));
      INDAAS_RETURN_IF_ERROR(seed.ImportDepDb(BenchDepDbText()).status());
    }
    svc::AuditClientOptions mux_options;
    mux_options.connections = 4;
    mux_options.window = 256;
    INDAAS_ASSIGN_OR_RETURN(
        svc::AuditClient client,
        svc::AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()}, mux_options));
    uint64_t seed = 1;
    for (const std::string& field : rate_fields) {
      char* end = nullptr;
      const double rate = std::strtod(field.c_str(), &end);
      if (end == field.c_str() || rate <= 0) {
        return InvalidArgumentError("--openloop-rates expects positive numbers");
      }
      INDAAS_ASSIGN_OR_RETURN(OpenLoopResult r,
                              RunOpenLoop(client, rate, openloop_duration_s, seed++));
      std::printf("open-loop rate=%-6.0f offered=%-6llu done=%-6llu shed=%-5llu "
                  "errors=%-3llu achieved=%.0f/s p50=%.2fms p99=%.2fms\n",
                  r.rate, static_cast<unsigned long long>(r.offered),
                  static_cast<unsigned long long>(r.completed),
                  static_cast<unsigned long long>(r.shed),
                  static_cast<unsigned long long>(r.errors), r.achieved_rps, r.p50_ms,
                  r.p99_ms);
      open_loop.push_back(r);
    }
    client.Shutdown();
    server.Stop();
  }

  if (profile_hz > 0) {
    obs::ProfileData data = obs::Profiler::Global().Stop();
    std::printf("profile: %zu samples at %u Hz (%llu dropped, %llu truncated)\n",
                data.samples.size(), data.hz,
                static_cast<unsigned long long>(data.dropped),
                static_cast<unsigned long long>(data.truncated_stacks));
    if (!profile_dump.empty()) {
      INDAAS_RETURN_IF_ERROR(WriteFile(profile_dump, obs::ProfileToDumpText(data)));
      std::printf("profile: dump written to %s (symbolize: "
                  "python3 tools/symbolize_profile.py %s)\n",
                  profile_dump.c_str(), profile_dump.c_str());
    }
  }

  if (!json_out.empty()) {
    std::string doc = StrFormat(
        "{\n  \"benchmark\": \"svc_saturation\",\n"
        "  \"pipelining\": {\"pings\": %lld, \"window\": %lld, \"serial_rps\": %.1f, "
        "\"mux_rps\": %.1f, \"speedup\": %.2f},\n",
        static_cast<long long>(pings), static_cast<long long>(window), serial_rps, mux_rps,
        serial_rps > 0 ? mux_rps / serial_rps : 0.0);
    doc += "  \"sustained\": [\n";
    for (size_t i = 0; i < sustained.size(); ++i) {
      const SustainedResult& r = sustained[i];
      doc += StrFormat(
          "    {\"conns\": %zu, \"progressed\": %zu, \"sustained\": %zu, "
          "\"completed\": %llu, \"errors\": %llu, \"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
          r.conns, r.progressed, r.sustained,
          static_cast<unsigned long long>(r.completed),
          static_cast<unsigned long long>(r.errors), r.p50_ms, r.p99_ms,
          i + 1 < sustained.size() ? "," : "");
    }
    doc += "  ],\n";
    doc += "  \"open_loop\": [\n";
    for (size_t i = 0; i < open_loop.size(); ++i) {
      const OpenLoopResult& r = open_loop[i];
      doc += StrFormat(
          "    {\"rate\": %.0f, \"offered\": %llu, \"completed\": %llu, \"shed\": %llu, "
          "\"errors\": %llu, \"achieved_rps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
          r.rate, static_cast<unsigned long long>(r.offered),
          static_cast<unsigned long long>(r.completed),
          static_cast<unsigned long long>(r.shed),
          static_cast<unsigned long long>(r.errors), r.achieved_rps, r.p50_ms, r.p99_ms,
          i + 1 < open_loop.size() ? "," : "");
    }
    doc += "  ]\n}\n";
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
