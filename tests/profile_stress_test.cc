// Profiler signal-safety stress (ctest label `profile`): a maximum-rate
// SIGPROF storm (997 Hz — prime, so it never phase-locks with any poll
// interval) fired into threads doing real work: a 3-party P-SOP ring under
// a deterministic chaos plan, an audit server handling RPCs, and a heap
// churn loop feeding the allocation sampler. The contract is the profiler's
// core safety claim: signals landing inside read()/write()/connect(),
// malloc, chaos-injected stalls and error paths must never deadlock,
// corrupt a result, or crash — the interrupted code must behave exactly as
// if the signal had not fired.
//
// CI runs this binary under TSan (with the chaos matrix) and under
// ASan+UBSan, where a handler touching non-signal-safe state or a bad
// frame-pointer walk turns into a hard failure instead of a flake.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/net/chaos.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/pia/psop.h"
#include "src/svc/client.h"
#include "src/svc/pia_peer.h"
#include "src/svc/proto.h"
#include "src/svc/server.h"
#include "src/util/timer.h"
#include "tests/ring_oracle.h"

namespace indaas {
namespace svc {
namespace {

// The sampling frequency under test: the profiler's hard cap, and prime.
constexpr uint32_t kStormHz = 997;

struct ChaosGuard {
  ~ChaosGuard() { net::chaos::UninstallPlan(); }
};

// Stops whatever session is running even when an ASSERT unwinds the test
// early — a leaked session would keep signalling later tests' threads.
struct ProfilerGuard {
  ~ProfilerGuard() { obs::Profiler::Global().Stop(); }
};

PsopOptions RingPsopOptions() {
  PsopOptions psop;
  psop.group_bits = 768;
  psop.seed = 42;
  return psop;
}

std::vector<std::vector<std::string>> RingDatasets(size_t k) {
  std::vector<std::vector<std::string>> datasets;
  for (size_t i = 0; i < k; ++i) {
    datasets.push_back({"shared", "net:core1", "own:" + std::to_string(i),
                        "pair:" + std::to_string(i / 2)});
  }
  return datasets;
}

bool CleanTypedError(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kProtocolError;
}

TEST(ProfileStressTest, ChaosRingSurvivesSigprofStorm) {
  const size_t k = 3;
  auto datasets = RingDatasets(k);
  const RingCounts reference = ExactRingOracle(datasets);

  ProfilerGuard profiler_guard;
  obs::ProfileOptions popts;
  popts.hz = kStormHz;
  popts.alloc = true;
  popts.alloc_interval_bytes = 64 * 1024;
  ASSERT_TRUE(obs::Profiler::Global().Start(popts).ok());

  ChaosGuard chaos_guard;
  net::chaos::FaultPlan plan;
  plan.seed = 4242;
  plan.reset = 0.01;
  plan.delay = 0.10;
  plan.delay_ms = 2;
  plan.partial_write = 0.5;
  net::chaos::InstallPlan(plan);

  PiaPeerOptions options;
  options.psop = RingPsopOptions();
  options.allow_degraded = true;
  options.connect_timeout_ms = 1000;
  options.io_timeout_ms = 1000;
  options.probe_window_ms = 1500;
  options.probe_io_timeout_ms = 200;
  options.max_recovery_attempts = 2;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_s = 0.01;
  options.retry.max_backoff_s = 0.05;
  std::vector<PiaPeer> peers;
  for (size_t i = 0; i < k; ++i) {
    auto peer = PiaPeer::Listen(0);
    ASSERT_TRUE(peer.ok()) << peer.status().ToString();
    options.peers.push_back(net::Endpoint{"127.0.0.1", peer->listen_port()});
    peers.push_back(std::move(*peer));
  }
  std::vector<Result<PsopResult>> results(k, InternalError("peer did not run"));
  std::vector<std::thread> threads;
  WallTimer timer;
  for (size_t i = 0; i < k; ++i) {
    threads.emplace_back([&, i] {
      // Opt this thread into the storm: every blocking syscall, modexp and
      // allocation it performs now races SIGPROF at 997 Hz.
      obs::Profiler::Global().RegisterCurrentThread();
      PiaPeerOptions mine = options;
      mine.self_index = i;
      results[i] = peers[i].RunPsop(datasets[i], mine);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  net::chaos::UninstallPlan();
  EXPECT_LT(timer.ElapsedSeconds(), 90.0);

  // Same contract as the chaos matrix: full result, marked-partial result,
  // or clean typed error — signals must not have added a fourth outcome.
  for (size_t i = 0; i < k; ++i) {
    const auto& result = results[i];
    if (!result.ok()) {
      EXPECT_TRUE(CleanTypedError(result.status()))
          << "peer " << i << ": " << result.status().ToString();
      continue;
    }
    if (!result->degraded()) {
      EXPECT_TRUE(MatchesOracle(*result, reference)) << "peer " << i;
    }
  }

  obs::ProfileData data = obs::Profiler::Global().Stop();
  // The storm must actually have hit the ring. The timers run on each
  // thread's CPU clock and ring peers spend most of the session blocked in
  // I/O (chaos stalls included), so the floor is modest — the invariant
  // being stressed is that every delivered signal was survived, and zero
  // samples would mean nothing was stressed at all.
  EXPECT_GE(data.samples.size(), 3u);
}

TEST(ProfileStressTest, ServerUnderStormKeepsAnsweringAndCapturing) {
  // The server-side variant: reactor loops and pool workers (which register
  // themselves) absorb the storm while serving pings, stats scrapes and a
  // concurrent GetProfile window cut from the very storm session.
  ProfilerGuard profiler_guard;
  obs::ProfileOptions popts;
  popts.hz = kStormHz;
  popts.alloc = true;
  ASSERT_TRUE(obs::Profiler::Global().Start(popts).ok());

  AuditServerOptions options;
  options.worker_threads = 2;
  AuditServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::atomic<bool> done{false};
  std::thread load([&] {
    auto worker = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
    ASSERT_TRUE(worker.ok());
    while (!done.load()) {
      ASSERT_TRUE(worker->Ping().ok());
      ASSERT_TRUE(worker->GetStats().ok());
    }
  });

  ProfileRequest request;
  request.hz = 99;  // advisory: the window comes from the 997 Hz session
  request.seconds = 1;
  auto reply = client->GetProfile(request);
  done.store(true);
  load.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  obs::ProfileData window;
  ASSERT_TRUE(obs::ParseProfileDumpText(reply->dump, &window));
  EXPECT_EQ(window.hz, kStormHz);

  server.Stop();
  obs::ProfileData data = obs::Profiler::Global().Stop();
  EXPECT_FALSE(data.samples.empty());
  // The drainer folded its counts into the pre-registered counters.
  EXPECT_GT(
      obs::MetricsRegistry::Global().GetCounter("obs.profile.samples")->Value(), 0u);
}

}  // namespace
}  // namespace svc
}  // namespace indaas
