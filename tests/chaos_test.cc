// Chaos matrix (ctest label `chaos`): every fault class of the seeded
// injection engine (src/net/chaos.h) runs against both server modes and
// against degraded-capable P-SOP rings. The contract under test is the
// robustness invariant, not any particular failure: within bounded time
// every operation must end in a full correct result, a correctly-marked
// partial result, or a clean typed error — never a hang, a crash, or a
// silently wrong answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/deps/depdb.h"
#include "src/net/chaos.h"
#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/obs/metrics.h"
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

using net::chaos::FaultPlan;

// Uninstalls the plan even when an ASSERT unwinds the test early — a
// leaked plan would inject faults into every later test in the binary.
struct ChaosGuard {
  ~ChaosGuard() { net::chaos::UninstallPlan(); }
};

// One fault class at a moderate per-operation probability. Stalls convert
// to kDeadlineExceeded quickly so the matrix stays fast.
FaultPlan PlanFor(const std::string& fault, uint64_t seed, double p = 0.05) {
  FaultPlan plan;
  plan.seed = seed;
  plan.delay_ms = 2;
  plan.max_stall_ms = 200;
  if (fault == "reset") {
    plan.reset = p;
  } else if (fault == "accept_fail") {
    plan.accept_fail = p;
  } else if (fault == "read_stall") {
    plan.read_stall = p;
  } else if (fault == "write_stall") {
    plan.write_stall = p;
  } else if (fault == "partial_write") {
    plan.partial_write = 1.0;  // harmless when resumption works; always on
  } else if (fault == "delay") {
    plan.delay = 0.25;  // pure jitter, ops must still complete
  } else if (fault == "corrupt") {
    plan.corrupt = p;
  } else if (fault == "byte_cap") {
    plan.send_cap = 8192;
    plan.recv_cap = 8192;
  } else {
    ADD_FAILURE() << "unknown fault class " << fault;
  }
  return plan;
}

// The errors a chaos run is allowed to surface: the transport family
// (reset/refused), a bounded stall, or a detected protocol violation.
// Anything else — especially kOk with wrong bytes — is a bug.
bool CleanTypedError(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kProtocolError;
}

// Per-fault-class variant: there are no wire checksums, so a corrupted
// length byte in the frame header can misframe an otherwise-valid payload,
// which then decodes as garbage and surfaces as a parse error. Still typed,
// bounded, and never a silent wrong answer — but only `corrupt` may do it.
bool CleanTypedErrorFor(const std::string& fault, const Status& status) {
  if (CleanTypedError(status)) {
    return true;
  }
  return fault == "corrupt" && status.code() == StatusCode::kParseError;
}

const char* kFaultClasses[] = {"reset",         "accept_fail", "read_stall",
                               "write_stall",   "partial_write", "delay",
                               "corrupt",       "byte_cap"};

std::string TestDepDbText() {
  DepDb db;
  db.Add(NetworkDependency{"S1", "Internet", {"ToR1", "Core1"}});
  db.Add(NetworkDependency{"S2", "Internet", {"ToR1", "Core1"}});
  db.Add(NetworkDependency{"S3", "Internet", {"ToR2", "Core1"}});
  db.Add(HardwareDependency{"S1", "Disk", "SED900"});
  db.Add(HardwareDependency{"S2", "Disk", "SED900"});
  db.Add(HardwareDependency{"S3", "Disk", "WD200"});
  return db.ExportText();
}

AuditSpecification TestSpec() {
  AuditSpecification spec;
  spec.candidate_deployments = {{"S1", "S2"}, {"S1", "S3"}};
  return spec;
}

// --- FaultPlan parsing and replayability ---

TEST(FaultPlanTest, ParsesAndRoundTrips) {
  auto plan = net::chaos::ParseFaultPlan(
      "seed=42,reset=0.25,read_stall=0.5,send_cap=4096,delay_ms=7,max_stall_ms=100");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 42u);
  EXPECT_DOUBLE_EQ(plan->reset, 0.25);
  EXPECT_DOUBLE_EQ(plan->read_stall, 0.5);
  EXPECT_EQ(plan->send_cap, 4096u);
  EXPECT_EQ(plan->delay_ms, 7u);
  EXPECT_EQ(plan->max_stall_ms, 100u);
  EXPECT_TRUE(plan->active());
  auto reparsed = net::chaos::ParseFaultPlan(net::chaos::FaultPlanToString(*plan));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(net::chaos::FaultPlanToString(*reparsed), net::chaos::FaultPlanToString(*plan));
}

TEST(FaultPlanTest, RejectsUnknownKeysAndBadRanges) {
  EXPECT_FALSE(net::chaos::ParseFaultPlan("frobnicate=1").ok());
  EXPECT_FALSE(net::chaos::ParseFaultPlan("reset=1.5").ok());
  EXPECT_FALSE(net::chaos::ParseFaultPlan("reset=-0.1").ok());
  EXPECT_FALSE(net::chaos::ParseFaultPlan("reset").ok());
  auto empty = net::chaos::ParseFaultPlan("");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->active());
}

// The same plan seed must produce the same fault schedule for the same
// per-connection operation sequence: run an identical single-threaded
// socket-pair script twice and demand identical outcomes, step by step.
TEST(FaultPlanTest, SameSeedSameOperationsSameFaultSchedule) {
  auto run_script = [] {
    std::vector<std::string> outcomes;
    auto listener = net::TcpListen(0);
    EXPECT_TRUE(listener.ok());
    auto port = listener->LocalPort();
    EXPECT_TRUE(port.ok());
    auto client = net::TcpConnect(net::Endpoint{"127.0.0.1", *port}, 1000);
    if (!client.ok()) {
      outcomes.push_back("connect:" + client.status().ToString());
      return outcomes;
    }
    auto served = net::TcpAccept(*listener, 1000);
    if (!served.ok()) {
      outcomes.push_back("accept:" + served.status().ToString());
      return outcomes;
    }
    net::FrameLimits limits;
    for (int i = 0; i < 12; ++i) {
      std::string payload(64 + i * 17, static_cast<char>('a' + i));
      Status sent = net::WriteFrame(*client, 7, payload, 300);
      outcomes.push_back("w" + std::to_string(i) + ":" + sent.ToString());
      if (!sent.ok()) {
        break;
      }
      auto frame = net::ReadFrame(*served, limits, 300);
      outcomes.push_back("r" + std::to_string(i) + ":" +
                         (frame.ok() ? "ok" : frame.status().ToString()));
      if (!frame.ok()) {
        break;
      }
    }
    return outcomes;
  };
  ChaosGuard guard;
  FaultPlan plan;
  plan.seed = 7;
  plan.reset = 0.10;
  plan.partial_write = 0.5;
  plan.corrupt = 0.10;
  plan.max_stall_ms = 100;
  net::chaos::InstallPlan(plan);  // resets per-connection state
  std::vector<std::string> first = run_script();
  net::chaos::InstallPlan(plan);
  std::vector<std::string> second = run_script();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

// --- Fault class x audit RPC ---

class ChaosRpcMatrix : public ::testing::TestWithParam<const char*> {};

TEST_P(ChaosRpcMatrix, AuditRpcEndsInResultOrTypedError) {
  const std::string fault = GetParam();

  AuditServerOptions options;
  options.worker_threads = 2;
  options.read_deadline_ms = 1000;
  AuditServer server(options);
  ASSERT_TRUE(server.agent().depdb().ImportText(TestDepDbText()).ok());
  ASSERT_TRUE(server.Start().ok());
  const net::Endpoint endpoint{"127.0.0.1", server.port()};

  // The no-chaos answer, computed in process: any kOk reply under chaos
  // must match it exactly (frame-header corruption is detectable, payload
  // bytes are never touched — so a wrong answer would be an engine bug).
  AuditingAgent reference;
  ASSERT_TRUE(reference.depdb().ImportText(TestDepDbText()).ok());
  auto expected = reference.AuditStructural(TestSpec());
  ASSERT_TRUE(expected.ok());
  const std::string expected_text = RenderSiaReport(*expected);

  ChaosGuard guard;
  net::chaos::InstallPlan(PlanFor(fault, /*seed=*/1234));

  WallTimer timer;
  int full_results = 0;
  int typed_errors = 0;
  for (int i = 0; i < 6; ++i) {
    AuditClientOptions client_options;
    client_options.connect_timeout_ms = 500;
    client_options.io_timeout_ms = 1500;
    client_options.retry.max_attempts = 2;
    client_options.retry.initial_backoff_s = 0.01;
    client_options.retry.max_backoff_s = 0.05;
    auto client = AuditClient::Connect(endpoint, client_options);
    if (!client.ok()) {
      EXPECT_TRUE(CleanTypedErrorFor(fault, client.status()))
          << client.status().ToString();
      ++typed_errors;
      continue;
    }
    auto report = client->AuditStructural(TestSpec());
    if (report.ok()) {
      EXPECT_EQ(RenderSiaReport(*report), expected_text) << "silent wrong answer";
      ++full_results;
    } else {
      EXPECT_TRUE(CleanTypedErrorFor(fault, report.status()))
          << report.status().ToString();
      ++typed_errors;
    }
  }
  // Bounded: every stall converts within max_stall_ms / io timeouts. The
  // generous ceiling only exists to turn a hang into a readable failure.
  EXPECT_LT(timer.ElapsedSeconds(), 60.0);
  EXPECT_EQ(full_results + typed_errors, 6);
  // Benign fault classes never cost a result: delivery jitter and short
  // writes are handled by resumption, not surfaced to callers.
  if (fault == "delay" || fault == "partial_write") {
    EXPECT_EQ(full_results, 6);
  }
  net::chaos::UninstallPlan();
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(AllFaults, ChaosRpcMatrix, ::testing::ValuesIn(kFaultClasses),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// --- Fault class x degraded-capable rings ---

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

constexpr uint32_t kRingSketchK = 128;

// Runs a k-party loopback ring with degraded mode on; returns per-peer
// results. `victim_fail_after` != SIZE_MAX arms the deterministic death
// seam on peer `victim`; `sketch` runs the sketch exchange instead of
// exact P-SOP.
std::vector<Result<PsopResult>> RunChaosRing(
    const std::vector<std::vector<std::string>>& datasets,
    size_t victim = SIZE_MAX, size_t victim_fail_after = SIZE_MAX, bool sketch = false) {
  const size_t k = datasets.size();
  std::vector<PiaPeer> peers;
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
  options.sketch_k = kRingSketchK;
  for (size_t i = 0; i < k; ++i) {
    auto peer = PiaPeer::Listen(0);
    EXPECT_TRUE(peer.ok()) << peer.status().ToString();
    options.peers.push_back(net::Endpoint{"127.0.0.1", peer->listen_port()});
    peers.push_back(std::move(*peer));
  }
  std::vector<Result<PsopResult>> results(k, InternalError("peer did not run"));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < k; ++i) {
    threads.emplace_back([&, i] {
      PiaPeerOptions mine = options;
      mine.self_index = i;
      if (i == victim) {
        mine.fail_after_exchanges = victim_fail_after;
      }
      results[i] = sketch ? peers[i].RunPsopWithSketch(datasets[i], mine)
                          : peers[i].RunPsop(datasets[i], mine);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return results;
}

// The counts a reformed ring must report: the plaintext oracle over
// exactly the surviving datasets.
RingCounts ExpectedCounts(const std::vector<std::vector<std::string>>& datasets,
                          const std::vector<uint32_t>& excluded, bool sketch = false) {
  const auto survivors = Survivors(datasets, excluded);
  return sketch ? SketchRingOracle(survivors, kRingSketchK, RingPsopOptions().seed)
                : ExactRingOracle(survivors);
}

class ChaosRingMatrix
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(ChaosRingMatrix, RingEndsInFullPartialOrTypedError) {
  const std::string fault = std::get<0>(GetParam());
  const size_t k = static_cast<size_t>(std::get<1>(GetParam()));
  auto datasets = RingDatasets(k);
  const RingCounts full_reference = ExactRingOracle(datasets);

  ChaosGuard guard;
  // Rings multiply operation counts by k hops, so a lower per-op
  // probability keeps most sessions recoverable instead of collapsing.
  net::chaos::InstallPlan(PlanFor(fault, /*seed=*/99, /*p=*/0.01));

  WallTimer timer;
  auto results = RunChaosRing(datasets);
  net::chaos::UninstallPlan();
  EXPECT_LT(timer.ElapsedSeconds(), 90.0);

  for (size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    if (!result.ok()) {
      EXPECT_TRUE(CleanTypedErrorFor(fault, result.status()))
          << "peer " << i << ": " << result.status().ToString();
      continue;
    }
    if (result->degraded()) {
      // A partial result must say so, must not claim the dead peers'
      // sets, and must equal a clean run among the survivors.
      EXPECT_FALSE(result->excluded.empty()) << "peer " << i;
      EXPECT_GE(result->recovery_attempts, 1u) << "peer " << i;
      EXPECT_GE(k - result->excluded.size(), 2u) << "peer " << i;
      EXPECT_TRUE(MatchesOracle(*result, ExpectedCounts(datasets, result->excluded)))
          << "peer " << i << " degraded result diverged from survivor reference";
    } else {
      EXPECT_TRUE(MatchesOracle(*result, full_reference)) << "peer " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsSmallRings, ChaosRingMatrix,
    ::testing::Combine(::testing::ValuesIn(kFaultClasses), ::testing::Values(3, 5)),
    [](const ::testing::TestParamInfo<ChaosRingMatrix::ParamType>& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param)) + "party";
    });

// --- Deterministic peer-death recovery (no randomness at all) ---

// Kills peer 2 of a 5-party ring (exact or sketch) just before exchange
// `fail_after` and checks that every survivor reports the same partial
// result.
void ExpectSeamKilledPeerExcludedByEverySurvivor(bool sketch, size_t fail_after) {
  const size_t k = 5;
  const size_t victim = 2;
  auto datasets = RingDatasets(k);
  WallTimer timer;
  auto results = RunChaosRing(datasets, victim, fail_after, sketch);
  EXPECT_LT(timer.ElapsedSeconds(), 60.0);

  // The victim's own session dies on the seam's internal error.
  EXPECT_FALSE(results[victim].ok());

  // Every survivor returns the same partial result: victim excluded,
  // exactly one reformation, counts of the 4-party survivor run.
  const RingCounts expected =
      ExpectedCounts(datasets, {static_cast<uint32_t>(victim)}, sketch);
  for (size_t i = 0; i < k; ++i) {
    if (i == victim) {
      continue;
    }
    ASSERT_TRUE(results[i].ok())
        << "survivor " << i << ": " << results[i].status().ToString();
    EXPECT_TRUE(results[i]->degraded()) << "survivor " << i;
    EXPECT_EQ(results[i]->excluded,
              std::vector<uint32_t>{static_cast<uint32_t>(victim)})
        << "survivor " << i;
    EXPECT_EQ(results[i]->recovery_attempts, 1u) << "survivor " << i;
    EXPECT_TRUE(MatchesOracle(*results[i], expected)) << "survivor " << i;
  }
  // The reformed ring's frames carry the ring-membership extension; both
  // sides of every hop must meter it, so the survivors' totals agree.
  uint64_t sent = 0;
  uint64_t received = 0;
  for (size_t i = 0; i < k; ++i) {
    if (i != victim && results[i].ok()) {
      sent += results[i]->party_stats[i].bytes_sent;
      received += results[i]->party_stats[i].bytes_received;
    }
  }
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(received, sent);
}

TEST(DegradedRingTest, SeamKilledPeerIsExcludedByEverySurvivor) {
  ExpectSeamKilledPeerExcludedByEverySurvivor(/*sketch=*/false, /*fail_after=*/1);
}

// The sketch exchange recovers the same way: its reformed frames carry both
// the sketch-params and the ring-membership extensions. The victim dies
// before its first exchange: a sketch ring has only k - 1 exchanges, and
// once the victim's own sketch is out, the peer k - 1 hops downstream of it
// can gather every sketch and finish with a full result before the fault
// reaches it, leaving the others to reform without it.
TEST(DegradedRingTest, SketchSeamKilledPeerIsExcludedByEverySurvivor) {
  ExpectSeamKilledPeerExcludedByEverySurvivor(/*sketch=*/true, /*fail_after=*/0);
}

TEST(DegradedRingTest, TwoPartyRingCollapseIsTypedUnavailable) {
  // Killing one peer of a 2-ring leaves one survivor — below quorum. The
  // survivor must fail with kUnavailable ("ring collapsed"), not hang.
  auto datasets = RingDatasets(2);
  WallTimer timer;
  auto results = RunChaosRing(datasets, /*victim=*/1, /*victim_fail_after=*/0);
  EXPECT_LT(timer.ElapsedSeconds(), 30.0);
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].status().code(), StatusCode::kUnavailable)
      << results[0].status().ToString();
}

TEST(DegradedRingTest, DefaultModeStillFailsWholeSessionOnPeerDeath) {
  // allow_degraded off: the pre-recovery contract — no partial results.
  const size_t k = 3;
  auto datasets = RingDatasets(k);
  std::vector<PiaPeer> peers;
  PiaPeerOptions options;
  options.psop = RingPsopOptions();
  options.io_timeout_ms = 800;
  options.connect_timeout_ms = 800;
  for (size_t i = 0; i < k; ++i) {
    auto peer = PiaPeer::Listen(0);
    ASSERT_TRUE(peer.ok());
    options.peers.push_back(net::Endpoint{"127.0.0.1", peer->listen_port()});
    peers.push_back(std::move(*peer));
  }
  std::vector<Result<PsopResult>> results(k, InternalError("peer did not run"));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < k; ++i) {
    threads.emplace_back([&, i] {
      PiaPeerOptions mine = options;
      mine.self_index = i;
      if (i == 1) {
        mine.fail_after_exchanges = 1;
      }
      results[i] = peers[i].RunPsop(datasets[i], mine);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (size_t i = 0; i < k; ++i) {
    EXPECT_FALSE(results[i].ok()) << "peer " << i << " returned a result "
                                  << "despite a dead ring peer and no degraded mode";
  }
}

// --- Adaptive admission under chaos-free overload ---

TEST(AdaptiveAdmissionTest, ShedsUnderStandingQueueThenRecovers) {
  AuditServerOptions options;
  options.worker_threads = 1;  // one slow lane => a standing queue
  options.adaptive_admission = true;
  options.target_queue_delay_s = 0.001;
  AuditServer server(options);
  ASSERT_TRUE(server.agent().depdb().ImportText(TestDepDbText()).ok());
  ASSERT_TRUE(server.Start().ok());

  // Slow sampling audits from several synchronous clients keep a handful
  // of requests racing for the single worker, so every picked request has
  // queued behind a full service time — far above the 1 ms target. The
  // controller must start shedding, yet keep serving some of the load.
  AuditSpecification slow_spec = TestSpec();
  slow_spec.algorithm = RgAlgorithm::kSampling;
  slow_spec.sampling_rounds = 200000;
  std::atomic<int> sheds{0};
  std::atomic<int> answers{0};
  std::atomic<int> unexpected{0};
  // A shed is the server's answer and is never replayed; a transport
  // failure would be, and would hide here as an answer. None may occur.
  obs::Counter* replays = obs::MetricsRegistry::Global().GetCounter("svc.client.rpc_replays");
  const uint64_t replays_before = replays->Value();
  std::vector<std::thread> drivers;
  for (int t = 0; t < 4; ++t) {
    drivers.emplace_back([&] {
      auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
      if (!client.ok()) {
        ++unexpected;
        return;
      }
      WallTimer timer;
      for (int i = 0; i < 20 && timer.ElapsedSeconds() < 20.0; ++i) {
        auto report = client->AuditStructural(slow_spec);
        if (report.ok()) {
          ++answers;
        } else if (report.status().code() == StatusCode::kUnavailable) {
          ++sheds;
        } else {
          ADD_FAILURE() << report.status().ToString();
          ++unexpected;
        }
      }
    });
  }
  for (auto& driver : drivers) {
    driver.join();
  }
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GT(answers.load(), 0);
  EXPECT_GT(sheds.load(), 0) << "standing queue never tripped the adaptive controller";

  // Idle windows decay the level back to zero: after a quiet second a
  // cheap request must be admitted again.
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
  ASSERT_TRUE(client.ok());
  auto after = client->AuditStructural(TestSpec());
  EXPECT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(replays->Value(), replays_before) << "a transport failure was replayed";
  server.Stop();
}

}  // namespace
}  // namespace svc
}  // namespace indaas
