// psop_ring_k3: three PiaPeers on loopback, one thread each, running exact
// P-SOP sessions with 1024-bit groups and sketch-exchange sessions over the
// same peers and datasets.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "perfbench/inputs.h"
#include "perfbench/workloads.h"
#include "src/crypto/commutative.h"
#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/pia/psop.h"
#include "src/sketch/intersect.h"
#include "src/sketch/sketch.h"
#include "src/svc/pia_peer.h"
#include "src/svc/proto.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace indaas {
namespace perfbench {
namespace {

constexpr size_t kGroupBits = 1024;
constexpr uint32_t kSketchK = 256;
// Sketch sessions are over 1000x cheaper than exact ones; this many per
// exact session gives the sketch p99 about ten samples beyond it in a 30 s
// run (about 30 exact sessions) while keeping the ring's connection churn
// (three connections per session) moderate.
constexpr size_t kSketchPerExact = 32;

volatile size_t g_sink = 0;

// The ring: one PiaPeer and one thread per party. Run() releases every
// party into the same session and waits for all of them.
class Ring {
 public:
  struct Session {
    int64_t start_ns = 0;
    std::vector<int64_t> end_ns;
    std::vector<Result<PsopResult>> results;

    double WallSeconds() const {
      return static_cast<double>(*std::max_element(end_ns.begin(), end_ns.end()) - start_ns) /
             1e9;
    }
  };

  static Result<std::unique_ptr<Ring>> Start(const RingInputs& inputs) {
    std::unique_ptr<Ring> ring(new Ring(inputs));
    for (size_t i = 0; i < kRingParties; ++i) {
      INDAAS_ASSIGN_OR_RETURN(svc::PiaPeer peer, svc::PiaPeer::Listen(0));
      ring->endpoints_.push_back(net::Endpoint{"127.0.0.1", peer.listen_port()});
      ring->peers_.push_back(std::move(peer));
    }
    for (size_t i = 0; i < kRingParties; ++i) {
      ring->threads_.emplace_back([raw = ring.get(), i] { raw->Party(i); });
    }
    return ring;
  }

  ~Ring() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& thread : threads_) {
      thread.join();
    }
  }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  Session Run(bool sketch, uint64_t seed) {
    Session session;
    {
      std::lock_guard<std::mutex> lock(mu_);
      sketch_ = sketch;
      seed_ = seed;
      done_ = 0;
      end_ns_.assign(kRingParties, 0);
      results_.assign(kRingParties, Status(StatusCode::kInternal, "not run"));
      session.start_ns = NowNs();
      ++generation_;
    }
    cv_.notify_all();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ == kRingParties; });
    session.end_ns = end_ns_;
    session.results = std::move(results_);
    return session;
  }

 private:
  explicit Ring(const RingInputs& inputs) : inputs_(inputs) {}

  void Party(size_t self) {
    uint64_t seen = 0;
    for (;;) {
      bool sketch = false;
      svc::PiaPeerOptions options;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) {
          return;
        }
        seen = generation_;
        sketch = sketch_;
        options.psop.seed = seed_;
      }
      options.peers = endpoints_;
      options.self_index = self;
      options.psop.group_bits = kGroupBits;
      options.sketch_k = kSketchK;
      Result<PsopResult> result =
          sketch ? peers_[self].RunPsopWithSketch(inputs_.datasets[self], options)
                 : peers_[self].RunPsop(inputs_.datasets[self], options);
      const int64_t end_ns = NowNs();
      {
        std::lock_guard<std::mutex> lock(mu_);
        results_[self] = std::move(result);
        end_ns_[self] = end_ns;
        ++done_;
      }
      cv_.notify_all();
    }
  }

  const RingInputs& inputs_;
  std::vector<svc::PiaPeer> peers_;
  std::vector<net::Endpoint> endpoints_;

  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t generation_ = 0;
  bool stop_ = false;
  bool sketch_ = false;
  uint64_t seed_ = 0;
  size_t done_ = 0;
  std::vector<int64_t> end_ns_;
  std::vector<Result<PsopResult>> results_;
  std::vector<std::thread> threads_;  // last: joined before the state above dies
};

// Ring set-up as a user pays it: listeners, party threads, the shared
// 1024-bit group and one key per party.
struct RingRig {
  std::unique_ptr<Ring> ring;
  std::unique_ptr<CommutativeGroup> group;
  std::vector<CommutativeKey> keys;
  double setup_s = 0;
};

Result<RingRig> StartRingRig(const RingInputs& inputs, uint64_t seed) {
  RingRig rig;
  WallTimer setup;
  INDAAS_ASSIGN_OR_RETURN(rig.ring, Ring::Start(inputs));
  INDAAS_ASSIGN_OR_RETURN(CommutativeGroup group, CommutativeGroup::CreateWellKnown(kGroupBits));
  rig.group = std::make_unique<CommutativeGroup>(std::move(group));
  Rng rng(seed);
  for (size_t i = 0; i < kRingParties; ++i) {
    INDAAS_ASSIGN_OR_RETURN(CommutativeKey key, CommutativeKey::Generate(*rig.group, rng));
    rig.keys.push_back(std::move(key));
  }
  rig.setup_s = setup.ElapsedSeconds();
  return rig;
}

// What every party of a correct sketch session reports, from the in-process
// engine.
Result<PsopResult> SketchOracle(const RingInputs& inputs, uint64_t seed) {
  PsopOptions options;
  options.group_bits = kGroupBits;
  options.seed = seed;
  return RunPsopWithSketch(inputs.datasets, kSketchK, options);
}

// Counts a session's parties into `outcome`; true when all were correct.
bool CheckSession(const Ring::Session& session, bool sketch, const RingInputs& inputs,
                  const PsopResult& sketch_oracle, Outcome* outcome) {
  ++outcome->attempted;
  bool ok = true;
  bool wrong = false;
  for (const Result<PsopResult>& result : session.results) {
    if (!result.ok() || result->degraded()) {
      ok = false;
      continue;
    }
    const bool match = sketch ? result->intersection == sketch_oracle.intersection &&
                                    result->union_size == sketch_oracle.union_size &&
                                    result->jaccard == sketch_oracle.jaccard
                              : result->intersection == inputs.expected_intersection &&
                                    result->union_size == inputs.expected_union;
    wrong = wrong || !match;
  }
  if (!ok || wrong) {
    ++outcome->failed;
    outcome->wrong += wrong ? 1 : 0;
    return false;
  }
  return true;
}

double Sum(const std::vector<double>& values) {
  double sum = 0;
  for (double value : values) {
    sum += value;
  }
  return sum;
}

// Samples of one stretch of sessions.
struct RingPass {
  std::vector<double> exact_s;
  std::vector<double> sketch_s;
  std::vector<double> sketch_end_s;      // completion offsets of sketch_s's sessions
  std::vector<double> bytes_per_party;   // exact sessions
  std::vector<double> compute_s;         // per party per exact session
  std::vector<double> wait_s;            // per party per exact session
  std::vector<double> encrypt_ops;       // per party per exact session
  Outcome outcome;
  double wall_s = 0;
};

// Exact sessions, each followed by `sketch_per_exact` sketch sessions, until
// `seconds` have passed (at least `min_exact` exact sessions). A traced pass
// runs `after_exact` between sessions.
RingPass RunRingPass(Ring& ring, const RingInputs& inputs, const PsopResult& sketch_oracle,
                     uint64_t sketch_seed, uint64_t* session_seed, double seconds,
                     size_t sketch_per_exact, size_t min_exact, SpanRecorder* spans,
                     const std::function<void()>& after_exact = {}) {
  RingPass pass;
  WallTimer timer;
  while (pass.exact_s.size() < min_exact || timer.ElapsedSeconds() < seconds) {
    Ring::Session exact = ring.Run(/*sketch=*/false, (*session_seed)++);
    if (CheckSession(exact, false, inputs, sketch_oracle, &pass.outcome)) {
      const double wall = exact.WallSeconds();
      pass.exact_s.push_back(wall);
      for (size_t i = 0; i < kRingParties; ++i) {
        const PartyStats& stats = exact.results[i]->party_stats[i];
        pass.bytes_per_party.push_back(static_cast<double>(stats.bytes_sent));
        pass.compute_s.push_back(stats.compute_seconds);
        pass.wait_s.push_back(wall - stats.compute_seconds);
        pass.encrypt_ops.push_back(static_cast<double>(stats.encrypt_ops));
      }
    }
    if (after_exact) {
      after_exact();
    }
    if (spans != nullptr) {
      const uint64_t root = spans->NewId();
      const int64_t end_ns = *std::max_element(exact.end_ns.begin(), exact.end_ns.end());
      spans->Record(Span{"ring.exact_session", root, 0, root, exact.start_ns, end_ns});
      for (size_t i = 0; i < kRingParties; ++i) {
        spans->Record(Span{"ring.exact_party", spans->NewId(), root, root, exact.start_ns,
                           exact.end_ns[i]});
      }
    }
    for (size_t s = 0; s < sketch_per_exact; ++s) {
      Ring::Session sketch = ring.Run(/*sketch=*/true, sketch_seed);
      if (CheckSession(sketch, true, inputs, sketch_oracle, &pass.outcome)) {
        pass.sketch_s.push_back(sketch.WallSeconds());
        pass.sketch_end_s.push_back(timer.ElapsedSeconds());
      }
      if (spans != nullptr) {
        const uint64_t root = spans->NewId();
        const int64_t end_ns = *std::max_element(sketch.end_ns.begin(), sketch.end_ns.end());
        spans->Record(Span{"ring.sketch_session", root, 0, root, sketch.start_ns, end_ns});
      }
    }
  }
  pass.wall_s = timer.ElapsedSeconds();
  return pass;
}

// Median seconds of one svc::ExchangeFrames of `frame` over a loopback pair.
Result<double> MeasureExchange(const std::string& frame, int reps) {
  INDAAS_ASSIGN_OR_RETURN(net::Socket listener, net::TcpListen(0));
  INDAAS_ASSIGN_OR_RETURN(uint16_t port, listener.LocalPort());
  INDAAS_ASSIGN_OR_RETURN(net::Socket tx, net::TcpConnect(net::Endpoint{"127.0.0.1", port}, 2000));
  INDAAS_ASSIGN_OR_RETURN(net::Socket rx, net::TcpAccept(listener, 2000));
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    INDAAS_ASSIGN_OR_RETURN(net::Frame received,
                            svc::ExchangeFrames(tx, frame, rx, net::FrameLimits{}, 5000));
    samples.push_back(timer.ElapsedSeconds());
    g_sink = g_sink + received.payload.size();
  }
  return Median(samples);
}

}  // namespace

Status MeasureRing(const RunConfig& config, MetricSet* metrics, Outcome* outcome) {
  const RingInputs inputs = MakeRingInputs(config.seed);
  const uint64_t sketch_seed = config.seed;
  INDAAS_ASSIGN_OR_RETURN(PsopResult sketch_oracle, SketchOracle(inputs, sketch_seed));

  std::vector<double> setups;
  RingRig rig;
  // The rig set up last before the measurement is the one measured.
  auto set_up = [&]() -> Status {
    rig = RingRig{};  // stops the previous ring's party threads
    PauseBeforeSetup();
    INDAAS_ASSIGN_OR_RETURN(rig, StartRingRig(inputs, config.seed));
    setups.push_back(rig.setup_s);
    return Status::Ok();
  };
  for (int rep = 0; rep < kSetupRepsPerSide; ++rep) {
    INDAAS_RETURN_IF_ERROR(set_up());
  }
  uint64_t session_seed = config.seed * 1000003;
  RingPass warmup = RunRingPass(*rig.ring, inputs, sketch_oracle, sketch_seed, &session_seed, 0,
                                8, 1, nullptr);
  outcome->Merge(warmup.outcome);

  const double cpu_before = ProcessCpuSeconds();
  RingPass pass = RunRingPass(*rig.ring, inputs, sketch_oracle, sketch_seed, &session_seed,
                              config.seconds, kSketchPerExact, 3, nullptr);
  const double cpu_s = ProcessCpuSeconds() - cpu_before;
  outcome->Merge(pass.outcome);
  for (int rep = 0; rep < kSetupRepsPerSide; ++rep) {
    INDAAS_RETURN_IF_ERROR(set_up());
  }
  rig = RingRig{};

  const double sessions = static_cast<double>(std::max<uint64_t>(pass.outcome.attempted, 1));
  // Sketch sessions are many and short, so their figures are taken over the
  // run's windows; exact sessions are too few per window for that.
  const double ring_p50_s = Median(pass.exact_s);
  const auto sketch_windows = SplitByWindow(pass.sketch_end_s, pass.sketch_s, Windows(pass.wall_s));
  const double sketch_p50_ms = CalmQuartileOverWindows(sketch_windows, P50, Better::kLower) * 1e3;
  const double sketch_p90_ms = CalmQuartileOverWindows(sketch_windows, P90, Better::kLower) * 1e3;
  std::vector<double> window_p90_ms;
  for (const std::vector<double>& window : sketch_windows) {
    window_p90_ms.push_back(Percentile(window, 0.9) * 1e3);
  }
  PrintSamples("sketch_p90_ms_by_window", window_p90_ms);
  const double sketch_p99_ms = Percentile(pass.sketch_s, 0.99) * 1e3;
  const double bytes = Mean(pass.bytes_per_party);
  metrics->Set("setup_s", Median(setups), "s");
  metrics->Set("p50_ms", ring_p50_s * 1e3, "ms");
  metrics->Set("p90_ms", Percentile(pass.exact_s, 0.9) * 1e3, "ms");
  metrics->Set("aux_p50_ms", sketch_p50_ms, "ms");
  metrics->Set("ops_per_s", static_cast<double>(pass.exact_s.size()) / pass.wall_s, "1/s");
  metrics->Set("bytes_per_op", bytes, "bytes");
  metrics->Set("cpu_ms_per_op", cpu_s * 1e3 / sessions, "ms");
  metrics->Set("peak_rss_mb", PeakRssMb(), "MB");

  std::printf("psop_ring_k3: %zu exact and %zu sketch sessions in %.2f s (%zu elements per "
              "party, %u-bit group)\n",
              pass.exact_s.size(), pass.sketch_s.size(), pass.wall_s, kRingElements,
              static_cast<unsigned>(kGroupBits));
  PrintSamples("setup_s", setups);
  std::printf("metric setup_s %.6f s\n", Median(setups));
  std::printf("metric ring_p50_s %.6f s\n", ring_p50_s);
  std::printf("metric ring_p90_s %.6f s\n", Percentile(pass.exact_s, 0.9));
  std::printf("metric sketch_ring_p50_ms %.4f ms\n", sketch_p50_ms);
  std::printf("metric sketch_ring_p90_ms %.4f ms\n", sketch_p90_ms);
  std::printf("metric sketch_ring_p99_ms %.4f ms\n", sketch_p99_ms);
  std::printf("metric ring_bytes_per_party %.0f bytes\n", bytes);
  return Status::Ok();
}

Status TraceRing(const RunConfig& config, bool primary, MetricSet* layers, Outcome* outcome,
                 SpanRecorder* spans) {
  const RingInputs inputs = MakeRingInputs(config.seed);
  const uint64_t sketch_seed = config.seed;
  INDAAS_ASSIGN_OR_RETURN(PsopResult sketch_oracle, SketchOracle(inputs, sketch_seed));
  INDAAS_ASSIGN_OR_RETURN(RingRig rig, StartRingRig(inputs, config.seed));
  uint64_t session_seed = config.seed * 1000003;

  double untraced_p50 = 0;
  if (primary) {
    RingPass untraced = RunRingPass(*rig.ring, inputs, sketch_oracle, sketch_seed,
                                    &session_seed, 0.4 * config.seconds, 8, 2, nullptr);
    outcome->Merge(untraced.outcome);
    untraced_p50 = Median(untraced.exact_s);
  }
  // Per-element crypto on party 0's own elements, as its first hop does it,
  // timed in batches between the traced sessions so the rows see the same
  // host conditions as the sessions they are subtracted from.
  const std::vector<std::string> elements = DisambiguateMultiset(inputs.datasets[0]);
  std::vector<BigUint> points(elements.size());
  std::vector<BigUint> ciphertexts(elements.size());
  std::vector<double> hash_batches;
  std::vector<double> modexp_batches;
  constexpr size_t kBatch = 25;
  auto crypto_batch = [&] {
    const size_t begin = (hash_batches.size() * kBatch) % elements.size();
    const size_t end = std::min(begin + kBatch, elements.size());
    WallTimer hash_timer;
    for (size_t i = begin; i < end; ++i) {
      points[i] = rig.group->HashToElement(elements[i], HashAlgorithm::kSha256);
    }
    hash_batches.push_back(hash_timer.ElapsedSeconds() / static_cast<double>(end - begin));
    WallTimer modexp_timer;
    for (size_t i = begin; i < end; ++i) {
      ciphertexts[i] = rig.keys[0].Encrypt(*rig.group, points[i]);
    }
    modexp_batches.push_back(modexp_timer.ElapsedSeconds() / static_cast<double>(end - begin));
  };
  RingPass pass = RunRingPass(*rig.ring, inputs, sketch_oracle, sketch_seed, &session_seed,
                              primary ? 0.6 * config.seconds : 0, 8, primary ? 2 : 1, spans,
                              crypto_batch);
  outcome->Merge(pass.outcome);
  if (pass.exact_s.empty() || pass.sketch_s.empty()) {
    return InternalError("psop_ring_k3: no correct session to trace");
  }
  while (hash_batches.size() * kBatch < elements.size()) {
    crypto_batch();  // every element encrypted once, for the exchange frame
  }
  const double hash_s = Median(hash_batches);
  const double modexp_s = Median(modexp_batches);

  // One ring-sized dataset frame and one sketch frame over loopback.
  svc::PsopDataset dataset;
  dataset.element_bytes = static_cast<uint32_t>(rig.group->ElementBytes());
  dataset.elements = ciphertexts;
  const std::string dataset_frame = net::EncodeFrame(
      static_cast<uint8_t>(svc::MsgType::kPsopDataset), svc::EncodePsopDataset(dataset));
  INDAAS_ASSIGN_OR_RETURN(double exchange_s, MeasureExchange(dataset_frame, 20));

  const sketch::SketchParams params{kSketchK, PsopSketchSeed(sketch_seed)};
  svc::PsopSketch own;
  own.registers.assign(kSketchK, 0);
  std::vector<uint32_t> other(kSketchK, 0);
  WallTimer build_timer;
  int builds = 0;
  do {
    sketch::BuildSketch(params, inputs.datasets[0], own.registers.data());
    ++builds;
  } while (builds < 16 || build_timer.ElapsedSeconds() < 0.002);
  const double build_s = build_timer.ElapsedSeconds() / builds;
  sketch::BuildSketch(params, inputs.datasets[1], other.data());
  const sketch::SimdLevel level = sketch::BestSimdLevel();
  constexpr int kAgreeCalls = 100000;
  WallTimer agree_timer;
  for (int i = 0; i < kAgreeCalls; ++i) {
    g_sink = g_sink + sketch::AgreeCount(own.registers.data(), other.data(), kSketchK, level);
  }
  const double agree_s = agree_timer.ElapsedSeconds() / kAgreeCalls;
  const std::string sketch_frame = net::EncodeFrame(
      static_cast<uint8_t>(svc::MsgType::kPsopSketch), svc::EncodePsopSketch(own));
  INDAAS_ASSIGN_OR_RETURN(double sketch_exchange_s, MeasureExchange(sketch_frame, 200));

  const double ops_per_party = Mean(pass.encrypt_ops);
  const double exchanges = 2 * kRingParties - 1;  // k ring hops, then k-1 share hops
  Ladder exact;
  exact.title = "psop_ring_k3 exact session";
  exact.e2e_seconds = Mean(pass.exact_s);
  exact.rows.push_back({"crypto.hash_to_group", hash_s * static_cast<double>(elements.size())});
  exact.rows.push_back({"bignum.modexp", modexp_s * ops_per_party});
  exact.rows.push_back({"net.exchange", exchange_s * exchanges});
  Ladder sketch_ladder;
  sketch_ladder.title = "psop_ring_k3 sketch session";
  sketch_ladder.e2e_seconds = Mean(pass.sketch_s);
  sketch_ladder.rows.push_back({"sketch.build", build_s});
  sketch_ladder.rows.push_back({"sketch.agree", agree_s * (kRingParties - 1)});
  sketch_ladder.rows.push_back({"net.sketch_exchange", sketch_exchange_s * (kRingParties - 1)});
  if (primary) {
    ReportLadder(exact, layers);
    layers->Set("trace.overhead_frac",
                untraced_p50 > 0 ? (Median(pass.exact_s) - untraced_p50) / untraced_p50 : 0,
                "ratio");
  } else {
    exact.Print();
  }
  sketch_ladder.Print();
  layers->SetIfAbsent("ladder.sketch_residual_share", sketch_ladder.ResidualShare(), "ratio");
  layers->SetIfAbsent("crypto.hash_to_group_us", hash_s * 1e6, "us");
  layers->SetIfAbsent("bignum.modexp_us", modexp_s * 1e6, "us");
  layers->SetIfAbsent("pia.party_compute_s", Mean(pass.compute_s), "s");
  layers->SetIfAbsent("pia.party_wait_s", Mean(pass.wait_s), "s");
  layers->SetIfAbsent("pia.encrypt_ops_per_party", ops_per_party, "count");
  layers->SetIfAbsent("net.exchange_ms", exchange_s * 1e3, "ms");
  layers->SetIfAbsent("net.sketch_exchange_us", sketch_exchange_s * 1e6, "us");
  layers->SetIfAbsent("sketch.build_us", build_s * 1e6, "us");
  layers->SetIfAbsent("sketch.agree_ns", agree_s * 1e9, "ns");
  std::printf("layers pia per exact session: party compute %.4f s, wait %.4f s, %.0f "
              "encryptions per party (%.1f%% of session wall in compute)\n",
              Mean(pass.compute_s), Mean(pass.wait_s), ops_per_party,
              100 * Sum(pass.compute_s) / (Sum(pass.compute_s) + Sum(pass.wait_s)));
  return Status::Ok();
}

}  // namespace perfbench
}  // namespace indaas
