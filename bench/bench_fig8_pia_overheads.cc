// Reproduces Figure 8 (§6.3.2): per-provider bandwidth (8a) and computation
// (8b) of the P-SOP protocol vs. the Kissner–Song (KS) baseline, for
// k = 2,3,4 providers and dataset sizes swept over a range.
//
// Defaults are laptop-sized (n up to 4,000; 512/768-bit keys); the paper's
// full scale (n to 100,000; 1024-bit keys) is reachable via flags:
//   bench_fig8_pia_overheads --n-min=1000 --n-max=100000 --group-bits=1024
//                            --paillier-bits=1024
//
// --real additionally runs each P-SOP point as k OS threads speaking the
// real TCP wire protocol over loopback, cross-validating the NetworkModel
// estimate against measured wall time (--json-out writes the deltas).

#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "src/pia/ks.h"
#include "src/pia/network_model.h"
#include "src/pia/psop.h"
#include "src/svc/pia_peer.h"
#include "src/util/file.h"
#include "src/util/flags.h"
#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/util/timer.h"
#include "tests/ring_oracle.h"

using namespace indaas;

namespace {

std::vector<std::vector<std::string>> MakeDatasets(size_t k, size_t n) {
  // Half the elements are common across providers; the rest are unique —
  // a realistic overlap profile that exercises both count paths.
  std::vector<std::vector<std::string>> datasets(k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t e = 0; e < n; ++e) {
      if (e < n / 2) {
        datasets[i].push_back("shared-" + std::to_string(e));
      } else {
        datasets[i].push_back(StrFormat("p%zu-", i) + std::to_string(e));
      }
    }
  }
  return datasets;
}

struct Measurement {
  double mb_sent_per_party = 0;
  double compute_seconds_per_party = 0;
};

Measurement Summarize(const std::vector<PartyStats>& stats) {
  Measurement m;
  for (const PartyStats& party : stats) {
    m.mb_sent_per_party += static_cast<double>(party.bytes_sent) / (1024.0 * 1024.0);
    m.compute_seconds_per_party += party.compute_seconds;
  }
  m.mb_sent_per_party /= static_cast<double>(stats.size());
  m.compute_seconds_per_party /= static_cast<double>(stats.size());
  return m;
}

// One --real data point: a k-thread loopback ring session for one (k, n).
struct RealPoint {
  size_t k = 0;
  size_t n = 0;
  double jaccard = 0;
  double measured_wall_s = 0;   // wall time of the whole socket session
  double estimated_wall_s = 0;  // NetworkModel estimate on the measured stats
  uint64_t bytes_sent = 0;      // real wire bytes, summed over the peers
  bool matches_plaintext = false;  // every peer reports the plaintext oracle's counts
};

// Runs the socket-backed ring over loopback: k threads, each one PiaPeer.
// The estimate uses the per-peer stats the real run measured (compute +
// actual wire bytes), so the delta isolates what the model leaves out —
// scheduling, syscall overhead and loopback's real bandwidth.
Result<RealPoint> RunRealPoint(const std::vector<std::vector<std::string>>& datasets,
                               const PsopOptions& psop, const NetworkModel& model) {
  const size_t k = datasets.size();
  std::vector<svc::PiaPeer> peers;
  svc::PiaPeerOptions options;
  options.psop = psop;
  options.self_index = 0;
  peers.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    INDAAS_ASSIGN_OR_RETURN(svc::PiaPeer peer, svc::PiaPeer::Listen(0));
    options.peers.push_back(net::Endpoint{"127.0.0.1", peer.listen_port()});
    peers.push_back(std::move(peer));
  }
  std::vector<Result<PsopResult>> results(k, InternalError("peer did not run"));
  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    threads.emplace_back([&, i] {
      svc::PiaPeerOptions mine = options;
      mine.self_index = i;
      results[i] = peers[i].RunPsop(datasets[i], mine);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  RealPoint point;
  point.k = k;
  point.n = datasets[0].size();
  point.measured_wall_s = timer.ElapsedSeconds();
  // The session's ring hops: 1 handshake + k encrypt hops + k-1 share hops.
  const size_t rounds = 2 * k;
  for (size_t i = 0; i < k; ++i) {
    INDAAS_RETURN_IF_ERROR(results[i].status());
    const PartyStats& stats = results[i]->party_stats[i];
    point.estimated_wall_s =
        std::max(point.estimated_wall_s, model.EstimateWallSeconds(stats, rounds));
    point.bytes_sent += stats.bytes_sent;
  }
  point.jaccard = results[0]->jaccard;
  const RingCounts reference = ExactRingOracle(datasets);
  point.matches_plaintext = true;
  for (size_t i = 0; i < k; ++i) {
    point.matches_plaintext = point.matches_plaintext && MatchesOracle(*results[i], reference);
  }
  return point;
}

// One per-method data point: bytes on the wire and compute time of exact
// P-SOP vs MinHash-compressed P-SOP vs sketch exchange at the same (k, n).
struct MethodPoint {
  const char* method = "";
  size_t k = 0;
  size_t n = 0;
  double jaccard = 0;
  double bytes_sent_per_party = 0;
  double compute_s_per_party = 0;
};

std::string PointsToJson(const std::vector<MethodPoint>& methods,
                         const std::vector<RealPoint>& real_points) {
  std::string json = "{\n  \"mode\": \"fig8-pia-overheads\",\n  \"methods\": [\n";
  for (size_t i = 0; i < methods.size(); ++i) {
    const MethodPoint& p = methods[i];
    json += StrFormat(
        "    {\"method\": \"%s\", \"k\": %zu, \"n\": %zu, \"jaccard\": %.6f, "
        "\"bytes_sent_per_party\": %.0f, \"compute_s_per_party\": %.6f}%s\n",
        p.method, p.k, p.n, p.jaccard, p.bytes_sent_per_party, p.compute_s_per_party,
        i + 1 < methods.size() ? "," : "");
  }
  json += "  ],\n  \"real_points\": [\n";
  for (size_t i = 0; i < real_points.size(); ++i) {
    const RealPoint& p = real_points[i];
    json += StrFormat(
        "    {\"k\": %zu, \"n\": %zu, \"jaccard\": %.6f, \"measured_wall_s\": %.6f, "
        "\"estimated_wall_s\": %.6f, \"delta_s\": %.6f, \"delta_ratio\": %.4f, "
        "\"bytes_sent\": %llu, \"matches_plaintext\": %s}%s\n",
        p.k, p.n, p.jaccard, p.measured_wall_s, p.estimated_wall_s,
        p.measured_wall_s - p.estimated_wall_s,
        p.estimated_wall_s > 0 ? p.measured_wall_s / p.estimated_wall_s : 0.0,
        static_cast<unsigned long long>(p.bytes_sent),
        p.matches_plaintext ? "true" : "false", i + 1 < real_points.size() ? "," : "");
  }
  json += "  ]\n}\n";
  return json;
}

MethodPoint SummarizePoint(const char* method, size_t k, size_t n, const PsopResult& result) {
  Measurement m = Summarize(result.party_stats);
  MethodPoint point;
  point.method = method;
  point.k = k;
  point.n = n;
  point.jaccard = result.jaccard;
  point.bytes_sent_per_party = m.mb_sent_per_party * 1024.0 * 1024.0;
  point.compute_s_per_party = m.compute_seconds_per_party;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t n_min = 250;
  int64_t n_max = 2000;
  int64_t group_bits = 768;
  int64_t paillier_bits = 512;
  int64_t k_max = 4;
  int64_t ks_n_cap = 1000;
  bool real = false;
  double rtt_ms = 0.05;
  double bandwidth_mbps = 16000.0;
  std::string json_out;
  FlagSet flags;
  flags.AddInt("n-min", &n_min, "smallest dataset size");
  flags.AddInt("n-max", &n_max, "largest dataset size (paper: 100000)");
  flags.AddInt("group-bits", &group_bits, "P-SOP commutative group bits (paper: 1024)");
  flags.AddInt("paillier-bits", &paillier_bits, "KS Paillier modulus bits (paper: 1024)");
  flags.AddInt("k-max", &k_max, "largest provider count (paper: 4)");
  flags.AddInt("ks-n-cap", &ks_n_cap, "skip KS above this n (it is the slow baseline)");
  flags.AddBool("real", &real,
                "also run each P-SOP point over real loopback sockets and compare "
                "the NetworkModel estimate with measured wall time");
  flags.AddDouble("rtt-ms", &rtt_ms, "--real: model RTT in milliseconds (loopback-ish)");
  flags.AddDouble("bandwidth-mbps", &bandwidth_mbps,
                  "--real: model bandwidth in MB/s (loopback-ish)");
  flags.AddString("json-out", &json_out,
                  "write per-method bytes-on-wire (and --real deltas) here");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("Figure 8: PIA system overheads — P-SOP(k) vs KS(k), per provider.\n");
  std::printf("P-SOP: %lld-bit commutative encryption; KS: %lld-bit Paillier "
              "(%lld-bit ciphertexts).\n\n",
              (long long)group_bits, (long long)paillier_bits, (long long)(2 * paillier_bits));

  std::vector<MethodPoint> method_points;
  TextTable table({"Protocol", "k", "n", "Bandwidth sent (8a)", "Compute time (8b)"});
  for (int64_t k = 2; k <= k_max; ++k) {
    for (int64_t n = n_min; n <= n_max; n *= 2) {
      auto datasets = MakeDatasets(static_cast<size_t>(k), static_cast<size_t>(n));
      PsopOptions psop;
      psop.group_bits = static_cast<size_t>(group_bits);
      auto psop_result = RunPsop(datasets, psop);
      if (!psop_result.ok()) {
        std::fprintf(stderr, "%s\n", psop_result.status().ToString().c_str());
        return 1;
      }
      Measurement m = Summarize(psop_result->party_stats);
      table.AddRow({StrFormat("P-SOP(%lld)", (long long)k), std::to_string(k), std::to_string(n),
                    StrFormat("%.2f MB", m.mb_sent_per_party),
                    HumanSeconds(m.compute_seconds_per_party)});
      method_points.push_back(SummarizePoint("psop-exact", static_cast<size_t>(k),
                                             static_cast<size_t>(n), *psop_result));
      // The compressed variants at the same point, for the per-method
      // bytes-on-wire comparison (--json-out): MinHash-compressed P-SOP and
      // the encryption-free sketch exchange.
      auto minhash_result = RunPsopWithMinHash(datasets, 256, psop);
      if (!minhash_result.ok()) {
        std::fprintf(stderr, "%s\n", minhash_result.status().ToString().c_str());
        return 1;
      }
      method_points.push_back(SummarizePoint("psop-minhash", static_cast<size_t>(k),
                                             static_cast<size_t>(n), *minhash_result));
      auto sketch_result = RunPsopWithSketch(datasets, 256, psop);
      if (!sketch_result.ok()) {
        std::fprintf(stderr, "%s\n", sketch_result.status().ToString().c_str());
        return 1;
      }
      method_points.push_back(SummarizePoint("sketch", static_cast<size_t>(k),
                                             static_cast<size_t>(n), *sketch_result));
    }
  }
  for (int64_t k = 2; k <= k_max; ++k) {
    for (int64_t n = n_min; n <= n_max; n *= 2) {
      if (n > ks_n_cap) {
        table.AddRow({StrFormat("KS(%lld)", (long long)k), std::to_string(k), std::to_string(n),
                      "(skipped)", "(skipped)"});
        continue;
      }
      auto datasets = MakeDatasets(static_cast<size_t>(k), static_cast<size_t>(n));
      KsOptions ks;
      ks.paillier_bits = static_cast<size_t>(paillier_bits);
      auto ks_result = RunKsIntersectionCardinality(datasets, ks);
      if (!ks_result.ok()) {
        std::fprintf(stderr, "%s\n", ks_result.status().ToString().c_str());
        return 1;
      }
      Measurement m = Summarize(ks_result->party_stats);
      table.AddRow({StrFormat("KS(%lld)", (long long)k), std::to_string(k), std::to_string(n),
                    StrFormat("%.2f MB", m.mb_sent_per_party),
                    HumanSeconds(m.compute_seconds_per_party)});
    }
  }
  table.Print();
  std::printf(
      "\nPaper's shape: (8a) KS bandwidth grows faster with k than P-SOP's; (8b) P-SOP\n"
      "outperforms KS by orders of magnitude in computation, both roughly linear in n.\n");

  std::vector<RealPoint> points;
  if (real) {
    NetworkModel model;
    model.rtt_seconds = rtt_ms / 1000.0;
    model.bandwidth_bytes_per_s = bandwidth_mbps * 1e6;
    std::printf("\n--real: socket-backed P-SOP over loopback (model: %.3f ms RTT, "
                "%.0f MB/s)\n\n", rtt_ms, bandwidth_mbps);
    TextTable real_table(
        {"k", "n", "Measured wall", "Estimated wall", "Delta", "Jaccard matches"});
    for (int64_t k = 2; k <= k_max; ++k) {
      for (int64_t n = n_min; n <= n_max; n *= 2) {
        auto datasets = MakeDatasets(static_cast<size_t>(k), static_cast<size_t>(n));
        PsopOptions psop;
        psop.group_bits = static_cast<size_t>(group_bits);
        auto point = RunRealPoint(datasets, psop, model);
        if (!point.ok()) {
          std::fprintf(stderr, "%s\n", point.status().ToString().c_str());
          return 1;
        }
        real_table.AddRow({std::to_string(k), std::to_string(n),
                           HumanSeconds(point->measured_wall_s),
                           HumanSeconds(point->estimated_wall_s),
                           HumanSeconds(point->measured_wall_s - point->estimated_wall_s),
                           point->matches_plaintext ? "yes" : "NO"});
        points.push_back(*point);
      }
    }
    real_table.Print();
    std::printf("\nDelta is what the model leaves out: thread scheduling, syscalls and\n"
                "loopback's real bandwidth. Jaccard must match the plaintext oracle.\n");
  }
  if (!json_out.empty()) {
    if (Status s = WriteFile(json_out, PointsToJson(method_points, points)); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote per-method bytes and deltas -> %s\n", json_out.c_str());
  }
  return 0;
}
