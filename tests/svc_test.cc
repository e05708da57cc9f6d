// Tests for the service layer: RPC payload codecs, the networked audit
// server/client end-to-end on loopback, and the socket-backed P-SOP ring
// (including its failure semantics).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/deps/depdb.h"
#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/propagate.h"
#include "src/obs/trace.h"
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

// Small but structurally interesting DepDB shared by the server tests.
std::string TestDepDbText() {
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

AuditSpecification TestSpec() {
  AuditSpecification spec;
  spec.candidate_deployments = {{"S1", "S2"}, {"S1", "S3"}};
  return spec;
}

// --- Payload codecs ---

TEST(ProtoTest, ErrorReplyRoundTripsEveryCode) {
  for (StatusCode code : {StatusCode::kInvalidArgument, StatusCode::kNotFound,
                          StatusCode::kInternal, StatusCode::kParseError,
                          StatusCode::kProtocolError, StatusCode::kDeadlineExceeded,
                          StatusCode::kUnavailable}) {
    Status original(code, "something broke");
    Status decoded = DecodeErrorReply(EncodeErrorReply(original));
    EXPECT_EQ(decoded.code(), code);
    EXPECT_EQ(decoded.message(), "remote: something broke");
  }
}

TEST(ProtoTest, ImportAckRoundTrip) {
  ImportAck ack;
  ack.network = 12;
  ack.hardware = 34;
  ack.software = 56;
  auto decoded = DecodeImportAck(EncodeImportAck(ack));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->network, 12u);
  EXPECT_EQ(decoded->hardware, 34u);
  EXPECT_EQ(decoded->software, 56u);
}

TEST(ProtoTest, AuditSpecificationRoundTripAllFields) {
  AuditSpecification spec;
  spec.candidate_deployments = {{"S1", "S2"}, {"S3"}};
  spec.required_servers = 2;
  spec.include_network = false;
  spec.include_hardware = true;
  spec.include_software = false;
  spec.software_of_interest = {"riak", "nginx"};
  spec.algorithm = RgAlgorithm::kSampling;
  spec.metric = RankingMetric::kFailureProbability;
  spec.sampling_rounds = 777;
  spec.sampling_bias = 0.125;
  spec.seed = 99;
  spec.threads = 3;
  spec.parallel_deployments = 2;
  spec.score_top_n = 5;
  auto decoded = DecodeAuditSpecification(EncodeAuditSpecification(spec));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->candidate_deployments, spec.candidate_deployments);
  EXPECT_EQ(decoded->required_servers, spec.required_servers);
  EXPECT_EQ(decoded->include_network, spec.include_network);
  EXPECT_EQ(decoded->include_hardware, spec.include_hardware);
  EXPECT_EQ(decoded->include_software, spec.include_software);
  EXPECT_EQ(decoded->software_of_interest, spec.software_of_interest);
  EXPECT_EQ(decoded->algorithm, spec.algorithm);
  EXPECT_EQ(decoded->metric, spec.metric);
  EXPECT_EQ(decoded->sampling_rounds, spec.sampling_rounds);
  EXPECT_EQ(decoded->sampling_bias, spec.sampling_bias);
  EXPECT_EQ(decoded->seed, spec.seed);
  EXPECT_EQ(decoded->threads, spec.threads);
  EXPECT_EQ(decoded->parallel_deployments, spec.parallel_deployments);
  EXPECT_EQ(decoded->score_top_n, spec.score_top_n);
}

// A report with a three-name table: RG 1 is {net:core1}, RG 2 is
// {hw:sed900, pkg:libc6=2.13}.
SiaAuditReport TableReport() {
  SiaAuditReport report;
  report.algorithm = RgAlgorithm::kSampling;
  report.metric = RankingMetric::kFailureProbability;
  DeploymentAudit audit;
  audit.servers = {"S1", "S3"};
  audit.components = {"hw:sed900", "net:core1", "pkg:libc6=2.13"};
  audit.ranked_groups.push_back({{1}, 1.5});
  audit.ranked_groups.push_back({{0, 2}, 2.0});
  audit.independence_score = 3.5;
  audit.unexpected_rgs = 2;
  audit.top_event_prob = 0.015625;
  report.deployments.push_back(audit);
  return report;
}

TEST(ProtoTest, SiaAuditReportRoundTrip) {
  const SiaAuditReport report = TableReport();
  const DeploymentAudit& audit = report.deployments[0];
  const std::string encoded = EncodeSiaAuditReport(report);
  auto decoded = DecodeSiaAuditReport(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->algorithm, report.algorithm);
  EXPECT_EQ(decoded->metric, report.metric);
  ASSERT_EQ(decoded->deployments.size(), 1u);
  const DeploymentAudit& d = decoded->deployments[0];
  EXPECT_EQ(d.servers, audit.servers);
  EXPECT_EQ(d.components, audit.components);
  ASSERT_EQ(d.ranked_groups.size(), 2u);
  EXPECT_EQ(d.ranked_groups[1].ids, audit.ranked_groups[1].ids);
  EXPECT_EQ(d.Names(d.ranked_groups[1]),
            (std::vector<std::string>{"hw:sed900", "pkg:libc6=2.13"}));
  EXPECT_EQ(d.ranked_groups[1].score, 2.0);
  EXPECT_EQ(d.independence_score, 3.5);
  EXPECT_EQ(d.unexpected_rgs, 2u);
  EXPECT_EQ(d.top_event_prob, 0.015625);
  // The encoding is a direct serialisation: re-encoding gives the same bytes.
  EXPECT_EQ(EncodeSiaAuditReport(*decoded), encoded);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_EQ(DecodeSiaAuditReport(encoded.substr(0, cut)).status().code(),
              StatusCode::kParseError)
        << "cut " << cut;
  }
}

// A hand-built report payload with one deployment whose name table is
// `table`; `groups` holds each group's raw varints (count, first id, gaps).
std::string ReportPayload(const std::vector<std::string>& table,
                          const std::vector<std::vector<uint64_t>>& groups) {
  net::WireWriter writer;
  writer.U8(0);
  writer.U8(0);
  writer.U32(1);
  writer.StrVec({"S1", "S2"});
  writer.Var(table.size());
  for (const std::string& name : table) {
    writer.VarBytes(name);
  }
  writer.Var(groups.size());
  for (const std::vector<uint64_t>& group : groups) {
    for (uint64_t value : group) {
      writer.Var(value);
    }
    writer.F64(1.0);
  }
  writer.F64(0.5);
  writer.U64(0);
  writer.F64(0.0);
  return writer.Take();
}

TEST(ProtoTest, SiaAuditReportRejectsBadIdsAndTrailingBytes) {
  const std::vector<std::string> table = {"a", "b", "c"};
  // ids {0, 2}: first id 0, gap 2.
  auto good = DecodeSiaAuditReport(ReportPayload(table, {{2, 0, 2}}));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->deployments[0].ranked_groups[0].ids, (std::vector<uint32_t>{0, 2}));
  const std::vector<std::pair<const char*, std::string>> bad = {
      {"first id past the table", ReportPayload(table, {{1, 3}})},
      {"gap past the table", ReportPayload(table, {{2, 1, 2}})},
      {"huge gap", ReportPayload(table, {{2, 1, UINT64_MAX}})},
      {"repeated id", ReportPayload(table, {{2, 1, 0}})},
      {"id into an empty table", ReportPayload({}, {{1, 0}})},
      {"trailing byte", ReportPayload(table, {{1, 0}}) + "x"},
      {"member count past the payload", ReportPayload(table, {{200}})},
  };
  for (const auto& [what, payload] : bad) {
    EXPECT_EQ(DecodeSiaAuditReport(payload).status().code(), StatusCode::kParseError) << what;
  }
}

TEST(ProtoTest, HostileRepeatedFieldCountsRejectedBeforeAllocating) {
  auto hostile = [](std::initializer_list<uint32_t> prefix) {
    net::WireWriter writer;
    for (uint32_t value : prefix) {
      writer.U32(value);
    }
    return writer.Take();
  };
  constexpr uint32_t kHuge = 0xFFFFFFFFu;
  EXPECT_EQ(DecodeAuditSpecification(hostile({kHuge}) + EncodeAuditSpecification(TestSpec()))
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(DecodeSiaAuditReport(std::string(2, '\0') + hostile({kHuge})).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(DecodePiaRequest(hostile({kHuge})).status().code(), StatusCode::kParseError);
  EXPECT_EQ(DecodePiaAuditReport(hostile({2, kHuge})).status().code(),
            StatusCode::kParseError);  // levels
  EXPECT_EQ(DecodePiaAuditReport(hostile({2, 1, kHuge})).status().code(),
            StatusCode::kParseError);  // entries
  EXPECT_EQ(DecodePiaAuditReport(hostile({2, 0, kHuge})).status().code(),
            StatusCode::kParseError);  // stats
  EXPECT_EQ(DecodePsopDataset(hostile({0, 8, kHuge})).status().code(),
            StatusCode::kParseError);
  // The report's varint counts: table size, group count, member count.
  for (int field = 0; field < 2; ++field) {
    net::WireWriter writer;
    writer.U8(0);
    writer.U8(0);
    writer.U32(1);
    writer.StrVec({});
    if (field == 1) {
      writer.Var(0);  // an empty table, then the group count
    }
    writer.Var(kHuge);
    EXPECT_EQ(DecodeSiaAuditReport(writer.buffer()).status().code(), StatusCode::kParseError)
        << "field " << field;
  }
  EXPECT_EQ(DecodeSiaAuditReport(ReportPayload({"a"}, {{kHuge}})).status().code(),
            StatusCode::kParseError);
}

TEST(ProtoTest, PiaRequestRoundTrip) {
  PiaRequest request;
  request.providers = {{"CloudA", {"net:tor1", "hw:x"}}, {"CloudB", {"net:tor2"}}};
  request.options.method = PiaMethod::kPsopMinHash;
  request.options.minhash_m = 64;
  request.options.psop.group_bits = 768;
  request.options.psop.seed = 17;
  request.options.min_redundancy = 2;
  request.options.max_redundancy = 2;
  request.options.parallel_deployments = 4;
  auto decoded = DecodePiaRequest(EncodePiaRequest(request));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->providers.size(), 2u);
  EXPECT_EQ(decoded->providers[0].name, "CloudA");
  EXPECT_EQ(decoded->providers[0].components, request.providers[0].components);
  EXPECT_EQ(decoded->options.method, PiaMethod::kPsopMinHash);
  EXPECT_EQ(decoded->options.minhash_m, 64u);
  EXPECT_EQ(decoded->options.psop.group_bits, 768u);
  EXPECT_EQ(decoded->options.psop.seed, 17u);
  EXPECT_EQ(decoded->options.max_redundancy, 2u);
  EXPECT_EQ(decoded->options.parallel_deployments, 4u);
}

TEST(ProtoTest, PiaRequestCarriesSketchGeometry) {
  PiaRequest request;
  request.providers = {{"CloudA", {"c1"}}, {"CloudB", {"c2"}}};
  request.options.method = PiaMethod::kSketch;
  request.options.sketch_k = 512;
  auto decoded = DecodePiaRequest(EncodePiaRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->options.method, PiaMethod::kSketch);
  EXPECT_EQ(decoded->options.sketch_k, 512u);
  // sketch_k = 0 never appears on the wire (the default is 256 and the CLI
  // validates the range), so a zero there is a forged payload.
  std::string forged = EncodePiaRequest(request);
  for (size_t i = forged.size() - 4; i < forged.size(); ++i) {
    forged[i] = 0;
  }
  EXPECT_FALSE(DecodePiaRequest(forged).ok());
}

TEST(ProtoTest, PsopHelloRoundTrip) {
  PsopHello hello;
  hello.ring_size = 3;
  hello.sender_index = 2;
  hello.group_bits = 768;
  hello.hash_algorithm = 1;
  auto decoded = DecodePsopHello(EncodePsopHello(hello));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ring_size, 3u);
  EXPECT_EQ(decoded->sender_index, 2u);
  EXPECT_EQ(decoded->group_bits, 768u);
  EXPECT_EQ(decoded->hash_algorithm, 1);
}

TEST(ProtoTest, PsopDatasetRoundTrip) {
  PsopDataset dataset;
  dataset.origin = 1;
  dataset.element_bytes = 8;
  dataset.elements = {BigUint(0x1122334455667788ull), BigUint(7), BigUint(0)};
  auto decoded = DecodePsopDataset(EncodePsopDataset(dataset));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->origin, 1u);
  EXPECT_EQ(decoded->element_bytes, 8u);
  ASSERT_EQ(decoded->elements.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded->elements[i].ToHex(), dataset.elements[i].ToHex()) << i;
  }
}

TEST(ProtoTest, EveryTruncationRejectedCleanly) {
  // Property sweep: every proper prefix of a valid payload must decode to an
  // error (never crash, never succeed).
  PiaRequest request;
  request.providers = {{"CloudA", {"c1", "c2"}}, {"CloudB", {"c3"}}};
  const std::string full = EncodePiaRequest(request);
  // One cut is NOT an error: the trailing sketch_k field is optional for
  // wire compatibility, so removing exactly that field yields a valid
  // legacy payload that decodes with the default geometry.
  const size_t legacy_cut = full.size() - sizeof(uint32_t);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    if (cut == legacy_cut) {
      auto legacy = DecodePiaRequest(full.substr(0, cut));
      ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
      EXPECT_EQ(legacy->options.sketch_k, 256u);
      continue;
    }
    EXPECT_FALSE(DecodePiaRequest(full.substr(0, cut)).ok()) << "cut " << cut;
  }
  const std::string spec_bytes = EncodeAuditSpecification(TestSpec());
  for (size_t cut = 0; cut < spec_bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeAuditSpecification(spec_bytes.substr(0, cut)).ok()) << "cut " << cut;
  }
}

TEST(ProtoTest, TrailingGarbageRejected) {
  EXPECT_FALSE(DecodeImportAck(EncodeImportAck(ImportAck{}) + "x").ok());
  EXPECT_FALSE(DecodePsopHello(EncodePsopHello(PsopHello{}) + "x").ok());
  EXPECT_FALSE(
      DecodeAuditSpecification(EncodeAuditSpecification(TestSpec()) + "x").ok());
}

TEST(ProtoTest, PsopDatasetRejectsBadElementWidth) {
  PsopDataset dataset;
  dataset.origin = 0;
  dataset.element_bytes = 0;  // zero width is nonsense
  EXPECT_FALSE(DecodePsopDataset(EncodePsopDataset(dataset)).ok());
}

TEST(ProtoTest, PsopSketchRoundTrip) {
  PsopSketch sketch;
  sketch.origin = 2;
  sketch.registers = {0u, 1u, 0xDEADBEEFu, UINT32_MAX};
  auto decoded = DecodePsopSketch(EncodePsopSketch(sketch));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->origin, 2u);
  EXPECT_EQ(decoded->registers, sketch.registers);
  // Same hygiene as the other ring payloads: every proper prefix and any
  // trailing garbage must be rejected.
  const std::string full = EncodePsopSketch(sketch);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(DecodePsopSketch(full.substr(0, cut)).ok()) << "cut " << cut;
  }
  EXPECT_FALSE(DecodePsopSketch(full + "x").ok());
}

TEST(ProtoTest, PsopSketchRejectsHostileCounts) {
  // A sketch has at least one register, and the frame extension carries k
  // as u16 — zero and anything above UINT16_MAX are rejected by the count
  // check before any allocation happens.
  PsopSketch empty;
  empty.origin = 0;
  EXPECT_FALSE(DecodePsopSketch(EncodePsopSketch(empty)).ok());
  PsopSketch small;
  small.origin = 0;
  small.registers = {1, 2, 3};
  std::string forged = EncodePsopSketch(small);
  for (size_t i = 4; i < 8; ++i) {
    forged[i] = static_cast<char>(0xFF);  // register count = UINT32_MAX
  }
  EXPECT_FALSE(DecodePsopSketch(forged).ok());
}

// Populated stats payload shared by the codec tests below.
ServerStats TestServerStats() {
  ServerStats stats;
  stats.uptime_us = 123456789;
  stats.depdb_records = 42;
  stats.metrics.counters = {{"net.bytes_sent", 1024}, {"svc.rpcs.Ping", 3}};
  stats.metrics.gauges = {{"svc.connections_active", 2, 5}};
  obs::Histogram::Snapshot h;
  h.name = "svc.rpc_seconds.Ping";
  h.bounds = {0.001, 0.01, 0.1};
  h.counts = {1, 2, 3, 0};  // bounds + 1: trailing overflow bucket
  h.count = 6;
  h.sum = 0.25;
  stats.metrics.histograms = {h};
  return stats;
}

TEST(ProtoTest, ServerStatsRoundTrip) {
  const ServerStats stats = TestServerStats();
  auto decoded = DecodeServerStats(EncodeServerStats(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->uptime_us, stats.uptime_us);
  EXPECT_EQ(decoded->depdb_records, stats.depdb_records);
  ASSERT_EQ(decoded->metrics.counters.size(), 2u);
  EXPECT_EQ(decoded->metrics.counters[0].name, "net.bytes_sent");
  EXPECT_EQ(decoded->metrics.counters[0].value, 1024u);
  ASSERT_EQ(decoded->metrics.gauges.size(), 1u);
  EXPECT_EQ(decoded->metrics.gauges[0].name, "svc.connections_active");
  EXPECT_EQ(decoded->metrics.gauges[0].value, 2);
  EXPECT_EQ(decoded->metrics.gauges[0].max, 5);
  ASSERT_EQ(decoded->metrics.histograms.size(), 1u);
  const obs::Histogram::Snapshot& h = decoded->metrics.histograms[0];
  EXPECT_EQ(h.name, "svc.rpc_seconds.Ping");
  EXPECT_EQ(h.bounds, stats.metrics.histograms[0].bounds);
  EXPECT_EQ(h.counts, stats.metrics.histograms[0].counts);
  EXPECT_EQ(h.count, 6u);
  EXPECT_EQ(h.sum, 0.25);
}

TEST(ProtoTest, ServerStatsTruncationAndHostileCountsRejected) {
  const std::string full = EncodeServerStats(TestServerStats());
  for (size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(DecodeServerStats(full.substr(0, cut)).ok()) << "cut " << cut;
  }
  EXPECT_FALSE(DecodeServerStats(full + "x").ok());
  // A forged counter count (bytes 16..19, right after uptime + depdb) must
  // be rejected by the entry limit before any allocation happens.
  std::string forged = full;
  for (size_t i = 16; i < 20; ++i) {
    forged[i] = static_cast<char>(0xFF);
  }
  EXPECT_FALSE(DecodeServerStats(forged).ok());
}

TEST(ProtoTest, HealthStatusRoundTrip) {
  for (bool serving : {true, false}) {
    HealthStatus status;
    status.serving = serving;
    status.uptime_us = 987654;
    auto decoded = DecodeHealthStatus(EncodeHealthStatus(status));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->serving, serving);
    EXPECT_EQ(decoded->uptime_us, 987654u);
  }
  const std::string full = EncodeHealthStatus(HealthStatus{});
  for (size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(DecodeHealthStatus(full.substr(0, cut)).ok()) << "cut " << cut;
  }
  EXPECT_FALSE(DecodeHealthStatus(full + "x").ok());
}

TEST(ProtoTest, DebugInfoRoundTrip) {
  DebugInfo info;
  info.uptime_us = 123456789;
  info.mode = 1;
  info.reactor_shards = 4;
  info.inflight_global = 17;
  DebugShard shard;
  shard.index = 2;
  shard.connections = 5;
  shard.inflight = 3;
  shard.has_listener = true;
  info.shards.push_back(shard);
  DebugConnection conn;
  conn.id = 42;
  conn.shard = 2;
  conn.age_us = 1000000;
  conn.in_buffer_bytes = 12;
  conn.write_buffer_bytes = 34;
  conn.inflight = 2;
  conn.oldest_pending_us = 2500;
  info.connections.push_back(conn);
  DebugFlightEvent event;
  event.t_us = 99;
  event.trace_id = 0xABCDu;
  event.a = 7;
  event.b = 8;
  event.tid = 11;
  event.type = 3;
  event.code = 6;
  info.events.push_back(event);
  DebugSlowRpc slow;
  slow.trace_id = 0x1234u;
  slow.request_id = 9;
  slow.rpc_type = 5;
  slow.outcome = 2;
  slow.ok = false;
  slow.conn_id = 42;
  slow.end_us = 777;
  slow.total_s = 0.25;
  for (int i = 0; i < 6; ++i) slow.stage_s[i] = 0.01 * (i + 1);
  info.slowest.push_back(slow);

  const std::string full = EncodeDebugInfo(info);
  auto decoded = DecodeDebugInfo(full);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->uptime_us, info.uptime_us);
  EXPECT_EQ(decoded->mode, info.mode);
  EXPECT_EQ(decoded->reactor_shards, info.reactor_shards);
  EXPECT_EQ(decoded->inflight_global, info.inflight_global);
  ASSERT_EQ(decoded->shards.size(), 1u);
  EXPECT_EQ(decoded->shards[0].index, shard.index);
  EXPECT_EQ(decoded->shards[0].connections, shard.connections);
  EXPECT_EQ(decoded->shards[0].inflight, shard.inflight);
  EXPECT_EQ(decoded->shards[0].has_listener, shard.has_listener);
  ASSERT_EQ(decoded->connections.size(), 1u);
  EXPECT_EQ(decoded->connections[0].id, conn.id);
  EXPECT_EQ(decoded->connections[0].shard, conn.shard);
  EXPECT_EQ(decoded->connections[0].age_us, conn.age_us);
  EXPECT_EQ(decoded->connections[0].in_buffer_bytes, conn.in_buffer_bytes);
  EXPECT_EQ(decoded->connections[0].write_buffer_bytes, conn.write_buffer_bytes);
  EXPECT_EQ(decoded->connections[0].inflight, conn.inflight);
  EXPECT_EQ(decoded->connections[0].oldest_pending_us, conn.oldest_pending_us);
  ASSERT_EQ(decoded->events.size(), 1u);
  EXPECT_EQ(decoded->events[0].t_us, event.t_us);
  EXPECT_EQ(decoded->events[0].trace_id, event.trace_id);
  EXPECT_EQ(decoded->events[0].a, event.a);
  EXPECT_EQ(decoded->events[0].b, event.b);
  EXPECT_EQ(decoded->events[0].tid, event.tid);
  EXPECT_EQ(decoded->events[0].type, event.type);
  EXPECT_EQ(decoded->events[0].code, event.code);
  ASSERT_EQ(decoded->slowest.size(), 1u);
  EXPECT_EQ(decoded->slowest[0].trace_id, slow.trace_id);
  EXPECT_EQ(decoded->slowest[0].request_id, slow.request_id);
  EXPECT_EQ(decoded->slowest[0].rpc_type, slow.rpc_type);
  EXPECT_EQ(decoded->slowest[0].outcome, slow.outcome);
  EXPECT_EQ(decoded->slowest[0].ok, slow.ok);
  EXPECT_EQ(decoded->slowest[0].conn_id, slow.conn_id);
  EXPECT_EQ(decoded->slowest[0].end_us, slow.end_us);
  EXPECT_DOUBLE_EQ(decoded->slowest[0].total_s, slow.total_s);
  for (int i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(decoded->slowest[0].stage_s[i], slow.stage_s[i]) << "stage " << i;
  }

  for (size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(DecodeDebugInfo(full.substr(0, cut)).ok()) << "cut " << cut;
  }
  EXPECT_FALSE(DecodeDebugInfo(full + "x").ok());
}

TEST(ProtoTest, ProfileRequestRoundTripAndCaps) {
  ProfileRequest request;
  request.hz = 250;
  request.seconds = 7;
  request.alloc = false;
  const std::string full = EncodeProfileRequest(request);
  auto decoded = DecodeProfileRequest(full);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->hz, request.hz);
  EXPECT_EQ(decoded->seconds, request.seconds);
  EXPECT_EQ(decoded->alloc, request.alloc);

  // A hostile client must not be able to demand a SIGPROF storm or an
  // hour-long capture: out-of-range values die at decode, before any timer
  // is armed.
  ProfileRequest hostile;
  hostile.hz = 0;
  EXPECT_FALSE(DecodeProfileRequest(EncodeProfileRequest(hostile)).ok());
  hostile.hz = kMaxProfileHz + 1;
  EXPECT_FALSE(DecodeProfileRequest(EncodeProfileRequest(hostile)).ok());
  hostile.hz = 99;
  hostile.seconds = 0;
  EXPECT_FALSE(DecodeProfileRequest(EncodeProfileRequest(hostile)).ok());
  hostile.seconds = kMaxProfileSeconds + 1;
  EXPECT_FALSE(DecodeProfileRequest(EncodeProfileRequest(hostile)).ok());

  for (size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(DecodeProfileRequest(full.substr(0, cut)).ok()) << "cut " << cut;
  }
  EXPECT_FALSE(DecodeProfileRequest(full + "x").ok());
}

TEST(ProtoTest, ProfileReplyRoundTrip) {
  ProfileReply reply;
  reply.dump = "# indaas-profile v1\ncpu 1 0 7 1 0xabc\n";
  const std::string full = EncodeProfileReply(reply);
  auto decoded = DecodeProfileReply(full);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->dump, reply.dump);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(DecodeProfileReply(full.substr(0, cut)).ok()) << "cut " << cut;
  }
  EXPECT_FALSE(DecodeProfileReply(full + "x").ok());
}

// --- AuditServer / AuditClient end-to-end (loopback) ---

TEST(AuditServerTest, PingImportAuditRoundTrip) {
  AuditServerOptions options;
  options.worker_threads = 2;
  AuditServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());

  const std::string depdb_text = TestDepDbText();
  auto ack = client->ImportDepDb(depdb_text);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->network, 3u);
  EXPECT_EQ(ack->hardware, 3u);
  EXPECT_EQ(ack->software, 3u);

  AuditSpecification spec = TestSpec();
  auto remote = client->AuditStructural(spec);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  // The remote report must match a local agent auditing the same DepDB.
  AuditingAgent local;
  ASSERT_TRUE(local.depdb().ImportText(depdb_text).ok());
  auto expected = local.AuditStructural(spec);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(remote->deployments.size(), expected->deployments.size());
  for (size_t i = 0; i < remote->deployments.size(); ++i) {
    EXPECT_EQ(remote->deployments[i].servers, expected->deployments[i].servers);
    EXPECT_EQ(remote->deployments[i].independence_score,
              expected->deployments[i].independence_score);
    EXPECT_EQ(remote->deployments[i].unexpected_rgs, expected->deployments[i].unexpected_rgs);
    EXPECT_EQ(remote->deployments[i].ranked_groups.size(),
              expected->deployments[i].ranked_groups.size());
  }
  server.Stop();
}

TEST(AuditServerTest, RemotePiaAudit) {
  AuditServer server;
  ASSERT_TRUE(server.Start().ok());
  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
  ASSERT_TRUE(client.ok());
  std::vector<CloudProvider> providers = {{"CloudA", {"net:tor1", "net:core1", "hw:x"}},
                                          {"CloudB", {"net:tor2", "net:core1", "hw:x"}},
                                          {"CloudC", {"net:tor3", "net:core2", "hw:y"}}};
  PiaAuditOptions options;
  options.psop.group_bits = 768;
  options.max_redundancy = 2;
  auto remote = client->AuditPia(providers, options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  AuditingAgent local;
  auto expected = local.AuditPrivate(providers, options);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(remote->rankings.size(), expected->rankings.size());
  ASSERT_EQ(remote->rankings[0].size(), expected->rankings[0].size());
  for (size_t i = 0; i < remote->rankings[0].size(); ++i) {
    EXPECT_EQ(remote->rankings[0][i].providers, expected->rankings[0][i].providers);
    EXPECT_EQ(remote->rankings[0][i].jaccard, expected->rankings[0][i].jaccard);
  }
  server.Stop();
}

// A remote audit may not size the server's sketches: sketch_k and
// minhash_m above the u16 frame geometry are rejected before any register
// array is allocated, and the connection keeps serving.
TEST(AuditServerTest, RemotePiaAuditRejectsOversizedSketches) {
  AuditServer server;
  ASSERT_TRUE(server.Start().ok());
  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
  ASSERT_TRUE(client.ok());
  std::vector<CloudProvider> providers = {{"CloudA", {"net:tor1", "net:core1"}},
                                          {"CloudB", {"net:tor2", "net:core1"}}};
  PiaAuditOptions sketch;
  sketch.method = PiaMethod::kSketch;
  sketch.sketch_k = kMaxSketchK + 1;
  sketch.max_redundancy = 2;
  PiaAuditOptions minhash;
  minhash.method = PiaMethod::kPsopMinHash;
  minhash.minhash_m = kMaxSketchK + 1;
  minhash.psop.group_bits = 768;
  minhash.max_redundancy = 2;
  for (const PiaAuditOptions& options : {sketch, minhash}) {
    auto report = client->AuditPia(providers, options);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
        << report.status().ToString();
    EXPECT_TRUE(client->Ping().ok());
  }
  server.Stop();
}

TEST(AuditServerTest, BadRequestGetsErrorReplyAndConnectionSurvives) {
  AuditServer server;
  ASSERT_TRUE(server.Start().ok());
  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
  ASSERT_TRUE(client.ok());
  AuditSpecification empty_spec;  // no deployments: the agent must reject it
  auto report = client->AuditStructural(empty_spec);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("remote: "), std::string::npos);
  // The error was payload-level, not framing: the connection keeps working.
  EXPECT_TRUE(client->Ping().ok());
  server.Stop();
}

TEST(AuditServerTest, HostileDeploymentCountGetsErrorReplyAndConnectionSurvives) {
  // An AuditRequest claiming 2^32 - 1 deployments: the decoder must refuse
  // the count before reserving for it, and the server must answer with an
  // ErrorReply and keep serving.
  AuditServer server;
  ASSERT_TRUE(server.Start().ok());
  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
  ASSERT_TRUE(client.ok());
  const std::string valid = EncodeAuditSpecification(TestSpec());
  const std::string hostile = std::string(4, '\xFF') + valid.substr(4);
  auto reply = client->Call(MsgType::kAuditRequest, hostile, MsgType::kAuditReport);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kParseError) << reply.status().ToString();
  EXPECT_NE(reply.status().message().find("remote: "), std::string::npos);
  EXPECT_TRUE(client->Ping().ok());
  server.Stop();
}

TEST(AuditServerTest, ConcurrentClients) {
  AuditServerOptions options;
  options.worker_threads = 4;
  AuditServer server(options);
  ASSERT_TRUE(server.Start().ok());
  {
    auto seed_client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
    ASSERT_TRUE(seed_client.ok());
    ASSERT_TRUE(seed_client->ImportDepDb(TestDepDbText()).ok());
  }
  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        if (c % 2 == 0) {
          // Even clients audit (shared lock)...
          auto report = client->AuditStructural(TestSpec());
          if (!report.ok() || report->deployments.size() != 2) {
            ++failures;
          }
        } else {
          // ...odd clients re-import (exclusive lock), forcing both lock
          // modes to interleave.
          auto ack = client->ImportDepDb(TestDepDbText());
          if (!ack.ok()) {
            ++failures;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

// --- Stats / health over loopback ---

// Finds a counter by name; returns 0 when absent.
uint64_t CounterValue(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  return 0;
}

const obs::Histogram::Snapshot* FindHistogram(const obs::MetricsSnapshot& snapshot,
                                              const std::string& name) {
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == name) {
      return &histogram;
    }
  }
  return nullptr;
}

TEST(AuditServerTest, StatsAndHealthEndToEnd) {
  AuditServer server;
  ASSERT_TRUE(server.Start().ok());
  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto health = client->Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_TRUE(health->serving);

  ASSERT_TRUE(client->ImportDepDb(TestDepDbText()).ok());
  ASSERT_TRUE(client->AuditStructural(TestSpec()).ok());
  auto first = client->GetStats();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->depdb_records, 9u);
  EXPECT_GT(first->uptime_us, 0u);
  // The registry snapshot carries the transport byte meters and the per-RPC
  // latency histograms the server maintains.
  EXPECT_GT(CounterValue(first->metrics, "net.bytes_sent"), 0u);
  EXPECT_GT(CounterValue(first->metrics, "net.bytes_recv"), 0u);
  EXPECT_GE(CounterValue(first->metrics, "svc.rpcs.AuditRequest"), 1u);
  const obs::Histogram::Snapshot* audit_seconds =
      FindHistogram(first->metrics, "svc.rpc_seconds.AuditRequest");
  ASSERT_NE(audit_seconds, nullptr);
  EXPECT_GE(audit_seconds->count, 1u);
  EXPECT_GT(audit_seconds->sum, 0.0);
  // The degraded-mode surface is pre-registered at Start(): a scrape of a
  // healthy server reports explicit zeros, not absent series, so dashboards
  // can alert on rate() from the first sample.
  EXPECT_TRUE(std::any_of(first->metrics.counters.begin(), first->metrics.counters.end(),
                          [](const auto& c) { return c.name == "svc.degraded_audits"; }));
  EXPECT_TRUE(std::any_of(first->metrics.gauges.begin(), first->metrics.gauges.end(),
                          [](const auto& g) { return g.name == "svc.adaptive_shed_level"; }));
  // Likewise the profiler surface: obs.profile.* counters report explicit
  // zeros from Start(), whether or not a profile window ever runs.
  for (const char* name : {"obs.profile.samples", "obs.profile.dropped",
                           "obs.profile.truncated_stacks", "threadpool.threads_started_total"}) {
    EXPECT_TRUE(std::any_of(first->metrics.counters.begin(), first->metrics.counters.end(),
                            [name](const auto& c) { return c.name == name; }))
        << name;
  }

  // A second audit strictly advances the RPC counter and never decreases any
  // counter the first snapshot reported.
  ASSERT_TRUE(client->AuditStructural(TestSpec()).ok());
  auto second = client->GetStats();
  ASSERT_TRUE(second.ok());
  EXPECT_GE(second->uptime_us, first->uptime_us);
  EXPECT_GT(CounterValue(second->metrics, "svc.rpcs.AuditRequest"),
            CounterValue(first->metrics, "svc.rpcs.AuditRequest"));
  for (const auto& counter : first->metrics.counters) {
    EXPECT_GE(CounterValue(second->metrics, counter.name), counter.value) << counter.name;
  }
  const obs::Histogram::Snapshot* second_seconds =
      FindHistogram(second->metrics, "svc.rpc_seconds.AuditRequest");
  ASSERT_NE(second_seconds, nullptr);
  EXPECT_GT(second_seconds->count, audit_seconds->count);

  // Draining: the health probe flips to not-serving while stats (and other
  // RPCs) keep answering, exactly what a load balancer needs for shutdown.
  server.set_serving(false);
  auto draining = client->Health();
  ASSERT_TRUE(draining.ok());
  EXPECT_FALSE(draining->serving);
  EXPECT_TRUE(client->GetStats().ok());
  server.Stop();
}

// Small audits run below every parallel-work threshold, so a warm server
// serves them without creating a single thread: no pool per audit.
TEST(AuditServerTest, SmallAuditsStartNoThreads) {
  AuditServerOptions options;
  options.worker_threads = 2;
  AuditServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->ImportDepDb(TestDepDbText()).ok());
  ASSERT_TRUE(client->AuditStructural(TestSpec()).ok());  // warm-up
  auto before = client->GetStats();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client->AuditStructural(TestSpec()).ok()) << "audit " << i;
  }
  auto after = client->GetStats();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GE(CounterValue(after->metrics, "svc.rpcs.AuditRequest"),
            CounterValue(before->metrics, "svc.rpcs.AuditRequest") + 50);
  EXPECT_EQ(CounterValue(after->metrics, "threadpool.threads_started_total"),
            CounterValue(before->metrics, "threadpool.threads_started_total"));
  server.Stop();
}

TEST(AuditServerTest, TracePropagatesClientToServer) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Reset();
  recorder.SetEnabled(true);
  AuditServer server;
  ASSERT_TRUE(server.Start().ok());
  const uint64_t trace_id = 0xABCDEF0123456789ULL;
  {
    // The ambient context seeds the client's trace id at Connect.
    obs::ScopedTraceContext ambient(obs::TraceContext{trace_id, 0});
    auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
    ASSERT_TRUE(client.ok());
    EXPECT_EQ(client->trace_id(), trace_id);
    ASSERT_TRUE(client->Ping().ok());
  }
  server.Stop();
  recorder.SetEnabled(false);

  // The client's RPC span and the server's handler span must share the trace
  // id, with the server span's remote parent naming the client span.
  const std::vector<obs::SpanRecord> spans = recorder.Snapshot();
  const obs::SpanRecord* client_span = nullptr;
  const obs::SpanRecord* server_span = nullptr;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "svc.client.rpc" && span.trace_id == trace_id) {
      client_span = &span;
    }
    if (span.name == "svc.rpc" && span.trace_id == trace_id) {
      server_span = &span;
    }
  }
  ASSERT_NE(client_span, nullptr);
  ASSERT_NE(server_span, nullptr);
  EXPECT_EQ(server_span->remote_parent, obs::WireSpanId(client_span->id));
}

// --- Reactor mode, pipelining, and admission control ---

// The reactor finalizes an RPC (tail-sampler offer included) right after its
// reply bytes reach the kernel, so a client can observe the reply a beat
// before the sample lands. Poll briefly instead of asserting instantly.
std::vector<obs::TailSample> WaitForTailSamples(size_t at_least) {
  for (int i = 0; i < 2000; ++i) {
    auto samples = obs::TailSampler::Global().TopSlowest(16);
    if (samples.size() >= at_least) return samples;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return obs::TailSampler::Global().TopSlowest(16);
}

TEST(AuditServerTest, TailSamplerKeepsErroredAndSlowButNotFastRpcs) {
  // Acceptance criterion for the flight-recorder PR: slow/shed/errored RPCs
  // are tail-captured with a per-stage breakdown; fast successes are not.
  {
    AuditServerOptions options;
    options.slow_rpc_threshold_s = 3600.0;  // nothing qualifies as slow
    AuditServer server(options);
    ASSERT_TRUE(server.Start().ok());  // Start() reconfigures (clears) the sampler
    auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Ping().ok());  // fast + ok: must not be retained
    AuditSpecification empty_spec;  // agent rejects it -> errored RPC
    ASSERT_FALSE(client->AuditStructural(empty_spec).ok());
    auto samples = WaitForTailSamples(1);
    ASSERT_EQ(samples.size(), 1u) << "only the errored RPC should be retained";
    EXPECT_EQ(samples[0].rpc_type, static_cast<uint16_t>(MsgType::kAuditRequest));
    EXPECT_EQ(samples[0].outcome, obs::TailOutcome::kError);
    EXPECT_FALSE(samples[0].ok);
    EXPECT_GT(samples[0].total_s, 0.0);
    EXPECT_GT(samples[0].stages.total(), 0.0) << "stage breakdown must be populated";
    server.Stop();
  }
  {
    AuditServerOptions options;
    options.slow_rpc_threshold_s = 1e-9;  // every finished RPC is "slow"
    AuditServer server(options);
    ASSERT_TRUE(server.Start().ok());
    auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->ImportDepDb(TestDepDbText()).ok());
    ASSERT_TRUE(client->AuditStructural(TestSpec()).ok());
    auto samples = WaitForTailSamples(2);  // ImportDepDb + AuditStructural
    const obs::TailSample* audit = nullptr;
    for (const auto& sample : samples) {
      if (sample.rpc_type == static_cast<uint16_t>(MsgType::kAuditRequest)) audit = &sample;
    }
    ASSERT_NE(audit, nullptr) << "slow-but-ok audit should be tail-captured";
    EXPECT_EQ(audit->outcome, obs::TailOutcome::kSlow);
    EXPECT_TRUE(audit->ok);
    EXPECT_GT(audit->total_s, 0.0);
    // The interesting stages for a pool-dispatched RPC all have signal.
    EXPECT_GT(audit->stages.s[static_cast<int>(obs::RpcStage::kDecode)], 0.0);
    EXPECT_GT(audit->stages.s[static_cast<int>(obs::RpcStage::kCompute)], 0.0);
    EXPECT_GT(audit->stages.total(), 0.0);
    server.Stop();
  }
}

TEST(AuditServerTest, GetDebugInfoReactorEndToEnd) {
  AuditServerOptions options;
  options.reactor_shards = 2;
  AuditServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());
  auto info = client->GetDebugInfo();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->mode, 0u);  // legacy wire byte, always 0
  EXPECT_EQ(info->reactor_shards, 2u);
  EXPECT_GT(info->uptime_us, 0u);
  ASSERT_EQ(info->shards.size(), 2u);  // one entry per shard, gathered live
  uint64_t listeners = 0;
  for (const auto& shard : info->shards) listeners += shard.has_listener ? 1 : 0;
  EXPECT_GE(listeners, 1u);
  // Our own connection shows up with per-connection introspection. The
  // GetDebugInfo in flight bypasses admission, so its own inflight count
  // is deliberately zero here.
  ASSERT_GE(info->connections.size(), 1u);
  uint64_t shard_connections = 0;
  for (const auto& shard : info->shards) shard_connections += shard.connections;
  EXPECT_EQ(shard_connections, info->connections.size());
  EXPECT_FALSE(info->events.empty()) << "flight recorder should have accept/rpc events";
  server.Stop();
}

TEST(AuditServerTest, GetProfileEndToEnd) {
  AuditServerOptions options;
  options.worker_threads = 2;
  AuditServer server(options);
  ASSERT_TRUE(server.Start().ok());
  // An I/O budget shorter than the capture window: GetProfile's deadline
  // must stretch past it.
  AuditClientOptions client_options;
  client_options.io_timeout_ms = 500;
  auto client =
      AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()}, client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->ImportDepDb(TestDepDbText()).ok());

  // A second client hammers audits for the duration of the capture so the
  // pool worker not blocked inside GetProfile has CPU-visible work.
  std::atomic<bool> done{false};
  std::thread load([&] {
    auto worker = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
    ASSERT_TRUE(worker.ok());
    while (!done.load()) {
      ASSERT_TRUE(worker->AuditStructural(TestSpec()).ok());
    }
  });

  ProfileRequest request;
  request.hz = 500;  // short window, so sample densely
  request.seconds = 1;
  request.alloc = true;
  auto reply = client->GetProfile(request);
  done.store(true);
  load.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();

  obs::ProfileData data;
  ASSERT_TRUE(obs::ParseProfileDumpText(reply->dump, &data));
  EXPECT_EQ(data.hz, 500u);
  EXPECT_GT(data.end_us, data.start_us);
  EXPECT_NE(data.exe_base, 0u);
  EXPECT_FALSE(data.exe_path.empty());
  // The audit loop kept a registered pool worker busy for the whole second;
  // at 500 Hz a handful of CPU samples is a conservative floor.
  size_t cpu = 0;
  for (const obs::ProfileSample& sample : data.samples) {
    if (!sample.alloc) {
      ++cpu;
      EXPECT_FALSE(sample.frames.empty());
    }
  }
  EXPECT_GE(cpu, 5u);

  // Out-of-range windows die at decode on the server: remote error, not a
  // capture (and kErrorReply unwraps into a non-transport status).
  ProfileRequest hostile;
  hostile.hz = 0;
  EXPECT_FALSE(client->GetProfile(hostile).ok());
  EXPECT_TRUE(client->Ping().ok());  // connection survives the rejection
  server.Stop();
}

TEST(AuditServerTest, ContinuousProfilingServesWindows) {
  // --profile-hz mode: the server owns a continuous session; GetProfile
  // cuts a window out of it (the request's hz is advisory) and Stop() tears
  // the session down so later servers can profile again.
  AuditServerOptions options;
  options.worker_threads = 2;
  options.profile_hz = 200;
  AuditServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(obs::Profiler::Global().running());
  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
  ASSERT_TRUE(client.ok());

  ProfileRequest request;
  request.hz = 99;
  request.seconds = 1;
  auto reply = client->GetProfile(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  obs::ProfileData data;
  ASSERT_TRUE(obs::ParseProfileDumpText(reply->dump, &data));
  EXPECT_EQ(data.hz, 200u);  // the continuous session's rate, not the request's

  server.Stop();
  EXPECT_FALSE(obs::Profiler::Global().running());
}

TEST(AuditServerTest, ReactorReportsItsShards) {
  AuditServerOptions options;
  options.reactor_shards = 3;
  AuditServer server(options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.reactor_shards(), 3u);
  server.Stop();
}

TEST(AuditServerTest, LegacyClientInteropIsByteIdentical) {
  // A pre-pipelining client speaks flags==0 frames; the reactor's reply to
  // such a request must be byte-for-byte what the old server sent — not
  // just semantically equivalent.
  AuditServer server;
  ASSERT_TRUE(server.Start().ok());
  auto socket = net::TcpConnect(net::Endpoint{"127.0.0.1", server.port()}, 2000);
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket
                  ->SendAll(net::EncodeFrameHeader(static_cast<uint8_t>(MsgType::kPing), 0),
                            2000)
                  .ok());
  std::string reply;
  ASSERT_TRUE(socket->RecvAll(&reply, net::kFrameHeaderBytes, 5000).ok());
  EXPECT_EQ(reply, net::EncodeFrameHeader(static_cast<uint8_t>(MsgType::kPong), 0));
  // Nothing further follows the pong (no surprise extensions).
  std::string extra;
  EXPECT_EQ(socket->RecvAll(&extra, 1, 100).code(), StatusCode::kDeadlineExceeded);
  server.Stop();
}

TEST(AuditClientTest, PipelinedRepliesCompleteOutOfOrder) {
  // A hand-rolled server reads a batch of pipelined requests, then answers
  // them in reverse order, echoing each request's payload and id. The
  // client must pair every completion by id — last-issued resolves first.
  auto listener = net::TcpListen(0);
  ASSERT_TRUE(listener.ok());
  auto port = listener->LocalPort();
  ASSERT_TRUE(port.ok());
  constexpr int kCalls = 3;
  std::thread fake_server([&] {
    auto conn = net::TcpAccept(*listener, 5000);
    ASSERT_TRUE(conn.ok());
    std::vector<net::Frame> requests;
    for (int i = 0; i < kCalls; ++i) {
      auto frame = net::ReadFrame(*conn, net::FrameLimits{}, 5000);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      ASSERT_NE(frame->request_id, 0u);
      requests.push_back(std::move(*frame));
    }
    for (int i = kCalls - 1; i >= 0; --i) {
      ASSERT_TRUE(net::WriteFrame(*conn, static_cast<uint8_t>(MsgType::kPong),
                                  requests[i].payload, 2000, {}, requests[i].request_id)
                      .ok());
    }
    // Hold the connection open until the client is done with it.
    std::string eof_probe;
    (void)conn->RecvAll(&eof_probe, 1, 5000);
  });

  AuditClientOptions options;
  options.window = kCalls + 1;
  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", *port}, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> completion_order;
  std::vector<std::string> payloads(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    client->AsyncCall(MsgType::kPing, "call-" + std::to_string(i), MsgType::kPong,
                      [&, i](Result<net::Frame> reply) {
                        std::lock_guard<std::mutex> lock(mu);
                        if (reply.ok()) {
                          payloads[i] = reply->payload;
                        }
                        completion_order.push_back(i);
                        cv.notify_one();
                      });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return completion_order.size() == kCalls; }));
    // Pairing is by id: each call got its own payload back even though the
    // server replied in reverse.
    for (int i = 0; i < kCalls; ++i) {
      EXPECT_EQ(payloads[i], "call-" + std::to_string(i)) << i;
    }
    EXPECT_EQ(completion_order, (std::vector<int>{2, 1, 0}));
  }
  client->Shutdown();
  fake_server.join();
}

TEST(AuditClientTest, ManyConcurrentAuditsAgainstReactor) {
  AuditServerOptions options;
  options.worker_threads = 4;
  options.reactor_shards = 2;
  AuditServer server(options);
  ASSERT_TRUE(server.Start().ok());
  AuditClientOptions client_options;
  client_options.connections = 2;
  client_options.window = 64;
  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()}, client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->ImportDepDb(TestDepDbText()).ok());

  constexpr int kAudits = 100;
  const std::string spec_bytes = EncodeAuditSpecification(TestSpec());
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  int failures = 0;
  for (int i = 0; i < kAudits; ++i) {
    client->AsyncCall(MsgType::kAuditRequest, spec_bytes, MsgType::kAuditReport,
                      [&](Result<net::Frame> reply) {
                        bool ok = reply.ok();
                        if (ok) {
                          auto report = DecodeSiaAuditReport(reply->payload);
                          ok = report.ok() && report->deployments.size() == 2;
                        }
                        std::lock_guard<std::mutex> lock(mu);
                        if (!ok) {
                          ++failures;
                        }
                        ++done;
                        cv.notify_one();
                      });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(30), [&] { return done == kAudits; }));
  }
  EXPECT_EQ(failures, 0);
  client->Shutdown();
  server.Stop();
}

TEST(AuditClientTest, StalePooledConnectionRevivedAfterServerSideClose) {
  // A pooled connection the server closed while the client sat idle must
  // not poison the slot: the next call gets a fresh socket transparently
  // and svc.client.reconnects records the revival.
  auto listener = net::TcpListen(0);
  ASSERT_TRUE(listener.ok());
  auto port = listener->LocalPort();
  ASSERT_TRUE(port.ok());
  std::thread fake_server([&] {
    {
      // First connection: answer one ping, then hang up mid-idle.
      auto conn = net::TcpAccept(*listener, 5000);
      ASSERT_TRUE(conn.ok());
      auto frame = net::ReadFrame(*conn, net::FrameLimits{}, 5000);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      ASSERT_TRUE(net::WriteFrame(*conn, static_cast<uint8_t>(MsgType::kPong),
                                  frame->payload, 2000, {}, frame->request_id)
                      .ok());
    }
    // The client must come back on a brand-new connection for call two.
    auto conn = net::TcpAccept(*listener, 5000);
    ASSERT_TRUE(conn.ok());
    auto frame = net::ReadFrame(*conn, net::FrameLimits{}, 5000);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_TRUE(net::WriteFrame(*conn, static_cast<uint8_t>(MsgType::kPong),
                                frame->payload, 2000, {}, frame->request_id)
                    .ok());
    std::string eof_probe;
    (void)conn->RecvAll(&eof_probe, 1, 5000);
  });

  const uint64_t reconnects_before = CounterValue(
      obs::MetricsRegistry::Global().Snapshot(), "svc.client.reconnects");
  const uint64_t failures_before = CounterValue(
      obs::MetricsRegistry::Global().Snapshot(), "svc.client.conn_failures");
  AuditClientOptions options;
  options.connections = 1;  // one slot, so both calls route to it
  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", *port}, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());

  // Give the reader loop time to observe the server-side close and mark
  // the pooled connection failed — the regression was that this slot then
  // returned the stale error to every future call routed to it.
  for (int i = 0; i < 300; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const uint64_t now = CounterValue(obs::MetricsRegistry::Global().Snapshot(),
                                      "svc.client.conn_failures");
    if (now > failures_before) {
      break;
    }
  }

  Status second = client->Ping();
  EXPECT_TRUE(second.ok()) << second.ToString();
  const uint64_t reconnects_after = CounterValue(
      obs::MetricsRegistry::Global().Snapshot(), "svc.client.reconnects");
  EXPECT_GT(reconnects_after, reconnects_before);
  client->Shutdown();
  fake_server.join();
}

uint64_t ClientCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

// A hand-rolled audit server for the client's failure rules; it logs the
// type of every request frame it reads. kSilent never answers. kHangUpOnce
// closes the first connection right after reading its first request, then
// answers every later request with an empty reply of the expected type.
// kRetiredReportType answers audits as a server from before the name table
// did: a name-list report under the retired message type 6.
class ScriptedServer {
 public:
  enum class Mode { kSilent, kHangUpOnce, kRetiredReportType };

  explicit ScriptedServer(Mode mode) : mode_(mode) {
    auto listener = net::TcpListen(0);
    EXPECT_TRUE(listener.ok());
    listener_ = std::move(*listener);
    port_ = *listener_.LocalPort();
    thread_ = std::thread([this] { Run(); });
  }
  ~ScriptedServer() {
    stop_ = true;
    thread_.join();
  }

  net::Endpoint endpoint() const { return net::Endpoint{"127.0.0.1", port_}; }

  size_t Received(MsgType type) {
    std::lock_guard<std::mutex> lock(mu_);
    return std::count(received_.begin(), received_.end(), type);
  }

 private:
  // The retired report layout: per deployment, each group a u32-counted
  // list of u32-length names.
  static std::string RetiredReport() {
    net::WireWriter writer;
    writer.U8(0);
    writer.U8(0);
    writer.U32(1);
    writer.StrVec({"S1", "S2"});
    writer.U32(1);
    writer.StrVec({"net:tor1"});
    writer.F64(1.0);
    writer.F64(1.0);
    writer.U64(1);
    writer.F64(0.0);
    return writer.Take();
  }

  std::pair<MsgType, std::string> Reply(MsgType request) const {
    if (mode_ == Mode::kRetiredReportType && request == MsgType::kAuditRequest) {
      return {static_cast<MsgType>(6), RetiredReport()};
    }
    switch (request) {
      case MsgType::kAuditRequest:
        return {MsgType::kAuditReport, EncodeSiaAuditReport(SiaAuditReport{})};
      case MsgType::kImportDepDb:
        return {MsgType::kImportAck, EncodeImportAck(ImportAck{})};
      case MsgType::kGetProfile:
        return {MsgType::kProfileReply, EncodeProfileReply(ProfileReply{})};
      default:
        return {MsgType::kPong, ""};
    }
  }

  void Run() {
    bool hung_up = false;
    while (!stop_) {
      auto conn = net::TcpAccept(listener_, 20);
      while (conn.ok() && !stop_) {
        if (conn->WaitReadable(20).code() == StatusCode::kDeadlineExceeded) {
          continue;
        }
        auto frame = net::ReadFrame(*conn, net::FrameLimits{}, 2000);
        if (!frame.ok()) {
          break;  // the client closed this connection
        }
        const MsgType type = static_cast<MsgType>(frame->type);
        {
          std::lock_guard<std::mutex> lock(mu_);
          received_.push_back(type);
        }
        if (mode_ == Mode::kSilent) {
          continue;
        }
        if (mode_ == Mode::kHangUpOnce && !hung_up) {
          hung_up = true;
          break;
        }
        auto [reply, payload] = Reply(type);
        if (!net::WriteFrame(*conn, static_cast<uint8_t>(reply), payload, 2000, {},
                             frame->request_id)
                 .ok()) {
          break;
        }
      }
    }
  }

  const Mode mode_;
  net::Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::mutex mu_;
  std::vector<MsgType> received_;
};

TEST(AuditClientTest, SilentServerEndsRequestsAtTheirDeadline) {
  // A server that reads a request and never answers must not hang the
  // caller: the request ends with kDeadlineExceeded at io_timeout_ms and
  // fails its connection. An idempotent request is re-sent once first.
  ScriptedServer server(ScriptedServer::Mode::kSilent);
  AuditClientOptions options;
  options.io_timeout_ms = 300;
  auto client = AuditClient::Connect(server.endpoint(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const uint64_t replays_before = ClientCounter("svc.client.rpc_replays");
  const uint64_t failures_before = ClientCounter("svc.client.conn_failures");

  WallTimer timer;
  auto import = client->Call(MsgType::kImportDepDb, "records", MsgType::kImportAck);
  EXPECT_EQ(import.status().code(), StatusCode::kDeadlineExceeded)
      << import.status().ToString();
  EXPECT_GE(timer.ElapsedMillis(), 250.0);
  EXPECT_LT(timer.ElapsedMillis(), 300.0 + 700.0);
  EXPECT_EQ(ClientCounter("svc.client.conn_failures"), failures_before + 1);
  EXPECT_EQ(ClientCounter("svc.client.rpc_replays"), replays_before);

  timer.Reset();
  Status ping = client->Ping();
  EXPECT_EQ(ping.code(), StatusCode::kDeadlineExceeded) << ping.ToString();
  EXPECT_LT(timer.ElapsedMillis(), 2 * 300.0 + 700.0);
  EXPECT_EQ(ClientCounter("svc.client.rpc_replays"), replays_before + 1);
  EXPECT_EQ(server.Received(MsgType::kImportDepDb), 1u);
  EXPECT_EQ(server.Received(MsgType::kPing), 2u);

  // A GetProfile in flight has a deadline seconds out; a ping sent behind
  // it on the same connection must still end at its own deadline.
  ProfileRequest profile;
  profile.seconds = 5;
  Status profiled;
  std::thread profiler([&] { profiled = client->GetProfile(profile).status(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  timer.Reset();
  ping = client->Ping();
  EXPECT_EQ(ping.code(), StatusCode::kDeadlineExceeded) << ping.ToString();
  EXPECT_LT(timer.ElapsedMillis(), 2 * 300.0 + 700.0);
  profiler.join();
  EXPECT_EQ(profiled.code(), StatusCode::kDeadlineExceeded) << profiled.ToString();
  EXPECT_LT(timer.ElapsedMillis(), 2 * 300.0 + 700.0);
  EXPECT_EQ(server.Received(MsgType::kGetProfile), 1u);
}

TEST(AuditClientTest, IdempotentRequestsReplayOnceAfterHangUp) {
  for (MsgType type : {MsgType::kPing, MsgType::kAuditRequest}) {
    ScriptedServer server(ScriptedServer::Mode::kHangUpOnce);
    auto client = AuditClient::Connect(server.endpoint());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    const uint64_t replays_before = ClientCounter("svc.client.rpc_replays");
    Status status = type == MsgType::kPing ? client->Ping()
                                           : client->AuditStructural(TestSpec()).status();
    EXPECT_TRUE(status.ok()) << MsgTypeName(type) << ": " << status.ToString();
    EXPECT_EQ(ClientCounter("svc.client.rpc_replays"), replays_before + 1) << MsgTypeName(type);
    EXPECT_EQ(server.Received(type), 2u) << MsgTypeName(type);
  }
}

TEST(AuditClientTest, ImportAndProfileAreNeverReplayed) {
  for (MsgType type : {MsgType::kImportDepDb, MsgType::kGetProfile}) {
    ScriptedServer server(ScriptedServer::Mode::kHangUpOnce);
    auto client = AuditClient::Connect(server.endpoint());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    const uint64_t replays_before = ClientCounter("svc.client.rpc_replays");
    Status status = type == MsgType::kImportDepDb
                        ? client->ImportDepDb(TestDepDbText()).status()
                        : client->GetProfile(ProfileRequest{}).status();
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << MsgTypeName(type) << ": "
                                                       << status.ToString();
    EXPECT_EQ(ClientCounter("svc.client.rpc_replays"), replays_before) << MsgTypeName(type);
    // The next request revives the connection; once it is answered, the
    // server has read everything sent before it.
    EXPECT_TRUE(client->Ping().ok());
    EXPECT_EQ(server.Received(type), 1u) << MsgTypeName(type);
  }
}

TEST(AuditClientTest, RetiredReportTypeIsATypedError) {
  // A server from before the name table answers audits with message type 6.
  // The client must fail that request with a typed error naming the type,
  // never parse it as a report, and keep the connection.
  ScriptedServer server(ScriptedServer::Mode::kRetiredReportType);
  auto client = AuditClient::Connect(server.endpoint());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto report = client->AuditStructural(TestSpec());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kProtocolError) << report.status().ToString();
  EXPECT_NE(report.status().message().find("unexpected reply type 6 (want 24)"),
            std::string::npos)
      << report.status().ToString();
  EXPECT_EQ(server.Received(MsgType::kAuditRequest), 1u);
  EXPECT_TRUE(client->Ping().ok());
}

TEST(AuditClientTest, IdleClientShutsDownAtOnce) {
  // Shutdown wakes the reader with shutdown(2) instead of letting it sit
  // out a poll slice, so a connect/use/destroy cycle costs no idle wait.
  // The ping leaves the reader blocked on an idle socket.
  AuditServer server;
  ASSERT_TRUE(server.Start().ok());
  WallTimer timer;
  for (int i = 0; i < 20; ++i) {
    auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client->Ping().ok());
  }
  EXPECT_LT(timer.ElapsedMillis(), 400.0);
  server.Stop();
}

TEST(AuditServerTest, ShedsLoadBeyondInflightCapWithUnavailable) {
  // Cap the per-connection window at 1, then fire a burst of pipelined
  // audits in a single write. The whole burst parses inside one read
  // callback — before any worker completion can run — so everything past
  // the first admitted request must be shed with kUnavailable, id echoed.
  AuditServerOptions options;
  options.worker_threads = 2;
  options.reactor_shards = 1;
  options.max_inflight_per_connection = 1;
  AuditServer server(options);
  ASSERT_TRUE(server.Start().ok());
  {
    auto seed_client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
    ASSERT_TRUE(seed_client.ok());
    ASSERT_TRUE(seed_client->ImportDepDb(TestDepDbText()).ok());
  }
  const uint64_t shed_before =
      CounterValue(obs::MetricsRegistry::Global().Snapshot(), "svc.requests_shed");

  auto socket = net::TcpConnect(net::Endpoint{"127.0.0.1", server.port()}, 2000);
  ASSERT_TRUE(socket.ok());
  constexpr uint64_t kBurst = 64;
  const std::string spec_bytes = EncodeAuditSpecification(TestSpec());
  std::string burst;
  for (uint64_t id = 1; id <= kBurst; ++id) {
    burst += net::EncodeFrame(static_cast<uint8_t>(MsgType::kAuditRequest), spec_bytes, {},
                              id);
  }
  ASSERT_TRUE(socket->SendAll(burst, 5000).ok());

  uint64_t reports = 0;
  uint64_t shed = 0;
  std::vector<bool> seen(kBurst + 1, false);
  for (uint64_t i = 0; i < kBurst; ++i) {
    auto reply = net::ReadFrame(*socket, net::FrameLimits{}, 10000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_GE(reply->request_id, 1u);
    ASSERT_LE(reply->request_id, kBurst);
    EXPECT_FALSE(seen[reply->request_id]) << "duplicate id " << reply->request_id;
    seen[reply->request_id] = true;
    if (reply->type == static_cast<uint8_t>(MsgType::kAuditReport)) {
      ++reports;
    } else {
      ASSERT_EQ(reply->type, static_cast<uint8_t>(MsgType::kErrorReply));
      Status remote = DecodeErrorReply(reply->payload);
      EXPECT_EQ(remote.code(), StatusCode::kUnavailable) << remote.ToString();
      ++shed;
    }
  }
  EXPECT_EQ(reports + shed, kBurst);
  EXPECT_GE(reports, 1u);  // the admitted request(s) really ran
  EXPECT_GE(shed, 1u);     // overload really shed
  const uint64_t shed_after =
      CounterValue(obs::MetricsRegistry::Global().Snapshot(), "svc.requests_shed");
  EXPECT_GE(shed_after, shed_before + shed);
  server.Stop();
}

TEST(AuditServerTest, ReadDeadlineDropsStalledPartialFrame) {
  AuditServerOptions options;
  options.read_deadline_ms = 100;
  AuditServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto socket = net::TcpConnect(net::Endpoint{"127.0.0.1", server.port()}, 2000);
  ASSERT_TRUE(socket.ok());
  // A header promising 100 payload bytes that never arrive: the server must
  // drop the connection once the read deadline lapses, not hold it forever.
  ASSERT_TRUE(socket->SendAll(net::EncodeFrameHeader(1, 100) + "stall", 2000).ok());
  std::string reply;
  WallTimer timer;
  Status status = socket->RecvAll(&reply, 1, 5000);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);  // peer closed on us
  EXPECT_LT(timer.ElapsedSeconds(), 4.0);
  server.Stop();
}

// A frame may carry any extension the frame layer knows. The reactor must
// strip each one and keep parsing the connection: a flagged ping and then a
// plain ping on one connection get two pongs.
TEST(AuditServerTest, EveryFrameExtensionKeepsTheConnectionParsing) {
  AuditServer server;
  ASSERT_TRUE(server.Start().ok());
  struct Extension {
    const char* name;
    obs::TraceContext trace;
    uint64_t request_id = 0;
    net::FrameSketchParams sketch;
    net::FrameRingMembership ring;
  };
  const std::vector<Extension> extensions = {
      {"trace context", obs::TraceContext{0x1234, 0x5678}, 0, {}, {}},
      {"request id", {}, 42, {}, {}},
      {"sketch params", {}, 0, net::FrameSketchParams{64, 8, 8}, {}},
      {"ring membership", {}, 0, {}, net::FrameRingMembership{1, 0b101}},
  };
  const uint8_t ping = static_cast<uint8_t>(MsgType::kPing);
  for (const Extension& ext : extensions) {
    auto socket = net::TcpConnect(net::Endpoint{"127.0.0.1", server.port()}, 2000);
    ASSERT_TRUE(socket.ok()) << ext.name;
    ASSERT_TRUE(net::WriteFrame(*socket, ping, "", 2000, ext.trace, ext.request_id, ext.sketch,
                                ext.ring)
                    .ok())
        << ext.name;
    ASSERT_TRUE(net::WriteFrame(*socket, ping, "", 2000).ok()) << ext.name;
    for (int reply = 0; reply < 2; ++reply) {
      auto pong = net::ReadFrame(*socket, net::FrameLimits{}, 5000);
      ASSERT_TRUE(pong.ok()) << ext.name << " reply " << reply << ": "
                             << pong.status().ToString();
      EXPECT_EQ(pong->type, static_cast<uint8_t>(MsgType::kPong)) << ext.name;
    }
  }
  server.Stop();
}

// One malformed frame is one rejection in net.frames_rejected, whether its
// header or one of its extensions is bad.
TEST(AuditServerTest, RejectedFrameCountsOnce) {
  AuditServer server;
  ASSERT_TRUE(server.Start().ok());
  auto rejected = [] {
    return CounterValue(obs::MetricsRegistry::Global().Snapshot(), "net.frames_rejected");
  };
  // A garbage header; then a request-id extension holding the reserved id 0.
  const std::vector<std::string> bad_frames = {
      std::string(net::kFrameHeaderBytes, 'x'),
      net::EncodeFrameHeader(static_cast<uint8_t>(MsgType::kPing), 0, net::kFrameFlagRequestId) +
          std::string(net::kRequestIdBytes, '\0'),
  };
  for (const std::string& bad : bad_frames) {
    const uint64_t before = rejected();
    auto socket = net::TcpConnect(net::Endpoint{"127.0.0.1", server.port()}, 2000);
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(socket->SendAll(bad, 2000).ok());
    std::string reply;
    Status status = socket->RecvAll(&reply, 1, 5000);
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << "server kept a bad connection";
    EXPECT_EQ(rejected() - before, 1u);
  }
  server.Stop();
}

TEST(AuditServerTest, IdleConnectionSurvivesReadDeadline) {
  // The deadline applies to partial frames only: a connection idle between
  // requests is keep-alive, never culled.
  AuditServerOptions options;
  options.read_deadline_ms = 100;
  AuditServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()});
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // 3× the deadline
  EXPECT_TRUE(client->Ping().ok());
  server.Stop();
}

TEST(AuditServerTest, StatsScrapeRacesReactorLoadCleanly) {
  // A scraper hammers the registry snapshot while a pipelined client drives
  // pipelined load through the reactor — the TSan build proves the whole
  // reactor/pool/scrape weave is race-free.
  AuditServerOptions options;
  options.worker_threads = 2;
  options.reactor_shards = 2;
  AuditServer server(options);
  ASSERT_TRUE(server.Start().ok());
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
      (void)snapshot;
    }
  });
  AuditClientOptions client_options;
  client_options.connections = 2;
  client_options.window = 32;
  auto client = AuditClient::Connect(net::Endpoint{"127.0.0.1", server.port()}, client_options);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client->Ping().ok()) << i;
  }
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  client->Shutdown();
  server.Stop();
}

// --- Socket-backed P-SOP ring ---

PsopOptions RingPsopOptions() {
  PsopOptions psop;
  psop.group_bits = 768;
  psop.seed = 42;
  return psop;
}

// Runs a full k-peer loopback session over `datasets`; returns one result
// per peer (or dies on setup failure). A nonzero `sketch_k` switches the
// ring to the sketch-exchange protocol with that register count.
std::vector<Result<PsopResult>> RunLoopbackRing(
    const std::vector<std::vector<std::string>>& datasets, int io_timeout_ms = 10000,
    uint32_t sketch_k = 0) {
  const size_t k = datasets.size();
  std::vector<PiaPeer> peers;
  PiaPeerOptions options;
  options.psop = RingPsopOptions();
  options.io_timeout_ms = io_timeout_ms;
  if (sketch_k != 0) {
    options.sketch_k = sketch_k;
  }
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
      results[i] = sketch_k == 0 ? peers[i].RunPsop(datasets[i], mine)
                                 : peers[i].RunPsopWithSketch(datasets[i], mine);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return results;
}

TEST(PiaPeerTest, ThreePartyJaccardMatchesPlaintextOracle) {
  std::vector<std::vector<std::string>> datasets = {
      {"net:tor1", "net:core1", "hw:sed900", "pkg:libc6=2.13", "shared"},
      {"net:tor2", "net:core1", "hw:sed900", "pkg:libc6=2.13", "shared"},
      {"net:tor3", "net:core1", "hw:wd200", "pkg:libc6=2.13", "shared"},
  };
  auto results = RunLoopbackRing(datasets);
  const RingCounts reference = ExactRingOracle(datasets);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "peer " << i << ": " << results[i].status().ToString();
    // Bit-exact double equality, not almost-equal: the ring must compute
    // the plaintext intersection/union counts and the same division.
    EXPECT_TRUE(MatchesOracle(*results[i], reference)) << "peer " << i;
    // The peer metered its own real traffic.
    const PartyStats& stats = results[i]->party_stats[i];
    EXPECT_GT(stats.bytes_sent, 0u);
    EXPECT_GT(stats.bytes_received, 0u);
    EXPECT_GT(stats.encrypt_ops, 0u);
  }
  // Sanity: intersection is the 3 common elements (core1, libc6, shared).
  EXPECT_EQ(reference.intersection, 3u);
}

TEST(PiaPeerTest, TwoPartyWithDuplicatesMatchesPlaintextOracle) {
  std::vector<std::vector<std::string>> datasets = {
      {"a", "a", "b", "c"},
      {"a", "b", "b", "d"},
  };
  auto results = RunLoopbackRing(datasets);
  const RingCounts reference = ExactRingOracle(datasets);
  EXPECT_EQ(reference.intersection, 2u);  // a||1, b||1
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_TRUE(MatchesOracle(*results[i], reference)) << "peer " << i;
  }
}

// Party sizes that are not multiples of the eight-element crypto batch
// (13, 21 and 10). The socket ring's counts and Jaccard equal the plaintext
// oracle's, each peer's encrypt_ops equals its in-process party's, and the
// ring's wire bytes are the in-process element bytes in PsopDataset
// framing: a 4-byte length per element, and per frame (k hops plus k - 1
// all-gather rounds from each of the k peers) the frame header, the trace
// context and the 12-byte dataset header.
TEST(PiaPeerTest, RingOffTheBatchBoundaryMatchesInProcess) {
  std::vector<std::vector<std::string>> datasets(3);
  for (size_t p = 0; p < datasets.size(); ++p) {
    const size_t size = std::vector<size_t>{13, 21, 10}[p];
    for (size_t i = 0; i < size; ++i) {
      datasets[p].push_back(i % 2 == 0 ? "shared:" + std::to_string(i)
                                       : "own" + std::to_string(p) + ":" + std::to_string(i));
    }
  }
  auto results = RunLoopbackRing(datasets);
  auto reference = RunPsop(datasets, RingPsopOptions());
  ASSERT_TRUE(reference.ok());
  const RingCounts oracle = ExactRingOracle(datasets);
  EXPECT_EQ(oracle.intersection, 5u);  // shared:0, 2, 4, 6, 8
  const size_t k = datasets.size();
  uint64_t sent = 0;
  uint64_t reference_sent = 0;
  for (size_t i = 0; i < k; ++i) {
    ASSERT_TRUE(results[i].ok()) << "peer " << i << ": " << results[i].status().ToString();
    EXPECT_TRUE(MatchesOracle(*results[i], oracle)) << "peer " << i;
    EXPECT_EQ(results[i]->party_stats[i].encrypt_ops, reference->party_stats[i].encrypt_ops)
        << "peer " << i;
    sent += results[i]->party_stats[i].bytes_sent;
    reference_sent += reference->party_stats[i].bytes_sent;
  }
  const size_t element_bytes = RingPsopOptions().group_bits / 8;
  const size_t frames = k * (2 * k - 1);
  EXPECT_EQ(sent, reference_sent / element_bytes * (4 + element_bytes) +
                      frames * (net::kFrameHeaderBytes + net::kTraceContextBytes + 12));
}

TEST(PiaPeerTest, SketchRingByteIdenticalToInProcess) {
  const uint32_t sketch_k = 128;
  std::vector<std::vector<std::string>> datasets = {
      {"net:tor1", "net:core1", "hw:sed900", "pkg:libc6=2.13", "shared"},
      {"net:tor2", "net:core1", "hw:sed900", "pkg:libc6=2.13", "shared"},
      {"net:tor3", "net:core1", "hw:wd200", "pkg:libc6=2.13", "shared"},
  };
  auto results = RunLoopbackRing(datasets, 10000, sketch_k);
  const RingCounts reference = SketchRingOracle(datasets, sketch_k, RingPsopOptions().seed);
  // Every hop moves one fixed-size frame: header + trace + sketch-params
  // extensions + the PsopSketch payload (origin, count, k registers). The
  // total is a function of ring size and sketch_k only — never of how many
  // components a provider has, which is the protocol's selling point.
  const size_t hop_bytes = net::kFrameHeaderBytes + net::kTraceContextBytes +
                           net::kSketchParamsBytes + 8 + 4 * sketch_k;
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "peer " << i << ": " << results[i].status().ToString();
    // Bit-exact equality with the plaintext sketches: same seed derivation,
    // same registers, same agreement count, same division.
    EXPECT_TRUE(MatchesOracle(*results[i], reference)) << "peer " << i;
    const PartyStats& stats = results[i]->party_stats[i];
    EXPECT_EQ(stats.bytes_sent, (datasets.size() - 1) * hop_bytes) << "peer " << i;
    EXPECT_EQ(stats.bytes_received, (datasets.size() - 1) * hop_bytes) << "peer " << i;
    EXPECT_EQ(stats.encrypt_ops, 0u) << "peer " << i;
  }
}

// Every byte a ring peer sends is a byte its successor receives, so over a
// whole ring the metered totals agree: header, extensions and payload on
// both sides.
TEST(PiaPeerTest, RingBytesSentEqualBytesReceived) {
  std::vector<std::vector<std::string>> datasets = {
      {"net:tor1", "net:core1", "hw:sed900", "shared"},
      {"net:tor2", "net:core1", "hw:sed900", "pkg:libc6=2.13", "shared"},
      {"net:tor3", "net:core1", "shared"},
  };
  auto frames = [](const char* name) {
    return CounterValue(obs::MetricsRegistry::Global().Snapshot(), name);
  };
  for (uint32_t sketch_k : {0u, 64u}) {
    const char* ring = sketch_k == 0 ? "exact ring" : "sketch ring";
    const uint64_t frames_sent = frames("net.frames_sent");
    const uint64_t frames_recv = frames("net.frames_recv");
    auto results = RunLoopbackRing(datasets, 10000, sketch_k);
    uint64_t sent = 0;
    uint64_t received = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << "peer " << i << ": " << results[i].status().ToString();
      sent += results[i]->party_stats[i].bytes_sent;
      received += results[i]->party_stats[i].bytes_received;
    }
    EXPECT_GT(sent, 0u);
    EXPECT_EQ(received, sent) << ring;
    // Ring frames reach the frame counters on both sides, like every other
    // frame (the hello handshake adds the same count to each).
    EXPECT_GT(frames("net.frames_sent"), frames_sent) << ring;
    EXPECT_EQ(frames("net.frames_sent") - frames_sent, frames("net.frames_recv") - frames_recv)
        << ring;
  }
}

TEST(PiaPeerTest, SketchRingGeometryMismatchFailsClosed) {
  // Two peers that disagree on sketch_k must fail at the handshake — the
  // sketch-params extension makes the mismatch visible before any register
  // moves, so neither side ever compares registers hashed under different
  // geometry.
  auto peer0 = PiaPeer::Listen(0);
  auto peer1 = PiaPeer::Listen(0);
  ASSERT_TRUE(peer0.ok());
  ASSERT_TRUE(peer1.ok());
  std::vector<net::Endpoint> ring = {{"127.0.0.1", peer0->listen_port()},
                                     {"127.0.0.1", peer1->listen_port()}};
  Result<PsopResult> r0 = InternalError("unset");
  Result<PsopResult> r1 = InternalError("unset");
  std::thread t0([&] {
    PiaPeerOptions options;
    options.peers = ring;
    options.self_index = 0;
    options.psop = RingPsopOptions();
    options.sketch_k = 128;
    options.io_timeout_ms = 3000;
    r0 = peer0->RunPsopWithSketch({"x"}, options);
  });
  std::thread t1([&] {
    PiaPeerOptions options;
    options.peers = ring;
    options.self_index = 1;
    options.psop = RingPsopOptions();
    options.sketch_k = 256;  // disagrees with peer 0
    options.io_timeout_ms = 3000;
    r1 = peer1->RunPsopWithSketch({"y"}, options);
  });
  t0.join();
  t1.join();
  ASSERT_FALSE(r0.ok());
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r0.status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(r1.status().code(), StatusCode::kProtocolError);
}

TEST(PiaPeerTest, SketchRingRejectsEncryptedProtocolPeer) {
  // A ring where one peer runs the encrypted P-SOP protocol and the other
  // the sketch exchange must fail closed on both sides: the sketch peer
  // sees a hello without the sketch-params extension (kProtocolError), and
  // the encrypted peer loses its neighbour before any dataset round
  // completes. This is the "old auditor meets sketch traffic" scenario.
  auto peer0 = PiaPeer::Listen(0);
  auto peer1 = PiaPeer::Listen(0);
  ASSERT_TRUE(peer0.ok());
  ASSERT_TRUE(peer1.ok());
  std::vector<net::Endpoint> ring = {{"127.0.0.1", peer0->listen_port()},
                                     {"127.0.0.1", peer1->listen_port()}};
  Result<PsopResult> r0 = InternalError("unset");
  Result<PsopResult> r1 = InternalError("unset");
  std::thread t0([&] {
    PiaPeerOptions options;
    options.peers = ring;
    options.self_index = 0;
    options.psop = RingPsopOptions();
    options.io_timeout_ms = 3000;
    r0 = peer0->RunPsop({"x"}, options);  // encrypted protocol, no extension
  });
  std::thread t1([&] {
    PiaPeerOptions options;
    options.peers = ring;
    options.self_index = 1;
    options.psop = RingPsopOptions();
    options.io_timeout_ms = 3000;
    r1 = peer1->RunPsopWithSketch({"y"}, options);
  });
  t0.join();
  t1.join();
  ASSERT_FALSE(r0.ok());
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kProtocolError);
}

TEST(PiaPeerTest, RingSpansShareDerivedSessionTraceId) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Reset();
  recorder.SetEnabled(true);
  auto results = RunLoopbackRing({{"a", "b", "c"}, {"a", "b", "d"}});
  recorder.SetEnabled(false);
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  // Every peer derives the session trace id from the shared P-SOP seed, so
  // a later trace-merge can stitch the per-process files without any
  // coordinator handing out ids.
  const uint64_t session = obs::DeriveTraceId(RingPsopOptions().seed);
  ASSERT_NE(session, 0u);
  size_t hops = 0;
  for (const obs::SpanRecord& span : recorder.Snapshot()) {
    if (span.name != "pia.ring.exchange") {
      continue;
    }
    ++hops;
    EXPECT_EQ(span.trace_id, session);
  }
  // Two peers, one dataset pass + one share pass each at minimum.
  EXPECT_GE(hops, 4u);
}

TEST(PiaPeerTest, MetricsSnapshotRacesRingCleanly) {
  // Scrapers snapshot the global registry exactly as a GetStats handler
  // would, while a live ring hammers the same instruments — the TSan build
  // proves the snapshot path is race-free.
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
      (void)snapshot;
    }
  });
  auto results = RunLoopbackRing({{"net:tor1", "net:core1", "shared"},
                                  {"net:tor2", "net:core1", "shared"},
                                  {"net:tor3", "net:core2", "shared"}});
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
}

TEST(PiaPeerTest, MisconfiguredRingFailsHandshake) {
  // Two peers that disagree on the ring size must fail fast at the
  // handshake, not mid-protocol.
  auto peer0 = PiaPeer::Listen(0);
  auto peer1 = PiaPeer::Listen(0);
  ASSERT_TRUE(peer0.ok());
  ASSERT_TRUE(peer1.ok());
  std::vector<net::Endpoint> ring = {{"127.0.0.1", peer0->listen_port()},
                                     {"127.0.0.1", peer1->listen_port()}};
  Result<PsopResult> r0 = InternalError("unset");
  Result<PsopResult> r1 = InternalError("unset");
  std::thread t0([&] {
    PiaPeerOptions options;
    options.peers = ring;
    options.self_index = 0;
    options.psop = RingPsopOptions();
    options.io_timeout_ms = 3000;
    r0 = peer0->RunPsop({"x"}, options);
  });
  std::thread t1([&] {
    PiaPeerOptions options;
    options.peers = ring;
    options.self_index = 1;
    options.psop = RingPsopOptions();
    options.psop.group_bits = 1024;  // disagrees with peer 0
    options.io_timeout_ms = 3000;
    r1 = peer1->RunPsop({"y"}, options);
  });
  t0.join();
  t1.join();
  EXPECT_FALSE(r0.ok());
  EXPECT_FALSE(r1.ok());
}

TEST(PiaPeerTest, PeerDisconnectMidSessionFailsCleanlyAndBounded) {
  // Ring of three where peer 2 is a saboteur: it completes the handshake,
  // then vanishes. Peers 0 and 1 must fail with a transport error within
  // their io timeout — no hang, no partial result.
  auto peer0 = PiaPeer::Listen(0);
  auto peer1 = PiaPeer::Listen(0);
  auto saboteur_listener = net::TcpListen(0);
  ASSERT_TRUE(peer0.ok());
  ASSERT_TRUE(peer1.ok());
  ASSERT_TRUE(saboteur_listener.ok());
  auto saboteur_port = saboteur_listener->LocalPort();
  ASSERT_TRUE(saboteur_port.ok());
  std::vector<net::Endpoint> ring = {{"127.0.0.1", peer0->listen_port()},
                                     {"127.0.0.1", peer1->listen_port()},
                                     {"127.0.0.1", *saboteur_port}};
  constexpr int kIoTimeoutMs = 1500;
  PiaPeerOptions options;
  options.peers = ring;
  options.psop = RingPsopOptions();
  options.io_timeout_ms = kIoTimeoutMs;

  Result<PsopResult> r0 = InternalError("unset");
  Result<PsopResult> r1 = InternalError("unset");
  std::thread t0([&] {
    PiaPeerOptions mine = options;
    mine.self_index = 0;
    r0 = peer0->RunPsop({"a", "b"}, mine);
  });
  std::thread t1([&] {
    PiaPeerOptions mine = options;
    mine.self_index = 1;
    r1 = peer1->RunPsop({"a", "c"}, mine);
  });
  std::thread saboteur([&] {
    // Play peer 2 up through the handshake, then drop both connections.
    auto tx = net::ConnectWithRetry(ring[0], 2000, {});
    if (!tx.ok()) {
      return;
    }
    auto rx = net::TcpAccept(*saboteur_listener, 5000);
    if (!rx.ok()) {
      return;
    }
    PsopHello hello;
    hello.ring_size = 3;
    hello.sender_index = 2;
    hello.group_bits = static_cast<uint32_t>(options.psop.group_bits);
    hello.hash_algorithm = static_cast<uint8_t>(options.psop.hash);
    (void)net::WriteFrame(*tx, static_cast<uint8_t>(MsgType::kPsopHello),
                          EncodePsopHello(hello), 2000);
    auto peer_hello = net::ReadFrame(*rx, net::FrameLimits{}, 5000);
    (void)peer_hello;
    tx->Close();
    rx->Close();
  });

  WallTimer timer;
  t0.join();
  t1.join();
  saboteur.join();
  double elapsed = timer.ElapsedSeconds();

  EXPECT_FALSE(r0.ok());
  EXPECT_FALSE(r1.ok());
  for (const Status& status : {r0.status(), r1.status()}) {
    EXPECT_TRUE(status.code() == StatusCode::kUnavailable ||
                status.code() == StatusCode::kDeadlineExceeded)
        << status.ToString();
  }
  // Bounded: failure must land within a small multiple of the io timeout
  // (the joins started after thread creation, so elapsed is a loose bound).
  EXPECT_LT(elapsed, 4.0 * kIoTimeoutMs / 1000.0);
}

// --- The frame pump ---

TEST(ExchangeFramesTest, LargeFramesBothDirectionsNoDeadlock) {
  // Two nodes exchange 4 MB frames simultaneously over two TCP connections
  // (as ring neighbours do). Naive send-then-receive would deadlock on full
  // kernel buffers; the pump must interleave.
  auto listener_ab = net::TcpListen(0);
  auto listener_ba = net::TcpListen(0);
  ASSERT_TRUE(listener_ab.ok());
  ASSERT_TRUE(listener_ba.ok());
  auto a_tx = net::TcpConnect({"127.0.0.1", listener_ab->LocalPort().value_or(1)}, 2000);
  auto b_tx = net::TcpConnect({"127.0.0.1", listener_ba->LocalPort().value_or(1)}, 2000);
  ASSERT_TRUE(a_tx.ok());
  ASSERT_TRUE(b_tx.ok());
  auto b_rx = net::TcpAccept(*listener_ab, 2000);
  auto a_rx = net::TcpAccept(*listener_ba, 2000);
  ASSERT_TRUE(b_rx.ok());
  ASSERT_TRUE(a_rx.ok());

  const std::string payload_a(4 << 20, 'A');
  const std::string payload_b(4 << 20, 'B');
  std::string frame_a = net::EncodeFrameHeader(17, static_cast<uint32_t>(payload_a.size()));
  frame_a += payload_a;
  std::string frame_b = net::EncodeFrameHeader(17, static_cast<uint32_t>(payload_b.size()));
  frame_b += payload_b;

  Result<net::Frame> got_at_b = InternalError("unset");
  std::thread node_b([&] {
    got_at_b = ExchangeFrames(*b_tx, frame_b, *b_rx, net::FrameLimits{}, 10000);
  });
  auto got_at_a = ExchangeFrames(*a_tx, frame_a, *a_rx, net::FrameLimits{}, 10000);
  node_b.join();

  ASSERT_TRUE(got_at_a.ok()) << got_at_a.status().ToString();
  ASSERT_TRUE(got_at_b.ok()) << got_at_b.status().ToString();
  EXPECT_EQ(got_at_a->payload, payload_b);
  EXPECT_EQ(got_at_b->payload, payload_a);
}

TEST(ExchangeFramesTest, StalledPeerTimesOut) {
  auto listener = net::TcpListen(0);
  ASSERT_TRUE(listener.ok());
  auto tx = net::TcpConnect({"127.0.0.1", listener->LocalPort().value_or(1)}, 2000);
  ASSERT_TRUE(tx.ok());
  auto rx = net::TcpAccept(*listener, 2000);
  ASSERT_TRUE(rx.ok());
  // Nothing ever arrives on rx (the "peer" is tx's counterpart = rx itself,
  // and we never write to it): the pump must give up at the deadline.
  WallTimer timer;
  auto frame = ExchangeFrames(*tx, "", *rx, net::FrameLimits{}, 200);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(timer.ElapsedSeconds(), 2.0);
}

}  // namespace
}  // namespace svc
}  // namespace indaas
