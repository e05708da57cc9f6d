#include "src/svc/proto.h"

#include "src/net/wire.h"
#include "src/util/strings.h"

namespace indaas {
namespace svc {
namespace {

using net::WireReader;
using net::WireWriter;

// Rejects trailing bytes after a fully-decoded payload.
Status FinishDecode(const WireReader& reader, const char* what) {
  if (!reader.AtEnd()) {
    return ParseError(StrFormat("%s: %zu trailing bytes after payload", what,
                                reader.remaining()));
  }
  return Status::Ok();
}

void EncodePartyStats(WireWriter& writer, const PartyStats& stats) {
  writer.U64(stats.bytes_sent);
  writer.U64(stats.bytes_received);
  writer.U64(stats.encrypt_ops);
  writer.U64(stats.homomorphic_ops);
  writer.F64(stats.compute_seconds);
}

Result<PartyStats> DecodePartyStats(WireReader& reader) {
  PartyStats stats;
  INDAAS_ASSIGN_OR_RETURN(uint64_t sent, reader.U64());
  INDAAS_ASSIGN_OR_RETURN(uint64_t received, reader.U64());
  INDAAS_ASSIGN_OR_RETURN(uint64_t encrypt, reader.U64());
  INDAAS_ASSIGN_OR_RETURN(uint64_t homomorphic, reader.U64());
  INDAAS_ASSIGN_OR_RETURN(double compute, reader.F64());
  stats.bytes_sent = static_cast<size_t>(sent);
  stats.bytes_received = static_cast<size_t>(received);
  stats.encrypt_ops = static_cast<size_t>(encrypt);
  stats.homomorphic_ops = static_cast<size_t>(homomorphic);
  stats.compute_seconds = compute;
  return stats;
}

// Upper bound on any repeated-field count in a stats payload. A registry
// snapshot has tens of instruments; a count beyond this is a hostile or
// corrupted payload, rejected before any allocation.
constexpr uint32_t kMaxStatsEntries = 1u << 16;

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kPing: return "Ping";
    case MsgType::kPong: return "Pong";
    case MsgType::kImportDepDb: return "ImportDepDb";
    case MsgType::kImportAck: return "ImportAck";
    case MsgType::kAuditRequest: return "AuditRequest";
    case MsgType::kPiaRequest: return "PiaRequest";
    case MsgType::kPiaReport: return "PiaReport";
    case MsgType::kErrorReply: return "ErrorReply";
    case MsgType::kGetStats: return "GetStats";
    case MsgType::kStatsReply: return "StatsReply";
    case MsgType::kHealth: return "Health";
    case MsgType::kHealthReply: return "HealthReply";
    case MsgType::kGetDebugInfo: return "GetDebugInfo";
    case MsgType::kDebugInfoReply: return "DebugInfoReply";
    case MsgType::kPsopHello: return "PsopHello";
    case MsgType::kPsopDataset: return "PsopDataset";
    case MsgType::kPsopShare: return "PsopShare";
    case MsgType::kPsopSketch: return "PsopSketch";
    case MsgType::kPsopProbe: return "PsopProbe";
    case MsgType::kPsopProbeAck: return "PsopProbeAck";
    case MsgType::kGetProfile: return "GetProfile";
    case MsgType::kProfileReply: return "ProfileReply";
    case MsgType::kAuditReport: return "AuditReport";
  }
  return "Unknown";
}

// --- Error reply ---

std::string EncodeErrorReply(const Status& status) {
  WireWriter writer;
  writer.U16(static_cast<uint16_t>(status.code()));
  writer.Str(status.message());
  return writer.Take();
}

Status DecodeErrorReply(std::string_view payload) {
  WireReader reader(payload);
  auto code_or = reader.U16();
  auto message_or = reader.Bytes();
  if (!code_or.ok() || !message_or.ok() || !reader.AtEnd()) {
    return ProtocolError("malformed error reply from peer");
  }
  StatusCode code;
  switch (static_cast<StatusCode>(*code_or)) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kOutOfRange:
    case StatusCode::kInternal:
    case StatusCode::kUnimplemented:
    case StatusCode::kResourceExhausted:
    case StatusCode::kParseError:
    case StatusCode::kProtocolError:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
      code = static_cast<StatusCode>(*code_or);
      break;
    default:
      code = StatusCode::kInternal;
      break;
  }
  return Status(code, "remote: " + *message_or);
}

// --- DepDb import ---

std::string EncodeImportAck(const ImportAck& ack) {
  WireWriter writer;
  writer.U64(ack.network);
  writer.U64(ack.hardware);
  writer.U64(ack.software);
  return writer.Take();
}

Result<ImportAck> DecodeImportAck(std::string_view payload) {
  WireReader reader(payload);
  ImportAck ack;
  INDAAS_ASSIGN_OR_RETURN(ack.network, reader.U64());
  INDAAS_ASSIGN_OR_RETURN(ack.hardware, reader.U64());
  INDAAS_ASSIGN_OR_RETURN(ack.software, reader.U64());
  INDAAS_RETURN_IF_ERROR(FinishDecode(reader, "ImportAck"));
  return ack;
}

// --- Structural audit ---

std::string EncodeAuditSpecification(const AuditSpecification& spec) {
  WireWriter writer;
  writer.U32(static_cast<uint32_t>(spec.candidate_deployments.size()));
  for (const std::vector<std::string>& deployment : spec.candidate_deployments) {
    writer.StrVec(deployment);
  }
  writer.U32(spec.required_servers);
  writer.Bool(spec.include_network);
  writer.Bool(spec.include_hardware);
  writer.Bool(spec.include_software);
  writer.StrVec(spec.software_of_interest);
  writer.U8(static_cast<uint8_t>(spec.algorithm));
  writer.U8(static_cast<uint8_t>(spec.metric));
  writer.U64(spec.sampling_rounds);
  writer.F64(spec.sampling_bias);
  writer.U64(spec.seed);
  writer.U64(spec.threads);
  writer.U64(spec.parallel_deployments);
  writer.U64(spec.score_top_n);
  return writer.Take();
}

Result<AuditSpecification> DecodeAuditSpecification(std::string_view payload) {
  WireReader reader(payload);
  AuditSpecification spec;
  // Each deployment is at least its 4-byte server-count prefix.
  INDAAS_ASSIGN_OR_RETURN(uint32_t deployments, reader.Count(4));
  spec.candidate_deployments.reserve(deployments);
  for (uint32_t i = 0; i < deployments; ++i) {
    INDAAS_ASSIGN_OR_RETURN(std::vector<std::string> servers, reader.StrVec());
    spec.candidate_deployments.push_back(std::move(servers));
  }
  INDAAS_ASSIGN_OR_RETURN(spec.required_servers, reader.U32());
  INDAAS_ASSIGN_OR_RETURN(spec.include_network, reader.Bool());
  INDAAS_ASSIGN_OR_RETURN(spec.include_hardware, reader.Bool());
  INDAAS_ASSIGN_OR_RETURN(spec.include_software, reader.Bool());
  INDAAS_ASSIGN_OR_RETURN(spec.software_of_interest, reader.StrVec());
  INDAAS_ASSIGN_OR_RETURN(uint8_t algorithm, reader.U8());
  if (algorithm > static_cast<uint8_t>(RgAlgorithm::kSampling)) {
    return ParseError(StrFormat("bad RgAlgorithm value %u", algorithm));
  }
  spec.algorithm = static_cast<RgAlgorithm>(algorithm);
  INDAAS_ASSIGN_OR_RETURN(uint8_t metric, reader.U8());
  if (metric > static_cast<uint8_t>(RankingMetric::kFailureProbability)) {
    return ParseError(StrFormat("bad RankingMetric value %u", metric));
  }
  spec.metric = static_cast<RankingMetric>(metric);
  INDAAS_ASSIGN_OR_RETURN(uint64_t rounds, reader.U64());
  spec.sampling_rounds = static_cast<size_t>(rounds);
  INDAAS_ASSIGN_OR_RETURN(spec.sampling_bias, reader.F64());
  INDAAS_ASSIGN_OR_RETURN(spec.seed, reader.U64());
  INDAAS_ASSIGN_OR_RETURN(uint64_t threads, reader.U64());
  spec.threads = static_cast<size_t>(threads);
  INDAAS_ASSIGN_OR_RETURN(uint64_t parallel, reader.U64());
  spec.parallel_deployments = static_cast<size_t>(parallel);
  INDAAS_ASSIGN_OR_RETURN(uint64_t top_n, reader.U64());
  spec.score_top_n = static_cast<size_t>(top_n);
  INDAAS_RETURN_IF_ERROR(FinishDecode(reader, "AuditSpecification"));
  return spec;
}

std::string EncodeSiaAuditReport(const SiaAuditReport& report) {
  WireWriter writer;
  writer.U8(static_cast<uint8_t>(report.algorithm));
  writer.U8(static_cast<uint8_t>(report.metric));
  writer.U32(static_cast<uint32_t>(report.deployments.size()));
  for (const DeploymentAudit& audit : report.deployments) {
    writer.StrVec(audit.servers);
    writer.Var(audit.components.size());
    for (const std::string& name : audit.components) {
      writer.VarBytes(name);
    }
    writer.Var(audit.ranked_groups.size());
    for (const DeploymentAudit::RankedGroup& group : audit.ranked_groups) {
      writer.Var(group.ids.size());
      uint32_t previous = 0;  // so the first id goes as itself
      for (uint32_t id : group.ids) {
        writer.Var(id - previous);
        previous = id;
      }
      writer.F64(group.score);
    }
    writer.F64(audit.independence_score);
    writer.U64(audit.unexpected_rgs);
    writer.F64(audit.top_event_prob);
  }
  return writer.Take();
}

Result<SiaAuditReport> DecodeSiaAuditReport(std::string_view payload) {
  // Smallest encodings: a deployment is an empty server list (4), empty
  // table and group list (1 + 1) and three 8-byte fields; a group is its
  // count (1) and score (8).
  constexpr size_t kMinDeploymentBytes = 4 + 1 + 1 + 3 * 8;
  constexpr size_t kMinGroupBytes = 1 + 8;
  WireReader reader(payload);
  SiaAuditReport report;
  INDAAS_ASSIGN_OR_RETURN(uint8_t algorithm, reader.U8());
  if (algorithm > static_cast<uint8_t>(RgAlgorithm::kSampling)) {
    return ParseError(StrFormat("bad RgAlgorithm value %u", algorithm));
  }
  report.algorithm = static_cast<RgAlgorithm>(algorithm);
  INDAAS_ASSIGN_OR_RETURN(uint8_t metric, reader.U8());
  if (metric > static_cast<uint8_t>(RankingMetric::kFailureProbability)) {
    return ParseError(StrFormat("bad RankingMetric value %u", metric));
  }
  report.metric = static_cast<RankingMetric>(metric);
  INDAAS_ASSIGN_OR_RETURN(uint32_t deployments, reader.Count(kMinDeploymentBytes));
  report.deployments.reserve(deployments);
  for (uint32_t d = 0; d < deployments; ++d) {
    DeploymentAudit audit;
    INDAAS_ASSIGN_OR_RETURN(audit.servers, reader.StrVec());
    INDAAS_ASSIGN_OR_RETURN(uint32_t names, reader.VarCount(1));
    audit.components.reserve(names);
    for (uint32_t i = 0; i < names; ++i) {
      INDAAS_ASSIGN_OR_RETURN(std::string name, reader.VarBytes());
      audit.components.push_back(std::move(name));
    }
    INDAAS_ASSIGN_OR_RETURN(uint32_t groups, reader.VarCount(kMinGroupBytes));
    audit.ranked_groups.reserve(groups);
    for (uint32_t g = 0; g < groups; ++g) {
      DeploymentAudit::RankedGroup group;
      INDAAS_ASSIGN_OR_RETURN(uint32_t members, reader.VarCount(1));
      group.ids.reserve(members);
      uint64_t id = 0;
      for (uint32_t m = 0; m < members; ++m) {
        INDAAS_ASSIGN_OR_RETURN(uint64_t step, reader.Var());
        if (m > 0 && step == 0) {
          return ParseError(StrFormat("SiaAuditReport: group %u ids not increasing", g));
        }
        if (step >= names - id) {
          return ParseError(StrFormat("SiaAuditReport: group %u id outside a table of %u",
                                      g, names));
        }
        id += step;
        group.ids.push_back(static_cast<uint32_t>(id));
      }
      INDAAS_ASSIGN_OR_RETURN(group.score, reader.F64());
      audit.ranked_groups.push_back(std::move(group));
    }
    INDAAS_ASSIGN_OR_RETURN(audit.independence_score, reader.F64());
    INDAAS_ASSIGN_OR_RETURN(uint64_t unexpected, reader.U64());
    audit.unexpected_rgs = static_cast<size_t>(unexpected);
    INDAAS_ASSIGN_OR_RETURN(audit.top_event_prob, reader.F64());
    report.deployments.push_back(std::move(audit));
  }
  INDAAS_RETURN_IF_ERROR(FinishDecode(reader, "SiaAuditReport"));
  return report;
}

// --- Private audit ---

std::string EncodePiaRequest(const PiaRequest& request) {
  WireWriter writer;
  writer.U32(static_cast<uint32_t>(request.providers.size()));
  for (const CloudProvider& provider : request.providers) {
    writer.Str(provider.name);
    writer.StrVec(provider.components);
  }
  const PiaAuditOptions& options = request.options;
  writer.U8(static_cast<uint8_t>(options.method));
  writer.U64(options.minhash_m);
  writer.U8(static_cast<uint8_t>(options.psop.hash));
  writer.U64(options.psop.group_bits);
  writer.U64(options.psop.seed);
  writer.U32(options.min_redundancy);
  writer.U32(options.max_redundancy);
  writer.U64(options.parallel_deployments);
  writer.U32(options.sketch_k);
  return writer.Take();
}

Result<PiaRequest> DecodePiaRequest(std::string_view payload) {
  WireReader reader(payload);
  PiaRequest request;
  // Each provider is at least a name prefix and a component-count prefix.
  INDAAS_ASSIGN_OR_RETURN(uint32_t providers, reader.Count(4 + 4));
  request.providers.reserve(providers);
  for (uint32_t i = 0; i < providers; ++i) {
    CloudProvider provider;
    INDAAS_ASSIGN_OR_RETURN(provider.name, reader.Str());
    INDAAS_ASSIGN_OR_RETURN(provider.components, reader.StrVec());
    request.providers.push_back(std::move(provider));
  }
  INDAAS_ASSIGN_OR_RETURN(uint8_t method, reader.U8());
  if (method > static_cast<uint8_t>(PiaMethod::kSketch)) {
    return ParseError(StrFormat("bad PiaMethod value %u", method));
  }
  request.options.method = static_cast<PiaMethod>(method);
  INDAAS_ASSIGN_OR_RETURN(uint64_t m, reader.U64());
  request.options.minhash_m = static_cast<size_t>(m);
  INDAAS_ASSIGN_OR_RETURN(uint8_t hash, reader.U8());
  if (hash > static_cast<uint8_t>(HashAlgorithm::kSha256)) {
    return ParseError(StrFormat("bad HashAlgorithm value %u", hash));
  }
  request.options.psop.hash = static_cast<HashAlgorithm>(hash);
  INDAAS_ASSIGN_OR_RETURN(uint64_t group_bits, reader.U64());
  request.options.psop.group_bits = static_cast<size_t>(group_bits);
  INDAAS_ASSIGN_OR_RETURN(request.options.psop.seed, reader.U64());
  INDAAS_ASSIGN_OR_RETURN(request.options.min_redundancy, reader.U32());
  INDAAS_ASSIGN_OR_RETURN(request.options.max_redundancy, reader.U32());
  INDAAS_ASSIGN_OR_RETURN(uint64_t parallel, reader.U64());
  request.options.parallel_deployments = static_cast<size_t>(parallel);
  // sketch_k entered the payload after the original fields; requests from
  // older clients simply end here and keep the default.
  if (!reader.AtEnd()) {
    INDAAS_ASSIGN_OR_RETURN(request.options.sketch_k, reader.U32());
    if (request.options.sketch_k == 0) {
      return ParseError("bad PiaRequest sketch_k 0");
    }
  }
  INDAAS_RETURN_IF_ERROR(FinishDecode(reader, "PiaRequest"));
  return request;
}

std::string EncodePiaAuditReport(const PiaAuditReport& report) {
  WireWriter writer;
  writer.U32(report.min_redundancy);
  writer.U32(static_cast<uint32_t>(report.rankings.size()));
  for (const std::vector<DeploymentSimilarity>& ranking : report.rankings) {
    writer.U32(static_cast<uint32_t>(ranking.size()));
    for (const DeploymentSimilarity& entry : ranking) {
      writer.StrVec(entry.providers);
      writer.F64(entry.jaccard);
    }
  }
  writer.U32(static_cast<uint32_t>(report.provider_stats.size()));
  for (const PartyStats& stats : report.provider_stats) {
    EncodePartyStats(writer, stats);
  }
  return writer.Take();
}

Result<PiaAuditReport> DecodePiaAuditReport(std::string_view payload) {
  WireReader reader(payload);
  PiaAuditReport report;
  INDAAS_ASSIGN_OR_RETURN(report.min_redundancy, reader.U32());
  // A level is at least its entry count; an entry its provider-count
  // prefix and Jaccard; a stats record five 8-byte fields.
  INDAAS_ASSIGN_OR_RETURN(uint32_t levels, reader.Count(4));
  report.rankings.reserve(levels);
  for (uint32_t level = 0; level < levels; ++level) {
    INDAAS_ASSIGN_OR_RETURN(uint32_t entries, reader.Count(4 + 8));
    std::vector<DeploymentSimilarity> ranking;
    ranking.reserve(entries);
    for (uint32_t e = 0; e < entries; ++e) {
      DeploymentSimilarity entry;
      INDAAS_ASSIGN_OR_RETURN(entry.providers, reader.StrVec());
      INDAAS_ASSIGN_OR_RETURN(entry.jaccard, reader.F64());
      ranking.push_back(std::move(entry));
    }
    report.rankings.push_back(std::move(ranking));
  }
  INDAAS_ASSIGN_OR_RETURN(uint32_t stats_count, reader.Count(5 * 8));
  report.provider_stats.reserve(stats_count);
  for (uint32_t i = 0; i < stats_count; ++i) {
    INDAAS_ASSIGN_OR_RETURN(PartyStats stats, DecodePartyStats(reader));
    report.provider_stats.push_back(stats);
  }
  INDAAS_RETURN_IF_ERROR(FinishDecode(reader, "PiaAuditReport"));
  return report;
}

// --- Stats and health ---

std::string EncodeServerStats(const ServerStats& stats) {
  WireWriter writer;
  writer.U64(stats.uptime_us);
  writer.U64(stats.depdb_records);
  const obs::MetricsSnapshot& m = stats.metrics;
  writer.U32(static_cast<uint32_t>(m.counters.size()));
  for (const obs::MetricsSnapshot::CounterValue& c : m.counters) {
    writer.Str(c.name);
    writer.U64(c.value);
  }
  writer.U32(static_cast<uint32_t>(m.gauges.size()));
  for (const obs::MetricsSnapshot::GaugeValue& g : m.gauges) {
    writer.Str(g.name);
    writer.U64(static_cast<uint64_t>(g.value));
    writer.U64(static_cast<uint64_t>(g.max));
  }
  writer.U32(static_cast<uint32_t>(m.histograms.size()));
  for (const obs::Histogram::Snapshot& h : m.histograms) {
    writer.Str(h.name);
    writer.U32(static_cast<uint32_t>(h.bounds.size()));
    for (double bound : h.bounds) {
      writer.F64(bound);
    }
    // counts is always bounds.size() + 1 (trailing overflow bucket), so the
    // bounds count doubles as the counts length prefix.
    for (uint64_t count : h.counts) {
      writer.U64(count);
    }
    writer.U64(h.count);
    writer.F64(h.sum);
    writer.F64(h.exemplar_value);
    writer.U64(h.exemplar_trace_id);
  }
  return writer.Take();
}

Result<ServerStats> DecodeServerStats(std::string_view payload) {
  WireReader reader(payload);
  ServerStats stats;
  INDAAS_ASSIGN_OR_RETURN(stats.uptime_us, reader.U64());
  INDAAS_ASSIGN_OR_RETURN(stats.depdb_records, reader.U64());
  INDAAS_ASSIGN_OR_RETURN(uint32_t counters, reader.U32());
  if (counters > kMaxStatsEntries) {
    return ParseError(StrFormat("ServerStats: counter count %u exceeds limit", counters));
  }
  stats.metrics.counters.reserve(counters);
  for (uint32_t i = 0; i < counters; ++i) {
    obs::MetricsSnapshot::CounterValue c;
    INDAAS_ASSIGN_OR_RETURN(c.name, reader.Str());
    INDAAS_ASSIGN_OR_RETURN(c.value, reader.U64());
    stats.metrics.counters.push_back(std::move(c));
  }
  INDAAS_ASSIGN_OR_RETURN(uint32_t gauges, reader.U32());
  if (gauges > kMaxStatsEntries) {
    return ParseError(StrFormat("ServerStats: gauge count %u exceeds limit", gauges));
  }
  stats.metrics.gauges.reserve(gauges);
  for (uint32_t i = 0; i < gauges; ++i) {
    obs::MetricsSnapshot::GaugeValue g;
    INDAAS_ASSIGN_OR_RETURN(g.name, reader.Str());
    INDAAS_ASSIGN_OR_RETURN(uint64_t value, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(uint64_t max, reader.U64());
    g.value = static_cast<int64_t>(value);
    g.max = static_cast<int64_t>(max);
    stats.metrics.gauges.push_back(std::move(g));
  }
  INDAAS_ASSIGN_OR_RETURN(uint32_t histograms, reader.U32());
  if (histograms > kMaxStatsEntries) {
    return ParseError(StrFormat("ServerStats: histogram count %u exceeds limit", histograms));
  }
  stats.metrics.histograms.reserve(histograms);
  for (uint32_t i = 0; i < histograms; ++i) {
    obs::Histogram::Snapshot h;
    INDAAS_ASSIGN_OR_RETURN(h.name, reader.Str());
    INDAAS_ASSIGN_OR_RETURN(uint32_t bounds, reader.U32());
    if (bounds > kMaxStatsEntries) {
      return ParseError(StrFormat("ServerStats: bucket count %u exceeds limit", bounds));
    }
    h.bounds.reserve(bounds);
    for (uint32_t b = 0; b < bounds; ++b) {
      INDAAS_ASSIGN_OR_RETURN(double bound, reader.F64());
      h.bounds.push_back(bound);
    }
    h.counts.reserve(bounds + 1);
    for (uint32_t b = 0; b < bounds + 1; ++b) {
      INDAAS_ASSIGN_OR_RETURN(uint64_t count, reader.U64());
      h.counts.push_back(count);
    }
    INDAAS_ASSIGN_OR_RETURN(h.count, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(h.sum, reader.F64());
    INDAAS_ASSIGN_OR_RETURN(h.exemplar_value, reader.F64());
    INDAAS_ASSIGN_OR_RETURN(h.exemplar_trace_id, reader.U64());
    stats.metrics.histograms.push_back(std::move(h));
  }
  INDAAS_RETURN_IF_ERROR(FinishDecode(reader, "ServerStats"));
  return stats;
}

std::string EncodeHealthStatus(const HealthStatus& status) {
  WireWriter writer;
  writer.Bool(status.serving);
  writer.U64(status.uptime_us);
  return writer.Take();
}

Result<HealthStatus> DecodeHealthStatus(std::string_view payload) {
  WireReader reader(payload);
  HealthStatus status;
  INDAAS_ASSIGN_OR_RETURN(status.serving, reader.Bool());
  INDAAS_ASSIGN_OR_RETURN(status.uptime_us, reader.U64());
  INDAAS_RETURN_IF_ERROR(FinishDecode(reader, "HealthStatus"));
  return status;
}

// --- Debug introspection ---

std::string EncodeDebugInfo(const DebugInfo& info) {
  WireWriter writer;
  writer.U64(info.uptime_us);
  writer.U8(info.mode);
  writer.U32(info.reactor_shards);
  writer.U64(info.inflight_global);
  writer.U32(static_cast<uint32_t>(info.shards.size()));
  for (const DebugShard& shard : info.shards) {
    writer.U32(shard.index);
    writer.U64(shard.connections);
    writer.U64(shard.inflight);
    writer.Bool(shard.has_listener);
  }
  writer.U32(static_cast<uint32_t>(info.connections.size()));
  for (const DebugConnection& conn : info.connections) {
    writer.U64(conn.id);
    writer.U32(conn.shard);
    writer.U64(conn.age_us);
    writer.U64(conn.in_buffer_bytes);
    writer.U64(conn.write_buffer_bytes);
    writer.U64(conn.inflight);
    writer.U64(conn.oldest_pending_us);
  }
  writer.U32(static_cast<uint32_t>(info.events.size()));
  for (const DebugFlightEvent& event : info.events) {
    writer.U64(event.t_us);
    writer.U64(event.trace_id);
    writer.U64(event.a);
    writer.U64(event.b);
    writer.U32(event.tid);
    writer.U16(event.type);
    writer.U16(event.code);
  }
  writer.U32(static_cast<uint32_t>(info.slowest.size()));
  for (const DebugSlowRpc& rpc : info.slowest) {
    writer.U64(rpc.trace_id);
    writer.U64(rpc.request_id);
    writer.U16(rpc.rpc_type);
    writer.U8(rpc.outcome);
    writer.Bool(rpc.ok);
    writer.U64(rpc.conn_id);
    writer.U64(rpc.end_us);
    writer.F64(rpc.total_s);
    for (double stage : rpc.stage_s) {
      writer.F64(stage);
    }
  }
  return writer.Take();
}

Result<DebugInfo> DecodeDebugInfo(std::string_view payload) {
  WireReader reader(payload);
  DebugInfo info;
  INDAAS_ASSIGN_OR_RETURN(info.uptime_us, reader.U64());
  INDAAS_ASSIGN_OR_RETURN(info.mode, reader.U8());
  INDAAS_ASSIGN_OR_RETURN(info.reactor_shards, reader.U32());
  INDAAS_ASSIGN_OR_RETURN(info.inflight_global, reader.U64());
  INDAAS_ASSIGN_OR_RETURN(uint32_t shards, reader.U32());
  if (shards > kMaxStatsEntries) {
    return ParseError(StrFormat("DebugInfo: shard count %u exceeds limit", shards));
  }
  info.shards.reserve(shards);
  for (uint32_t i = 0; i < shards; ++i) {
    DebugShard shard;
    INDAAS_ASSIGN_OR_RETURN(shard.index, reader.U32());
    INDAAS_ASSIGN_OR_RETURN(shard.connections, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(shard.inflight, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(shard.has_listener, reader.Bool());
    info.shards.push_back(shard);
  }
  INDAAS_ASSIGN_OR_RETURN(uint32_t connections, reader.U32());
  if (connections > kMaxStatsEntries) {
    return ParseError(StrFormat("DebugInfo: connection count %u exceeds limit", connections));
  }
  info.connections.reserve(connections);
  for (uint32_t i = 0; i < connections; ++i) {
    DebugConnection conn;
    INDAAS_ASSIGN_OR_RETURN(conn.id, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(conn.shard, reader.U32());
    INDAAS_ASSIGN_OR_RETURN(conn.age_us, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(conn.in_buffer_bytes, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(conn.write_buffer_bytes, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(conn.inflight, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(conn.oldest_pending_us, reader.U64());
    info.connections.push_back(conn);
  }
  INDAAS_ASSIGN_OR_RETURN(uint32_t events, reader.U32());
  if (events > kMaxStatsEntries) {
    return ParseError(StrFormat("DebugInfo: event count %u exceeds limit", events));
  }
  info.events.reserve(events);
  for (uint32_t i = 0; i < events; ++i) {
    DebugFlightEvent event;
    INDAAS_ASSIGN_OR_RETURN(event.t_us, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(event.trace_id, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(event.a, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(event.b, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(event.tid, reader.U32());
    INDAAS_ASSIGN_OR_RETURN(event.type, reader.U16());
    INDAAS_ASSIGN_OR_RETURN(event.code, reader.U16());
    info.events.push_back(event);
  }
  INDAAS_ASSIGN_OR_RETURN(uint32_t slowest, reader.U32());
  if (slowest > kMaxStatsEntries) {
    return ParseError(StrFormat("DebugInfo: slow-rpc count %u exceeds limit", slowest));
  }
  info.slowest.reserve(slowest);
  for (uint32_t i = 0; i < slowest; ++i) {
    DebugSlowRpc rpc;
    INDAAS_ASSIGN_OR_RETURN(rpc.trace_id, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(rpc.request_id, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(rpc.rpc_type, reader.U16());
    INDAAS_ASSIGN_OR_RETURN(rpc.outcome, reader.U8());
    INDAAS_ASSIGN_OR_RETURN(rpc.ok, reader.Bool());
    INDAAS_ASSIGN_OR_RETURN(rpc.conn_id, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(rpc.end_us, reader.U64());
    INDAAS_ASSIGN_OR_RETURN(rpc.total_s, reader.F64());
    for (double& stage : rpc.stage_s) {
      INDAAS_ASSIGN_OR_RETURN(stage, reader.F64());
    }
    info.slowest.push_back(rpc);
  }
  INDAAS_RETURN_IF_ERROR(FinishDecode(reader, "DebugInfo"));
  return info;
}

// --- P-SOP session payloads ---

std::string EncodePsopHello(const PsopHello& hello) {
  WireWriter writer;
  writer.U32(hello.ring_size);
  writer.U32(hello.sender_index);
  writer.U32(hello.group_bits);
  writer.U8(hello.hash_algorithm);
  return writer.Take();
}

Result<PsopHello> DecodePsopHello(std::string_view payload) {
  WireReader reader(payload);
  PsopHello hello;
  INDAAS_ASSIGN_OR_RETURN(hello.ring_size, reader.U32());
  INDAAS_ASSIGN_OR_RETURN(hello.sender_index, reader.U32());
  INDAAS_ASSIGN_OR_RETURN(hello.group_bits, reader.U32());
  INDAAS_ASSIGN_OR_RETURN(hello.hash_algorithm, reader.U8());
  INDAAS_RETURN_IF_ERROR(FinishDecode(reader, "PsopHello"));
  return hello;
}

std::string EncodePsopDataset(const PsopDataset& dataset) {
  WireWriter writer;
  writer.U32(dataset.origin);
  writer.U32(dataset.element_bytes);
  writer.U32(static_cast<uint32_t>(dataset.elements.size()));
  for (const BigUint& element : dataset.elements) {
    std::vector<uint8_t> bytes = element.ToBytesBE(dataset.element_bytes);
    writer.Bytes(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  }
  return writer.Take();
}

Result<PsopDataset> DecodePsopDataset(std::string_view payload) {
  WireReader reader(payload);
  PsopDataset dataset;
  INDAAS_ASSIGN_OR_RETURN(dataset.origin, reader.U32());
  INDAAS_ASSIGN_OR_RETURN(dataset.element_bytes, reader.U32());
  if (dataset.element_bytes == 0 || dataset.element_bytes > 4096) {
    return ParseError(StrFormat("bad PsopDataset element width %u", dataset.element_bytes));
  }
  // Each element is its 4-byte length prefix and its fixed-width bytes.
  INDAAS_ASSIGN_OR_RETURN(uint32_t count, reader.Count(4 + dataset.element_bytes));
  dataset.elements.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    INDAAS_ASSIGN_OR_RETURN(std::string raw, reader.Bytes());
    if (raw.size() != dataset.element_bytes) {
      return ParseError(StrFormat("PsopDataset element %u is %zu bytes, want %u", i,
                                  raw.size(), dataset.element_bytes));
    }
    std::vector<uint8_t> bytes(raw.begin(), raw.end());
    dataset.elements.push_back(BigUint::FromBytesBE(bytes));
  }
  INDAAS_RETURN_IF_ERROR(FinishDecode(reader, "PsopDataset"));
  return dataset;
}

std::string EncodePsopSketch(const PsopSketch& sketch) {
  WireWriter writer;
  writer.U32(sketch.origin);
  writer.U32(static_cast<uint32_t>(sketch.registers.size()));
  for (uint32_t reg : sketch.registers) {
    writer.U32(reg);
  }
  return writer.Take();
}

Result<PsopSketch> DecodePsopSketch(std::string_view payload) {
  WireReader reader(payload);
  PsopSketch sketch;
  INDAAS_ASSIGN_OR_RETURN(sketch.origin, reader.U32());
  INDAAS_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
  // The frame extension carries k as u16, so anything larger is hostile.
  if (count == 0 || count > kMaxSketchK) {
    return ParseError(StrFormat("bad PsopSketch register count %u", count));
  }
  sketch.registers.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    INDAAS_ASSIGN_OR_RETURN(uint32_t reg, reader.U32());
    sketch.registers.push_back(reg);
  }
  INDAAS_RETURN_IF_ERROR(FinishDecode(reader, "PsopSketch"));
  return sketch;
}

std::string EncodePsopProbe(const PsopProbe& probe) {
  WireWriter writer;
  writer.U32(probe.sender_index);
  writer.U32(probe.attempt);
  return writer.Take();
}

Result<PsopProbe> DecodePsopProbe(std::string_view payload) {
  WireReader reader(payload);
  PsopProbe probe;
  INDAAS_ASSIGN_OR_RETURN(probe.sender_index, reader.U32());
  INDAAS_ASSIGN_OR_RETURN(probe.attempt, reader.U32());
  // The membership bitmask caps rings at 32 original parties, so a larger
  // claimed index is hostile, not merely unusual.
  if (probe.sender_index >= 32) {
    return ParseError(StrFormat("bad PsopProbe sender index %u", probe.sender_index));
  }
  INDAAS_RETURN_IF_ERROR(FinishDecode(reader, "PsopProbe"));
  return probe;
}

// --- Remote profiling ---

std::string EncodeProfileRequest(const ProfileRequest& request) {
  WireWriter writer;
  writer.U32(request.hz);
  writer.U32(request.seconds);
  writer.Bool(request.alloc);
  return writer.Take();
}

Result<ProfileRequest> DecodeProfileRequest(std::string_view payload) {
  WireReader reader(payload);
  ProfileRequest request;
  INDAAS_ASSIGN_OR_RETURN(request.hz, reader.U32());
  INDAAS_ASSIGN_OR_RETURN(request.seconds, reader.U32());
  INDAAS_ASSIGN_OR_RETURN(request.alloc, reader.Bool());
  // A hostile client must not be able to demand SIGPROF storms or
  // arbitrarily long captures; reject out-of-range windows at decode so
  // every server path sees only valid requests.
  if (request.hz < 1 || request.hz > kMaxProfileHz) {
    return ParseError(StrFormat("bad ProfileRequest hz %u (cap %u)", request.hz,
                                kMaxProfileHz));
  }
  if (request.seconds < 1 || request.seconds > kMaxProfileSeconds) {
    return ParseError(StrFormat("bad ProfileRequest seconds %u (cap %u)",
                                request.seconds, kMaxProfileSeconds));
  }
  INDAAS_RETURN_IF_ERROR(FinishDecode(reader, "ProfileRequest"));
  return request;
}

std::string EncodeProfileReply(const ProfileReply& reply) {
  WireWriter writer;
  writer.Bytes(reply.dump);
  return writer.Take();
}

Result<ProfileReply> DecodeProfileReply(std::string_view payload) {
  WireReader reader(payload);
  ProfileReply reply;
  INDAAS_ASSIGN_OR_RETURN(reply.dump, reader.Bytes());
  if (reply.dump.size() > kMaxProfileDumpBytes) {
    return ParseError(StrFormat("ProfileReply dump of %zu bytes exceeds cap",
                                reply.dump.size()));
  }
  INDAAS_RETURN_IF_ERROR(FinishDecode(reader, "ProfileReply"));
  return reply;
}

}  // namespace svc
}  // namespace indaas
