#include "src/net/frame.h"

#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace indaas {
namespace net {
namespace {

void AppendU32BE(std::string* out, uint32_t value) {
  out->push_back(static_cast<char>((value >> 24) & 0xFF));
  out->push_back(static_cast<char>((value >> 16) & 0xFF));
  out->push_back(static_cast<char>((value >> 8) & 0xFF));
  out->push_back(static_cast<char>(value & 0xFF));
}

void AppendU64BE(std::string* out, uint64_t value) {
  AppendU32BE(out, static_cast<uint32_t>(value >> 32));
  AppendU32BE(out, static_cast<uint32_t>(value & 0xFFFFFFFFULL));
}

uint32_t ReadU32BE(const unsigned char* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

uint64_t ReadU64BE(const unsigned char* p) {
  return (static_cast<uint64_t>(ReadU32BE(p)) << 32) | ReadU32BE(p + 4);
}

obs::Counter* FramesSent() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter("net.frames_sent");
  return counter;
}
obs::Counter* FramesRecv() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter("net.frames_recv");
  return counter;
}
obs::Counter* FrameRejects() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("net.frames_rejected");
  return counter;
}

}  // namespace

std::string EncodeFrameHeader(uint8_t type, uint32_t payload_size, uint16_t flags) {
  std::string header;
  header.reserve(kFrameHeaderBytes);
  AppendU32BE(&header, kFrameMagic);
  header.push_back(static_cast<char>(kWireVersion));
  header.push_back(static_cast<char>(type));
  header.push_back(static_cast<char>((flags >> 8) & 0xFF));
  header.push_back(static_cast<char>(flags & 0xFF));
  AppendU32BE(&header, payload_size);
  return header;
}

std::string EncodeTraceContext(const obs::TraceContext& trace) {
  std::string out;
  out.reserve(kTraceContextBytes);
  AppendU64BE(&out, trace.trace_id);
  AppendU64BE(&out, trace.parent_span_id);
  return out;
}

Result<obs::TraceContext> DecodeTraceContext(std::string_view bytes) {
  if (bytes.size() != kTraceContextBytes) {
    return ProtocolError(StrFormat("trace context is %zu bytes, want %zu", bytes.size(),
                                   kTraceContextBytes));
  }
  const unsigned char* p = reinterpret_cast<const unsigned char*>(bytes.data());
  obs::TraceContext trace;
  trace.trace_id = ReadU64BE(p);
  trace.parent_span_id = ReadU64BE(p + 8);
  return trace;
}

std::string EncodeRequestId(uint64_t request_id) {
  std::string out;
  out.reserve(kRequestIdBytes);
  AppendU64BE(&out, request_id);
  return out;
}

Result<uint64_t> DecodeRequestId(std::string_view bytes) {
  if (bytes.size() != kRequestIdBytes) {
    return ProtocolError(StrFormat("request id is %zu bytes, want %zu", bytes.size(),
                                   kRequestIdBytes));
  }
  uint64_t id = ReadU64BE(reinterpret_cast<const unsigned char*>(bytes.data()));
  if (id == 0) {
    return ProtocolError("request id 0 is reserved for id-less frames");
  }
  return id;
}

std::string EncodeSketchParams(const FrameSketchParams& params) {
  std::string out;
  out.reserve(kSketchParamsBytes);
  out.push_back(static_cast<char>((params.k >> 8) & 0xFF));
  out.push_back(static_cast<char>(params.k & 0xFF));
  out.push_back(static_cast<char>((params.bands >> 8) & 0xFF));
  out.push_back(static_cast<char>(params.bands & 0xFF));
  out.push_back(static_cast<char>((params.rows >> 8) & 0xFF));
  out.push_back(static_cast<char>(params.rows & 0xFF));
  out.push_back('\0');  // reserved, must be zero
  out.push_back('\0');
  return out;
}

Result<FrameSketchParams> DecodeSketchParams(std::string_view bytes) {
  if (bytes.size() != kSketchParamsBytes) {
    return ProtocolError(StrFormat("sketch params are %zu bytes, want %zu", bytes.size(),
                                   kSketchParamsBytes));
  }
  const unsigned char* p = reinterpret_cast<const unsigned char*>(bytes.data());
  FrameSketchParams params;
  params.k = static_cast<uint16_t>((p[0] << 8) | p[1]);
  params.bands = static_cast<uint16_t>((p[2] << 8) | p[3]);
  params.rows = static_cast<uint16_t>((p[4] << 8) | p[5]);
  if (params.k == 0) {
    return ProtocolError("sketch params k 0 is reserved for param-less frames");
  }
  uint16_t reserved = static_cast<uint16_t>((p[6] << 8) | p[7]);
  if (reserved != 0) {
    return ProtocolError(StrFormat("nonzero reserved sketch-params word 0x%04X", reserved));
  }
  return params;
}

std::string EncodeRingMembership(const FrameRingMembership& ring) {
  std::string out;
  out.reserve(kRingMembershipBytes);
  out.push_back(static_cast<char>((ring.attempt >> 8) & 0xFF));
  out.push_back(static_cast<char>(ring.attempt & 0xFF));
  out.push_back('\0');  // reserved, must be zero
  out.push_back('\0');
  AppendU32BE(&out, ring.members);
  return out;
}

Result<FrameRingMembership> DecodeRingMembership(std::string_view bytes) {
  if (bytes.size() != kRingMembershipBytes) {
    return ProtocolError(StrFormat("ring membership is %zu bytes, want %zu", bytes.size(),
                                   kRingMembershipBytes));
  }
  const unsigned char* p = reinterpret_cast<const unsigned char*>(bytes.data());
  FrameRingMembership ring;
  ring.attempt = static_cast<uint16_t>((p[0] << 8) | p[1]);
  if (ring.attempt == 0) {
    return ProtocolError("ring membership attempt 0 is reserved for pristine rings");
  }
  uint16_t reserved = static_cast<uint16_t>((p[2] << 8) | p[3]);
  if (reserved != 0) {
    return ProtocolError(StrFormat("nonzero reserved ring-membership word 0x%04X", reserved));
  }
  ring.members = ReadU32BE(p + 4);
  if (ring.members == 0) {
    return ProtocolError("ring membership with no surviving members");
  }
  return ring;
}

namespace {

// Header + extensions for one frame; shared by EncodeFrame and WriteFrame.
std::string EncodeFramePrefix(uint8_t type, uint32_t payload_size,
                              const obs::TraceContext& trace, uint64_t request_id,
                              const FrameSketchParams& sketch,
                              const FrameRingMembership& ring) {
  uint16_t flags = 0;
  if (trace.valid()) {
    flags |= kFrameFlagTraceContext;
  }
  if (request_id != 0) {
    flags |= kFrameFlagRequestId;
  }
  if (sketch.valid()) {
    flags |= kFrameFlagSketchParams;
  }
  if (ring.valid()) {
    flags |= kFrameFlagRingMembership;
  }
  std::string prefix = EncodeFrameHeader(type, payload_size, flags);
  if (trace.valid()) {
    prefix += EncodeTraceContext(trace);
  }
  if (request_id != 0) {
    prefix += EncodeRequestId(request_id);
  }
  if (sketch.valid()) {
    prefix += EncodeSketchParams(sketch);
  }
  if (ring.valid()) {
    prefix += EncodeRingMembership(ring);
  }
  return prefix;
}

}  // namespace

std::string EncodeFrame(uint8_t type, std::string_view payload, const obs::TraceContext& trace,
                        uint64_t request_id, const FrameSketchParams& sketch,
                        const FrameRingMembership& ring) {
  std::string frame = EncodeFramePrefix(type, static_cast<uint32_t>(payload.size()), trace,
                                        request_id, sketch, ring);
  frame.append(payload);
  FramesSent()->Increment();
  return frame;
}

Status WriteFrame(Socket& socket, uint8_t type, std::string_view payload, int timeout_ms,
                  const obs::TraceContext& trace, uint64_t request_id,
                  const FrameSketchParams& sketch, const FrameRingMembership& ring) {
  if (payload.size() > UINT32_MAX) {
    return InvalidArgumentError("WriteFrame: payload exceeds 4 GiB");
  }
  std::string prefix = EncodeFramePrefix(type, static_cast<uint32_t>(payload.size()), trace,
                                         request_id, sketch, ring);
  // Two sends, not one copy: payloads can be tens of MB and the prefix is
  // tiny; TCP_NODELAY is on but the kernel coalesces back-to-back sends.
  INDAAS_RETURN_IF_ERROR(socket.SendAll(prefix, timeout_ms));
  INDAAS_RETURN_IF_ERROR(socket.SendAll(payload, timeout_ms));
  FramesSent()->Increment();
  return Status::Ok();
}

Result<FrameHeader> DecodeFrameHeader(std::string_view bytes, const FrameLimits& limits) {
  if (bytes.size() != kFrameHeaderBytes) {
    return ProtocolError(StrFormat("frame header is %zu bytes, want %zu", bytes.size(),
                                   kFrameHeaderBytes));
  }
  const unsigned char* p = reinterpret_cast<const unsigned char*>(bytes.data());
  uint32_t magic = ReadU32BE(p);
  if (magic != kFrameMagic) {
    FrameRejects()->Increment();
    return ProtocolError(StrFormat("bad frame magic 0x%08X", magic));
  }
  uint8_t version = p[4];
  if (version != kWireVersion) {
    FrameRejects()->Increment();
    return ProtocolError(StrFormat("unsupported wire version %u (want %u)", version,
                                   kWireVersion));
  }
  uint16_t flags = static_cast<uint16_t>((p[6] << 8) | p[7]);
  if ((flags & ~kFrameKnownFlags) != 0) {
    FrameRejects()->Increment();
    return ProtocolError(StrFormat("nonzero reserved frame flags 0x%04X", flags));
  }
  uint32_t length = ReadU32BE(p + 8);
  if (length > limits.max_payload_bytes) {
    FrameRejects()->Increment();
    return ProtocolError(StrFormat("frame payload %u bytes exceeds limit %u", length,
                                   limits.max_payload_bytes));
  }
  FrameHeader header;
  header.type = p[5];
  header.payload_size = length;
  header.has_trace_context = (flags & kFrameFlagTraceContext) != 0;
  header.has_request_id = (flags & kFrameFlagRequestId) != 0;
  header.has_sketch_params = (flags & kFrameFlagSketchParams) != 0;
  header.has_ring_membership = (flags & kFrameFlagRingMembership) != 0;
  return header;
}

namespace {

// Decodes each extension `header` announces, in flag-bit order, from the
// bytes that follow the header.
Status DecodeExtensionsInto(const FrameHeader& header, std::string_view extensions,
                            Frame* frame) {
  if (extensions.size() != header.extension_bytes()) {
    return ProtocolError(StrFormat("frame extensions are %zu bytes, want %zu", extensions.size(),
                                   header.extension_bytes()));
  }
  auto next = [&](size_t size) {
    std::string_view bytes = extensions.substr(0, size);
    extensions.remove_prefix(size);
    return bytes;
  };
  if (header.has_trace_context) {
    INDAAS_ASSIGN_OR_RETURN(frame->trace, DecodeTraceContext(next(kTraceContextBytes)));
  }
  if (header.has_request_id) {
    INDAAS_ASSIGN_OR_RETURN(frame->request_id, DecodeRequestId(next(kRequestIdBytes)));
  }
  if (header.has_sketch_params) {
    INDAAS_ASSIGN_OR_RETURN(frame->sketch, DecodeSketchParams(next(kSketchParamsBytes)));
  }
  if (header.has_ring_membership) {
    INDAAS_ASSIGN_OR_RETURN(frame->ring, DecodeRingMembership(next(kRingMembershipBytes)));
  }
  return Status::Ok();
}

}  // namespace

Result<Frame> DecodeFrameExtensions(const FrameHeader& header, std::string_view extensions) {
  Frame frame;
  frame.type = header.type;
  frame.wire_bytes = header.total_bytes();
  if (Status status = DecodeExtensionsInto(header, extensions, &frame); !status.ok()) {
    FrameRejects()->Increment();
    return status;
  }
  return frame;
}

Result<Frame> ReadFrame(Socket& socket, const FrameLimits& limits, int timeout_ms) {
  std::string raw;
  INDAAS_RETURN_IF_ERROR(socket.RecvAll(&raw, kFrameHeaderBytes, timeout_ms));
  INDAAS_ASSIGN_OR_RETURN(FrameHeader header, DecodeFrameHeader(raw, limits));
  std::string extensions;
  INDAAS_RETURN_IF_ERROR(socket.RecvAll(&extensions, header.extension_bytes(), timeout_ms));
  INDAAS_ASSIGN_OR_RETURN(Frame frame, DecodeFrameExtensions(header, extensions));
  INDAAS_RETURN_IF_ERROR(socket.RecvAll(&frame.payload, header.payload_size, timeout_ms));
  FramesRecv()->Increment();
  return frame;
}

}  // namespace net
}  // namespace indaas
