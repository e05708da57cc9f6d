// Tests for the transport layer: endpoints, wire codec primitives, frame
// framing/validation, sockets on loopback, and retry/backoff.

#include <gtest/gtest.h>
#include <sys/epoll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <random>
#include <thread>

#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/net/retry.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/util/status.h"

namespace indaas {
namespace net {
namespace {

// --- Endpoints ---

TEST(EndpointTest, ParseGood) {
  auto endpoint = ParseEndpoint("example.com:8080");
  ASSERT_TRUE(endpoint.ok());
  EXPECT_EQ(endpoint->host, "example.com");
  EXPECT_EQ(endpoint->port, 8080);
  EXPECT_EQ(endpoint->ToString(), "example.com:8080");
}

TEST(EndpointTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseEndpoint("").ok());
  EXPECT_FALSE(ParseEndpoint("no-port").ok());
  EXPECT_FALSE(ParseEndpoint("host:").ok());
  EXPECT_FALSE(ParseEndpoint(":123").ok());
  EXPECT_FALSE(ParseEndpoint("host:0").ok());
  EXPECT_FALSE(ParseEndpoint("host:65536").ok());
  EXPECT_FALSE(ParseEndpoint("host:12ab").ok());
}

TEST(EndpointTest, ParseList) {
  auto list = ParseEndpointList("a:1, b:2,c:3");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[0].host, "a");
  EXPECT_EQ((*list)[1].port, 2);
  EXPECT_EQ((*list)[2].ToString(), "c:3");
  EXPECT_FALSE(ParseEndpointList("a:1,,b:2").ok());
  EXPECT_FALSE(ParseEndpointList("").ok());
}

// --- Wire codec ---

TEST(WireTest, ScalarRoundTrip) {
  WireWriter writer;
  writer.U8(0xAB);
  writer.U16(0xBEEF);
  writer.U32(0xDEADBEEF);
  writer.U64(0x0123456789ABCDEFull);
  writer.Bool(true);
  writer.Bool(false);
  writer.F64(-1.5e300);
  WireReader reader(writer.buffer());
  EXPECT_EQ(reader.U8().value_or(0), 0xAB);
  EXPECT_EQ(reader.U16().value_or(0), 0xBEEF);
  EXPECT_EQ(reader.U32().value_or(0), 0xDEADBEEFu);
  EXPECT_EQ(reader.U64().value_or(0), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.Bool().value_or(false), true);
  EXPECT_EQ(reader.Bool().value_or(true), false);
  EXPECT_EQ(reader.F64().value_or(0), -1.5e300);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireTest, BytesAndStringsRoundTrip) {
  WireWriter writer;
  writer.Bytes(std::string("\x00\x01\xFFthe bytes", 12));
  writer.Str("");
  writer.StrVec({"alpha", "", "gamma"});
  WireReader reader(writer.buffer());
  EXPECT_EQ(reader.Bytes().value_or("?"), std::string("\x00\x01\xFFthe bytes", 12));
  EXPECT_EQ(reader.Str().value_or("?"), "");
  auto vec = reader.StrVec();
  ASSERT_TRUE(vec.ok());
  EXPECT_EQ(*vec, (std::vector<std::string>{"alpha", "", "gamma"}));
  EXPECT_TRUE(reader.AtEnd());
}

// Property test: random sequences of typed values survive a round trip.
TEST(WireTest, RandomRoundTripProperty) {
  std::mt19937_64 rng(12345);
  for (int trial = 0; trial < 200; ++trial) {
    // Record what we wrote, then read it back in the same order.
    std::vector<int> kinds;
    std::vector<uint64_t> scalars;
    std::vector<std::string> blobs;
    WireWriter writer;
    int fields = 1 + static_cast<int>(rng() % 12);
    for (int f = 0; f < fields; ++f) {
      int kind = static_cast<int>(rng() % 5);
      kinds.push_back(kind);
      uint64_t value = rng();
      switch (kind) {
        case 0: writer.U8(static_cast<uint8_t>(value)); scalars.push_back(value & 0xFF); break;
        case 1: writer.U16(static_cast<uint16_t>(value)); scalars.push_back(value & 0xFFFF); break;
        case 2: writer.U32(static_cast<uint32_t>(value)); scalars.push_back(value & 0xFFFFFFFF); break;
        case 3: writer.U64(value); scalars.push_back(value); break;
        case 4: {
          std::string blob(value % 64, static_cast<char>(value % 251));
          writer.Bytes(blob);
          blobs.push_back(blob);
          break;
        }
      }
    }
    WireReader reader(writer.buffer());
    size_t scalar_at = 0;
    size_t blob_at = 0;
    for (int kind : kinds) {
      switch (kind) {
        case 0: EXPECT_EQ(uint64_t{reader.U8().value_or(1)}, scalars[scalar_at++]); break;
        case 1: EXPECT_EQ(uint64_t{reader.U16().value_or(1)}, scalars[scalar_at++]); break;
        case 2: EXPECT_EQ(uint64_t{reader.U32().value_or(1)}, scalars[scalar_at++]); break;
        case 3: EXPECT_EQ(reader.U64().value_or(1), scalars[scalar_at++]); break;
        case 4: EXPECT_EQ(reader.Bytes().value_or("?"), blobs[blob_at++]); break;
      }
    }
    EXPECT_TRUE(reader.AtEnd()) << "trial " << trial;
  }
}

TEST(WireTest, TruncationIsParseErrorNeverOverread) {
  WireWriter writer;
  writer.U32(7);
  writer.Str("payload");
  writer.U64(42);
  const std::string full = writer.buffer();
  // Every proper prefix must fail cleanly on whichever field it cuts.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    const std::string prefix = full.substr(0, cut);
    WireReader reader(prefix);
    auto a = reader.U32();
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), StatusCode::kParseError);
      continue;
    }
    auto b = reader.Str();
    if (!b.ok()) {
      EXPECT_EQ(b.status().code(), StatusCode::kParseError);
      continue;
    }
    auto c = reader.U64();
    EXPECT_FALSE(c.ok()) << "cut at " << cut;
    EXPECT_EQ(c.status().code(), StatusCode::kParseError);
  }
}

TEST(WireTest, BoolRejectsNonCanonical) {
  WireWriter writer;
  writer.U8(2);
  WireReader reader(writer.buffer());
  auto value = reader.Bool();
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kParseError);
}

TEST(WireTest, StrVecRejectsAbsurdCount) {
  // A count far larger than the remaining bytes must fail before allocating.
  WireWriter writer;
  writer.U32(0x40000000);  // claims a billion strings
  WireReader reader(writer.buffer());
  auto vec = reader.StrVec();
  ASSERT_FALSE(vec.ok());
  EXPECT_EQ(vec.status().code(), StatusCode::kParseError);
}

TEST(WireTest, VarintRoundTripsAtTheBoundaries) {
  const std::vector<std::pair<uint64_t, size_t>> cases = {
      {0, 1}, {127, 1}, {128, 2}, {UINT32_MAX, 5}, {UINT64_MAX, 10}};
  for (const auto& [value, bytes] : cases) {
    WireWriter writer;
    writer.Var(value);
    EXPECT_EQ(writer.buffer().size(), bytes) << value;
    WireReader reader(writer.buffer());
    auto decoded = reader.Var();
    ASSERT_TRUE(decoded.ok()) << value << ": " << decoded.status().ToString();
    EXPECT_EQ(*decoded, value);
    EXPECT_TRUE(reader.AtEnd()) << value;
  }
  WireWriter writer;
  writer.VarBytes("name");
  writer.VarBytes("");
  EXPECT_EQ(writer.buffer(), std::string("\x04name\x00", 6));
  WireReader reader(writer.buffer());
  EXPECT_EQ(reader.VarBytes().value_or("?"), "name");
  EXPECT_EQ(reader.VarBytes().value_or("?"), "");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireTest, VarintRejectsOverlongOversizedAndTruncated) {
  const std::vector<std::string> bad = {
      std::string("\x80\x00", 2),  // 0 in two bytes
      std::string("\xFF\x00", 2),  // 127 in two bytes
      std::string("\x80\x80\x80\x80\x80\x80\x80\x80\x80\x00", 10),  // 0 in ten bytes
      std::string("\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x02", 10),  // 2^64
      std::string("\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x81\x00", 11),  // 11 bytes
      std::string(""),
      std::string("\x80", 1),
      std::string("\xFF\xFF\xFF", 3),
      std::string("\x05" "abc", 4),  // VarBytes: length runs past the payload
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    WireReader reader(bad[i]);
    Status status = i + 1 == bad.size() ? reader.VarBytes().status() : reader.Var().status();
    EXPECT_EQ(status.code(), StatusCode::kParseError) << "case " << i;
  }
}

TEST(WireTest, CountsMustFitTheRemainingPayload) {
  WireWriter writer;
  writer.U32(3);
  writer.U64(0);
  writer.U32(0);
  {
    WireReader reader(writer.buffer());
    EXPECT_EQ(reader.Count(4).value_or(0), 3u);  // 3 * 4 == 12 bytes left
  }
  {
    WireReader reader(writer.buffer());
    EXPECT_EQ(reader.Count(5).status().code(), StatusCode::kParseError);
  }
  WireWriter huge;
  huge.U32(0xFFFFFFFFu);
  EXPECT_EQ(WireReader(huge.buffer()).Count(1).status().code(), StatusCode::kParseError);
  WireWriter var;
  var.Var(UINT64_MAX);
  EXPECT_EQ(WireReader(var.buffer()).VarCount(0).status().code(), StatusCode::kParseError);
}

// --- Frame header validation ---

TEST(FrameTest, HeaderRoundTrip) {
  std::string header = EncodeFrameHeader(7, 123456);
  ASSERT_EQ(header.size(), kFrameHeaderBytes);
  auto decoded = DecodeFrameHeader(header, FrameLimits{});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, 7);
  EXPECT_EQ(decoded->payload_size, 123456u);
}

TEST(FrameTest, RejectsBadMagic) {
  std::string header = EncodeFrameHeader(1, 4);
  header[0] = 'X';
  auto decoded = DecodeFrameHeader(header, FrameLimits{});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolError);
}

TEST(FrameTest, RejectsBadVersion) {
  std::string header = EncodeFrameHeader(1, 4);
  header[4] = static_cast<char>(kWireVersion + 1);
  auto decoded = DecodeFrameHeader(header, FrameLimits{});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolError);
}

TEST(FrameTest, RejectsNonZeroFlags) {
  // Every reserved flag bit stays a hard protocol error, alone or alongside
  // the known (trace, request-id, sketch-params, ring-membership) bits —
  // this is what makes old peers reject pipelined traffic outright instead
  // of mis-framing it, how a pre-sketch peer refuses a sketch session
  // cleanly, and how a pre-recovery peer refuses a degraded ring.
  for (uint16_t flags : {uint16_t{0x0010}, uint16_t{0x0100}, uint16_t{0x8000},
                         static_cast<uint16_t>(kFrameFlagTraceContext | 0x0020),
                         static_cast<uint16_t>(kFrameFlagRingMembership | 0x0010),
                         static_cast<uint16_t>(kFrameKnownFlags | 0x4000)}) {
    std::string header = EncodeFrameHeader(1, 4, flags);
    auto decoded = DecodeFrameHeader(header, FrameLimits{});
    ASSERT_FALSE(decoded.ok()) << "flags 0x" << std::hex << flags;
    EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolError);
  }
}

// Property: a header decodes iff its flags are a subset of the known bits,
// and each known bit independently controls its extension marker.
TEST(FrameTest, FlagSubsetDecodabilityProperty) {
  std::mt19937_64 rng(987654321);
  for (int trial = 0; trial < 500; ++trial) {
    uint16_t flags = static_cast<uint16_t>(rng());
    std::string header = EncodeFrameHeader(9, 32, flags);
    auto decoded = DecodeFrameHeader(header, FrameLimits{});
    bool known_only = (flags & ~kFrameKnownFlags) == 0;
    ASSERT_EQ(decoded.ok(), known_only) << "flags 0x" << std::hex << flags;
    if (!known_only) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolError);
      continue;
    }
    EXPECT_EQ(decoded->has_trace_context, (flags & kFrameFlagTraceContext) != 0);
    EXPECT_EQ(decoded->has_request_id, (flags & kFrameFlagRequestId) != 0);
    EXPECT_EQ(decoded->has_sketch_params, (flags & kFrameFlagSketchParams) != 0);
    EXPECT_EQ(decoded->has_ring_membership, (flags & kFrameFlagRingMembership) != 0);
    size_t extensions = (decoded->has_trace_context ? kTraceContextBytes : 0) +
                        (decoded->has_request_id ? kRequestIdBytes : 0) +
                        (decoded->has_sketch_params ? kSketchParamsBytes : 0) +
                        (decoded->has_ring_membership ? kRingMembershipBytes : 0);
    EXPECT_EQ(decoded->extension_bytes(), extensions);
    EXPECT_EQ(decoded->total_bytes(), kFrameHeaderBytes + extensions + 32u);
  }
}

TEST(FrameTest, RequestIdFlagBitIsAccepted) {
  std::string header = EncodeFrameHeader(3, 9, kFrameFlagRequestId);
  auto decoded = DecodeFrameHeader(header, FrameLimits{});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->has_request_id);
  EXPECT_FALSE(decoded->has_trace_context);
  // All extensions together account for 40 bytes ahead of the payload.
  auto all =
      DecodeFrameHeader(EncodeFrameHeader(3, 9, kFrameKnownFlags), FrameLimits{});
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->has_trace_context);
  EXPECT_TRUE(all->has_request_id);
  EXPECT_TRUE(all->has_sketch_params);
  EXPECT_TRUE(all->has_ring_membership);
  EXPECT_EQ(all->extension_bytes(),
            kTraceContextBytes + kRequestIdBytes + kSketchParamsBytes + kRingMembershipBytes);
}

TEST(FrameTest, RequestIdCodecRoundTrip) {
  std::string bytes = EncodeRequestId(0x0102030405060708ULL);
  ASSERT_EQ(bytes.size(), kRequestIdBytes);
  auto decoded = DecodeRequestId(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, 0x0102030405060708ULL);
  // Truncated extensions are protocol errors, not parse-as-zero.
  auto truncated = DecodeRequestId(std::string_view(bytes).substr(0, 4));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kProtocolError);
  // Id zero means "absent" everywhere, so it must never appear on the wire.
  auto zero = DecodeRequestId(EncodeRequestId(0));
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kProtocolError);
}

TEST(FrameTest, SketchParamsCodecRoundTrip) {
  FrameSketchParams params;
  params.k = 256;
  params.bands = 64;
  params.rows = 4;
  std::string bytes = EncodeSketchParams(params);
  ASSERT_EQ(bytes.size(), kSketchParamsBytes);
  auto decoded = DecodeSketchParams(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, params);
  // Truncated extensions are protocol errors, not parse-as-zero.
  auto truncated = DecodeSketchParams(std::string_view(bytes).substr(0, 6));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kProtocolError);
  // k = 0 means "absent" everywhere, so it must never appear on the wire.
  FrameSketchParams absent;
  auto zero = DecodeSketchParams(EncodeSketchParams(absent));
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kProtocolError);
  // The reserved trailing word must be zero — it is the extension's own
  // versioning headroom.
  bytes[6] = 0x01;
  auto reserved = DecodeSketchParams(bytes);
  ASSERT_FALSE(reserved.ok());
  EXPECT_EQ(reserved.status().code(), StatusCode::kProtocolError);
}

TEST(FrameTest, TraceFlagBitIsAccepted) {
  std::string header = EncodeFrameHeader(3, 9, kFrameFlagTraceContext);
  auto decoded = DecodeFrameHeader(header, FrameLimits{});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->has_trace_context);
  EXPECT_EQ(decoded->type, 3);
  EXPECT_EQ(decoded->payload_size, 9u);
  // Traceless headers decode with the extension absent (backward compat).
  auto plain = DecodeFrameHeader(EncodeFrameHeader(3, 9), FrameLimits{});
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->has_trace_context);
}

TEST(FrameTest, TraceContextCodecRoundTrip) {
  obs::TraceContext trace{0xDEADBEEFCAFEF00DULL, 42};
  std::string bytes = EncodeTraceContext(trace);
  ASSERT_EQ(bytes.size(), kTraceContextBytes);
  auto decoded = DecodeTraceContext(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->trace_id, trace.trace_id);
  EXPECT_EQ(decoded->parent_span_id, trace.parent_span_id);
  // Truncated extensions are protocol errors, not parse-as-zero.
  auto truncated = DecodeTraceContext(std::string_view(bytes).substr(0, 8));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kProtocolError);
}

TEST(FrameTest, RejectsOversizedLength) {
  FrameLimits limits;
  limits.max_payload_bytes = 1024;
  std::string header = EncodeFrameHeader(1, 1025);
  auto decoded = DecodeFrameHeader(header, limits);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolError);
  // At the limit is fine.
  EXPECT_TRUE(DecodeFrameHeader(EncodeFrameHeader(1, 1024), limits).ok());
}

// --- Sockets on loopback ---

// Listener + connected pair on 127.0.0.1, built fresh per test.
struct LoopbackPair {
  Socket server;
  Socket client;
};

LoopbackPair MakeLoopbackPair() {
  auto listener = TcpListen(0);
  EXPECT_TRUE(listener.ok()) << listener.status().ToString();
  auto port = listener->LocalPort();
  EXPECT_TRUE(port.ok());
  auto client = TcpConnect(Endpoint{"127.0.0.1", *port}, 2000);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  auto server = TcpAccept(*listener, 2000);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return LoopbackPair{std::move(*server), std::move(*client)};
}

TEST(SocketTest, SendAllRecvAllRoundTrip) {
  LoopbackPair pair = MakeLoopbackPair();
  // Large enough to require multiple send() calls on most kernels.
  std::string message(1 << 20, 'x');
  for (size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<char>(i * 31);
  }
  std::thread sender([&] { ASSERT_TRUE(pair.client.SendAll(message, 5000).ok()); });
  std::string received;
  Status status = pair.server.RecvAll(&received, message.size(), 5000);
  sender.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(received, message);
}

TEST(SocketTest, RecvTimeoutIsDeadlineExceeded) {
  LoopbackPair pair = MakeLoopbackPair();
  std::string out;
  Status status = pair.server.RecvAll(&out, 1, 50);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(SocketTest, PeerCloseIsUnavailable) {
  LoopbackPair pair = MakeLoopbackPair();
  pair.client.Close();
  std::string out;
  Status status = pair.server.RecvAll(&out, 1, 1000);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST(SocketTest, ConnectRefusedIsUnavailable) {
  // Grab a port that is free, then close the listener so nothing serves it.
  uint16_t dead_port;
  {
    auto listener = TcpListen(0);
    ASSERT_TRUE(listener.ok());
    dead_port = listener->LocalPort().value_or(1);
  }
  auto client = TcpConnect(Endpoint{"127.0.0.1", dead_port}, 500);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable);
}

TEST(FrameTest, WriteReadOverSocket) {
  LoopbackPair pair = MakeLoopbackPair();
  std::string payload = "frame payload \x01\x02";
  ASSERT_TRUE(WriteFrame(pair.client, 5, payload, 2000).ok());
  auto frame = ReadFrame(pair.server, FrameLimits{}, 2000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, 5);
  EXPECT_EQ(frame->payload, payload);
  // Traceless frames arrive with no distributed identity.
  EXPECT_FALSE(frame->trace.valid());
}

TEST(FrameTest, TraceContextRoundTripsOverSocket) {
  LoopbackPair pair = MakeLoopbackPair();
  obs::TraceContext trace{0x1122334455667788ULL, 7};
  ASSERT_TRUE(WriteFrame(pair.client, 5, "hello", 2000, trace).ok());
  auto frame = ReadFrame(pair.server, FrameLimits{}, 2000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, 5);
  EXPECT_EQ(frame->payload, "hello");
  EXPECT_EQ(frame->trace.trace_id, trace.trace_id);
  EXPECT_EQ(frame->trace.parent_span_id, trace.parent_span_id);
  // The extension is not part of the payload length: a traceless frame sent
  // right behind it must still parse cleanly.
  ASSERT_TRUE(WriteFrame(pair.client, 6, "plain", 2000).ok());
  auto next = ReadFrame(pair.server, FrameLimits{}, 2000);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->payload, "plain");
  EXPECT_FALSE(next->trace.valid());
}

TEST(FrameTest, RequestIdRoundTripsOverSocket) {
  LoopbackPair pair = MakeLoopbackPair();
  // Request id alone.
  ASSERT_TRUE(WriteFrame(pair.client, 5, "req", 2000, {}, 77).ok());
  auto frame = ReadFrame(pair.server, FrameLimits{}, 2000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->request_id, 77u);
  EXPECT_EQ(frame->payload, "req");
  EXPECT_FALSE(frame->trace.valid());
  // Trace context and request id together, in either encoder.
  obs::TraceContext trace{0xA1B2C3D4E5F60718ULL, 3};
  ASSERT_TRUE(pair.client.SendAll(EncodeFrame(6, "both", trace, 0xFFFFFFFFFFFFFFFFULL),
                                  2000)
                  .ok());
  auto next = ReadFrame(pair.server, FrameLimits{}, 2000);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->payload, "both");
  EXPECT_EQ(next->trace.trace_id, trace.trace_id);
  EXPECT_EQ(next->request_id, 0xFFFFFFFFFFFFFFFFULL);
  // An id-less frame right behind is unaffected (extension not counted in
  // the payload length).
  ASSERT_TRUE(WriteFrame(pair.client, 7, "plain", 2000).ok());
  auto plain = ReadFrame(pair.server, FrameLimits{}, 2000);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->payload, "plain");
  EXPECT_EQ(plain->request_id, 0u);
}

TEST(FrameTest, SketchParamsRoundTripsOverSocket) {
  LoopbackPair pair = MakeLoopbackPair();
  FrameSketchParams params;
  params.k = 512;
  params.bands = 128;
  params.rows = 4;
  ASSERT_TRUE(WriteFrame(pair.client, 19, "regs", 2000, {}, 0, params).ok());
  auto frame = ReadFrame(pair.server, FrameLimits{}, 2000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, 19);
  EXPECT_EQ(frame->payload, "regs");
  EXPECT_TRUE(frame->sketch.valid());
  EXPECT_EQ(frame->sketch, params);
  // All three extensions can ride the same frame, in either encoder.
  obs::TraceContext trace{0xDEADBEEFCAFEF00DULL, 5};
  ASSERT_TRUE(
      pair.client.SendAll(EncodeFrame(20, "all", trace, 42, params), 2000).ok());
  auto next = ReadFrame(pair.server, FrameLimits{}, 2000);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->trace.trace_id, trace.trace_id);
  EXPECT_EQ(next->request_id, 42u);
  EXPECT_EQ(next->sketch, params);
  // A param-less frame right behind is unaffected (extension not counted in
  // the payload length).
  ASSERT_TRUE(WriteFrame(pair.client, 7, "plain", 2000).ok());
  auto plain = ReadFrame(pair.server, FrameLimits{}, 2000);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->payload, "plain");
  EXPECT_FALSE(plain->sketch.valid());
}

TEST(FrameTest, EncodeFrameMatchesWriteFrameBytes) {
  // EncodeFrame (the reactor's buffered path) and WriteFrame (the serial
  // path) must produce identical bytes for identical inputs — this is the
  // byte-level compatibility contract between old and new peers.
  LoopbackPair pair = MakeLoopbackPair();
  obs::TraceContext trace{42, 7};
  ASSERT_TRUE(WriteFrame(pair.client, 9, "payload", 2000, trace, 1234).ok());
  std::string expected = EncodeFrame(9, "payload", trace, 1234);
  std::string wire;
  ASSERT_TRUE(pair.server.RecvAll(&wire, expected.size(), 2000).ok());
  EXPECT_EQ(wire, expected);
  // And the flags==0 frame stays byte-identical to the legacy layout.
  ASSERT_TRUE(WriteFrame(pair.client, 2, "", 2000).ok());
  std::string legacy;
  ASSERT_TRUE(pair.server.RecvAll(&legacy, kFrameHeaderBytes, 2000).ok());
  EXPECT_EQ(legacy, EncodeFrameHeader(2, 0));
}

TEST(FrameTest, GarbageBytesRejectedBeforeAllocation) {
  LoopbackPair pair = MakeLoopbackPair();
  // 12 bytes of garbage: invalid magic must be rejected without reading a
  // payload (the bogus "length" would be enormous).
  std::string garbage = "GARBAGEBYTES";
  ASSERT_EQ(garbage.size(), kFrameHeaderBytes);
  ASSERT_TRUE(pair.client.SendAll(garbage, 2000).ok());
  auto frame = ReadFrame(pair.server, FrameLimits{}, 2000);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kProtocolError);
}

TEST(FrameTest, TruncatedFrameIsUnavailable) {
  LoopbackPair pair = MakeLoopbackPair();
  // A valid header promising 100 bytes, then the peer dies after 10.
  std::string header = EncodeFrameHeader(3, 100);
  ASSERT_TRUE(pair.client.SendAll(header + std::string(10, 'p'), 2000).ok());
  pair.client.Close();
  auto frame = ReadFrame(pair.server, FrameLimits{}, 2000);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(FrameTest, OversizedFrameRejectedByReader) {
  LoopbackPair pair = MakeLoopbackPair();
  FrameLimits limits;
  limits.max_payload_bytes = 16;
  ASSERT_TRUE(pair.client.SendAll(EncodeFrameHeader(3, 17), 2000).ok());
  auto frame = ReadFrame(pair.server, limits, 2000);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kProtocolError);
}

// --- Event loop ---

TEST(EventLoopTest, PostRunsOnLoopAndStopExits) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::atomic<int> ran{0};
  std::thread runner([&] { loop.Run(); });
  loop.Post([&] { ran.fetch_add(1); });
  loop.Post([&] {
    ran.fetch_add(1);
    loop.Stop();
  });
  runner.join();
  EXPECT_EQ(ran.load(), 2);
}

TEST(EventLoopTest, PostedBeforeStopStillRuns) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::atomic<bool> ran{false};
  // Post then Stop before the loop ever runs: Run() must still execute the
  // closure on its way out — the reactor's shutdown flushes depend on it.
  loop.Post([&] { ran.store(true); });
  loop.Stop();
  loop.Run();
  EXPECT_TRUE(ran.load());
}

TEST(EventLoopTest, TimerFiresAfterDelayAndCancelSuppresses) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::atomic<bool> fired{false};
  std::atomic<bool> cancelled_fired{false};
  loop.Post([&] {
    uint64_t doomed = loop.AddTimer(0.01, [&] { cancelled_fired.store(true); });
    loop.CancelTimer(doomed);
    loop.AddTimer(0.02, [&] {
      fired.store(true);
      loop.Stop();
    });
  });
  std::thread runner([&] { loop.Run(); });
  runner.join();
  EXPECT_TRUE(fired.load());
  EXPECT_FALSE(cancelled_fired.load());
}

TEST(EventLoopTest, DispatchesReadableFdAndRemoveSilences) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  LoopbackPair pair = MakeLoopbackPair();
  std::atomic<int> reads{0};
  std::thread runner([&] { loop.Run(); });
  int fd = pair.server.fd();
  Socket* server = &pair.server;
  loop.Post([&, fd, server] {
    Status added = loop.Add(fd, EPOLLIN, [&, fd, server](uint32_t events) {
      EXPECT_TRUE(events & EPOLLIN);
      char buffer[64];
      auto received = server->RecvSome(buffer, sizeof(buffer));
      EXPECT_TRUE(received.ok());
      reads.fetch_add(1);
      // A handler may remove its own registration mid-callback.
      loop.Remove(fd);
      loop.Stop();
    });
    EXPECT_TRUE(added.ok()) << added.ToString();
  });
  ASSERT_TRUE(pair.client.SendAll("wake", 2000).ok());
  runner.join();
  EXPECT_EQ(reads.load(), 1);
}

// --- Retry / backoff ---

TEST(RetryTest, BackoffSequenceIsExponentialAndCapped) {
  RetryPolicy policy;
  policy.initial_backoff_s = 0.02;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 0.1;
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 0), 0.02);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 1), 0.04);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 2), 0.08);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 3), 0.1);   // capped
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 20), 0.1);  // stays capped
}

TEST(RetryTest, RetryableCodes) {
  EXPECT_TRUE(IsRetryable(UnavailableError("refused")));
  EXPECT_TRUE(IsRetryable(DeadlineExceededError("slow")));
  EXPECT_FALSE(IsRetryable(ProtocolError("bad magic")));
  EXPECT_FALSE(IsRetryable(InvalidArgumentError("nope")));
  EXPECT_FALSE(IsRetryable(Status::Ok()));
}

TEST(RetryTest, ConnectWithRetryOutlastsLateListener) {
  // Reserve a free port, release it, then bring the real listener up late —
  // the first connect attempts are refused and backoff must absorb that.
  uint16_t port;
  {
    auto probe = TcpListen(0);
    ASSERT_TRUE(probe.ok());
    port = probe->LocalPort().value_or(1);
  }
  std::thread late_listener([port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto listener = TcpListen(port);
    if (!listener.ok()) {
      return;  // port raced away; the client side will fail and report
    }
    auto accepted = TcpAccept(*listener, 3000);
    (void)accepted;
  });
  RetryPolicy policy;
  policy.max_attempts = 16;
  policy.initial_backoff_s = 0.02;
  policy.max_backoff_s = 0.1;
  auto client = ConnectWithRetry(Endpoint{"127.0.0.1", port}, 1000, policy);
  late_listener.join();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
}

TEST(RetryTest, ConnectWithRetryGivesUp) {
  uint16_t dead_port;
  {
    auto probe = TcpListen(0);
    ASSERT_TRUE(probe.ok());
    dead_port = probe->LocalPort().value_or(1);
  }
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_s = 0.001;
  size_t retries = 0;
  auto client = ConnectWithRetry(Endpoint{"127.0.0.1", dead_port}, 200, policy, &retries);
  ASSERT_FALSE(client.ok());
  // Budget exhaustion surfaces the last attempt's error, with every failed
  // try accounted for in retries_out.
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(retries, policy.max_attempts);
}

TEST(RetryTest, JitterIsDeterministicUnderFixedSeed) {
  RetryPolicy policy;
  policy.initial_backoff_s = 0.02;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 1.0;
  policy.jitter = 0.5;
  policy.jitter_seed = 12345;
  for (size_t attempt = 0; attempt < 10; ++attempt) {
    // Same (seed, attempt) -> same sleep, bit for bit: the backoff schedule
    // is part of what makes a chaos run replayable from its seed.
    EXPECT_EQ(BackoffSeconds(policy, attempt), BackoffSeconds(policy, attempt)) << attempt;
  }
  RetryPolicy other = policy;
  other.jitter_seed = 54321;
  bool any_differs = false;
  for (size_t attempt = 0; attempt < 10 && !any_differs; ++attempt) {
    any_differs = BackoffSeconds(policy, attempt) != BackoffSeconds(other, attempt);
  }
  EXPECT_TRUE(any_differs) << "different seeds produced an identical schedule";
}

TEST(RetryTest, JitterStaysInsideBoundsAndUnderCeiling) {
  RetryPolicy policy;
  policy.initial_backoff_s = 0.02;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 0.1;
  policy.jitter = 0.5;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    policy.jitter_seed = seed;
    for (size_t attempt = 0; attempt < 12; ++attempt) {
      // The jitterless schedule, ceiling applied first: jitter only ever
      // shortens a sleep, so the ceiling still holds afterwards.
      double base = std::min(policy.max_backoff_s,
                             policy.initial_backoff_s *
                                 std::pow(policy.backoff_multiplier,
                                          static_cast<double>(attempt)));
      double jittered = BackoffSeconds(policy, attempt);
      EXPECT_LE(jittered, base) << "seed " << seed << " attempt " << attempt;
      EXPECT_GT(jittered, base * (1.0 - policy.jitter)) << "seed " << seed << " attempt "
                                                        << attempt;
      EXPECT_LE(jittered, policy.max_backoff_s);
    }
  }
  // jitter = 0 is exactly the legacy schedule.
  policy.jitter = 0.0;
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 1), 0.04);
}

// --- Ring-membership frame extension ---

TEST(FrameTest, RingMembershipCodecRoundTrip) {
  FrameRingMembership ring;
  ring.attempt = 2;
  ring.members = 0b10110;  // survivors 1, 2, 4
  std::string bytes = EncodeRingMembership(ring);
  ASSERT_EQ(bytes.size(), kRingMembershipBytes);
  auto decoded = DecodeRingMembership(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, ring);
  // Truncated extensions are protocol errors, not parse-as-zero.
  auto truncated = DecodeRingMembership(std::string_view(bytes).substr(0, 5));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kProtocolError);
  // attempt = 0 means "extension absent"; it must never appear on the wire.
  FrameRingMembership absent;
  absent.members = 0b11;
  auto zero = DecodeRingMembership(EncodeRingMembership(absent));
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kProtocolError);
  // An empty survivor set is meaningless — a reformed ring has >= 2 peers.
  FrameRingMembership empty;
  empty.attempt = 1;
  auto none = DecodeRingMembership(EncodeRingMembership(empty));
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kProtocolError);
  // The reserved word is the extension's own versioning headroom.
  bytes[2] = 0x01;
  auto reserved = DecodeRingMembership(bytes);
  ASSERT_FALSE(reserved.ok());
  EXPECT_EQ(reserved.status().code(), StatusCode::kProtocolError);
}

TEST(FrameTest, RingMembershipRoundTripsOverSocket) {
  LoopbackPair pair = MakeLoopbackPair();
  FrameRingMembership ring;
  ring.attempt = 1;
  ring.members = 0b1011;
  ASSERT_TRUE(WriteFrame(pair.client, 11, "hop", 2000, {}, 0, {}, ring).ok());
  auto frame = ReadFrame(pair.server, FrameLimits{}, 2000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, 11);
  EXPECT_EQ(frame->payload, "hop");
  ASSERT_TRUE(frame->ring.valid());
  EXPECT_EQ(frame->ring, ring);
  // All four extensions ride one frame, in either encoder.
  obs::TraceContext trace{0xFEEDFACE01234567ULL, 9};
  FrameSketchParams sketch;
  sketch.k = 64;
  ASSERT_TRUE(
      pair.client.SendAll(EncodeFrame(12, "all", trace, 77, sketch, ring), 2000).ok());
  auto next = ReadFrame(pair.server, FrameLimits{}, 2000);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->trace.trace_id, trace.trace_id);
  EXPECT_EQ(next->request_id, 77u);
  EXPECT_EQ(next->sketch, sketch);
  EXPECT_EQ(next->ring, ring);
  // A ring-less frame right behind is unaffected (extension not counted in
  // the payload length).
  ASSERT_TRUE(WriteFrame(pair.client, 7, "plain", 2000).ok());
  auto plain = ReadFrame(pair.server, FrameLimits{}, 2000);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->payload, "plain");
  EXPECT_FALSE(plain->ring.valid());
}

// --- Hostile-input frame decoding ---

// Seeded corpus of random, truncated and bit-flipped frames thrown at the
// full read path. The decoder's contract: every malformed stream earns a
// typed error (protocol family, or the transport error for a stream that
// just ends) and never a crash, hang or over-read — under ASan in CI this
// is the memory-safety test for the wire surface.
TEST(FrameTest, HostileInputCorpusNeverCrashesOrOverreads) {
  std::mt19937_64 rng(20260808);
  FrameLimits limits;
  limits.max_payload_bytes = 4096;
  obs::TraceContext trace{0x1111222233334444ULL, 3};
  FrameSketchParams sketch;
  sketch.k = 16;
  FrameRingMembership ring;
  ring.attempt = 1;
  ring.members = 0b111;
  const std::string valid = EncodeFrame(9, "hostile corpus seed payload", trace, 42,
                                        sketch, ring);
  for (int round = 0; round < 300; ++round) {
    std::string bytes;
    const int family = round % 3;
    if (family == 0) {
      // Pure noise, arbitrary length (including zero and sub-header sizes).
      bytes.resize(rng() % 64);
      for (char& c : bytes) {
        c = static_cast<char>(rng());
      }
    } else if (family == 1) {
      // A valid frame cut off mid-stream.
      bytes = valid.substr(0, rng() % valid.size());
    } else {
      // A valid frame with one flipped bit anywhere.
      bytes = valid;
      size_t pos = rng() % bytes.size();
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1u << (rng() % 8)));
    }
    LoopbackPair pair = MakeLoopbackPair();
    ASSERT_TRUE(pair.client.SendAll(bytes, 2000).ok());
    pair.client.Close();  // the stream ends here, however mangled
    auto frame = ReadFrame(pair.server, limits, 2000);
    if (frame.ok()) {
      // Only a payload-byte flip can decode: the header and every extension
      // are validated. What decodes must still be internally consistent.
      ASSERT_EQ(family, 2) << "round " << round << ": garbage decoded as a frame";
      EXPECT_LE(frame->payload.size(), limits.max_payload_bytes);
    } else {
      StatusCode code = frame.status().code();
      EXPECT_TRUE(code == StatusCode::kProtocolError || code == StatusCode::kUnavailable ||
                  code == StatusCode::kDeadlineExceeded)
          << "round " << round << ": " << frame.status().ToString();
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace indaas
