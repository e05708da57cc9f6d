// Length-prefixed message framing with a versioned binary header
// (DESIGN.md §7). Every INDaaS message on the wire is one frame:
//
//   offset  size  field
//   0       4     magic 0x494E4441 ("INDA"), big-endian
//   4       1     wire-format version (kWireVersion)
//   5       1     message type (svc::MsgType; opaque to this layer)
//   6       2     flags (bit 0 = trace-context extension, bit 1 = request-id
//                 extension, bit 2 = sketch-params extension, bit 3 =
//                 ring-membership extension; others reserved, must be zero)
//   8       4     payload length in bytes, big-endian (extensions excluded)
//   12      16    trace-context extension, only when flag bit 0 is set:
//                 trace id (u64 BE) + parent wire span id (u64 BE)
//   +0      8     request-id extension, only when flag bit 1 is set:
//                 per-connection request id (u64 BE, never zero). Follows
//                 the trace extension when both are present.
//   +0      8     sketch-params extension, only when flag bit 2 is set:
//                 u16 k, u16 LSH bands, u16 LSH rows, u16 reserved (zero),
//                 all big-endian.
//   +0      8     ring-membership extension, only when flag bit 3 is set:
//                 u16 reformation attempt (never zero), u16 reserved (zero),
//                 u32 bitmask of surviving original ring indices, all
//                 big-endian. Last of the extensions when several are
//                 present.
//   ...     n     payload
//
// Extensions carry per-frame identity ahead of the payload; their bytes are
// NOT counted in the payload length, so a peer that understands the flags
// can strip them without re-parsing the payload. The trace-context
// extension (kFrameFlagTraceContext) is the distributed request identity
// from src/obs/propagate.h. The request-id extension (kFrameFlagRequestId)
// pairs pipelined requests with out-of-order responses on one connection:
// a server echoes the request's id on the matching reply, so a multiplexed
// client can keep a bounded window of requests in flight and complete them
// in whatever order the server finishes. Plain frames (flags == 0) remain
// byte-identical to the original format — old clients keep working — and
// any other nonzero flag bit is still a hard kProtocolError, so an old
// peer rejects pipelined traffic outright instead of mis-pairing replies.
//
// ReadFrame validates magic, version, flags and length against FrameLimits
// before allocating the payload buffer, so a garbage or hostile peer costs
// a 12-byte read, never an attacker-chosen allocation. Frame errors are
// kProtocolError (do not retry); timeouts and closed peers keep the socket
// layer's kDeadlineExceeded / kUnavailable codes.

#ifndef SRC_NET_FRAME_H_
#define SRC_NET_FRAME_H_

#include <cstdint>
#include <string>

#include "src/net/socket.h"
#include "src/obs/propagate.h"
#include "src/util/status.h"

namespace indaas {
namespace net {

inline constexpr uint32_t kFrameMagic = 0x494E4441;  // "INDA"
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;

// Frame flag bits (header offset 6, big-endian u16). Bit 0 announces the
// fixed-size trace-context extension between header and payload; bit 1 the
// request-id extension (after the trace extension when both are present);
// all other bits are reserved and rejected.
inline constexpr uint16_t kFrameFlagTraceContext = 0x0001;
inline constexpr uint16_t kFrameFlagRequestId = 0x0002;
inline constexpr uint16_t kFrameFlagSketchParams = 0x0004;
inline constexpr uint16_t kFrameFlagRingMembership = 0x0008;
inline constexpr uint16_t kFrameKnownFlags = kFrameFlagTraceContext | kFrameFlagRequestId |
                                             kFrameFlagSketchParams |
                                             kFrameFlagRingMembership;
inline constexpr size_t kTraceContextBytes = 16;
inline constexpr size_t kRequestIdBytes = 8;
inline constexpr size_t kSketchParamsBytes = 8;
inline constexpr size_t kRingMembershipBytes = 8;

// Sketch-parameters extension (flag bit 2): announces the MinHash geometry
// of a sketch-exchange P-SOP session — register count k plus the LSH
// banding the auditor will apply — so ring peers can cross-check that they
// sketched under identical parameters before trusting register agreement.
// Wire layout: u16 k, u16 bands, u16 rows, u16 reserved (must be zero), all
// big-endian. k = 0 never appears on the wire (a sketch needs at least one
// register), so it doubles as "extension absent" in-memory. Peers predating
// the extension reject the unknown flag bit as kProtocolError — exactly the
// fail-closed behaviour wanted when an old auditor meets sketch traffic.
struct FrameSketchParams {
  uint16_t k = 0;  // registers per sketch; 0 = extension absent
  uint16_t bands = 0;
  uint16_t rows = 0;

  bool valid() const { return k != 0; }
  friend bool operator==(const FrameSketchParams&, const FrameSketchParams&) = default;
};

// Ring-membership extension (flag bit 3): announces that a P-SOP frame
// belongs to a *degraded* (reformed) ring — `attempt` counts reformations
// (the pristine ring sends no extension; the first reformation is attempt
// 1) and `members` is the bitmask of original ring indices still
// participating, so every survivor can cross-check that it agrees on
// exactly who was ejected before trusting any round data. Wire layout: u16
// attempt, u16 reserved (must be zero), u32 members bitmask, all
// big-endian. attempt = 0 never appears on the wire, so it doubles as
// "extension absent" in-memory; an empty bitmask is likewise rejected (a
// ring needs at least two parties). Peers predating the extension reject
// the unknown flag bit as kProtocolError — a pre-upgrade peer dragged into
// a degraded ring fails closed instead of silently auditing with the wrong
// party set.
struct FrameRingMembership {
  uint16_t attempt = 0;  // reformation count; 0 = extension absent
  uint32_t members = 0;  // bitmask of surviving original ring indices

  bool valid() const { return attempt != 0; }
  friend bool operator==(const FrameRingMembership&, const FrameRingMembership&) = default;
};

struct FrameLimits {
  // Largest payload ReadFrame will accept. PIA datasets dominate frame
  // sizes: 100k elements × 128-byte group elements ≈ 13 MB, so 64 MB leaves
  // ample headroom while still rejecting nonsense lengths.
  uint32_t max_payload_bytes = 64u << 20;
};

struct Frame {
  uint8_t type = 0;
  std::string payload;
  // Distributed request identity carried by the trace extension; invalid
  // (trace_id == 0) when the frame had no extension.
  obs::TraceContext trace;
  // Pipelining id carried by the request-id extension; 0 when the frame had
  // none (writers never emit id 0, so 0 is unambiguous for "absent").
  uint64_t request_id = 0;
  // Sketch geometry carried by the sketch-params extension; !valid() when
  // the frame had none.
  FrameSketchParams sketch;
  // Degraded-ring membership carried by the ring-membership extension;
  // !valid() when the frame had none (a pristine, full ring).
  FrameRingMembership ring;
  // Size on the wire: header + extensions + payload.
  size_t wire_bytes = 0;
};

// Serializes the header for `type`/`payload_size` (testing seam; WriteFrame
// uses it internally). `flags` is written verbatim — tests use it to forge
// frames with reserved bits set.
std::string EncodeFrameHeader(uint8_t type, uint32_t payload_size, uint16_t flags = 0);

// Serializes the 16-byte trace-context extension (trace id + parent wire
// span id, both big-endian u64).
std::string EncodeTraceContext(const obs::TraceContext& trace);

// Decodes a kTraceContextBytes-byte trace extension.
Result<obs::TraceContext> DecodeTraceContext(std::string_view bytes);

// Serializes the 8-byte request-id extension (big-endian u64).
std::string EncodeRequestId(uint64_t request_id);

// Decodes a kRequestIdBytes-byte request-id extension. An id of zero is a
// protocol error: writers never emit it, and readers rely on 0 = absent.
Result<uint64_t> DecodeRequestId(std::string_view bytes);

// Serializes the 8-byte sketch-params extension.
std::string EncodeSketchParams(const FrameSketchParams& params);

// Decodes a kSketchParamsBytes-byte sketch-params extension. k = 0 and a
// nonzero reserved word are protocol errors.
Result<FrameSketchParams> DecodeSketchParams(std::string_view bytes);

// Serializes the 8-byte ring-membership extension.
std::string EncodeRingMembership(const FrameRingMembership& ring);

// Decodes a kRingMembershipBytes-byte ring-membership extension. attempt =
// 0, an empty members bitmask and a nonzero reserved word are protocol
// errors.
Result<FrameRingMembership> DecodeRingMembership(std::string_view bytes);

// Decoded, validated header fields.
struct FrameHeader {
  uint8_t type = 0;
  uint32_t payload_size = 0;
  // True when the trace-context flag was set: kTraceContextBytes of trace
  // extension follow the header, before the payload.
  bool has_trace_context = false;
  // True when the request-id flag was set: kRequestIdBytes of request-id
  // extension follow the header (after any trace extension).
  bool has_request_id = false;
  // True when the sketch-params flag was set: kSketchParamsBytes of sketch
  // extension follow the header (after any trace / request-id extensions).
  bool has_sketch_params = false;
  // True when the ring-membership flag was set: kRingMembershipBytes of
  // membership extension follow the header (last of the extensions).
  bool has_ring_membership = false;

  // Bytes of extensions between header and payload.
  size_t extension_bytes() const {
    return (has_trace_context ? kTraceContextBytes : 0) +
           (has_request_id ? kRequestIdBytes : 0) +
           (has_sketch_params ? kSketchParamsBytes : 0) +
           (has_ring_membership ? kRingMembershipBytes : 0);
  }
  // Total frame size on the wire (header + extensions + payload).
  size_t total_bytes() const {
    return kFrameHeaderBytes + extension_bytes() + payload_size;
  }
};

// Validates a raw kFrameHeaderBytes-byte header against `limits`. Shared by
// ReadFrame and multiplexing callers that assemble frames from non-blocking
// reads (the reactor, the PIA ring pump).
Result<FrameHeader> DecodeFrameHeader(std::string_view bytes, const FrameLimits& limits);

// Starts the Frame that `header` announces: sets its type and wire size and
// decodes every extension from `extensions`, the header.extension_bytes()
// bytes that follow the header, in wire order. ReadFrame, the reactor and
// the PIA ring pump all decode extensions here. A malformed extension is
// kProtocolError. Like DecodeFrameHeader, a rejection is counted once in
// net.frames_rejected, so callers never count it themselves.
Result<Frame> DecodeFrameExtensions(const FrameHeader& header, std::string_view extensions);

// Serializes a whole frame (header + extensions + payload) into one buffer.
// Used by the reactor's buffered write path, which batches several frames
// into one send; WriteFrame is the immediate-send equivalent.
std::string EncodeFrame(uint8_t type, std::string_view payload,
                        const obs::TraceContext& trace = {}, uint64_t request_id = 0,
                        const FrameSketchParams& sketch = {},
                        const FrameRingMembership& ring = {});

// Writes one frame (header [+ extensions] + payload) to the socket. The
// trace extension is emitted only when `trace` is valid, the request-id
// extension only when `request_id` is nonzero, and the sketch-params /
// ring-membership extensions only when the corresponding struct is valid().
Status WriteFrame(Socket& socket, uint8_t type, std::string_view payload, int timeout_ms,
                  const obs::TraceContext& trace = {}, uint64_t request_id = 0,
                  const FrameSketchParams& sketch = {},
                  const FrameRingMembership& ring = {});

// Reads and validates one frame. The timeout applies to each socket wait,
// so a total stall is bounded by timeout_ms per phase (header, extensions,
// payload).
Result<Frame> ReadFrame(Socket& socket, const FrameLimits& limits, int timeout_ms);

}  // namespace net
}  // namespace indaas

#endif  // SRC_NET_FRAME_H_
