#include "src/svc/pia_peer.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <poll.h>
#include <set>
#include <thread>

#include "src/crypto/commutative.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/propagate.h"
#include "src/obs/trace.h"
#include "src/sketch/sketch.h"
#include "src/svc/proto.h"
#include "src/util/strings.h"

namespace indaas {
namespace svc {
namespace {

// Widest ring degraded recovery can express: the membership extension is a
// u32 bitmask of original indices.
constexpr size_t kMaxDegradedRing = 32;

// How long one TcpAccept waits inside the classify loops; short so probe
// answering and deadline checks stay responsive.
constexpr int kAcceptSliceMs = 200;

// While a prober waits for an ack it alternates slices of this length
// between the probe connection and its own listener.
constexpr int kProbeSliceMs = 10;

// Assembles the full on-wire bytes of one frame (header [+ extensions]
// + payload) for the pump, which needs the whole message up front to
// interleave sends with receives.
std::string FrameBytes(MsgType type, std::string_view payload,
                       const obs::TraceContext& trace = {},
                       const net::FrameSketchParams& sketch = {},
                       const net::FrameRingMembership& ring = {}) {
  uint16_t flags = 0;
  if (trace.valid()) {
    flags |= net::kFrameFlagTraceContext;
  }
  if (sketch.valid()) {
    flags |= net::kFrameFlagSketchParams;
  }
  if (ring.valid()) {
    flags |= net::kFrameFlagRingMembership;
  }
  std::string bytes = net::EncodeFrameHeader(static_cast<uint8_t>(type),
                                             static_cast<uint32_t>(payload.size()), flags);
  if (trace.valid()) {
    bytes += net::EncodeTraceContext(trace);
  }
  if (sketch.valid()) {
    bytes += net::EncodeSketchParams(sketch);
  }
  if (ring.valid()) {
    bytes += net::EncodeRingMembership(ring);
  }
  bytes.append(payload.data(), payload.size());
  return bytes;
}

uint32_t MembershipMask(const std::vector<uint32_t>& members) {
  uint32_t mask = 0;
  for (uint32_t index : members) {
    mask |= 1u << index;
  }
  return mask;
}

// Only transport-level faults are worth a ring reformation; a protocol
// violation or a local error re-occurs on retry and fails typed instead.
bool RecoverableRingError(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded;
}

obs::Counter* DegradedAudits() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("svc.degraded_audits");
  return counter;
}

obs::Counter* RingRecoveries() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("pia.ring_recoveries");
  return counter;
}

}  // namespace

Result<net::Frame> ExchangeFrames(net::Socket& tx, std::string_view out_bytes,
                                  net::Socket& rx, const net::FrameLimits& limits,
                                  int timeout_ms) {
  size_t sent = 0;
  std::string in_buffer;  // header, then extensions in order, then payload
  bool have_header = false;
  bool have_trace = false;   // trace extension consumed (or absent)
  bool have_reqid = false;   // request-id extension consumed (or absent)
  bool have_sketch = false;  // sketch-params extension consumed (or absent)
  bool have_ring = false;    // ring-membership extension consumed (or absent)
  net::FrameHeader header;
  net::Frame frame;
  auto recv_target = [&]() -> size_t {
    if (!have_header) {
      return net::kFrameHeaderBytes;
    }
    if (!have_trace) {
      return net::kTraceContextBytes;
    }
    if (!have_reqid) {
      return net::kRequestIdBytes;
    }
    if (!have_sketch) {
      return net::kSketchParamsBytes;
    }
    if (!have_ring) {
      return net::kRingMembershipBytes;
    }
    return header.payload_size;
  };
  auto recv_done = [&]() {
    return have_header && have_trace && have_reqid && have_sketch && have_ring &&
           in_buffer.size() >= header.payload_size;
  };
  // Progress-based deadline: every byte moved in either direction resets
  // it. The clock matters because readiness is no guarantee of progress — a
  // connection a fault-injection stall (src/net/chaos.h) has pinned stays
  // kernel-readable while RecvSome reports nothing, and without a deadline
  // of our own this loop would spin on poll forever.
  auto last_progress = std::chrono::steady_clock::now();
  while (sent < out_bytes.size() || !recv_done()) {
    const auto now = std::chrono::steady_clock::now();
    const int elapsed_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now - last_progress).count());
    if (elapsed_ms >= timeout_ms) {
      return DeadlineExceededError(
          StrFormat("ring round stalled for %d ms (peer hung or partitioned)", timeout_ms));
    }
    struct pollfd fds[2];
    int tx_slot = -1;
    int rx_slot = -1;
    int nfds = 0;
    if (sent < out_bytes.size()) {
      fds[nfds] = {tx.fd(), POLLOUT, 0};
      tx_slot = nfds++;
    }
    fds[nfds] = {rx.fd(), POLLIN, 0};
    rx_slot = nfds++;
    int rc = ::poll(fds, static_cast<nfds_t>(nfds), timeout_ms - elapsed_ms);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      return InternalError("ExchangeFrames: poll failed");
    }
    if (rc == 0) {
      return DeadlineExceededError(
          StrFormat("ring round stalled for %d ms (peer hung or partitioned)", timeout_ms));
    }
    size_t moved = 0;
    if (tx_slot >= 0 && (fds[tx_slot].revents & (POLLOUT | POLLERR | POLLHUP))) {
      INDAAS_ASSIGN_OR_RETURN(size_t n, tx.SendSome(out_bytes.substr(sent)));
      sent += n;
      moved += n;
    }
    if (fds[rx_slot].revents & (POLLIN | POLLERR | POLLHUP)) {
      // Never read past the current frame: bytes beyond it belong to the
      // next round.
      size_t want = recv_target() - in_buffer.size();
      if (want > 0) {
        char chunk[64 * 1024];
        size_t capacity = std::min(want, sizeof(chunk));
        INDAAS_ASSIGN_OR_RETURN(size_t n, rx.RecvSome(chunk, capacity));
        in_buffer.append(chunk, n);
        moved += n;
      }
      if (!have_header && in_buffer.size() == net::kFrameHeaderBytes) {
        INDAAS_ASSIGN_OR_RETURN(header, net::DecodeFrameHeader(in_buffer, limits));
        have_header = true;
        have_trace = !header.has_trace_context;
        have_reqid = !header.has_request_id;
        have_sketch = !header.has_sketch_params;
        have_ring = !header.has_ring_membership;
        in_buffer.clear();
      } else if (have_header && !have_trace &&
                 in_buffer.size() == net::kTraceContextBytes) {
        INDAAS_ASSIGN_OR_RETURN(frame.trace, net::DecodeTraceContext(in_buffer));
        have_trace = true;
        in_buffer.clear();
      } else if (have_header && have_trace && !have_reqid &&
                 in_buffer.size() == net::kRequestIdBytes) {
        INDAAS_ASSIGN_OR_RETURN(frame.request_id, net::DecodeRequestId(in_buffer));
        have_reqid = true;
        in_buffer.clear();
      } else if (have_header && have_trace && have_reqid && !have_sketch &&
                 in_buffer.size() == net::kSketchParamsBytes) {
        INDAAS_ASSIGN_OR_RETURN(frame.sketch, net::DecodeSketchParams(in_buffer));
        have_sketch = true;
        in_buffer.clear();
      } else if (have_header && have_trace && have_reqid && have_sketch && !have_ring &&
                 in_buffer.size() == net::kRingMembershipBytes) {
        INDAAS_ASSIGN_OR_RETURN(frame.ring, net::DecodeRingMembership(in_buffer));
        have_ring = true;
        in_buffer.clear();
      }
    }
    if (moved > 0) {
      last_progress = std::chrono::steady_clock::now();
    } else {
      // Readable/writable but nothing moved (stalled connection): pace the
      // retry so the deadline is a sleep, not a CPU spin.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  frame.type = header.type;
  frame.payload = std::move(in_buffer);
  return frame;
}

Result<PiaPeer> PiaPeer::Listen(uint16_t port) {
  INDAAS_ASSIGN_OR_RETURN(net::Socket listener, net::TcpListen(port));
  INDAAS_ASSIGN_OR_RETURN(uint16_t bound, listener.LocalPort());
  return PiaPeer(std::move(listener), bound);
}

Result<PsopResult> PiaPeer::RunPsop(const std::vector<std::string>& dataset,
                                    const PiaPeerOptions& options) {
  const size_t k = options.peers.size();
  const size_t self = options.self_index;
  if (k < 2) {
    return InvalidArgumentError("PiaPeer::RunPsop: need at least two ring peers");
  }
  if (self >= k) {
    return InvalidArgumentError(StrFormat("PiaPeer::RunPsop: self_index %zu out of ring of %zu",
                                          self, k));
  }
  if (options.allow_degraded && k > kMaxDegradedRing) {
    return InvalidArgumentError(StrFormat(
        "PiaPeer::RunPsop: degraded recovery supports at most %zu peers (membership bitmask "
        "width), ring has %zu",
        kMaxDegradedRing, k));
  }

  std::vector<uint32_t> members(k);
  for (size_t i = 0; i < k; ++i) {
    members[i] = static_cast<uint32_t>(i);
  }
  PendingHello pending;

  uint32_t attempt = 0;
  for (;;) {
    Result<PsopResult> run = RunPsopAttempt(dataset, options, members, attempt, &pending);
    if (run.ok()) {
      PsopResult result = std::move(*run);
      result.recovery_attempts = attempt;
      for (uint32_t index = 0; index < k; ++index) {
        if (std::find(members.begin(), members.end(), index) == members.end()) {
          result.excluded.push_back(index);
        }
      }
      if (result.degraded()) {
        DegradedAudits()->Increment();
        INDAAS_SLOG(Warn, "pia.ring_degraded_result")
            .Kv("self", static_cast<uint64_t>(self))
            .Kv("survivors", static_cast<uint64_t>(members.size()))
            .Kv("excluded", static_cast<uint64_t>(result.excluded.size()))
            .Kv("attempts", static_cast<uint64_t>(attempt));
      }
      return result;
    }
    const Status& error = run.status();
    if (!options.allow_degraded || !RecoverableRingError(error) ||
        attempt >= options.max_recovery_attempts) {
      return error;
    }
    ++attempt;
    RingRecoveries()->Increment();
    INDAAS_SLOG(Warn, "pia.ring_fault")
        .Kv("self", static_cast<uint64_t>(self))
        .Kv("attempt", static_cast<uint64_t>(attempt))
        .Kv("error", error.ToString());
    INDAAS_ASSIGN_OR_RETURN(members, ProbeSurvivors(options, attempt, &pending));
    if (members.size() < 2) {
      return UnavailableError(StrFormat(
          "ring collapsed: only %zu of %zu peers alive after recovery probe", members.size(),
          k));
    }
  }
}

Result<PsopResult> PiaPeer::RunPsopAttempt(const std::vector<std::string>& dataset,
                                           const PiaPeerOptions& options,
                                           const std::vector<uint32_t>& members,
                                           uint32_t attempt, PendingHello* pending) {
  const size_t k = options.peers.size();
  const size_t m = members.size();
  const uint32_t self = static_cast<uint32_t>(options.self_index);
  size_t pos = m;
  for (size_t i = 0; i < m; ++i) {
    if (members[i] == self) {
      pos = i;
    }
  }
  if (pos == m) {
    return InternalError("reformed ring does not include this peer");
  }
  const uint32_t successor = members[(pos + 1) % m];
  const uint32_t predecessor = members[(pos + m - 1) % m];

  // Attempt 0 is the pristine ring and stays extension-free on the wire;
  // reformed rings stamp every frame so peers with a divergent membership
  // view — or pre-upgrade peers that never learned the flag — fail closed.
  net::FrameRingMembership ring;
  if (attempt > 0) {
    ring.attempt = static_cast<uint16_t>(attempt);
    ring.members = MembershipMask(members);
  }

  // Ring peers all start at once — there is no originator whose context we
  // could adopt — so every peer derives the same session trace id from the
  // shared protocol seed, making one ring session one distributed trace.
  obs::TraceContext session{obs::DeriveTraceId(options.psop.seed), 0};
  obs::ScopedTraceContext session_trace(session);

  INDAAS_TRACE_SPAN_NAMED(span, "pia.psop.socket");
  span.Annotate("ring_size", std::to_string(m));
  span.Annotate("self", std::to_string(self));
  if (attempt > 0) {
    span.Annotate("attempt", std::to_string(attempt));
  }

  // --- Ring setup: connect to the successor while the predecessor connects
  // to us. Retry/backoff absorbs peers that start late.
  INDAAS_ASSIGN_OR_RETURN(
      net::Socket tx, net::ConnectWithRetry(options.peers[successor],
                                            options.connect_timeout_ms, options.retry));

  // --- Handshake: cross-check the ring geometry and crypto parameters.
  PsopHello hello;
  hello.ring_size = static_cast<uint32_t>(m);
  hello.sender_index = self;
  hello.group_bits = static_cast<uint32_t>(options.psop.group_bits);
  hello.hash_algorithm = static_cast<uint8_t>(options.psop.hash);

  net::Socket rx;
  net::Frame hello_frame;
  if (!options.allow_degraded) {
    // Pre-recovery path, preserved exactly: accept the predecessor, then
    // trade hellos.
    INDAAS_ASSIGN_OR_RETURN(rx, net::TcpAccept(listener_, options.io_timeout_ms));
    INDAAS_RETURN_IF_ERROR(net::WriteFrame(tx, static_cast<uint8_t>(MsgType::kPsopHello),
                                           EncodePsopHello(hello), options.io_timeout_ms,
                                           session));
    INDAAS_ASSIGN_OR_RETURN(hello_frame,
                            net::ReadFrame(rx, options.limits, options.io_timeout_ms));
  } else {
    // Recovery-capable path: send our hello first (it fits any send buffer
    // even before the successor accepts), then classify inbound connections
    // until the predecessor's hello arrives — the listener must keep
    // answering liveness probes from peers still deciding who survived.
    INDAAS_RETURN_IF_ERROR(net::WriteFrame(tx, static_cast<uint8_t>(MsgType::kPsopHello),
                                           EncodePsopHello(hello), options.io_timeout_ms,
                                           session, 0, {}, ring));
    INDAAS_ASSIGN_OR_RETURN(auto accepted,
                            AwaitHello(options, attempt, options.io_timeout_ms, pending));
    rx = std::move(accepted.first);
    hello_frame = std::move(accepted.second);
  }

  if (hello_frame.type != static_cast<uint8_t>(MsgType::kPsopHello)) {
    return ProtocolError("ring handshake: first frame was not a hello");
  }
  if (attempt > 0) {
    if (!hello_frame.ring.valid() || hello_frame.ring != ring) {
      return ProtocolError(StrFormat(
          "degraded ring handshake: predecessor sent attempt %u membership 0x%08X, want "
          "attempt %u membership 0x%08X",
          hello_frame.ring.attempt, hello_frame.ring.members, ring.attempt, ring.members));
    }
  } else if (hello_frame.ring.valid()) {
    return ProtocolError(
        "ring handshake: unexpected ring-membership extension on a pristine ring");
  }
  INDAAS_ASSIGN_OR_RETURN(PsopHello peer_hello, DecodePsopHello(hello_frame.payload));
  if (peer_hello.ring_size != m || peer_hello.sender_index != predecessor) {
    return ProtocolError(StrFormat(
        "ring handshake mismatch: predecessor claims index %u of %u, expected %u of %zu",
        peer_hello.sender_index, peer_hello.ring_size, predecessor, m));
  }
  if (peer_hello.group_bits != options.psop.group_bits ||
      peer_hello.hash_algorithm != static_cast<uint8_t>(options.psop.hash)) {
    return ProtocolError("ring handshake mismatch: peers disagree on crypto parameters");
  }

  // --- Crypto setup. Key material is local to this peer; only uniqueness
  // across peers matters, so the seed folds in the *original* ring index —
  // stable across reformations.
  INDAAS_ASSIGN_OR_RETURN(CommutativeGroup group,
                          CommutativeGroup::CreateWellKnown(options.psop.group_bits));
  const size_t element_bytes = group.ElementBytes();
  Rng rng(options.psop.seed + 0x9E3779B97F4A7C15ULL * (self + 1));
  INDAAS_ASSIGN_OR_RETURN(CommutativeKey key, CommutativeKey::Generate(group, rng));

  PsopResult result;
  result.party_stats.assign(k, PartyStats{});
  PartyMeter meter(&result.party_stats[self], "psop");

  // --- Phase 0: hash into the group, first encryption, permutation
  // (identical to the in-process engine's phase 0).
  std::vector<BigUint> current;
  {
    INDAAS_TRACE_SPAN("pia.psop.encrypt_permute");
    PartyComputeTimer timer(meter);
    std::vector<std::string> elements = DisambiguateMultiset(dataset);
    current.reserve(elements.size());
    for (const std::string& element : elements) {
      BigUint point = group.HashToElement(element, options.psop.hash);
      current.push_back(key.Encrypt(group, point));
      meter.AddEncryptOps();
    }
    rng.Shuffle(current);
  }

  // Sends `current` tagged with its origin while receiving the predecessor's
  // dataset of the same round; validates type and origin on the way in.
  // `xseq` numbers the session's exchanges: ring rounds are lockstep, so
  // the same xseq on different peers is the same round — which is what
  // trace-merge uses to align per-peer clocks.
  size_t xseq = 0;
  auto exchange = [&](MsgType type, uint32_t send_origin,
                      uint32_t expect_origin) -> Result<std::vector<BigUint>> {
    if (xseq >= options.fail_after_exchanges) {
      // Test seam: die abruptly. Closing both ring sockets cascades the
      // fault to the neighbours within one io timeout; the non-recoverable
      // error keeps this peer out of any reformed ring.
      tx.Close();
      rx.Close();
      return InternalError("pia test seam: simulated peer death");
    }
    INDAAS_TRACE_SPAN_NAMED(hop_span, "pia.ring.exchange");
    hop_span.Annotate("xseq", std::to_string(xseq++));
    hop_span.Annotate("self", std::to_string(self));
    PsopDataset out;
    out.origin = send_origin;
    out.element_bytes = static_cast<uint32_t>(element_bytes);
    out.elements = std::move(current);
    std::string out_bytes = FrameBytes(type, EncodePsopDataset(out), session, {}, ring);
    meter.AddBytesSent(out_bytes.size());
    INDAAS_ASSIGN_OR_RETURN(
        net::Frame frame, ExchangeFrames(tx, out_bytes, rx, options.limits,
                                         options.io_timeout_ms));
    if (frame.type != static_cast<uint8_t>(type)) {
      return ProtocolError(StrFormat("ring round got frame type %u, want %u", frame.type,
                                     static_cast<uint8_t>(type)));
    }
    if (attempt > 0) {
      if (!frame.ring.valid() || frame.ring != ring) {
        return ProtocolError("ring round: peer membership view diverged mid-session");
      }
    } else if (frame.ring.valid()) {
      return ProtocolError("ring round: unexpected ring-membership extension on a pristine "
                           "ring");
    }
    meter.AddBytesReceived(net::kFrameHeaderBytes + frame.payload.size());
    INDAAS_ASSIGN_OR_RETURN(PsopDataset in, DecodePsopDataset(frame.payload));
    if (in.origin != expect_origin) {
      return ProtocolError(StrFormat("ring round got dataset of origin %u, want %u", in.origin,
                                     expect_origin));
    }
    if (in.element_bytes != element_bytes) {
      return ProtocolError("ring peers disagree on group element width");
    }
    return std::move(in.elements);
  };

  // --- Phase 1: m ring hops; every hop encrypts and permutes, except the
  // last, which returns each dataset to its fully-encrypted origin. Origins
  // are *original* indices mapped through the surviving member list.
  {
    INDAAS_TRACE_SPAN("pia.psop.ring");
    for (size_t hop = 0; hop < m; ++hop) {
      uint32_t send_origin = members[(pos + m - hop) % m];
      uint32_t expect_origin = members[(pos + m - hop - 1) % m];
      INDAAS_ASSIGN_OR_RETURN(current, exchange(MsgType::kPsopDataset, send_origin,
                                                expect_origin));
      if (hop + 1 < m) {
        PartyComputeTimer timer(meter);
        for (BigUint& element : current) {
          element = key.Encrypt(group, element);
          meter.AddEncryptOps();
        }
        rng.Shuffle(current);
      }
    }
  }

  // --- Phase 2: ring all-gather of the fully-encrypted datasets, counting
  // as they arrive. Each dataset is charged once per forwarding hop, which
  // totals the same m-1 transmissions the in-process broadcast accounts.
  std::map<std::string, size_t> presence;  // ciphertext -> #parties holding it
  auto count_dataset = [&](const std::vector<BigUint>& elements) {
    PartyComputeTimer timer(meter);
    std::set<std::string> local;
    for (const BigUint& element : elements) {
      local.insert(element.ToHex());
    }
    for (const std::string& ciphertext : local) {
      ++presence[ciphertext];
    }
  };
  {
    INDAAS_TRACE_SPAN("pia.psop.share_count");
    count_dataset(current);
    for (size_t hop = 0; hop + 1 < m; ++hop) {
      uint32_t send_origin = members[(pos + m - hop) % m];
      uint32_t expect_origin = members[(pos + m - hop - 1) % m];
      INDAAS_ASSIGN_OR_RETURN(current, exchange(MsgType::kPsopShare, send_origin,
                                                expect_origin));
      count_dataset(current);
    }
  }
  {
    PartyComputeTimer timer(meter);
    result.union_size = presence.size();
    for (const auto& [ciphertext, count] : presence) {
      (void)ciphertext;
      if (count == m) {
        ++result.intersection;
      }
    }
  }
  result.jaccard = result.union_size == 0
                       ? 0.0
                       : static_cast<double>(result.intersection) /
                             static_cast<double>(result.union_size);
  static obs::Counter* sessions =
      obs::MetricsRegistry::Global().GetCounter("pia.socket_sessions_total");
  sessions->Increment();
  return result;
}

Result<std::vector<uint32_t>> PiaPeer::ProbeSurvivors(const PiaPeerOptions& options,
                                                      uint32_t attempt,
                                                      PendingHello* pending) {
  const size_t k = options.peers.size();
  const uint32_t self = static_cast<uint32_t>(options.self_index);
  // A peer counts as alive once it acks our probe or probes us for this
  // same attempt: either proves it is running this reformation.
  std::vector<bool> alive(k, false);
  alive[self] = true;
  const std::string probe_payload = EncodePsopProbe(PsopProbe{self, attempt});
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options.probe_window_ms);
  // Sweep the undecided peers until everyone answered or the window closes.
  // A peer that is itself still detecting the fault answers a later sweep;
  // only peers silent for the whole window are ejected.
  for (;;) {
    bool undecided = false;
    for (uint32_t peer = 0; peer < static_cast<uint32_t>(k); ++peer) {
      if (peer == self || alive[peer]) {
        continue;
      }
      // One probe round trip on a throwaway connection. A connect that
      // lands in a dead peer's listen backlog still fails here: liveness
      // requires the ack, not the connection.
      Result<net::Socket> conn =
          net::TcpConnect(options.peers[peer], options.probe_io_timeout_ms);
      if (conn.ok()) {
        Status sent = net::WriteFrame(*conn, static_cast<uint8_t>(MsgType::kPsopProbe),
                                      probe_payload, options.probe_io_timeout_ms);
        // Wait for the ack in short slices and answer inbound probes between
        // them. A peer blocked on its own probe of a dead listener would
        // otherwise leave ours unanswered for the whole probe timeout, and
        // two peers in lockstep can miss each other for the whole window.
        const auto ack_deadline = std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(options.probe_io_timeout_ms);
        while (sent.ok() && !alive[peer] && std::chrono::steady_clock::now() < ack_deadline) {
          Status readable = conn->WaitReadable(kProbeSliceMs);
          if (readable.ok()) {
            Result<net::Frame> ack =
                net::ReadFrame(*conn, options.limits, options.probe_io_timeout_ms);
            if (ack.ok() && ack->type == static_cast<uint8_t>(MsgType::kPsopProbeAck)) {
              alive[peer] = true;
            }
            break;
          }
          if (readable.code() != StatusCode::kDeadlineExceeded) {
            break;
          }
          Result<std::pair<net::Socket, net::Frame>> drained = AwaitHello(
              options, attempt, kProbeSliceMs, pending, /*drain_only=*/true, &alive);
          (void)drained;
        }
        if (alive[peer]) {
          continue;
        }
      }
      undecided = true;
      // Answer inbound probes between outbound tries so peers probing each
      // other concurrently converge instead of starving one another.
      Result<std::pair<net::Socket, net::Frame>> drained = AwaitHello(
          options, attempt, /*deadline_ms=*/50, pending, /*drain_only=*/true, &alive);
      (void)drained;
    }
    if (!undecided || std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    Result<std::pair<net::Socket, net::Frame>> drained = AwaitHello(
        options, attempt, /*deadline_ms=*/100, pending, /*drain_only=*/true, &alive);
    (void)drained;
  }
  std::vector<uint32_t> members;
  for (uint32_t peer = 0; peer < static_cast<uint32_t>(k); ++peer) {
    if (alive[peer]) {
      members.push_back(peer);
    }
  }
  INDAAS_SLOG(Info, "pia.ring_probe_done")
      .Kv("self", static_cast<uint64_t>(self))
      .Kv("attempt", static_cast<uint64_t>(attempt))
      .Kv("alive", static_cast<uint64_t>(members.size()))
      .Kv("ring", static_cast<uint64_t>(k));
  return members;
}

Result<std::pair<net::Socket, net::Frame>> PiaPeer::AwaitHello(const PiaPeerOptions& options,
                                                               uint32_t attempt,
                                                               int deadline_ms,
                                                               PendingHello* pending,
                                                               bool drain_only,
                                                               std::vector<bool>* probers) {
  const uint32_t self = static_cast<uint32_t>(options.self_index);
  // A hello is for *this* reformation if its membership extension carries
  // the current attempt; stale ones (from an aborted earlier reformation)
  // are dropped, pristine-ring hellos are validated by the caller.
  auto hello_is_current = [&](const net::Frame& frame) {
    if (attempt == 0) {
      return true;
    }
    return frame.ring.valid() && frame.ring.attempt == attempt;
  };
  if (!drain_only && pending->valid) {
    pending->valid = false;
    if (hello_is_current(pending->frame)) {
      return std::make_pair(std::move(pending->socket), std::move(pending->frame));
    }
    pending->socket = net::Socket();  // stale: drop the connection
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      break;
    }
    const int remaining = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count() + 1);
    Result<net::Socket> conn =
        net::TcpAccept(listener_, std::min(remaining, kAcceptSliceMs));
    if (!conn.ok()) {
      continue;  // timeout or transient accept failure; the deadline bounds us
    }
    Result<net::Frame> first =
        net::ReadFrame(*conn, options.limits, options.probe_io_timeout_ms);
    if (!first.ok()) {
      continue;  // stray or garbled connection; drop it
    }
    if (first->type == static_cast<uint8_t>(MsgType::kPsopProbe)) {
      Result<PsopProbe> probe = DecodePsopProbe(first->payload);
      if (probers != nullptr && probe.ok() && probe->attempt == attempt &&
          probe->sender_index < probers->size()) {
        (*probers)[probe->sender_index] = true;
      }
      // Answer and close: we are alive. The ack carries our index so the
      // prober can attribute it.
      Status acked = net::WriteFrame(*conn, static_cast<uint8_t>(MsgType::kPsopProbeAck),
                                     EncodePsopProbe(PsopProbe{self, attempt}),
                                     options.probe_io_timeout_ms);
      (void)acked;
      continue;
    }
    if (first->type == static_cast<uint8_t>(MsgType::kPsopHello)) {
      if (!hello_is_current(*first)) {
        continue;  // stale reformation attempt; drop
      }
      if (drain_only) {
        if (!pending->valid) {
          pending->socket = std::move(*conn);
          pending->frame = std::move(*first);
          pending->valid = true;
        }
        continue;
      }
      return std::make_pair(std::move(*conn), std::move(*first));
    }
    // Anything else is a stray connection; drop it.
  }
  if (drain_only) {
    return DeadlineExceededError("listener drain slice elapsed");
  }
  return DeadlineExceededError(StrFormat(
      "ring formation: predecessor hello did not arrive within %d ms", deadline_ms));
}

Result<PsopResult> PiaPeer::RunPsopWithSketch(const std::vector<std::string>& dataset,
                                              const PiaPeerOptions& options) {
  const size_t k = options.peers.size();
  const size_t self = options.self_index;
  if (k < 2) {
    return InvalidArgumentError("PiaPeer::RunPsopWithSketch: need at least two ring peers");
  }
  if (self >= k) {
    return InvalidArgumentError(StrFormat(
        "PiaPeer::RunPsopWithSketch: self_index %zu out of ring of %zu", self, k));
  }
  if (options.sketch_k == 0 || options.sketch_k > UINT16_MAX) {
    return InvalidArgumentError(StrFormat(
        "PiaPeer::RunPsopWithSketch: sketch_k %u out of range [1, %u]", options.sketch_k,
        UINT16_MAX));
  }
  if (options.lsh_bands > UINT16_MAX || options.lsh_rows > UINT16_MAX) {
    return InvalidArgumentError("PiaPeer::RunPsopWithSketch: LSH geometry exceeds u16");
  }
  if (dataset.empty()) {
    return InvalidArgumentError("PiaPeer::RunPsopWithSketch: empty dataset");
  }
  const size_t successor = (self + 1) % k;
  const size_t predecessor = (self + k - 1) % k;

  net::FrameSketchParams geometry;
  geometry.k = static_cast<uint16_t>(options.sketch_k);
  geometry.bands = static_cast<uint16_t>(options.lsh_bands);
  geometry.rows = static_cast<uint16_t>(options.lsh_rows);

  obs::TraceContext session{obs::DeriveTraceId(options.psop.seed), 0};
  obs::ScopedTraceContext session_trace(session);

  INDAAS_TRACE_SPAN_NAMED(span, "pia.psop.sketch.socket");
  span.Annotate("ring_size", std::to_string(k));
  span.Annotate("self", std::to_string(self));

  INDAAS_ASSIGN_OR_RETURN(
      net::Socket tx, net::ConnectWithRetry(options.peers[successor],
                                            options.connect_timeout_ms, options.retry));
  INDAAS_ASSIGN_OR_RETURN(net::Socket rx, net::TcpAccept(listener_, options.io_timeout_ms));

  // --- Handshake: ring geometry plus the sketch-params extension. A peer
  // running the encrypted protocol (or an old build that predates the
  // extension) rejects the unknown flag bit before any registers move.
  PsopHello hello;
  hello.ring_size = static_cast<uint32_t>(k);
  hello.sender_index = static_cast<uint32_t>(self);
  hello.group_bits = static_cast<uint32_t>(options.psop.group_bits);
  hello.hash_algorithm = static_cast<uint8_t>(options.psop.hash);
  INDAAS_RETURN_IF_ERROR(net::WriteFrame(tx, static_cast<uint8_t>(MsgType::kPsopHello),
                                         EncodePsopHello(hello), options.io_timeout_ms,
                                         session, 0, geometry));
  INDAAS_ASSIGN_OR_RETURN(net::Frame hello_frame,
                          net::ReadFrame(rx, options.limits, options.io_timeout_ms));
  if (hello_frame.type != static_cast<uint8_t>(MsgType::kPsopHello)) {
    return ProtocolError("sketch ring handshake: first frame was not a hello");
  }
  INDAAS_ASSIGN_OR_RETURN(PsopHello peer_hello, DecodePsopHello(hello_frame.payload));
  if (peer_hello.ring_size != k || peer_hello.sender_index != predecessor) {
    return ProtocolError(StrFormat(
        "sketch ring handshake mismatch: predecessor claims index %u of %u, expected %zu of %zu",
        peer_hello.sender_index, peer_hello.ring_size, predecessor, k));
  }
  if (!hello_frame.sketch.valid()) {
    return ProtocolError("sketch ring handshake: predecessor sent no sketch-params extension");
  }
  if (hello_frame.sketch != geometry) {
    return ProtocolError(StrFormat(
        "sketch ring handshake mismatch: predecessor sketches k=%u bands=%u rows=%u, "
        "expected k=%u bands=%u rows=%u",
        hello_frame.sketch.k, hello_frame.sketch.bands, hello_frame.sketch.rows, geometry.k,
        geometry.bands, geometry.rows));
  }

  PsopResult result;
  result.party_stats.assign(k, PartyStats{});
  PartyMeter meter(&result.party_stats[self], "sketch");

  // --- Local sketching under the shared seed; nothing about the raw
  // dataset ever leaves this peer.
  sketch::SketchParams params;
  params.k = options.sketch_k;
  params.seed = PsopSketchSeed(options.psop.seed);
  sketch::SketchArena arena(options.sketch_k, k);
  {
    INDAAS_TRACE_SPAN("pia.psop.sketch.build");
    PartyComputeTimer timer(meter);
    sketch::BuildSketch(params, dataset, arena.At(self));
  }

  // --- Ring all-gather: k-1 lockstep hops; after hop h this peer holds the
  // sketch originated by (self - h - 1) mod k.
  std::vector<uint32_t> current(arena.At(self), arena.At(self) + options.sketch_k);
  size_t xseq = 0;
  {
    INDAAS_TRACE_SPAN("pia.psop.sketch.ring");
    for (size_t hop = 0; hop + 1 < k; ++hop) {
      INDAAS_TRACE_SPAN_NAMED(hop_span, "pia.ring.exchange");
      hop_span.Annotate("xseq", std::to_string(xseq++));
      hop_span.Annotate("self", std::to_string(self));
      uint32_t send_origin = static_cast<uint32_t>((self + k - hop) % k);
      uint32_t expect_origin = static_cast<uint32_t>((self + k - hop - 1) % k);
      PsopSketch out;
      out.origin = send_origin;
      out.registers = std::move(current);
      std::string out_bytes =
          FrameBytes(MsgType::kPsopSketch, EncodePsopSketch(out), session, geometry);
      meter.AddBytesSent(out_bytes.size());
      INDAAS_ASSIGN_OR_RETURN(
          net::Frame frame, ExchangeFrames(tx, out_bytes, rx, options.limits,
                                           options.io_timeout_ms));
      if (frame.type != static_cast<uint8_t>(MsgType::kPsopSketch)) {
        return ProtocolError(StrFormat("sketch ring round got frame type %u, want %u",
                                       frame.type,
                                       static_cast<uint8_t>(MsgType::kPsopSketch)));
      }
      size_t received = net::kFrameHeaderBytes + frame.payload.size() +
                        (frame.trace.valid() ? net::kTraceContextBytes : 0) +
                        (frame.sketch.valid() ? net::kSketchParamsBytes : 0);
      meter.AddBytesReceived(received);
      if (!frame.sketch.valid() || frame.sketch != geometry) {
        return ProtocolError("sketch ring round: peer changed sketch geometry mid-session");
      }
      INDAAS_ASSIGN_OR_RETURN(PsopSketch in, DecodePsopSketch(frame.payload));
      if (in.origin != expect_origin) {
        return ProtocolError(StrFormat("sketch ring round got sketch of origin %u, want %u",
                                       in.origin, expect_origin));
      }
      if (in.registers.size() != options.sketch_k) {
        return ProtocolError(StrFormat("sketch ring round got %zu registers, want %u",
                                       in.registers.size(), options.sketch_k));
      }
      std::copy(in.registers.begin(), in.registers.end(), arena.At(expect_origin));
      current = std::move(in.registers);
    }
  }

  // --- Count k-way register agreement; same estimator as the in-process
  // engine, so the two are byte-identical on identical datasets and seed.
  {
    PartyComputeTimer timer(meter);
    size_t agree = 0;
    for (uint32_t r = 0; r < options.sketch_k; ++r) {
      const uint32_t v = arena.At(0)[r];
      bool all = true;
      for (size_t i = 1; i < k && all; ++i) {
        all = arena.At(i)[r] == v;
      }
      agree += all;
    }
    result.intersection = agree;
    result.union_size = options.sketch_k;
    result.jaccard = static_cast<double>(agree) / static_cast<double>(options.sketch_k);
  }
  static obs::Counter* sketch_sessions =
      obs::MetricsRegistry::Global().GetCounter("pia.sketch_socket_sessions_total");
  sketch_sessions->Increment();
  return result;
}

}  // namespace svc
}  // namespace indaas
