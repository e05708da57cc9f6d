#include "src/svc/pia_peer.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <poll.h>
#include <thread>
#include <tuple>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/propagate.h"
#include "src/obs/trace.h"
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

// The frame type of each RingMessage::Kind.
constexpr MsgType kRingFrameType[] = {MsgType::kPsopDataset, MsgType::kPsopShare,
                                      MsgType::kPsopSketch};

std::string EncodeRingFrame(const RingMessage& message, const obs::TraceContext& session,
                            const net::FrameSketchParams& geometry,
                            const net::FrameRingMembership& ring) {
  return net::EncodeFrame(static_cast<uint8_t>(kRingFrameType[static_cast<int>(message.kind)]),
                          message.kind == RingMessage::Kind::kSketch ? EncodePsopSketch(message)
                                                                     : EncodePsopDataset(message),
                          session, /*request_id=*/0, geometry, ring);
}

Result<RingMessage> DecodeRingFrame(const net::Frame& frame) {
  const auto* type = std::find(std::begin(kRingFrameType), std::end(kRingFrameType),
                               static_cast<MsgType>(frame.type));
  if (type == std::end(kRingFrameType)) {
    return ProtocolError(StrFormat("ring round got frame type %u", frame.type));
  }
  const auto kind = static_cast<RingMessage::Kind>(type - std::begin(kRingFrameType));
  INDAAS_ASSIGN_OR_RETURN(RingMessage message, kind == RingMessage::Kind::kSketch
                                                   ? DecodePsopSketch(frame.payload)
                                                   : DecodePsopDataset(frame.payload));
  message.kind = kind;
  return message;
}

}  // namespace

Result<net::Frame> ExchangeFrames(net::Socket& tx, std::string_view out_bytes,
                                  net::Socket& rx, const net::FrameLimits& limits,
                                  int timeout_ms) {
  size_t sent = 0;
  std::string in_buffer;  // header, then its extensions, then the payload
  bool have_header = false;
  bool have_extensions = false;
  net::FrameHeader header;
  net::Frame frame;
  auto recv_target = [&]() -> size_t {
    if (!have_header) {
      return net::kFrameHeaderBytes;
    }
    if (!have_extensions) {
      return header.extension_bytes();
    }
    return header.payload_size;
  };
  auto recv_done = [&]() {
    return have_extensions && in_buffer.size() >= header.payload_size;
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
    if (rc <= 0) {
      if (rc == 0 || errno == EINTR) {
        continue;  // the deadline check above ends a silent wait
      }
      return InternalError("ExchangeFrames: poll failed");
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
        in_buffer.clear();
      }
      if (have_header && !have_extensions && in_buffer.size() == header.extension_bytes()) {
        INDAAS_ASSIGN_OR_RETURN(frame, net::DecodeFrameExtensions(header, in_buffer));
        have_extensions = true;
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
  frame.payload = std::move(in_buffer);
  // The pump assembles frames itself, so it counts them by hand (ReadFrame
  // does this for blocking readers); net::EncodeFrame counts the sends.
  static obs::Counter* frames_recv =
      obs::MetricsRegistry::Global().GetCounter("net.frames_recv");
  frames_recv->Increment();
  return frame;
}

Result<PiaPeer> PiaPeer::Listen(uint16_t port) {
  INDAAS_ASSIGN_OR_RETURN(net::Socket listener, net::TcpListen(port));
  INDAAS_ASSIGN_OR_RETURN(uint16_t bound, listener.LocalPort());
  return PiaPeer(std::move(listener), bound);
}

Result<PsopResult> PiaPeer::RunPsop(const std::vector<std::string>& dataset,
                                    const PiaPeerOptions& options) {
  return RunRing(RingMode::kExact, dataset, options);
}

Result<PsopResult> PiaPeer::RunPsopWithSketch(const std::vector<std::string>& dataset,
                                              const PiaPeerOptions& options) {
  return RunRing(RingMode::kSketch, dataset, options);
}

Result<PsopResult> PiaPeer::RunRing(RingMode mode, const std::vector<std::string>& dataset,
                                    const PiaPeerOptions& options) {
  const size_t k = options.peers.size();
  const size_t self = options.self_index;
  if (self >= k) {
    return InvalidArgumentError(StrFormat("PiaPeer: self_index %zu out of ring of %zu", self, k));
  }
  if (options.allow_degraded && k > kMaxDegradedRing) {
    return InvalidArgumentError(StrFormat(
        "PiaPeer: degraded recovery supports at most %zu peers (membership bitmask width), "
        "ring has %zu",
        kMaxDegradedRing, k));
  }
  if (mode == RingMode::kSketch &&
      (options.lsh_bands > UINT16_MAX || options.lsh_rows > UINT16_MAX)) {
    return InvalidArgumentError("PiaPeer: LSH geometry exceeds u16");
  }

  std::vector<uint32_t> members(k);
  std::iota(members.begin(), members.end(), 0u);
  PendingHello pending;
  for (uint32_t attempt = 0;; ++attempt) {
    Result<PsopResult> run = RunAttempt(mode, dataset, options, members, attempt, &pending);
    if (run.ok()) {
      PsopResult result = std::move(*run);
      result.recovery_attempts = attempt;
      for (uint32_t index = 0; index < k; ++index) {
        if (std::find(members.begin(), members.end(), index) == members.end()) {
          result.excluded.push_back(index);
        }
      }
      if (result.degraded()) {
        obs::MetricsRegistry::Global().GetCounter("svc.degraded_audits")->Increment();
        INDAAS_SLOG(Warn, "pia.ring_degraded_result")
            .Kv("self", static_cast<uint64_t>(self))
            .Kv("survivors", static_cast<uint64_t>(members.size()))
            .Kv("excluded", static_cast<uint64_t>(result.excluded.size()))
            .Kv("attempts", static_cast<uint64_t>(attempt));
      }
      return result;
    }
    // Only transport faults are worth a ring reformation; a protocol
    // violation or a local error re-occurs on retry and fails typed instead.
    const Status& error = run.status();
    if (!options.allow_degraded || attempt >= options.max_recovery_attempts ||
        (error.code() != StatusCode::kUnavailable &&
         error.code() != StatusCode::kDeadlineExceeded)) {
      return error;
    }
    obs::MetricsRegistry::Global().GetCounter("pia.ring_recoveries")->Increment();
    INDAAS_SLOG(Warn, "pia.ring_fault")
        .Kv("self", static_cast<uint64_t>(self))
        .Kv("attempt", static_cast<uint64_t>(attempt + 1))
        .Kv("error", error.ToString());
    INDAAS_ASSIGN_OR_RETURN(members, ProbeSurvivors(options, attempt + 1, &pending));
    if (members.size() < 2) {
      return UnavailableError(StrFormat(
          "ring collapsed: only %zu of %zu peers alive after recovery probe", members.size(),
          k));
    }
  }
}

Result<PsopResult> PiaPeer::RunAttempt(RingMode mode, const std::vector<std::string>& dataset,
                                       const PiaPeerOptions& options,
                                       const std::vector<uint32_t>& members, uint32_t attempt,
                                       PendingHello* pending) {
  const size_t m = members.size();
  const uint32_t self = static_cast<uint32_t>(options.self_index);
  // Survivors always include this peer, and the party rejects a position
  // outside the ring and a bad sketch size before any connection.
  const size_t pos = std::find(members.begin(), members.end(), self) - members.begin();
  std::vector<PartyStats> stats(options.peers.size());
  INDAAS_ASSIGN_OR_RETURN(
      RingParty party,
      RingParty::Create(RingConfig{mode, options.psop, options.sketch_k, members, pos},
                        &stats[self]));

  // Every frame of a session carries the same extensions, hello included:
  // sketch rings their geometry, reformed rings their membership, so a
  // peer in the other mode, with other geometry, with a divergent view of
  // who survived, or predating the flag bits fails closed. The pristine
  // exact ring sends neither.
  net::FrameSketchParams geometry;
  if (mode == RingMode::kSketch) {
    geometry = {static_cast<uint16_t>(options.sketch_k), static_cast<uint16_t>(options.lsh_bands),
                static_cast<uint16_t>(options.lsh_rows)};
  }
  net::FrameRingMembership ring;
  if (attempt > 0) {
    ring.attempt = static_cast<uint16_t>(attempt);
    for (uint32_t index : members) {
      ring.members |= 1u << index;
    }
  }
  auto check_extensions = [&](const net::Frame& frame) -> Status {
    if (frame.sketch == geometry && frame.ring == ring) {
      return Status::Ok();
    }
    return ProtocolError(StrFormat(
        "ring frame carries sketch k=%u bands=%u rows=%u, membership attempt %u mask 0x%08X; "
        "want k=%u bands=%u rows=%u, attempt %u mask 0x%08X",
        frame.sketch.k, frame.sketch.bands, frame.sketch.rows, frame.ring.attempt,
        frame.ring.members, geometry.k, geometry.bands, geometry.rows, ring.attempt,
        ring.members));
  };

  // Ring peers all start at once — there is no originator whose context we
  // could adopt — so every peer derives the same session trace id from the
  // shared protocol seed, making one ring session one distributed trace.
  obs::TraceContext session{obs::DeriveTraceId(options.psop.seed), 0};
  obs::ScopedTraceContext session_trace(session);
  INDAAS_TRACE_SPAN_NAMED(
      span, mode == RingMode::kExact ? "pia.psop.socket" : "pia.psop.sketch.socket");
  span.Annotate("ring_size", std::to_string(m));
  span.Annotate("self", std::to_string(self));
  if (attempt > 0) {
    span.Annotate("attempt", std::to_string(attempt));
  }

  // --- Ring setup: connect to the successor (retry/backoff absorbs peers
  // that start late) and send our hello, which fits any send buffer even
  // before the successor accepts; then take the predecessor's.
  INDAAS_ASSIGN_OR_RETURN(
      net::Socket tx, net::ConnectWithRetry(options.peers[members[(pos + 1) % m]],
                                            options.connect_timeout_ms, options.retry));
  const uint32_t predecessor = members[(pos + m - 1) % m];
  const PsopHello hello{static_cast<uint32_t>(m), self,
                        static_cast<uint32_t>(options.psop.group_bits),
                        static_cast<uint8_t>(options.psop.hash)};
  INDAAS_RETURN_IF_ERROR(net::WriteFrame(tx, static_cast<uint8_t>(MsgType::kPsopHello),
                                         EncodePsopHello(hello), options.io_timeout_ms, session,
                                         0, geometry, ring));
  net::Socket rx;
  net::Frame hello_frame;
  if (options.allow_degraded) {
    // The listener must keep answering liveness probes from peers still
    // deciding who survived, so inbound connections are classified until
    // the predecessor's hello arrives.
    INDAAS_ASSIGN_OR_RETURN(std::tie(rx, hello_frame),
                            AwaitHello(options, attempt, options.io_timeout_ms, pending));
  } else {
    INDAAS_ASSIGN_OR_RETURN(rx, net::TcpAccept(listener_, options.io_timeout_ms));
    INDAAS_ASSIGN_OR_RETURN(hello_frame,
                            net::ReadFrame(rx, options.limits, options.io_timeout_ms));
  }
  if (hello_frame.type != static_cast<uint8_t>(MsgType::kPsopHello)) {
    return ProtocolError("ring handshake: first frame was not a hello");
  }
  INDAAS_RETURN_IF_ERROR(check_extensions(hello_frame));
  INDAAS_ASSIGN_OR_RETURN(PsopHello peer_hello, DecodePsopHello(hello_frame.payload));
  if (peer_hello.ring_size != m || peer_hello.sender_index != predecessor) {
    return ProtocolError(StrFormat(
        "ring handshake mismatch: predecessor claims index %u of %u, expected %u of %zu",
        peer_hello.sender_index, peer_hello.ring_size, predecessor, m));
  }
  if (mode == RingMode::kExact && (peer_hello.group_bits != hello.group_bits ||
                                   peer_hello.hash_algorithm != hello.hash_algorithm)) {
    return ProtocolError("ring handshake mismatch: peers disagree on crypto parameters");
  }

  // Sends this party's message of one exchange while receiving the
  // predecessor's. `xseq` numbers the session's exchanges: ring rounds are
  // lockstep, so the same xseq on different peers is the same round, which
  // is what trace-merge uses to align per-peer clocks.
  size_t xseq = 0;
  auto exchange = [&](const RingMessage& out) -> Result<RingMessage> {
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
    const std::string out_bytes = EncodeRingFrame(out, session, geometry, ring);
    party.meter().AddBytesSent(out_bytes.size());
    INDAAS_ASSIGN_OR_RETURN(
        net::Frame frame,
        ExchangeFrames(tx, out_bytes, rx, options.limits, options.io_timeout_ms));
    party.meter().AddBytesReceived(frame.wire_bytes);
    INDAAS_RETURN_IF_ERROR(check_extensions(frame));
    return DecodeRingFrame(frame);
  };
  INDAAS_ASSIGN_OR_RETURN(RingMessage out, party.Start(dataset));
  for (;;) {
    INDAAS_ASSIGN_OR_RETURN(RingMessage in, exchange(out));
    INDAAS_ASSIGN_OR_RETURN(std::optional<RingMessage> next, party.Step(std::move(in)));
    if (!next) {
      break;
    }
    out = std::move(*next);
  }
  PsopResult result = party.Finish();
  result.party_stats = std::move(stats);
  obs::MetricsRegistry::Global()
      .GetCounter(mode == RingMode::kExact ? "pia.socket_sessions_total"
                                           : "pia.sketch_socket_sessions_total")
      ->Increment();
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

}  // namespace svc
}  // namespace indaas
