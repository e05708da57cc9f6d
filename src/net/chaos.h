// Deterministic fault injection for the socket and event-loop layers
// (DESIGN.md "Failure semantics & chaos testing").
//
// A FaultPlan is a seeded recipe of fault probabilities — connection resets,
// accept failures, read/write stalls, partial writes, delayed delivery,
// corrupted frame headers, per-direction byte caps — installed process-wide
// via InstallPlan (tests, `--chaos-plan`) or the INDAAS_CHAOS environment
// variable (picked up on first use by any binary that touches a socket).
// While a plan is installed, Socket::SendSome/RecvSome/WaitReadable/
// WaitWritable and TcpAccept consult the engine before touching the kernel,
// and EventLoop::Run consults it once per dispatch pass.
//
// Every decision is a pure function of (plan seed, connection sequence
// number, per-connection operation counter, fault class), so two runs that
// perform the same operations in the same per-connection order inject the
// same faults — replayable from the seed alone. Thread interleaving across
// *different* connections does not perturb any connection's own fault
// sequence once numbered, because every counter is per-connection. But
// connection sequence numbers are assigned in first-touch order, so when
// several threads open connections at once — the k peer threads of an
// in-process ring drill — which connection gets which number, and hence
// which faults, varies from run to run: such drills do not replay exactly.
//
// Fault classes and their observable effect:
//   reset          SendSome/RecvSome: shutdown(2) both directions, then
//                  kUnavailable — the peer sees ECONNRESET/EOF.
//   accept_fail    TcpAccept: the freshly accepted connection is closed
//                  immediately and the accept returns kUnavailable.
//   read_stall     RecvSome permanently returns 0 for this connection and
//                  WaitReadable sleeps out its timeout → kDeadlineExceeded.
//   write_stall    Same, for SendSome/WaitWritable.
//   partial_write  One SendSome is truncated to a deterministic prefix
//                  (≥1 byte), exercising short-write resumption everywhere.
//   delay          SendSome/RecvSome sleeps delay_ms before proceeding
//                  (delivery jitter); also injected into event-loop
//                  dispatch passes.
//   corrupt        One SendSome is truncated to at most kFrameHeaderBytes
//                  and a deterministic bit in that prefix is flipped. The
//                  receiver sees a corrupted frame header → kProtocolError
//                  (never payload corruption: the wire has no checksums, so
//                  flipping payload bytes could silently corrupt results —
//                  exactly the failure class audits must never produce).
//   send_cap /     After N bytes in that direction the connection behaves
//   recv_cap       as permanently stalled (slow-drain / half-open model).
//
// Injections are counted in net.chaos.* metrics and logged through SLOG as
// "net.chaos.inject" events carrying the fault class, connection sequence
// and operation number, so a failing chaos run can be replayed and the
// exact fault schedule recovered from the log.

#ifndef SRC_NET_CHAOS_H_
#define SRC_NET_CHAOS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/status.h"

namespace indaas {
namespace net {
namespace chaos {

// A seeded fault recipe. All probabilities are per-operation in [0, 1];
// 0 disables that fault class. Byte caps of 0 mean "uncapped".
struct FaultPlan {
  uint64_t seed = 1;
  double reset = 0.0;
  double accept_fail = 0.0;
  double read_stall = 0.0;
  double write_stall = 0.0;
  double partial_write = 0.0;
  double delay = 0.0;
  double corrupt = 0.0;
  uint64_t send_cap = 0;  // bytes per connection, send direction
  uint64_t recv_cap = 0;  // bytes per connection, recv direction
  uint32_t delay_ms = 5;  // sleep per injected delay
  // Upper bound on a single stall sleep: an infinite Wait* on a stalled
  // connection converts to kDeadlineExceeded after this long instead of
  // hanging (chaos must never introduce the very hang it exists to test).
  uint32_t max_stall_ms = 2000;

  // True when any fault class can fire.
  bool active() const {
    return reset > 0 || accept_fail > 0 || read_stall > 0 || write_stall > 0 ||
           partial_write > 0 || delay > 0 || corrupt > 0 || send_cap > 0 || recv_cap > 0;
  }
};

// Parses "seed=42,reset=0.01,read_stall=0.05,send_cap=4096,..." — comma- or
// whitespace-separated key=value pairs. Keys: seed, reset, accept_fail,
// read_stall, write_stall, partial_write, delay, corrupt, send_cap,
// recv_cap, delay_ms, max_stall_ms. Unknown keys and out-of-range
// probabilities are kInvalidArgument; an empty string is an inactive plan.
Result<FaultPlan> ParseFaultPlan(std::string_view text);

// Canonical text form (round-trips through ParseFaultPlan); used to log the
// installed plan so any run can be reproduced.
std::string FaultPlanToString(const FaultPlan& plan);

// True when an active plan is installed. One relaxed atomic load — the only
// cost chaos adds to production socket paths. The first call also consults
// INDAAS_CHAOS, so every binary honors the environment knob without
// plumbing.
bool Enabled();

// Installs `plan` process-wide (replacing any previous plan and resetting
// all per-connection state); an inactive plan is equivalent to Uninstall.
void InstallPlan(const FaultPlan& plan);

// Removes the installed plan and clears per-connection state.
void UninstallPlan();

// Currently installed plan (inactive when none).
FaultPlan InstalledPlan();

// --- Hooks, called by src/net/socket.cc and src/net/event_loop.cc. ---
// All are no-ops resolving in one branch when chaos is disabled; callers
// still guard with Enabled() to keep the hot path allocation-free.

// What a SendSome/RecvSome should do instead of (or before) its syscall.
struct IoDecision {
  // When !ok(), return this error (after the engine shut the socket down).
  Status fail;
  // When true, report no progress: *Some returns 0 and the matching Wait*
  // will convert the caller's poll into a bounded kDeadlineExceeded.
  bool stall = false;
  // Bytes of the caller's buffer to actually send (send path only);
  // SIZE_MAX = all of it.
  size_t send_len = SIZE_MAX;
  // When non-empty, send these bytes instead of the caller's prefix (the
  // corrupted-header injection). At most kFrameHeaderBytes long.
  std::string replace;
};

// Consulted at the top of Socket::SendSome / Socket::RecvSome. `len` is the
// caller's buffer size (send: bytes offered; recv: capacity).
IoDecision OnSend(int fd, std::string_view data);
IoDecision OnRecv(int fd, size_t capacity);

// Records post-syscall progress toward the per-direction byte caps.
void OnBytesMoved(int fd, bool send_direction, size_t n);

// Consulted by WaitReadable/WaitWritable before polling. Returns non-OK
// (kDeadlineExceeded, after sleeping min(timeout_ms, max_stall_ms)) when
// the connection's direction is stalled; OK to proceed with the real poll.
Status OnWait(int fd, bool for_read, int timeout_ms);

// Consulted by TcpAccept after a successful accept(2) of `fd`. Non-OK
// (kUnavailable) means the engine already arranged the failure; the caller
// returns the error (closing the socket).
Status OnAccept(int fd);

// Forgets per-connection state (fd numbers are recycled by the kernel).
void OnSocketClosed(int fd);

// Consulted once per EventLoop dispatch pass; may sleep delay_ms to model
// a scheduling hiccup on the loop thread.
void OnLoopPass();

}  // namespace chaos
}  // namespace net
}  // namespace indaas

#endif  // SRC_NET_CHAOS_H_
