// Single-writer seqlock ring shared by the flight recorder and the sampling
// profiler (DESIGN.md §6, §11).
//
// A ring of kCapacity fixed-size slots plus a `head` counter holding the
// next sequence number to write; entry `seq` lives in slot seq % kCapacity.
// Slots must be made only of std::atomic words so concurrent reads are
// well-defined (readers may see a mix of old and new words, never UB); the
// protocol below detects and drops those mixed copies.
//
// Writer (Append): one thread per ring, possibly from a signal handler.
//   load head (relaxed) → release fence → relaxed slot stores → release
//   store head = seq + 1.
// Reader (ReadFrom): any thread, possibly from a signal handler.
//   acquire head → for each surviving entry: relaxed slot loads → acquire
//   fence → relaxed head recheck; the copy is kept only while
//   head < seq + kCapacity.
//
// The fence pair is the standard seqlock ordering (Boehm, "Can seqlocks get
// along with programming language memory models?", MSPC 2012): if any slot
// load saw a word of the overwrite of entry `seq` (that is, entry
// seq + kCapacity), the writer's release fence synchronizes with the
// reader's acquire fence, so the recheck sees head >= seq + kCapacity — the
// head store that preceded the overwrite. The recheck must be `>=`: head
// reaches seq + kCapacity before the overwrite's first word store, so at
// equality the overwrite may already be in flight. So a full ring yields
// kCapacity - 1 entries: its oldest is always the next one to go. Both
// fences compile to nothing on x86.
//
// Everything is header-only, allocation-free and lock-free, so both sides
// are async-signal-safe and Append inlines into its callers' hot paths.

#ifndef SRC_OBS_SEQLOCK_RING_H_
#define SRC_OBS_SEQLOCK_RING_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace indaas {
namespace obs {

template <typename Slot, size_t kCapacity>
class SeqlockRing {
 public:
  static_assert(kCapacity > 0, "SeqlockRing needs at least one slot");

  // Writes the next entry: `fill(Slot&)` stores the slot's words (relaxed).
  // Single writer per ring, so head needs no read-modify-write.
  template <typename Fill>
  void Append(Fill&& fill) {
    const uint64_t seq = head_.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    fill(slots_[seq % kCapacity]);
    head_.store(seq + 1, std::memory_order_release);
  }

  // Next sequence number to write (= entries ever appended).
  uint64_t head() const { return head_.load(std::memory_order_acquire); }

  // Reads every entry in [from, head) still held by the ring, oldest first.
  // `copy(const Slot&)` copies one slot out with relaxed loads and returns
  // the copy; `emit(copy)` receives each copy that survived the lap check.
  // Entries overwritten before or during their copy are skipped and counted
  // in *lost (when non-null). Returns the head observed at entry: pass it
  // back as `from` to resume after the entries just read.
  template <typename Copy, typename Emit>
  uint64_t ReadFrom(uint64_t from, Copy&& copy, Emit&& emit, uint64_t* lost = nullptr) const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    uint64_t seq = head - from > kCapacity ? head - kCapacity : from;
    uint64_t skipped = seq - from;
    for (; seq < head; ++seq) {
      auto value = copy(slots_[seq % kCapacity]);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (head_.load(std::memory_order_relaxed) >= seq + kCapacity) {
        ++skipped;
        continue;
      }
      emit(value);
    }
    if (lost != nullptr) *lost += skipped;
    return head;
  }

 private:
  std::array<Slot, kCapacity> slots_{};
  std::atomic<uint64_t> head_{0};
};

}  // namespace obs
}  // namespace indaas

#endif  // SRC_OBS_SEQLOCK_RING_H_
