// Wait-state accounting: typed, cause-carrying records for every blocked interval.
//
// The Figure 10 breakdown answers "where did the time go" with six coarse buckets; the wait-state
// recorder answers the sharper question "what exactly was each node waiting FOR" — a page (which
// one), a barrier (which epoch), a service call (which service), an RTO (which peer). Every
// blocked interval becomes one WaitEvent {kind, detail, start, end}. A blocked thread carries its
// (WaitKind, detail) pair from the block site to the wake (ServerThread::set_block_reason), so no
// string is built or parsed on either path.
//
// The node's clock itself is partitioned into run / serve / wait by the time ledger
// (common/ledger.h); this recorder keeps only what the ledger does not: per-kind event counts and
// a fixed-capacity ring of the thread-level intervals, which overlap across threads.
//
// The recorder is allocation-free on the hot path and schedule-invariant: it never charges time,
// sends messages, or branches the runtime on its own state. The ring doubles as the *flight
// recorder*: the last kRingCapacity wait events per node, dumped by the fuzz driver when the
// coherence oracle flags a violation or a replay fails.
#ifndef DFIL_COMMON_WAITSTATE_H_
#define DFIL_COMMON_WAITSTATE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace dfil {

// Why a thread (or the node's scheduler) was waiting. Every kind but kRetransmit is a block reason
// the runtime sets before BlockCurrent; kRetransmit is an RTO stall observed by the transport, and
// kIdle also covers a scheduler gap no wake ever claimed (e.g. the quiet tail after main finishes).
enum class WaitKind : uint8_t {
  kPageFault = 0,  // filament blocked on a page fault; detail = page id
  kFetchDrain,     // sync-point drain of outstanding fetches / diff merges
  kBarrier,        // reduction arrival-to-release; detail = barrier epoch
  kCall,           // blocking service call; detail = service number
  kChannel,        // explicit-message receive (CG programs)
  kJoin,           // fork/join: join wait, worker winddown, fj idle
  kSweep,          // pool engine waiting for a sweep to finish
  kRetransmit,     // request hit its RTO and was retransmitted; detail = service number
  kIdle,           // unclaimed scheduler gap
  kNumKinds,
};
inline constexpr size_t kNumWaitKinds = static_cast<size_t>(WaitKind::kNumKinds);

constexpr const char* WaitKindName(WaitKind k) {
  switch (k) {
    case WaitKind::kPageFault:
      return "page_fault";
    case WaitKind::kFetchDrain:
      return "fetch_drain";
    case WaitKind::kBarrier:
      return "barrier";
    case WaitKind::kCall:
      return "call";
    case WaitKind::kChannel:
      return "channel";
    case WaitKind::kJoin:
      return "join";
    case WaitKind::kSweep:
      return "sweep";
    case WaitKind::kRetransmit:
      return "retransmit";
    case WaitKind::kIdle:
      return "idle";
    case WaitKind::kNumKinds:
      break;
  }
  return "?";
}

// One blocked interval. `detail` is kind-specific (page id, epoch, service number, peer); 0 when
// the kind carries no cause. kRetransmit events span [first send, RTO expiry] — the stall the
// timeout ended — and may overlap thread-level waits of the exchange that stalled.
struct WaitEvent {
  WaitKind kind = WaitKind::kIdle;
  uint64_t detail = 0;
  SimTime start = 0;
  SimTime end = 0;

  SimTime duration() const { return end - start; }
};

// Per-node recorder. All methods are O(1) and allocation-free; RecentEvents() (dump time only)
// allocates its result.
class WaitStateRecorder {
 public:
  static constexpr size_t kRingCapacity = 256;

  void Record(WaitKind kind, uint64_t detail, SimTime start, SimTime end) {
    counts_[static_cast<size_t>(kind)]++;
    ring_[seen_ % kRingCapacity] = WaitEvent{kind, detail, start, end};
    seen_++;
  }

  uint64_t event_count(WaitKind kind) const { return counts_[static_cast<size_t>(kind)]; }
  uint64_t events_seen() const { return seen_; }

  // The flight-recorder window: the last min(seen, kRingCapacity) events, oldest first.
  std::vector<WaitEvent> RecentEvents() const {
    std::vector<WaitEvent> out;
    const uint64_t n = seen_ < kRingCapacity ? seen_ : kRingCapacity;
    out.reserve(n);
    for (uint64_t i = seen_ - n; i < seen_; ++i) {
      out.push_back(ring_[i % kRingCapacity]);
    }
    return out;
  }

 private:
  std::array<uint64_t, kNumWaitKinds> counts_{};
  uint64_t seen_ = 0;
  std::array<WaitEvent, kRingCapacity> ring_{};
};

}  // namespace dfil

#endif  // DFIL_COMMON_WAITSTATE_H_
