// The per-node time ledger: every advance of a node's virtual clock writes exactly one entry.
//
//   Charge in handler context        -> cell (kHandlerSlot, category)
//   Charge on a server thread        -> cell (SlotOf(the thread's pool), category)
//   scheduler gap closed by a wake   -> gap[the woken thread's WaitKind]
//   gap no wake closed (end of run)  -> the unclassified tail
//
// Figure 10, run/serve/wait and per-pool run are views summed from those entries (DESIGN.md §12),
// so run + serve + wait == total() == the final clock and sum(pool run) + other run == run hold
// by construction. Figure 10 leaves the tail out: it counts charged or wake-classified time only.
#ifndef DFIL_COMMON_LEDGER_H_
#define DFIL_COMMON_LEDGER_H_

#include <array>
#include <cstddef>
#include <vector>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/common/waitstate.h"

namespace dfil {

// Figure 10's category for a scheduler gap, by why the thread whose wake closed it was waiting.
inline constexpr std::array<TimeCategory, kNumWaitKinds> kGapCategory = {
    TimeCategory::kDataTransfer,  // kPageFault
    TimeCategory::kSyncDelay,     // kFetchDrain
    TimeCategory::kSyncDelay,     // kBarrier
    TimeCategory::kSyncDelay,     // kCall
    TimeCategory::kDataTransfer,  // kChannel
    TimeCategory::kSyncDelay,     // kJoin
    TimeCategory::kSyncDelay,     // kSweep
    TimeCategory::kIdle,          // kRetransmit
    TimeCategory::kIdle,          // kIdle
};
// A missing entry would zero-fill as kWork; the last entry catches that.
static_assert(kGapCategory[static_cast<size_t>(WaitKind::kIdle)] == TimeCategory::kIdle);

constexpr TimeCategory GapCategory(WaitKind k) { return kGapCategory[static_cast<size_t>(k)]; }

class TimeLedger {
 public:
  static constexpr int kHandlerSlot = 0;  // interrupt-handler context: the serve view
  static constexpr int kOtherSlot = 1;    // a server thread outside any pool
  // The slot of a thread-context charge: 2 + pool, so pool -1 (no pool) is kOtherSlot.
  static constexpr int SlotOf(int pool) { return pool + 2; }

  TimeLedger() : cells_(SlotOf(0)) {}

  // Opens pool `pool`'s slot. Pool ids are dense (PoolEngine::CreatePool), so this appends.
  void AddPool(int pool) {
    DFIL_CHECK_EQ(static_cast<size_t>(SlotOf(pool)), cells_.size());
    cells_.emplace_back();
  }

  // --- The write path ---
  void Charge(int slot, TimeCategory c, SimTime t) {
    DFIL_DCHECK(static_cast<size_t>(slot) < cells_.size());
    cells_[static_cast<size_t>(slot)][static_cast<size_t>(c)] += t;
  }
  void Gap(WaitKind kind, SimTime t) { gaps_[static_cast<size_t>(kind)] += t; }
  void Tail(SimTime t) { tail_ += t; }

  // --- Views ---
  SimTime charged(TimeCategory c) const {
    SimTime total = 0;
    for (const auto& slot : cells_) {
      total += slot[static_cast<size_t>(c)];
    }
    return total;
  }
  SimTime figure10(TimeCategory c) const {
    SimTime total = charged(c);
    for (size_t k = 0; k < kNumWaitKinds; ++k) {
      total += kGapCategory[k] == c ? gaps_[k] : 0;
    }
    return total;
  }
  SimTime figure10_total() const { return total() - tail_; }
  SimTime unclassified_tail() const { return tail_; }

  SimTime serve_time() const { return Slots(kHandlerSlot, kOtherSlot); }
  SimTime run_time() const { return Slots(kOtherSlot, cells_.size()); }
  SimTime wait_time(WaitKind kind) const {
    return gaps_[static_cast<size_t>(kind)] + (kind == WaitKind::kIdle ? tail_ : 0);
  }
  SimTime wait_time() const {
    SimTime total = tail_;
    for (const SimTime t : gaps_) {
      total += t;
    }
    return total;
  }
  SimTime total() const { return run_time() + serve_time() + wait_time(); }

  int num_pools() const { return static_cast<int>(cells_.size()) - SlotOf(0); }
  SimTime pool_run(int pool) const { return Slots(SlotOf(pool), SlotOf(pool) + 1); }
  SimTime other_run() const { return Slots(kOtherSlot, SlotOf(0)); }

 private:
  // Every cell of slots [first, last), clipped to the open slots.
  SimTime Slots(size_t first, size_t last) const {
    SimTime total = 0;
    for (size_t s = first; s < last && s < cells_.size(); ++s) {
      for (const SimTime t : cells_[s]) {
        total += t;
      }
    }
    return total;
  }

  std::vector<std::array<SimTime, kNumTimeCategories>> cells_;  // [slot][category]
  std::array<SimTime, kNumWaitKinds> gaps_{};
  SimTime tail_ = 0;
};

}  // namespace dfil

#endif  // DFIL_COMMON_LEDGER_H_
