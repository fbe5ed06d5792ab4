// Per-pool profiling: cost attribution at the granularity adaptation decisions are made.
//
// A node's run time is split by pool structurally: the time ledger (common/ledger.h) gives every
// pool its own slot, so each pool's run time is a ledger view, and sum(pool run) + other run ==
// run holds by construction. This profiler keeps what the ledger does not — per-pool event
// counters — and tags each pool with a deterministic filament-function id so pools doing the same
// work can be rolled up across nodes and compared across runs (`dfil_report diff`).
//
// Attribution contract (DESIGN.md §14):
//   * run     — thread-context Charge time while the current server thread executes a pool (the
//               pool engine brackets ExecutePool with set_profile_pool): ledger slot 2+p. Time
//               run outside any pool (main thread, fork/join workers, reduction waiters) is the
//               ledger's other run.
//   * serve   — handler-context time is NOT attributed per pool: an interrupt handler serves the
//               cluster, not the pool it happens to preempt. It is emitted as the residual row
//               of the metrics "pools" section.
//   * blocked — thread-level blocked intervals of a pool's runner (overlapping across threads,
//               like the wait-state event ring); faults/filaments_run/migrated_in are event
//               counts.
//
// The profiler never charges time, sends messages, or branches the runtime on its own state.
#ifndef DFIL_COMMON_POOLPROF_H_
#define DFIL_COMMON_POOLPROF_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "src/common/types.h"

namespace dfil {

class PoolProfiler {
 public:
  struct Counters {
    SimTime blocked = 0;        // this pool's runner blocked (page fault, mostly)
    uint64_t faults = 0;        // pool suspensions on page faults
    uint64_t filaments_run = 0;
    uint64_t migrated_in = 0;   // filaments integrated from a kFilamentMigrate batch
    int fn = -1;                // id of the pool's first filament function (-1 = none yet)
  };

  // Deterministic id for a filament function: assigned in order of first registration on this
  // node. Raw function pointers are ASLR-unstable across processes, so ids — not addresses — are
  // what the metrics export and `dfil_report diff` key the cross-run rollup on. SPMD programs
  // register functions in the same order on every node, so ids agree cluster-wide.
  int FnIdOf(const void* fn) {
    const auto [it, inserted] = fn_ids_.try_emplace(fn, next_fn_id_);
    if (inserted) {
      ++next_fn_id_;
    }
    return it->second;
  }

  // Ties `pool` to its first filament's function (subsequent calls keep the first binding).
  void BindPoolFn(int pool, const void* fn) {
    Counters& c = At(pool);
    if (c.fn < 0) {
      c.fn = FnIdOf(fn);
    }
  }

  // pool < 0 = the thread is not a pool runner; nothing is attributed.
  void AddBlocked(int pool, SimTime t) {
    if (pool >= 0) {
      At(pool).blocked += t;
    }
  }
  void OnFault(int pool) { At(pool).faults++; }
  void OnFilamentsRun(int pool, uint64_t n) { At(pool).filaments_run += n; }
  void OnMigratedIn(int pool, uint64_t n) { At(pool).migrated_in += n; }

  // Pool `pool`'s counters; a pool nothing was attributed to reads as all-default.
  Counters counters(int pool) const {
    return static_cast<size_t>(pool) < pools_.size() ? pools_[static_cast<size_t>(pool)]
                                                     : Counters{};
  }

 private:
  Counters& At(int pool) {
    if (static_cast<size_t>(pool) >= pools_.size()) {
      pools_.resize(static_cast<size_t>(pool) + 1);
    }
    return pools_[static_cast<size_t>(pool)];
  }

  std::vector<Counters> pools_;          // indexed by pool id (dense, PoolEngine::CreatePool)
  std::map<const void*, int> fn_ids_;    // filament fn -> first-appearance id
  int next_fn_id_ = 0;
};

}  // namespace dfil

#endif  // DFIL_COMMON_POOLPROF_H_
