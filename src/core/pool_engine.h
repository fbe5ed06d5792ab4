// PoolEngine: executes RTC and iterative filaments through pools (paper §2.2).
//
// A sweep runs every pool's filaments exactly once. Pools are executed by server threads; when a
// filament faults, its whole pool is suspended with the faulting thread and a fresh server thread
// starts on the next pool, overlapping the page fetch with useful computation. For iterative
// programs the engine frontloads faults: pools are run in the reverse order of the previous
// sweep's completion (a pool that faulted finishes late, so it runs first next time), and threads
// enabled by a page arrival are placed at the tail of the ready queue.
//
// Before executing, a pool's filament list is pattern-matched into contiguous strips (same code
// pointer, affine argument steps). Strips execute through a tight loop that generates arguments
// directly — the paper's run-time pattern recognition — at the cheaper inlined-switch cost.
#ifndef DFIL_CORE_POOL_ENGINE_H_
#define DFIL_CORE_POOL_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/core/filament.h"
#include "src/threads/server_thread.h"

namespace dfil::core {

class NodeRuntime;

class PoolEngine {
 public:
  explicit PoolEngine(NodeRuntime* rt) : rt_(rt) {}

  int CreatePool();
  int num_pools() const { return static_cast<int>(pools_.size()); }
  void AddFilament(int pool, FilamentFn fn, int64_t a0, int64_t a1, int64_t a2);

  // Adaptive pool assignment (paper §2.2 future work): filaments added here start in one
  // profiling pool; after the first sweep they are re-clustered into one pool per first-faulted
  // page plus a pool of non-faulting filaments, restoring communication/computation overlap
  // without any manual pool choice.
  void AddAutoFilament(FilamentFn fn, int64_t a0, int64_t a1, int64_t a2);

  // Runs one sweep over all pools; blocks the calling (main) thread until every filament ran.
  void RunSweep();

  // Runs sweeps until `after_iteration` returns false. `after_iteration` executes on the calling
  // thread after each sweep and must contain the iteration's synchronization point.
  void RunIterative(const std::function<bool(int iter)>& after_iteration);

  // Runtime hook: the current server thread is about to suspend on a page fault.
  void OnThreadBlockedOnPage(PageId page);

  // --- Load-balancer hooks (DESIGN.md §13; all inert while the balancer is off) ---

  // A rebalance plan named this node as source: extracts whole pools in id order — skipping
  // auto-profile pools and always leaving at least one populated pool behind — until at least
  // `fraction` of this node's filaments moved. Returns the filaments plus the union of the moved
  // pools' last-sweep write footprints. Deterministic; returns an empty batch rather than
  // stripping the node bare.
  struct MigrationBatch {
    std::vector<Filament> filaments;
    std::vector<uint32_t> pages;
  };
  MigrationBatch ExtractMigration(double fraction);

  // The done broadcast named this node as a migration target: the next RunSweep blocks at entry
  // until the matching kFilamentMigrate batch has been integrated.
  void ExpectMigration() { ++expected_migrations_; }
  // A migration batch arrived (possibly empty); integrated at the next RunSweep entry.
  void AcceptMigration(std::vector<Filament> filaments);

  // Records one page of the current runner's pool write footprint (called from NodeEnv on write
  // accesses while the balancer is on; O(1) via last-page dedupe).
  void NoteWriteAccess(uint32_t page);

 private:
  void RunnerLoop();
  void ExecutePool(Pool* pool);
  // prefetch_hints mode: prune + re-issue the pool's fault footprint as bulk prefetches.
  void IssuePrefetchHints(Pool* pool);
  static void BuildPatterns(Pool* pool);
  void EnsureRunnerForRemainingPools();
  // Splits profiled auto pools into per-page pools after the sweep.
  void RepartitionAutoPools();
  // Sweep-entry migration barrier: integrates arrived batches, blocks ("migrate") on in-flight
  // ones, so no sweep runs while migrated filaments are between nodes.
  void WaitForMigrations();

  NodeRuntime* rt_;
  std::vector<std::unique_ptr<Pool>> pools_;

  // Sweep state.
  bool sweep_active_ = false;
  std::vector<Pool*> order_;
  size_t next_pool_ = 0;
  int pools_remaining_ = 0;
  std::vector<Pool*> finish_stack_;  // completion order; reversed, it frontloads the next sweep
  threads::ServerThread* sweep_waiter_ = nullptr;
  int spare_runners_ = 0;  // spawned runners that have not picked a pool yet
  struct RunnerPosition {
    Pool* pool = nullptr;
    int64_t ordinal = 0;  // index of the filament currently executing (profiling key)
  };
  std::map<threads::ServerThread*, RunnerPosition> running_pool_;
  int auto_pool_ = -1;
  std::map<uint32_t, int> auto_page_pools_;  // faulted page -> pool id

  // Migration state (balancer only).
  int expected_migrations_ = 0;  // plans that named this node destination
  int applied_migrations_ = 0;   // batches integrated into pools
  std::deque<std::vector<Filament>> arrived_migrations_;
  threads::ServerThread* migrate_waiter_ = nullptr;
};

}  // namespace dfil::core

#endif  // DFIL_CORE_POOL_ENGINE_H_
