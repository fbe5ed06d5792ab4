// Filament descriptors and pools (paper §2.1–2.2).
//
// A filament is a stackless thread: a code pointer plus a few argument words. It has no private
// stack and no guaranteed execution order relative to other filaments; server threads execute
// filaments one at a time. Pools group filaments that ideally reference the same pages, so that a
// fault suspends the whole pool and a different pool overlaps the communication.
#ifndef DFIL_CORE_FILAMENT_H_
#define DFIL_CORE_FILAMENT_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace dfil::core {

class NodeEnv;

// The body of an RTC or iterative filament. Receives the node environment and the descriptor's
// three argument words (typically array indices).
using FilamentFn = void (*)(NodeEnv&, int64_t, int64_t, int64_t);

// Typed handle for an execution pool on the local node, returned by NodeEnv::CreatePool.
// Replaces the raw `int` ids the API used to take: a default-constructed handle is invalid
// (parallel.h uses that to mean "adaptive — let the runtime cluster filaments"), and accidental
// pool-id arithmetic is impossible by construction.
struct PoolHandle {
  int id = -1;
  bool valid() const { return id >= 0; }
  friend bool operator==(PoolHandle a, PoolHandle b) { return a.id == b.id; }
  friend bool operator!=(PoolHandle a, PoolHandle b) { return a.id != b.id; }
};

struct Filament {
  FilamentFn fn;
  int64_t a0;
  int64_t a1;
  int64_t a2;
};
static_assert(sizeof(Filament) == 32, "filament descriptors are meant to stay lean");

// A contiguous run of filaments with the same code pointer and affine argument progression,
// discovered by run-time pattern recognition (paper §2.1). Executing a strip iterates directly,
// generating arguments "in registers" instead of traversing descriptors, which is what the
// cheaper inlined-switch cost models.
struct Strip {
  FilamentFn fn;
  int64_t a0, a1, a2;     // first filament's arguments
  int64_t d0, d1, d2;     // per-step argument deltas
  int64_t count;
};

// Minimum run length worth executing through the strip path.
inline constexpr int64_t kMinStripLength = 8;

struct Pool {
  explicit Pool(int id_in) : id(id_in) {}

  int id;
  std::vector<Filament> filaments;

  // Pattern-recognition cache: strips covering `filaments` in order (a filament no run extends
  // is a strip of count 1). Rebuilt lazily when `patterns_valid` is false (i.e., after new
  // filaments are added).
  std::vector<Strip> strips;
  bool patterns_valid = false;

  // Strip-aware prefetch hints (DESIGN.md §6): the pages this pool's filaments faulted on in
  // previous runs, with the refault period each page exhibited. Iterative programs commonly
  // alternate between two buffers (Jacobi swaps grids every sweep), so a pool's read footprint is
  // periodic rather than constant — replaying last run's footprint verbatim would prefetch the
  // idle buffer's pages every sweep. Instead each hint learns its period from the distance
  // between its last two demand faults and is issued only on runs matching that phase. Hints
  // persist across runs (a successful prefetch prevents the fault that would regenerate them) and
  // are dropped when the DSM reports the prefetched copy died untouched (footprint shifted).
  struct HintRecord {
    uint32_t page;
    int64_t last_fault_run;  // pool run index of this page's most recent demand fault
    int64_t period;          // run distance between its last two faults; 0 = not yet known
  };
  std::vector<HintRecord> hints;
  int64_t runs = 0;  // executions of this pool, the clock for hint periods

  // Adaptive pool assignment (the paper's future-work item "automatic clustering of filaments
  // that share pages into execution pools"): while true, the engine profiles which page each
  // filament first faults on during the sweep, then repartitions this pool's filaments into
  // per-page pools plus a non-faulting pool.
  bool auto_profile = false;
  std::vector<std::pair<int64_t, uint32_t>> fault_profile;  // (filament ordinal, page)

  // Last sweep's write footprint — the pages this pool's filaments wrote, recorded only while
  // the load balancer is on. When a rebalance plan migrates the pool, this is the page set the
  // destination re-homes so the next epoch faults locally instead of chasing ownership remotely.
  std::vector<uint32_t> write_pages;
};

}  // namespace dfil::core

#endif  // DFIL_CORE_FILAMENT_H_
