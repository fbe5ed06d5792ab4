// Epoch-driven load balancing for iterative programs (DESIGN.md §13).
//
// The paper balances fork/join work with stealing but leaves iterative filaments on a static
// block distribution, so one slow node drags every barrier. PR 8's wait-state ledgers already
// measure exactly that — the last arriver's barrier_wait_us is everyone else's idle time — and
// this module closes the loop from measurement to placement: each node's per-epoch
// (arrival, run, wait, serve) sample rides its reduce-up message, the barrier champion feeds the
// aggregated picture into a LoadBalancer, and a persistent imbalance (hysteresis mirroring the
// diff adapter's adapt_* knobs) yields a RebalancePlan broadcast with the barrier done message.
// Every node applies the same plan at the same sync point, so decisions are schedule-
// deterministic from (config, seed) alone and fuzz replay keeps working.
//
// The planner itself is pure and single-threaded: it sees identical inputs on every run and
// holds only integer/ratio hysteresis state, never wall-clock or RNG state.
#ifndef DFIL_CORE_LOAD_BALANCER_H_
#define DFIL_CORE_LOAD_BALANCER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/types.h"

namespace dfil::core {

// Knobs follow the diff adapter's style (dsm::DsmConfig::adapt_*): a trigger threshold, a
// patience count before acting, and a calm/cooldown count before acting again.
struct LoadBalancerConfig {
  bool enabled = false;
  // An epoch counts as imbalanced when the load spread (the heaviest node's run+serve ledger
  // delta minus the lightest's) exceeds this fraction of the epoch's span.
  double balance_trigger_ratio = 0.15;
  // Consecutive imbalanced epochs before a plan is emitted (one-epoch noise never migrates).
  int balance_patience_epochs = 3;
  // Epochs to sit out after a migration, letting re-homed pages settle before re-measuring.
  int balance_cooldown_epochs = 4;
  // Fraction of the slow node's iterative filaments to move per plan (whole pools; see
  // PoolEngine::ExtractMigration).
  double balance_move_fraction = 0.25;
  // Re-home the migrated strips' backing pages to the target node so the next epoch faults
  // locally instead of chasing ownership across the wire.
  bool balance_rehome_pages = true;
};

// One node's contribution to an epoch's load picture, piggybacked on its reduce-up message.
// All fields are virtual-time integers, so aggregation is exact and replay-stable.
struct LoadSample {
  int32_t node = 0;
  SimTime arrival = 0;  // virtual clock at barrier entry this epoch
  SimTime run = 0;      // wait-state ledger deltas since the previous sync point
  SimTime wait = 0;
  SimTime serve = 0;
};

// A decision: move work from `src` to `dst`, tagged with the epoch whose done broadcast carries
// it (receivers apply it exactly once, keyed by epoch). `fraction_ppm` is the move quantum the
// champion computed from the ledgers — the fraction of src's filaments (parts per million)
// closing half the measured load gap. Shipping the gap itself would swap the imbalance to the
// destination and the next plan would bounce it straight back; half the gap meets in the middle.
// Integer ppm keeps the wire encoding and the replay exact.
struct RebalancePlan {
  uint64_t epoch = 0;
  int32_t src = kNoNode;
  int32_t dst = kNoNode;
  uint32_t fraction_ppm = 0;
};

class LoadBalancer {
 public:
  LoadBalancer(const LoadBalancerConfig& config, int nodes);

  // Champion-side decision point, called once per epoch with all `nodes` samples (sorted by
  // node id, one per node). Returns a plan when a persistent imbalance crossed the hysteresis,
  // otherwise nullopt. Deterministic: same sample sequence, same decisions.
  std::optional<RebalancePlan> AtSyncPoint(uint64_t epoch,
                                           const std::vector<LoadSample>& samples);

 private:
  LoadBalancerConfig config_;
  int nodes_;
  int streak_ = 0;    // consecutive imbalanced epochs
  int cooldown_ = 0;  // epochs left to sit out after a plan
  SimTime prev_max_arrival_ = 0;  // previous epoch's release anchor (spans epochs)
  int last_src_ = kNoNode;  // previous plan's endpoints (anti-flap reversal guard)
  int last_dst_ = kNoNode;
};

}  // namespace dfil::core

#endif  // DFIL_CORE_LOAD_BALANCER_H_
