#include "src/core/load_balancer.h"

#include <algorithm>

#include "src/common/check.h"

namespace dfil::core {

LoadBalancer::LoadBalancer(const LoadBalancerConfig& config, int nodes)
    : config_(config), nodes_(nodes) {
  DFIL_CHECK_GT(nodes_, 0);
}

std::optional<RebalancePlan> LoadBalancer::AtSyncPoint(uint64_t epoch,
                                                       const std::vector<LoadSample>& samples) {
  if (!config_.enabled || nodes_ < 2) {
    return std::nullopt;
  }
  DFIL_CHECK_EQ(samples.size(), static_cast<size_t>(nodes_))
      << "balancer needs every node's sample at epoch " << epoch;

  // Load spread: the epoch's run+serve ledger delta, i.e. the time each node spent computing
  // filaments and serving pages since the previous sync point. Raw barrier arrival would also
  // capture one-epoch transients — a fresh migration's re-home fetches delay the destination's
  // arrival by a full fault round-trip, which read as "the destination is now the slow node" and
  // locked the planner into bouncing the same pools back and forth. Those transients land in the
  // wait ledger, so run+serve sees only the steady load a migration is meant to fix. Ties break
  // to the lower node id so the decision is total-ordered.
  const auto load = [](const LoadSample& s) { return s.run + s.serve; };
  int slow = 0;
  int fast = 0;
  SimTime max_arrival = samples[0].arrival;
  for (int n = 1; n < nodes_; ++n) {
    if (load(samples[n]) > load(samples[slow])) {
      slow = n;
    }
    if (load(samples[n]) < load(samples[fast])) {
      fast = n;
    }
    max_arrival = std::max(max_arrival, samples[n].arrival);
  }
  // The epoch's wall span (last release to last arrival) normalizes the spread: a 10 ms skew
  // matters in a 40 ms epoch and is noise in a 4 s one.
  const SimTime span = max_arrival - prev_max_arrival_;
  prev_max_arrival_ = max_arrival;

  if (cooldown_ > 0) {
    // Sitting out: a fresh migration's page re-homing perturbs the next few epochs, so their
    // spread is not evidence (mirrors the diff adapter's calm-epoch hysteresis).
    --cooldown_;
    streak_ = 0;
    return std::nullopt;
  }
  if (span <= 0) {
    streak_ = 0;
    return std::nullopt;
  }
  const double ratio =
      static_cast<double>(load(samples[slow]) - load(samples[fast])) / static_cast<double>(span);
  if (ratio < config_.balance_trigger_ratio) {
    streak_ = 0;
    return std::nullopt;
  }
  if (++streak_ < config_.balance_patience_epochs) {
    return std::nullopt;
  }
  streak_ = 0;
  cooldown_ = config_.balance_cooldown_epochs;

  // Move work from the slowest node to its fastest *neighbor*: iterative programs place
  // adjacent strips on adjacent nodes, so a neighbor already shares boundary pages with the
  // migrated strips — re-homing stays cheap and the nearest-neighbor exchange pattern survives.
  int dst = kNoNode;
  if (slow > 0) {
    dst = slow - 1;
  }
  if (slow + 1 < nodes_) {
    if (dst == kNoNode || load(samples[slow + 1]) < load(samples[dst])) {
      dst = slow + 1;
    }
  }
  if (dst == kNoNode || load(samples[dst]) >= load(samples[slow])) {
    return std::nullopt;  // both neighbors are just as loaded; moving work would not help
  }
  // Anti-flap: a plan that exactly undoes the previous one means the last migration overshot —
  // pools move whole, and the receiving node may run the same filaments slower than the sender
  // did, so the residual spread can sit below the planner's one-pool resolution. Bouncing the
  // pool back would overshoot again, forever. Such a reversal needs twice the trigger evidence:
  // a real phase change clears that bar, a granularity echo does not.
  if (slow == last_dst_ && dst == last_src_ &&
      ratio < 2.0 * config_.balance_trigger_ratio) {
    return std::nullopt;
  }
  // Move quantum: the fraction of the slow node's work that closes half its gap to the chosen
  // destination, capped by the configured ceiling. Integer arithmetic throughout — the plan must
  // serialize exactly and replay identically.
  const SimTime gap = load(samples[slow]) - load(samples[dst]);
  const int64_t half_gap_ppm = gap * 500'000 / std::max<SimTime>(load(samples[slow]), 1);
  const auto cap_ppm = static_cast<int64_t>(config_.balance_move_fraction * 1'000'000.0);
  const auto fraction_ppm =
      static_cast<uint32_t>(std::clamp<int64_t>(half_gap_ppm, 1, std::max<int64_t>(cap_ppm, 1)));
  last_src_ = slow;
  last_dst_ = dst;
  return RebalancePlan{epoch, slow, dst, fraction_ppm};
}

}  // namespace dfil::core
