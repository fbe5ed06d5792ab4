// Scriptable, deterministic network fault injection (the adversarial test harness).
//
// A FaultPlan replaces the old single loss_rate knob of the network models with a composable
// description of network misbehaviour:
//
//  * plan-level uniform Bernoulli loss (the legacy knob);
//  * Gilbert-Elliott burst loss — a per-(src,dst) two-state Markov chain with a per-state loss
//    rate, producing correlated loss bursts instead of independent drops;
//  * FaultRules — per-message-type / per-message-class / per-(src,dst) drop, duplication, and
//    bounded extra delay (reordering), optionally gated to a window of matching messages so a
//    specific exchange ("the 3rd page reply from node 1 to node 0") can be targeted;
//  * transient node stalls — a receiver stops taking deliveries for a window; everything that
//    would have arrived inside the window arrives, in order, at its end (a GC pause / scheduling
//    hiccup analog).
//
// Determinism and topology stability: every probabilistic decision is drawn from an Rng keyed by
// hash(plan seed, src, dst, per-pair message ordinal, salt) — NOT from one sequentially consumed
// stream. Two runs with the same plan make identical decisions, and the decision for the Nth
// (src,dst) message does not change when unrelated traffic (or a node count change) reshuffles
// global message order. The FaultInjector is owned by the sim::Machine, which applies decisions
// on the delivery path; the NetworkModels are pure timing models.
#ifndef DFIL_SIM_FAULT_PLAN_H_
#define DFIL_SIM_FAULT_PLAN_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"

namespace dfil::sim {

// Transport-level class of a datagram, stamped by the Packet layer so fault rules can target
// e.g. only replies. Values match net::PacketEndpoint's wire header kinds.
enum class MsgClass : uint8_t {
  kUnknown = 0,  // sent below the Packet layer (raw Machine::Send in tests)
  kRequest = 1,
  kReply = 2,
  kRaw = 3,
  kAck = 4,
  // A coalesced multi-frame datagram (net::PacketEndpoint with config.coalesce on). Fault rules
  // matching on a specific class or service type never match packed datagrams — target them with
  // klass == kPacked, or use plan-level loss/burst/stalls, which apply to every delivery. A packed
  // datagram is one delivery unit: dropping it drops every frame inside (correlated loss).
  kPacked = 5,
};

// One match-and-act rule. All match fields are wildcards by default; `seq_from`/`seq_to` bound a
// half-open window over this rule's match ordinal (the Nth message matching the rule's filters,
// counted globally), which makes deterministic single-message scripts expressible. The action
// probabilities are evaluated independently per matching message.
struct FaultRule {
  // --- Match (defaults match everything) ---
  NodeId src = kNoNode;                      // kNoNode = any sender
  NodeId dst = kNoNode;                      // kNoNode = any receiver
  uint32_t type = kAnyMsgType;               // Datagram::type (a net::Service number)
  MsgClass klass = MsgClass::kUnknown;       // kUnknown = any class
  uint64_t seq_from = 0;                     // match-ordinal window [seq_from, seq_to)
  uint64_t seq_to = UINT64_MAX;

  // --- Actions (independent Bernoulli draws) ---
  double drop = 0.0;       // drop the message
  double duplicate = 0.0;  // deliver one extra copy (delayed by a sample of [delay_min, delay_max])
  double delay = 0.0;      // delay the original by a sample of [delay_min, delay_max]
  SimTime delay_min = 0;
  SimTime delay_max = 0;

  static constexpr uint32_t kAnyMsgType = UINT32_MAX;
};

// Gilbert-Elliott burst loss: per (src,dst) pair, a two-state chain advances one step per
// message; each state has its own loss rate. Disabled unless p_good_to_bad > 0.
struct BurstLoss {
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 1.0;
  double loss_good = 0.0;
  double loss_bad = 1.0;

  bool enabled() const { return p_good_to_bad > 0.0; }
};

// A transient receiver stall: node `node` takes no deliveries during [first + k*period,
// first + k*period + duration) for k = 0,1,... (one window only when period == 0). Deliveries
// falling inside a window are deferred to its end, preserving arrival order.
struct StallSpec {
  NodeId node = kNoNode;
  SimTime first = 0;
  SimTime period = 0;  // 0 = a single window
  SimTime duration = 0;
};

struct FaultPlan {
  // Seed for every probabilistic decision; 0 lets the owner (core::Cluster) derive one from the
  // run seed so `ClusterConfig::seed` alone still determines the whole run.
  uint64_t seed = 0;
  double loss_rate = 0.0;  // uniform per-delivery loss (the legacy knob)
  BurstLoss burst;
  std::vector<FaultRule> rules;
  std::vector<StallSpec> stalls;

  bool enabled() const {
    return loss_rate > 0.0 || burst.enabled() || !rules.empty() || !stalls.empty();
  }

  // True when the plan can make a frame vanish (uniform or burst loss, or a rule with a nonzero
  // drop probability). Raw broadcasts are then unsafe for anything that must arrive.
  bool CanDropFrames() const {
    if (loss_rate > 0.0 || burst.enabled()) {
      return true;
    }
    for (const FaultRule& rule : rules) {
      if (rule.drop > 0.0) {
        return true;
      }
    }
    return false;
  }

  static FaultPlan UniformLoss(double rate, uint64_t seed) {
    FaultPlan plan;
    plan.loss_rate = rate;
    plan.seed = seed;
    return plan;
  }
};

// What the injector decided for one delivery. `drop` kills the original (duplicates, if any,
// still deliver — a dropped-original-plus-surviving-duplicate is just a delayed delivery);
// `dup_delays` holds one extra-delay entry per duplicate copy to inject.
struct FaultDecision {
  bool drop = false;
  SimTime extra_delay = 0;
  std::vector<SimTime> dup_delays;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan = {});

  bool enabled() const { return enabled_; }
  const FaultPlan& plan() const { return plan_; }

  // Decides the fate of one delivery (one receiver of a send/broadcast). Advances the
  // per-(src,dst) ordinal and any burst-loss chain for the pair.
  FaultDecision Decide(NodeId src, NodeId dst, uint32_t type, MsgClass klass);

  // Applies receiver stalls: returns the (possibly deferred) delivery time at `dst`.
  SimTime AdjustForStall(NodeId dst, SimTime deliver_at) const;

 private:
  Rng StreamFor(NodeId src, NodeId dst, uint64_t seq, uint64_t salt) const;

  FaultPlan plan_;
  bool enabled_ = false;
  std::map<std::pair<NodeId, NodeId>, uint64_t> pair_seq_;
  std::map<std::pair<NodeId, NodeId>, bool> burst_bad_;
  std::vector<uint64_t> rule_matches_;  // per-rule match ordinals (for seq windows)
};

}  // namespace dfil::sim

#endif  // DFIL_SIM_FAULT_PLAN_H_
