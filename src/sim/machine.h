// The cluster: N simulated workstations plus a network, executed in virtual time.
//
// Execution model (DESIGN.md §2): each node has its own virtual clock, advanced by explicit
// charges from the cost model. The Machine repeatedly resumes the runnable node with the smallest
// clock; a running node yields back whenever its clock would pass the next pending external event
// (a datagram delivery or timer), so messages interrupt computation at exact virtual times — the
// simulated analog of SunOS delivering SIGIO mid-computation. Event dispatch at equal times is
// FIFO, so runs are fully deterministic.
#ifndef DFIL_SIM_MACHINE_H_
#define DFIL_SIM_MACHINE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/common/types.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/fault_plan.h"
#include "src/sim/network.h"

namespace dfil::sim {

inline constexpr NodeId kBroadcastDst = -2;

// A raw (unreliable, UDP-like) datagram. `type` is an upper-layer tag the simulator does not
// interpret; the payload is opaque bytes. `klass` is the transport class stamped by the Packet
// layer (request/reply/raw/ack) so fault rules can target e.g. only replies.
struct Datagram {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  uint32_t type = 0;
  MsgClass klass = MsgClass::kUnknown;
  // Causal trace id stamped by the Packet layer (0 = none); lets fault-injection instants name
  // the flow they perturbed.
  uint64_t trace = 0;
  std::vector<std::byte> payload;
};

// Per-node execution engine, implemented by the runtime layer (src/core). The Machine calls these
// from its own (host) stack; OnDatagram and timer callbacks must not block or switch contexts.
class NodeHost {
 public:
  virtual ~NodeHost() = default;

  virtual NodeId id() const = 0;
  virtual SimTime Clock() const = 0;

  // True when the node has a ready server thread to run.
  virtual bool Runnable() const = 0;

  // True when the node's main program has finished.
  virtual bool Done() const = 0;

  // Resumes execution. Returns when the node blocks (no ready thread) or when its clock reaches
  // the machine's next external event time.
  virtual void Step() = 0;

  // Moves the node clock forward to at least `t` (used for deliveries to idle nodes). Must not
  // move the clock backwards.
  virtual void AdvanceTo(SimTime t) = 0;

  // Asynchronous message-arrival handler (the SIGIO analog). Charges receive overhead to this
  // node's clock, then dispatches; never blocks.
  virtual void OnDatagram(Datagram d) = 0;

  // Human-readable description of why the node is blocked, for deadlock reports.
  virtual std::string DescribeBlocked() const = 0;
};

struct RunResult {
  bool completed = false;  // all hosts Done
  bool deadlocked = false;
  SimTime makespan = 0;  // max node clock at termination
  std::string deadlock_report;
  uint64_t events_dispatched = 0;
};

class Machine {
 public:
  // `fault_plan` drives the adversarial fault injection applied on the delivery path (drop,
  // duplication, extra delay, receiver stalls); the default plan injects nothing.
  Machine(std::unique_ptr<NetworkModel> network, const CostModel& costs,
          FaultPlan fault_plan = {})
      : network_(std::move(network)), costs_(costs), injector_(std::move(fault_plan)) {}

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Registers a host. Hosts must be added in NodeId order, ids dense from 0.
  void AddHost(NodeHost* host);

  const CostModel& costs() const { return costs_; }
  NetworkModel& network() { return *network_; }
  int num_nodes() const { return static_cast<int>(hosts_.size()); }
  MessageStats& net_stats() { return net_stats_; }

  const FaultInjector& injector() const { return injector_; }

  // Optional: when set, every fault-injection decision (drop/dup/delay/stall) emits a trace
  // instant on the victim node's injection track, so injected faults are visible in the same
  // Perfetto timeline they perturb. May be null (tracing off).
  void SetTrace(TraceRecorder* trace) { trace_ = trace; }

  // Dedicated tid for injection instants (keeps them off the server-thread span tracks).
  static constexpr uint64_t kInjectionTid = 1000000;

  // Recent fault-injection decisions, kept in a fixed ring independent of tracing so flight
  // recorder dumps (fuzz failures replayed without a trace) still carry the adversary's last
  // moves. `what` points at a string literal.
  struct InjectionNote {
    const char* what = "";
    MsgClass klass = MsgClass::kRaw;
    uint32_t type = 0;
    NodeId src = 0;
    NodeId dst = 0;
    SimTime at = 0;
  };
  static constexpr size_t kInjectionLogCapacity = 256;
  // Oldest first, at most kInjectionLogCapacity entries.
  std::vector<InjectionNote> RecentInjections() const {
    std::vector<InjectionNote> out;
    const uint64_t n = injections_seen_ < kInjectionLogCapacity ? injections_seen_
                                                                : kInjectionLogCapacity;
    out.reserve(n);
    for (uint64_t i = injections_seen_ - n; i < injections_seen_; ++i) {
      out.push_back(injection_log_[i % kInjectionLogCapacity]);
    }
    return out;
  }

  // Hands a datagram to the network at time `ready` (normally the sender's current clock, after
  // it charged send overhead). Lost datagrams count in net_stats but are never delivered.
  void Send(Datagram d, SimTime ready);

  // Broadcasts to every other node. On SharedEthernet this is a single transmission.
  void Broadcast(Datagram d, SimTime ready);

  // Schedules `fn` to run on `node` at virtual time `at` (a SIGALRM analog: the host clock is
  // advanced to `at` and charged timer overhead before `fn` runs).
  EventHandle ScheduleTimer(NodeId node, SimTime at, std::function<void()> fn);

  // Earliest pending external event; running nodes yield when their clock reaches this.
  SimTime NextExternalTime() const { return events_.NextTime(); }

  // Conservative causality horizon for `self`: no other runnable node can affect `self` (or the
  // network) before its own clock plus the lookahead — the minimum CPU cost of initiating any
  // action (a message send). A charging node must not advance past min(next event, horizon), or
  // it would act "in the past" of its peers.
  SimTime CausalHorizon(NodeId self) const {
    SimTime min_other = kSimTimeNever;
    for (const NodeHost* host : hosts_) {
      if (host->id() != self && host->Runnable() && host->Clock() < min_other) {
        min_other = host->Clock();
      }
    }
    return HorizonAfter(min_other);
  }

  // The limit a node running on behalf of `self` may charge up to before yielding. The horizon
  // of the node being stepped is computed once per step by Run: while its fiber runs no other
  // host's clock or runnable state can change (only event dispatch and other hosts' steps change
  // them, both in Run), and every yield returns to Run, which recomputes it on resume. Any other
  // caller gets a fresh scan. The event head is re-read on every call: the node's own sends can
  // move it earlier.
  SimTime ChargeLimit(NodeId self) {
    SimTime hz;
    if (self == stepping_) {
      hz = step_horizon_;
      DFIL_DCHECK(hz == CausalHorizon(self));
    } else {
      ++horizon_scans_;
      hz = CausalHorizon(self);
    }
    const SimTime ev = NextExternalTime();
    return ev < hz ? ev : hz;
  }

  // Deterministic host-work proxies (read by tests, exported nowhere): causal horizons computed
  // by scanning the hosts (one per step, plus one per ChargeLimit call outside a step), and the
  // number of node steps.
  uint64_t horizon_scans() const { return horizon_scans_; }
  uint64_t node_steps() const { return node_steps_; }

  // Runs until every host is Done, or no progress is possible (deadlock), or `max_virtual_time`
  // is exceeded (a runaway guard; kSimTimeNever disables it).
  RunResult Run(SimTime max_virtual_time = kSimTimeNever);

 private:
  // The causal horizon given the smallest clock among the other runnable hosts.
  SimTime HorizonAfter(SimTime min_other) const {
    return min_other == kSimTimeNever ? kSimTimeNever : min_other + lookahead_;
  }
  // Applies the fault plan (drop/duplicate/delay/stall) to one planned delivery.
  void InjectAndDeliver(Datagram d, SimTime at);
  void Deliver(NodeId dst, Datagram d, SimTime at);
  std::string BuildDeadlockReport() const;

  // Logs the decision to the injection ring, and emits an injection instant on
  // (node, kInjectionTid) at `at` when tracing is on.
  void InjectionInstant(const Datagram& d, const char* what, SimTime at);

  std::unique_ptr<NetworkModel> network_;
  CostModel costs_;
  FaultInjector injector_;
  TraceRecorder* trace_ = nullptr;
  std::vector<NodeHost*> hosts_;
  EventQueue events_;
  MessageStats net_stats_;
  SimTime lookahead_ = Microseconds(200.0);
  uint64_t events_dispatched_ = 0;
  // The host Run is stepping (kNoNode between steps) and its causal horizon.
  NodeId stepping_ = kNoNode;
  SimTime step_horizon_ = kSimTimeNever;
  uint64_t horizon_scans_ = 0;
  uint64_t node_steps_ = 0;
  std::array<InjectionNote, kInjectionLogCapacity> injection_log_{};
  uint64_t injections_seen_ = 0;
};

}  // namespace dfil::sim

#endif  // DFIL_SIM_MACHINE_H_
