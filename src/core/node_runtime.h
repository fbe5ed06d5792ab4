// NodeRuntime: one simulated workstation running the Distributed Filaments kernel.
//
// Implements sim::NodeHost (what the machine asks of a node) and NodeUpcalls (what the node's
// Packet endpoint, DSM and tracer ask of the runtime). Owns the node's server threads and their
// (non-preemptive, SR-style) scheduler, the Packet endpoint, the DSM node, the pool engine
// (RTC/iterative filaments), the fork/join engine, the tournament-reduction engine, and the
// explicit-message channels used by the coarse-grain comparison programs.
//
// Scheduling contract: the Machine resumes this node via Step(), which switches into a server
// thread; the thread gives the processor back when it blocks, finishes, or — mid-charge — when a
// pending external event (message/timer) must be dispatched, in which case it is resumed first
// afterwards (interrupt semantics: handlers run "under" the interrupted thread, which then
// continues; no reschedule happens on an interrupt, the scheduler is non-preemptive).
#ifndef DFIL_CORE_NODE_RUNTIME_H_
#define DFIL_CORE_NODE_RUNTIME_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <tuple>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/intrusive_list.h"
#include "src/common/ledger.h"
#include "src/common/metrics.h"
#include "src/common/poolprof.h"
#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/common/types.h"
#include "src/common/upcalls.h"
#include "src/common/waitstate.h"
#include "src/core/config.h"
#include "src/core/node_env.h"
#include "src/dsm/dsm_node.h"
#include "src/net/packet.h"
#include "src/sim/machine.h"
#include "src/threads/server_thread.h"

namespace dfil::core {

class PoolEngine;
class FjEngine;

class NodeRuntime final : public sim::NodeHost, public NodeUpcalls {
 public:
  NodeRuntime(NodeId id, const ClusterConfig& config, sim::Machine* machine,
              const dsm::GlobalLayout* layout);
  ~NodeRuntime() override;

  // Installs the node's main program; it runs as the first server thread.
  void SetMain(std::function<void()> body);

  // --- sim::NodeHost (Clock() also serves NodeUpcalls) ---
  NodeId id() const override { return id_; }
  SimTime Clock() const override { return clock_; }
  bool Runnable() const override { return resume_first_ != nullptr || !ready_.empty(); }
  bool Done() const override { return main_done_; }
  void Step() override;
  void AdvanceTo(SimTime t) override;
  void OnDatagram(sim::Datagram d) override;
  std::string DescribeBlocked() const override;

  // --- Virtual time ---
  // Advances this node's clock by `cost`, attributing it to `category`. When called from a server
  // thread, yields to the machine whenever an external event falls due mid-charge, so message
  // handlers interrupt computation at exact virtual times.
  void Charge(TimeCategory category, SimTime cost) override;

  // --- Scheduling primitives (used by the engines and by the DSM) ---
  // Suspends the current server thread; the caller has already recorded it on some wait queue and
  // set its state/block reason. Returns when the thread is woken.
  void BlockCurrent() override;
  // Blocks the current server thread as waiting for `kind` (`detail` names what it waits on in
  // the wait-state record) until something wakes it. The caller has already recorded it wherever
  // its waker looks.
  void Park(WaitKind kind, uint64_t detail = 0);
  // Park, with the current thread recorded in `slot` (which must be empty) for WakeWaiter.
  void ParkIn(threads::ServerThread*& slot, WaitKind kind, uint64_t detail = 0);
  // Makes `t` runnable. Placement defaults to the configured wake policy (front = fork/join
  // anti-thrashing; tail = iterative frontloading).
  void Wake(threads::ServerThread* t) override { WakeAt(t, config_.wake_at_front); }
  void WakeAtTail(threads::ServerThread* t) { WakeAt(t, /*front=*/false); }
  // Wakes the thread parked in `slot` (at the tail), if any, and clears the slot.
  void WakeWaiter(threads::ServerThread*& slot);
  // Creates a server thread running `body` and enqueues it (charges creation cost).
  threads::ServerThread* SpawnThread(std::function<void()> body);
  threads::ServerThread* CurrentThread() override { return threads_.current(); }
  uint64_t CurrentTid() override {
    threads::ServerThread* t = threads_.current();
    return t != nullptr ? t->id() : 0;
  }
  // Lets the engines start a replacement server thread before a faulting thread blocks.
  void BeforePageBlock(PageId page) override;
  // Wakes the thread waiting in WaitForFetchDrain, if any.
  void OnFetchesDrained() override;

  // Sends a reliable request and blocks the calling server thread until the reply arrives.
  net::Payload CallService(NodeId dst, net::Service service, net::Payload body,
                           TimeCategory charge_as);

  // --- Reductions (tournament with broadcast dissemination, paper §4.5 / [HFM88]) ---
  double Reduce(double value, ReduceOp op);

  // Sends `body` to every other node: one raw broadcast frame, or a reliable request per node when
  // the fault plan can drop frames (the barrier done and fork/join termination must arrive).
  void SendToAllOthers(net::Service service, net::Payload body);

  // --- Explicit message channels (raw UDP semantics, for the CG programs) ---
  void ChannelSend(NodeId dst, uint32_t tag, std::span<const std::byte> bytes);
  void ChannelBroadcast(uint32_t tag, std::span<const std::byte> bytes);
  std::vector<std::byte> ChannelRecv(NodeId src, uint32_t tag);
  // Non-blocking receive (polling a UDP socket).
  std::optional<std::vector<std::byte>> ChannelTryRecv(NodeId src, uint32_t tag);
  // Blocks until any channel message arrives at this node (select()-style wait).
  void WaitAnyChannel();

  // --- Critical sections ---
  void EnterCritical() { in_critical_ = true; }
  void ExitCritical() { in_critical_ = false; }
  bool InCriticalSection() const override { return in_critical_; }

  // --- Tracing (no-ops unless ClusterConfig::trace_enabled) ---
  void SetTrace(TraceRecorder* trace) { tracer_.SetRecorder(trace); }
  void TraceBegin(const char* category, std::string name) {
    tracer_.Begin(category, std::move(name));
  }
  void TraceEnd() { tracer_.End(); }
  void TraceInstant(const char* category, std::string name) {
    tracer_.Instant(category, std::move(name));
  }
  // The node's causal tracer (trace-id context + span emission), shared with packet_ and dsm_.
  NodeTracer& tracer() override { return tracer_; }
  // Live histograms and runtime counters; flattened with the stats structs by metrics_io.
  MetricsRegistry& metrics() override { return metrics_; }

  // The node's time ledger (common/ledger.h): Figure 10, run/serve/wait and per-pool run are
  // views of it.
  const TimeLedger& ledger() const { return ledger_; }
  // Blocked-interval records and the flight-recorder ring (common/waitstate.h).
  const WaitStateRecorder& waitstate() const { return waitstate_; }
  void RecordWait(WaitKind kind, uint64_t detail, SimTime from, SimTime to) override {
    waitstate_.Record(kind, detail, from, to);
  }
  // Books the still-unclassified trailing scheduler gap as the ledger's tail, making the ledger
  // total equal the final clock exactly. Called once by Cluster::Run at the end.
  void FinalizeLedger();

  // Per-pool blocked/fault/filament counters and fn ids (common/poolprof.h).
  const PoolProfiler& poolprof() const { return poolprof_; }

  // --- Accessors ---
  NodeEnv& env() { return env_; }
  const ClusterConfig& config() const { return config_; }
  sim::Machine& machine() { return *machine_; }
  const sim::CostModel& costs() const { return machine_->costs(); }
  dsm::DsmNode& dsm() { return *dsm_; }
  net::PacketEndpoint& packet() { return *packet_; }
  PoolEngine& pools() { return *pools_; }
  FjEngine& fj() { return *fj_; }
  threads::ThreadSystem& threads() { return threads_; }

  FilamentStats& fil_stats() { return fil_stats_; }
  SimTime main_finished_at() const { return main_finished_at_; }

 private:
  friend class PoolEngine;
  friend class FjEngine;

  // Charge() helper: returns to the machine so a due event can dispatch; resumes afterwards.
  void YieldForEvent();

  // Makes blocked `t` ready at the front or tail of the ready queue: books the pending scheduler
  // gap under its wait kind and records its blocked interval.
  void WakeAt(threads::ServerThread* t, bool front);

  // Blocks the current thread until there are no outstanding page fetches (paper §3: nodes delay
  // at synchronization points until all outstanding page requests are satisfied).
  void WaitForFetchDrain();

  // Reduction plumbing. A champion barrier (tournament or central) is a tree rooted at node 0:
  // each node combines its children's reduce-ups, then reports up to its parent, and the champion
  // broadcasts the done value. Dissemination has no tree (BarrierTree stays empty).
  struct BarrierTree {
    NodeId parent = kNoNode;  // kNoNode: the champion, or dissemination
    int up_round = 0;         // the round this node's reduce-up reports in
    // (child, round) pairs, in the order this node waits for them.
    std::vector<std::pair<NodeId, int>> children;
  };
  static BarrierTree BuildBarrierTree(ClusterConfig::BarrierKind kind, NodeId id, int nodes);
  void RegisterReduceServices();
  // Writes the one reduce-up frame: [epoch, round, value], then the merge-epoch word when a gated
  // merge is pending or the balancer is on, then the balancer's samples.
  void SendReduceValue(NodeId dst, uint64_t epoch, int round, double value);
  // Blocks until the inbox holds (epoch, round, from) and takes it: a reduce-up, or with
  // kDoneRound the barrier's done value.
  double TakeReduceValue(uint64_t epoch, int round, NodeId from);
  double ReduceTree(uint64_t epoch, double value, ReduceOp op);
  double ReduceDissemination(uint64_t epoch, double value, ReduceOp op);
  static double Combine(double a, double b, ReduceOp op);
  // The champion's done broadcast arrived: record a new done, consume the sync-point requests it
  // acknowledges, and wake the waiter.
  void OnReduceDone(net::WireReader body);
  // Champion end of a tree barrier: oracle sweep, balancer plan, the done broadcast, and the
  // last-done record.
  void ReleaseBarrier(uint64_t epoch, double accum);

  // Load-balancer plumbing (config_.balancer; every hook is inert while disabled, keeping the
  // wire format and schedule byte-identical to a balancer-free build).
  void RegisterMigrateService();
  // Snapshots this node's per-epoch ledger deltas into balance_samples_[epoch] before any
  // reduce-up for `epoch` goes out.
  void RecordLoadSample(uint64_t epoch, SimTime entered);
  // Champion only: runs the balancer once all n samples for `epoch` arrived.
  void MaybeEmitPlan(uint64_t epoch);
  // Appends the plan trailer (u8 has_plan [+ epoch/src/dst]) to a done payload; writes
  // has_plan=0 unless last_plan_ is exactly `epoch`'s plan.
  void AppendPlan(net::WireWriter& w, uint64_t epoch) const;
  // Parses the plan trailer; keeps the newest plan seen (stale dones carry stale plans).
  void ParsePlan(net::WireReader& r);
  // End of Reduce: source extracts + ships its batch, destination arms the sweep-entry wait.
  // Exactly-once per plan via last_plan_applied_.
  void ApplyPendingPlan();

  NodeId id_;
  ClusterConfig config_;
  sim::Machine* machine_;
  // This node's place in the champion barrier's tree; its parent is also where the sync-batch
  // diff protocol gates its merge.
  const BarrierTree barrier_;
  // Coalescing on a champion barrier: reduce-up acks are elided; the done broadcast stands in.
  const bool elide_reduce_acks_;
  // The fault plan can drop frames: SendToAllOthers uses a reliable request per node.
  const bool broadcast_reliably_;
  SimTime clock_ = 0;
  SimTime pending_gap_ = 0;  // idle time awaiting classification at the next wake
  bool main_done_ = false;
  SimTime main_finished_at_ = 0;
  bool in_critical_ = false;

  threads::ThreadSystem threads_;
  IntrusiveList<threads::ServerThread, &threads::ServerThread::queue_link> ready_;
  threads::ServerThread* resume_first_ = nullptr;  // mid-charge thread, resumed before any other
  std::vector<threads::ServerThread*> blocked_;    // bookkeeping for deadlock reports

  std::unique_ptr<net::PacketEndpoint> packet_;
  std::unique_ptr<dsm::DsmNode> dsm_;
  std::unique_ptr<PoolEngine> pools_;
  std::unique_ptr<FjEngine> fj_;
  NodeEnv env_;

  // Reduction state.
  uint64_t reduce_epoch_ = 0;
  // (epoch, round, sender) -> value received for this reduction step; a barrier's done value is
  // keyed (epoch, kDoneRound, kNoNode).
  std::map<std::tuple<uint64_t, int, NodeId>, double> reduce_inbox_;
  threads::ServerThread* reduce_waiter_ = nullptr;
  threads::ServerThread* drain_waiter_ = nullptr;
  // Coalescing sync-batch state: the unacked (elided-ack) reduce-up awaiting the done broadcast.
  uint64_t pending_up_req_ = 0;
  // Newest barrier whose result this node holds (released as champion, seen done, or completed
  // by dissemination); a reduce-up at or below it is a retransmission of a contribution already
  // combined.
  uint64_t last_done_epoch_ = 0;

  // Channels: (src, tag) -> queued payloads / waiting receiver.
  struct Channel {
    std::deque<std::vector<std::byte>> messages;
    threads::ServerThread* waiter = nullptr;
  };
  std::map<std::pair<NodeId, uint32_t>, Channel> channels_;
  threads::ServerThread* any_channel_waiter_ = nullptr;

  NodeTracer tracer_;
  MetricsRegistry metrics_;
  FilamentStats fil_stats_;

  TimeLedger ledger_;
  WaitStateRecorder waitstate_;
  PoolProfiler poolprof_;
  // Prior-epoch counter snapshot, so Reduce can record per-epoch deltas.
  struct EpochBase {
    uint64_t faults = 0;
    uint64_t diff_bytes = 0;
    uint64_t datagrams = 0;
    SimTime wait = 0;
    SimTime serve = 0;
  } epoch_base_;
  void RecordEpochSnapshot(uint64_t epoch, SimTime entered);

  // Load-balancer state (empty/zero while config_.balancer.enabled is false).
  std::unique_ptr<LoadBalancer> balancer_;  // constructed on the champion (node 0) only
  // epoch -> (node -> sample): own sample plus every sample carried by received reduce-ups.
  std::map<uint64_t, std::map<int32_t, LoadSample>> balance_samples_;
  // Ledger totals at the previous sync point, so samples carry per-epoch deltas.
  struct BalanceBase {
    SimTime run = 0;
    SimTime wait = 0;
    SimTime serve = 0;
  } balance_base_;
  std::optional<RebalancePlan> last_plan_;  // newest plan seen (emitted here or off a done)
  uint64_t last_plan_applied_ = 0;          // highest plan epoch acted on (src/dst roles)
  uint64_t migrate_applied_epoch_ = 0;      // highest kFilamentMigrate epoch integrated
};

}  // namespace dfil::core

#endif  // DFIL_CORE_NODE_RUNTIME_H_
