// Cluster: builds and runs a simulated Distributed Filaments cluster.
//
// Usage:
//   core::ClusterConfig cfg;           // nodes, network, PCP, ...
//   core::Cluster cluster(cfg);
//   auto a = cluster.layout().AllocArray2D(...);   // shared data, before Run
//   core::RunReport r = cluster.Run([&](core::NodeEnv& env) { ... SPMD node program ... });
//
// A Cluster runs exactly once; construct a fresh one per experiment (benches sweep node counts by
// building one cluster per point).
#ifndef DFIL_CORE_CLUSTER_H_
#define DFIL_CORE_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/ledger.h"
#include "src/common/metrics.h"
#include "src/common/poolprof.h"
#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/common/waitstate.h"
#include "src/core/config.h"
#include "src/core/node_env.h"
#include "src/core/node_runtime.h"
#include "src/dsm/layout.h"
#include "src/sim/machine.h"

namespace dfil::core {

struct NodeReport {
  NodeId node = 0;
  SimTime finished_at = 0;          // virtual time the node's main returned
  SimTime final_clock = 0;          // node clock at end of run (>= finished_at; includes the tail)
  FilamentStats filaments;
  DsmStats dsm;
  net::PacketStats packet;
  MetricsRegistry metrics;          // live histograms + runtime counters
  // The node's time ledger. Figure 10 rows (figure10), run/serve/wait and per-pool run are its
  // views; ledger.total() == final_clock exactly.
  TimeLedger ledger;
  // Thread-level blocked intervals by kind, plus the flight ring.
  WaitStateRecorder waits;
  // Per-pool blocked/fault/filament counters and fn ids; per-pool run is ledger.pool_run.
  PoolProfiler poolprof;
  std::map<uint16_t, uint64_t> sent_by_service;  // Figure 9 message counts
  std::vector<uint32_t> page_heat;  // demand faults per page on this node
};

// Flight-recorder snapshot: every node's recent wait events plus the machine's recent
// fault-injection decisions. Captured the moment the coherence oracle records its first violation
// (at_violation = true, while the rings still hold the lead-up), else at end of run.
struct FlightSnapshot {
  bool at_violation = false;
  std::vector<std::vector<WaitEvent>> node_events;  // indexed by node, oldest first
  std::vector<sim::Machine::InjectionNote> injections;
};

struct RunReport {
  bool completed = false;
  bool deadlocked = false;
  std::string deadlock_report;
  SimTime makespan = 0;             // max node clock (the program's virtual run time)
  uint64_t events = 0;
  // Deterministic host-work proxies for tests (exported nowhere): the machine's causal-horizon
  // host scans and node steps, and DSM Access() slow-path entries summed over nodes.
  uint64_t horizon_scans = 0;
  uint64_t node_steps = 0;
  uint64_t dsm_slow_accesses = 0;
  MessageStats net;                 // cluster-wide message counters
  SimTime medium_busy = 0;          // total wire occupancy (saturation diagnostics)
  std::string pcp;                  // protocol name (PcpName), for report labelling
  int num_nodes = 0;
  std::vector<NodeReport> nodes;
  // Reproducibility provenance (the config knobs that picked this schedule), stamped into every
  // metrics export; bench_util overlays its CLI-level fields on top.
  std::map<std::string, std::string> provenance;
  FlightSnapshot flight;
  // Execution trace (null unless ClusterConfig::trace_enabled); export with WriteChromeTrace.
  std::shared_ptr<TraceRecorder> trace;

  double seconds() const { return ToSeconds(makespan); }

  // Cluster-wide sums of the per-node counter tables (their generated operator+=).
  DsmStats TotalDsm() const { return Total(&NodeReport::dsm); }
  net::PacketStats TotalPacket() const { return Total(&NodeReport::packet); }
  FilamentStats TotalFilaments() const { return Total(&NodeReport::filaments); }

  template <typename Stats>
  Stats Total(Stats NodeReport::*member) const {
    Stats total;
    for (const NodeReport& nr : nodes) {
      total += nr.*member;
    }
    return total;
  }
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Shared-memory layout; allocate before Run (it is sealed when Run starts).
  dsm::GlobalLayout& layout() { return layout_; }
  const ClusterConfig& config() const { return config_; }

  using NodeMain = std::function<void(NodeEnv&)>;

  // Runs `node_main` SPMD on every node and simulates to completion (or deadlock).
  RunReport Run(const NodeMain& node_main);

 private:
  ClusterConfig config_;
  dsm::GlobalLayout layout_;
  std::unique_ptr<sim::Machine> machine_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  bool ran_ = false;
};

}  // namespace dfil::core

#endif  // DFIL_CORE_CLUSTER_H_
