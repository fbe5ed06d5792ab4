// The four simspeed workloads: DF Jacobi, DF matmul and DF quadrature at the paper's 8-node
// points, and a coherence-fuzz sweep. Each is driven only through public entry points
// (apps::Run*Df / Run*Seq, apps::RunFuzzCase, core::Cluster).
#ifndef DFIL_SIMSPEED_WORKLOADS_H_
#define DFIL_SIMSPEED_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "simspeed/simspeed.h"

namespace simspeed {

struct PassOptions {
  // ClusterConfig::waitstate_enabled and pool_profile_enabled (app workloads only: FuzzOptions
  // has no switch for them; see Workload::has_recorder_switch).
  bool recorders = true;
  // The program's own virtual-time trace recorder (ClusterConfig::trace_enabled /
  // FuzzOptions::capture_trace).
  bool program_trace = false;
  // Per-run spans inside the pass; null = none.
  Spans* spans = nullptr;
};

struct PassResult {
  double wall_s = 0;              // host seconds spent in the program's entry points
  Counts counts;                  // exact virtual-clock results
  uint64_t attempted = 0;         // runs (app) or cases (fuzz) in the pass
  std::vector<std::string> errors;  // one line per failed run or case
  std::vector<double> case_ms;    // per-case host latency (fuzz_sweep only)
};

// Host-side work counts a workload can compute from its problem size (labelled "computed": the
// program does not count them).
struct Computed {
  uint64_t accesses = 0;  // DSM Read/Write/AccessBytes calls in the kernel
  uint64_t charges = 0;   // NodeEnv::ChargeWork calls in the kernel
  uint64_t clusters = 0;  // Cluster constructions per pass
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  // Inputs, the sequential reference the output check uses, and the first cluster start.
  virtual void Setup(uint64_t seed, Spans* spans) = 0;
  // One pass, checked against the reference.
  virtual PassResult Pass(const PassOptions& opts) = 0;
  // Host seconds of the single-node reference kernel in the last Setup (0 on fuzz_sweep).
  virtual double seq_wall_s() const = 0;
  virtual Computed computed() const = 0;
  // Whether PassOptions::recorders takes effect.
  virtual bool has_recorder_switch() const = 0;
};

const std::vector<std::string>& WorkloadNames();
// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace simspeed

#endif  // DFIL_SIMSPEED_WORKLOADS_H_
