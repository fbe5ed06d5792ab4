// Per-layer host-time probes: each is a fixed loop over one layer's public function, timed on the
// host clock and reported as the median over a few repetitions. They time the same calls
// bench_overheads' google-benchmark cases use, without the framework, so the traced run can
// multiply them by a workload's exact counts.
#ifndef DFIL_SIMSPEED_PROBES_H_
#define DFIL_SIMSPEED_PROBES_H_

#include "simspeed/simspeed.h"

namespace simspeed {

struct ProbeResults {
  double switch_ns = 0;         // threads: ThreadSystem::SwitchTo round trip
  double event_ns = 0;          // sim: EventQueue::Schedule plus Pop and dispatch
  double charge_ns = 0;         // core: NodeEnv::Charge
  double filament_ns = 0;       // core: create plus run, strip (inlined) path
  double filament_desc_ns = 0;  // core: create plus run, descriptor path
  double fork_ns = 0;           // core: one Fork/Join pair in a recursive fork tree
  double access_hit_ns = 0;     // dsm: Read of a resident page
  double fault_ns = 0;          // dsm: quiet 2-node remote read fault
  double barrier_ns = 0;        // net: 8-node Barrier
  double datagram_ns = 0;       // net: barrier_ns spread over the datagrams one barrier sends
  double run_startup_ms = 0;    // core: 8-node Cluster construction plus an empty Run
  double metrics_export_ms = 0;  // core: dfil-metrics-v2 serialisation of an 8-node report
};

ProbeResults RunProbes(Spans* spans);

}  // namespace simspeed

#endif  // DFIL_SIMSPEED_PROBES_H_
