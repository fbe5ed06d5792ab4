// Seed-replay coherence fuzzer (the adversarial test harness's driver).
//
// One fuzz case is fully described by a (scenario, seed) pair: the seed drives a SplitMix64
// stream that picks an application (jacobi / sor / matmul, shrunk to seconds-scale sizes), a page
// consistency protocol, a node count, a page size, and the scenario's fault-plan parameters. The
// run executes the DF variant with a CoherenceOracle attached and fault injection enabled, then
// validates three ways:
//
//  1. the run completed (no deadlock, no virtual-time runaway);
//  2. the oracle recorded no invariant violations, and every node's time ledger is an exact
//     partition of its clock (CheckLedger in fuzz_driver.cc);
//  3. the output is bit-identical to the sequential reference of the same problem.
//
// Any failure reproduces from the printed (scenario, seed) alone — rerun with the same pair (and
// optionally log_packets) to replay the exact message schedule. tests/fuzz_smoke_test.cc sweeps a
// fixed seed range in CI; tools/fuzz_coherence.cc is the standalone sweep/replay binary.
#ifndef DFIL_APPS_FUZZ_DRIVER_H_
#define DFIL_APPS_FUZZ_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/core/cluster.h"

namespace dfil::apps {

struct FuzzOptions {
  bool log_packets = false;   // enable kDebug logging for the faulted run (single-seed replay aid)
  bool capture_trace = false;  // record a Chrome trace of the faulted run (FuzzResult::trace)
  // Write FLIGHT_<scenario>_seed<N>.json (dfil-flight-v1, rendered by `dfil_report flight`) into
  // the working directory whenever the case fails — the crash forensics CI attaches to a red
  // fuzz-smoke lane.
  bool flight_dump_on_failure = false;
  // > 0 overrides the runaway guard. Applied after every RNG draw, so overriding it never
  // reshuffles the configs of the existing (scenario, seed) corpus.
  SimTime max_virtual_time = 0;
};

struct FuzzResult {
  std::string scenario;
  uint64_t seed = 0;
  std::string config_desc;  // resolved app/pcp/nodes/... (human-readable, for failure reports)

  bool completed = false;
  bool output_ok = false;
  // Oracle violations, then "ledger: ..." partition breaks (empty on a clean run).
  std::vector<std::string> violations;

  uint64_t oracle_checks = 0;
  uint64_t quiescent_points = 0;
  SimTime makespan = 0;

  // Cluster-wide totals from the faulted run (what the adversary actually exercised).
  MessageStats net;
  DsmStats dsm;

  // The faulted run's trace (null unless FuzzOptions::capture_trace): spans plus the injection
  // instants ("inject" track), so a replayed failure shows exactly which drop/dup/delay/stall
  // decisions surrounded the misbehaving exchange.
  std::shared_ptr<TraceRecorder> trace;

  // Flight-recorder snapshot from the faulted run: every node's last wait events and the
  // adversary's recent injection decisions, frozen at the first oracle violation (else end of
  // run). FuzzOptions::flight_dump_on_failure serializes it; flight_path names the file written
  // (empty when none was).
  core::FlightSnapshot flight;
  std::string flight_path;

  bool ok() const { return completed && output_ok && violations.empty(); }
  // One-line verdict, e.g. "FAIL reorder seed=17 [jacobi wi n=3 ps=9]: 2 violations".
  std::string Summary() const;
};

// The scenario registry, in a fixed order (tools/fuzz_coherence.cc --list prints it).
const std::vector<std::string>& FuzzScenarios();

// Runs one fuzz case. `scenario` must come from FuzzScenarios(); unknown names abort.
FuzzResult RunFuzzCase(const std::string& scenario, uint64_t seed, const FuzzOptions& opts = {});

}  // namespace dfil::apps

#endif  // DFIL_APPS_FUZZ_DRIVER_H_
