// dfil_report: analysis CLI over the runtime's observability artifacts — METRICS_*.json
// (dfil-metrics-v2, src/core/metrics_io.h), Chrome trace-event JSON (TRACE_*.json, load in
// Perfetto / chrome://tracing) and FLIGHT_*.json flight-recorder dumps (dfil-flight-v1). It
// prints the paper's tables, diffs two runs, appends result history and runs the CI gates.
// `dfil_report help` lists the commands; the exit codes are the contract in tools/report_lib.h.
#include <iostream>

#include "tools/report_lib.h"

int main(int argc, char** argv) { return dfil::report::RunCli(argc, argv, std::cout, std::cerr); }
