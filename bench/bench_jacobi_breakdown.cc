// Figure 10: analysis of overheads in Jacobi iteration, 8 nodes, 256x256, 360 iterations.
//
// Per-node execution time split into: work, filament execution, data transfer, synchronization
// overhead, and synchronization delay — for the master node (0), the interior nodes (1..6,
// reported as a min-max range), and the tail node (7). Paper total: 42.1 s (profiled build).
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/jacobi.h"

int main(int argc, char** argv) {
  using namespace dfil;
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const bool quick = args.quick;
  apps::JacobiParams p;
  p.n = 256;
  p.iterations = quick ? 60 : 360;
  p.pools = 3;

  bench::Header("Figure 10: Jacobi overhead breakdown, 8 nodes, 256x256, " +
                std::to_string(p.iterations) + " iterations");

  // The breakdown's master/interior/tail split hardcodes node indices, so --nodes is ignored here;
  // protocol/seed/page-size overrides still apply.
  core::ClusterConfig cfg = bench::PaperConfig(8);
  cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  args.Apply(cfg);
  apps::AppRun df = apps::RunJacobiDf(p, cfg);
  DFIL_CHECK(df.report.completed) << df.report.deadlock_report;

  auto get = [&](int node, TimeCategory c) {
    return ToSeconds(df.report.nodes[node].ledger.figure10(c));
  };
  auto range = [&](TimeCategory c) {
    double lo = 1e99, hi = -1e99;
    for (int n = 1; n <= 6; ++n) {
      lo = std::min(lo, get(n, c));
      hi = std::max(hi, get(n, c));
    }
    return std::pair<double, double>(lo, hi);
  };

  struct Row {
    const char* name;
    TimeCategory cat;
    const char* paper;  // master / interior / tail
  };
  const Row rows[] = {
      {"Work", TimeCategory::kWork, "22.3 / 22.9-24.4 / 22.6"},
      {"Filament Exec", TimeCategory::kFilamentExec, "1.57 / 1.54-1.87 / 1.73"},
      {"Data Transfer", TimeCategory::kDataTransfer, "7.75 / 2.31-3.02 / 1.53"},
      {"Sync Overhead", TimeCategory::kSyncOverhead, "0.99 / 1.51-2.14 / 1.12"},
      {"Sync Delay", TimeCategory::kSyncDelay, "6.62 / 5.24-10.3 / 14.7"},
  };
  std::printf("%-15s | %8s | %13s | %8s || paper (master / interior / tail)\n", "category",
              "master", "interior", "tail");
  bench::JsonReport jr("jacobi_breakdown");
  jr.Scalar("n", p.n);
  jr.Scalar("iterations", p.iterations);
  jr.Scalar("total_s", df.seconds());
  for (const Row& row : rows) {
    auto [lo, hi] = range(row.cat);
    std::printf("%-15s | %8.2f | %5.2f - %5.2f | %8.2f || %s\n", row.name, get(0, row.cat), lo,
                hi, get(7, row.cat), row.paper);
    jr.AddRow()
        .Set("category", static_cast<double>(row.cat))
        .Set("master_s", get(0, row.cat))
        .Set("interior_lo_s", lo)
        .Set("interior_hi_s", hi)
        .Set("tail_s", get(7, row.cat));
  }
  std::printf("total execution time: %.1f s (paper, profiled build: 42.1 s)\n", df.seconds());
  std::printf("faults/node/iter: master and tail fault on 1 page, interior nodes on 2 (paper).\n");
  for (int n = 0; n < 8; ++n) {
    std::printf("  node %d: read faults %llu (%.2f per iteration), served %llu\n", n,
                static_cast<unsigned long long>(df.report.nodes[n].dsm.read_faults),
                static_cast<double>(df.report.nodes[n].dsm.read_faults) / p.iterations,
                static_cast<unsigned long long>(df.report.nodes[n].dsm.page_requests_served));
  }
  jr.Write();
  bench::EmitMetrics(df.report, "jacobi_breakdown8", &args, "jacobi");
  return 0;
}
