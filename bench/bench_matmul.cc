// Figure 4: matrix multiplication, 512x512. Sequential paper time: 205 s.
//
// Expected shape: CG pays a one-time distribution cost (paper: 5.1 s at 8 nodes) but then scales
// well; DF's O(p n^2) page requests to the master saturate the shared Ethernet, so its speedup
// drops off at 4 and 8 nodes (paper: 6.2 s of page-request service at the master).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/matmul.h"

int main(int argc, char** argv) {
  using namespace dfil;
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const bool quick = args.quick;
  apps::MatmulParams p;
  p.n = quick ? 128 : 512;

  bench::Header("Figure 4: Matrix multiplication, " + std::to_string(p.n) + "x" +
                std::to_string(p.n) + " (paper: 512x512, sequential 205 s)");

  apps::AppRun seq = apps::RunMatmulSeq(p, bench::PaperConfig(1));
  std::printf("sequential: %.1f s (paper 205 s), checksum %.6g\n", seq.seconds(), seq.checksum);

  const double paper_cg[] = {205, 104, 53.3, 30.1};
  const double paper_df[] = {206, 107, 64.8, 39.7};
  const int node_counts[] = {1, 2, 4, 8};
  std::vector<bench::SpeedupRow> rows;
  for (int i = 0; i < 4; ++i) {
    const int nodes = node_counts[i];
    if (args.nodes > 0 && nodes != args.nodes) {
      continue;
    }
    core::ClusterConfig df_cfg = bench::PaperConfig(nodes);
    args.Apply(df_cfg);
    apps::AppRun cg = apps::RunMatmulCg(p, bench::PaperConfig(nodes));
    apps::AppRun df = apps::RunMatmulDf(p, df_cfg);
    DFIL_CHECK(cg.report.completed) << cg.report.deadlock_report;
    DFIL_CHECK(df.report.completed) << df.report.deadlock_report;
    DFIL_CHECK_EQ(cg.checksum, seq.checksum);
    DFIL_CHECK_EQ(df.checksum, seq.checksum);
    rows.push_back(bench::SpeedupRow{nodes, cg.seconds(), df.seconds(), paper_cg[i], paper_df[i],
                                     seq.seconds(), 205.0});
    if (nodes == 8) {
      // The two §4.1 notes: page-request volume and medium saturation.
      const uint64_t served = df.report.TotalDsm().page_requests_served;
      std::printf("notes (8 nodes, DF): page requests served %llu (paper: 4032 for 512x512); "
                  "medium busy %.1f s of %.1f s makespan\n",
                  static_cast<unsigned long long>(served), ToSeconds(df.report.medium_busy),
                  df.seconds());
      bench::EmitMetrics(df.report, "matmul_df8", &args, "matmul");
    }
  }
  bench::PrintSpeedupTable(rows);
  bench::JsonReport jr("matmul");
  jr.Scalar("sequential_s", seq.seconds());
  bench::EmitSpeedupRows(&jr, rows);
  jr.Write();
  return 0;
}
