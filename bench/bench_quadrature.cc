// Figure 6: adaptive quadrature over an interval of length 24. Sequential paper time: 203 s.
//
// Expected shape: static CG stalls near speedup ~1.5-1.7 (the interval extremes hold most of the
// work); the bag-of-tasks CG variant balances better but its absolute time is much worse (every
// small task costs a round trip to the master); DF with receiver-initiated stealing wins.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/quadrature.h"

int main(int argc, char** argv) {
  using namespace dfil;
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const bool quick = args.quick;
  apps::QuadratureParams p;
  if (quick) {
    p.tolerance = 1e-7;
    p.bag_tasks = 512;
  }

  bench::Header("Figure 6: Adaptive quadrature, interval length 24 (paper: sequential 203 s)");

  apps::AppRun seq = apps::RunQuadratureSeq(p, bench::PaperConfig(1));
  std::printf("sequential: %.1f s (paper 203 s), integral %.9g, %.0f evals\n", seq.seconds(),
              seq.checksum, seq.output[1]);

  const double ratio = seq.seconds() / 203.0;
  const double paper_cg[] = {203, 137, 133, 118};
  const double paper_df[] = {210, 119, 59.0, 35.7};
  const int node_counts[] = {1, 2, 4, 8};
  std::vector<bench::SpeedupRow> rows;
  std::printf("%-6s | %12s (bag-of-tasks CG: better balance, worse absolute time)\n", "nodes",
              "CG-bag(s)");
  for (int i = 0; i < 4; ++i) {
    const int nodes = node_counts[i];
    if (args.nodes > 0 && nodes != args.nodes) {
      continue;
    }
    core::ClusterConfig df_cfg = bench::PaperConfig(nodes);
    args.Apply(df_cfg);
    apps::AppRun cg = apps::RunQuadratureCgStatic(p, bench::PaperConfig(nodes));
    apps::AppRun bag = apps::RunQuadratureCgBag(p, bench::PaperConfig(nodes));
    apps::AppRun df = apps::RunQuadratureDf(p, df_cfg);
    DFIL_CHECK(cg.report.completed) << cg.report.deadlock_report;
    DFIL_CHECK(bag.report.completed) << bag.report.deadlock_report;
    DFIL_CHECK(df.report.completed) << df.report.deadlock_report;
    DFIL_CHECK_EQ(df.checksum, seq.checksum);  // same association => bitwise equal
    rows.push_back(bench::SpeedupRow{nodes, cg.seconds(), df.seconds(), paper_cg[i] * ratio,
                                     paper_df[i] * ratio, seq.seconds(), 203.0 * ratio});
    std::printf("%-6d | %12.1f\n", nodes, bag.seconds());
    if (nodes == 8) {
      const FilamentStats f = df.report.TotalFilaments();
      std::printf("notes (8 nodes, DF): tree-shipped forks %llu, steal attempts %llu "
                  "(%llu succeeded, %llu denied — most denials, as in the paper)\n",
                  static_cast<unsigned long long>(f.forks_sent),
                  static_cast<unsigned long long>(f.steals_attempted),
                  static_cast<unsigned long long>(f.steals_succeeded),
                  static_cast<unsigned long long>(f.steals_denied));
      bench::EmitMetrics(df.report, "quadrature_df8", &args, "quadrature");
    }
  }
  bench::PrintSpeedupTable(rows);
  bench::JsonReport jr("quadrature");
  jr.Scalar("sequential_s", seq.seconds());
  bench::EmitSpeedupRows(&jr, rows);
  jr.Write();
  return 0;
}
