// Figure 5: Jacobi iteration, 256x256, eps = 1e-3, 360 iterations. Sequential paper time: 215 s.
//
// Expected shape: both programs scale well; DF (implicit-invalidate, 3 pools) stays within ~10%
// of CG because the edge-page fetches overlap with the interior pool's computation.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/jacobi.h"

int main(int argc, char** argv) {
  using namespace dfil;
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  apps::JacobiParams p;
  p.n = 256;
  p.iterations = args.quick ? 60 : 360;
  p.pools = 3;

  bench::Header("Figure 5: Jacobi iteration, 256x256, " + std::to_string(p.iterations) +
                " iterations (paper: 360 iterations, sequential 215 s)");

  apps::AppRun seq = apps::RunJacobiSeq(p, bench::PaperConfig(1));
  std::printf("sequential: %.1f s (paper 215 s), final residual %.6g\n", seq.seconds(),
              seq.checksum);

  const double scale = p.iterations / 360.0;  // paper numbers prorated in quick mode
  const double paper_cg[] = {215, 98.1, 53.1, 35.8};
  const double paper_df[] = {212, 102, 59.8, 38.5};
  const int node_counts[] = {1, 2, 4, 8};
  std::vector<bench::SpeedupRow> rows;
  for (int i = 0; i < 4; ++i) {
    const int nodes = node_counts[i];
    if (args.nodes > 0 && nodes != args.nodes) {
      continue;
    }
    core::ClusterConfig cfg = bench::PaperConfig(nodes);
    cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
    args.Apply(cfg);
    apps::AppRun cg = apps::RunJacobiCg(p, bench::PaperConfig(nodes));
    apps::AppRun df = apps::RunJacobiDf(p, cfg);
    DFIL_CHECK(cg.report.completed) << cg.report.deadlock_report;
    DFIL_CHECK(df.report.completed) << df.report.deadlock_report;
    DFIL_CHECK_EQ(df.checksum, seq.checksum);
    rows.push_back(bench::SpeedupRow{nodes, cg.seconds(), df.seconds(), paper_cg[i] * scale,
                                     paper_df[i] * scale, seq.seconds(), 215.0 * scale});
    if (nodes == 8) {
      const DsmStats d = df.report.TotalDsm();
      std::printf("notes (8 nodes, DF): implicit invalidations %llu, invalidation MESSAGES %llu "
                  "(implicit-invalidate sends none), read faults %llu\n",
                  static_cast<unsigned long long>(d.implicit_invalidations),
                  static_cast<unsigned long long>(d.invalidations_sent),
                  static_cast<unsigned long long>(d.read_faults));
      bench::EmitMetrics(df.report, "jacobi_df8", &args, apps::AppIdentity(p));
    }
  }
  bench::PrintSpeedupTable(rows);
  bench::JsonReport jr("jacobi");
  jr.Scalar("n", p.n);
  jr.Scalar("iterations", p.iterations);
  jr.Scalar("sequential_s", seq.seconds());
  bench::EmitSpeedupRows(&jr, rows);
  jr.Write();
  return 0;
}
