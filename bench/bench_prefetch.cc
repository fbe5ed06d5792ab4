// Prefetch ablation (extension, DESIGN.md §6): strip-aware page prefetching and bulk multi-page
// transfers. Jacobi 256x256 with 1 KB pages, so each boundary row spans two contiguous pages and
// sequential-fault runs exist for the detector and the hint layer to exploit.
//
// Three modes per (PCP, node count):
//   off       — paper behaviour: every remote page costs one request/reply round trip;
//   detector  — the DSM's per-node sequential-fault detector issues bulk fetches on runs;
//   hints     — detector plus the pool engine's strip-footprint hints (period-aware replay).
//
// Expected shape: boundary faults coalesce into bulk transfers, cutting page-carrying request
// messages well past 20% at 8 nodes and shaving virtual time; correctness is bit-identical (the
// checksum assert) since prefetched copies obey the same PCP state machines.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/jacobi.h"

int main(int argc, char** argv) {
  using namespace dfil;
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const bool quick = args.quick;
  apps::JacobiParams p;
  p.n = 256;
  p.iterations = quick ? 20 : 60;
  p.pools = 3;

  bench::Header("Prefetch ablation: Jacobi 256x256, 1 KB pages, " +
                std::to_string(p.iterations) + " iterations");

  apps::AppRun seq = apps::RunJacobiSeq(p, bench::PaperConfig(1));

  struct Mode {
    const char* name;
    bool detector;
    bool hints;
  };
  const Mode modes[] = {
      {"off", false, false},
      {"detector", true, false},
      {"hints+detector", true, true},
  };

  bench::JsonReport jr("prefetch");
  jr.Scalar("n", p.n);
  jr.Scalar("iterations", p.iterations);
  jr.Scalar("page_shift", 10);

  std::printf("%-18s %-6s %5s | %8s | %9s %7s %7s | %10s %7s\n", "pcp", "mode", "nodes", "time(s)",
              "page msgs", "single", "bulk", "prefetched", "wasted");
  for (dsm::Pcp pcp : {dsm::Pcp::kImplicitInvalidate, dsm::Pcp::kWriteInvalidate}) {
    const char* pcp_name = pcp == dsm::Pcp::kImplicitInvalidate ? "implicit-inval" : "write-inval";
    for (int nodes : {2, 4, 8}) {
      if (args.nodes > 0 && nodes != args.nodes) {
        continue;
      }
      double off_msgs = 0, off_time = 0;
      for (const Mode& m : modes) {
        core::ClusterConfig cfg = bench::PaperConfig(nodes);
        cfg.dsm.pcp = pcp;
        cfg.page_shift = 10;
        cfg.dsm.prefetch_detector = m.detector;
        cfg.dsm.prefetch_hints = m.hints;
        args.Apply(cfg);
        apps::AppRun df = apps::RunJacobiDf(p, cfg);
        DFIL_CHECK(df.report.completed) << df.report.deadlock_report;
        DFIL_CHECK_EQ(df.checksum, seq.checksum);
        const DsmStats d = df.report.TotalDsm();
        const uint64_t single = d.single_page_requests, bulk = d.bulk_requests;
        const uint64_t prefetched = d.prefetched_pages, wasted = d.prefetch_wasted;
        const double msgs = static_cast<double>(single + bulk);
        if (!m.detector && !m.hints) {
          off_msgs = msgs;
          off_time = df.seconds();
        }
        const double msg_cut = off_msgs > 0 ? 100.0 * (off_msgs - msgs) / off_msgs : 0.0;
        const double time_cut = off_time > 0 ? 100.0 * (off_time - df.seconds()) / off_time : 0.0;
        std::printf("%-18s %-6.6s %5d | %8.2f | %9.0f %7llu %7llu | %10llu %7llu",
                    pcp_name, m.name, nodes, df.seconds(), msgs,
                    static_cast<unsigned long long>(single),
                    static_cast<unsigned long long>(bulk),
                    static_cast<unsigned long long>(prefetched),
                    static_cast<unsigned long long>(wasted));
        if (m.detector || m.hints) {
          std::printf("   (msgs %+.1f%%, time %+.1f%%)", -msg_cut, -time_cut);
        }
        std::printf("\n");
        jr.AddRow()
            .Set("pcp", static_cast<double>(pcp))
            .Set("detector", m.detector ? 1 : 0)
            .Set("hints", m.hints ? 1 : 0)
            .Set("nodes", nodes)
            .Set("seconds", df.seconds())
            .Set("page_request_messages", msgs)
            .Set("single_page_requests", static_cast<double>(single))
            .Set("bulk_requests", static_cast<double>(bulk))
            .Set("prefetched_pages", static_cast<double>(prefetched))
            .Set("prefetch_wasted", static_cast<double>(wasted))
            .Set("message_reduction_pct", msg_cut)
            .Set("time_reduction_pct", time_cut);
        if (pcp == dsm::Pcp::kImplicitInvalidate && nodes == 8 && m.detector && m.hints) {
          bench::EmitMetrics(df.report, "prefetch_ii8", &args, apps::AppIdentity(p));
        }
      }
    }
  }
  jr.Write();
  return 0;
}
