// Per-pool profiling tests (DESIGN.md §14): the attribution contract of common/poolprof.h.
//
// The load-bearing invariants:
//   * Exact partition — sum(pool run) + other_run == the ledger's run time, at SimTime
//     resolution (the pool rows are the ledger's slots). This must be checked in-process: the
//     metrics JSON rounds to microseconds, where the partition only holds to ±1 µs per row.
//   * Schedule invariance — the inert pool_profile_enabled flag changes neither the schedule
//     nor the recorded pool rows.
//   * Deterministic fn ids — filament-function ids are assigned by first-registration order, so
//     they agree across nodes of an SPMD run and across repeated runs.
#include <sstream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "src/apps/jacobi.h"
#include "src/core/cluster.h"
#include "src/core/metrics_io.h"
#include "tools/report_lib.h"

namespace dfil {
namespace {

core::ClusterConfig ProfiledConfig() {
  core::ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.costs = sim::CostModel::SunIpcEthernet();
  cfg.network = core::NetworkKind::kSharedEthernet;
  cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  return cfg;
}

core::RunReport QuickJacobi(const core::ClusterConfig& cfg) {
  apps::JacobiParams p;
  p.n = 256;
  p.iterations = 3;
  apps::AppRun run = apps::RunJacobiDf(p, cfg);
  EXPECT_TRUE(run.report.completed) << run.report.deadlock_report;
  return run.report;
}

TEST(PoolProfTest, ExactPartitionAtSimTimeResolution) {
  core::RunReport r = QuickJacobi(ProfiledConfig());
  ASSERT_EQ(r.nodes.size(), 8u);
  for (const core::NodeReport& n : r.nodes) {
    // The partition is exact, not approximate: every run-time Charge quantum lands in exactly
    // one pool slot or in other_run.
    SimTime pool_run = 0;
    for (int pool = 0; pool < n.ledger.num_pools(); ++pool) {
      pool_run += n.ledger.pool_run(pool);
    }
    EXPECT_EQ(pool_run + n.ledger.other_run(), n.ledger.run_time()) << "node " << n.node;
    // Jacobi DF runs three pools per node; each must have observed filaments and a bound fn.
    ASSERT_GT(n.ledger.num_pools(), 0) << "node " << n.node;
    for (int pool = 0; pool < n.ledger.num_pools(); ++pool) {
      const PoolProfiler::Counters c = n.poolprof.counters(pool);
      EXPECT_GE(c.fn, 0) << "node " << n.node << " pool " << pool;
      EXPECT_GT(c.filaments_run, 0u) << "node " << n.node << " pool " << pool;
      EXPECT_GT(n.ledger.pool_run(pool), 0) << "node " << n.node << " pool " << pool;
    }
  }
}

TEST(PoolProfTest, FnIdsDeterministicAcrossNodesAndRuns) {
  core::RunReport r1 = QuickJacobi(ProfiledConfig());
  core::RunReport r2 = QuickJacobi(ProfiledConfig());
  ASSERT_EQ(r1.nodes.size(), r2.nodes.size());
  // SPMD: every node registers filament functions in the same order, so the set of fn ids in
  // play agrees cluster-wide.
  const core::NodeReport& n0 = r1.nodes[0];
  for (const core::NodeReport& n : r1.nodes) {
    ASSERT_EQ(n.ledger.num_pools(), n0.ledger.num_pools()) << "node " << n.node;
    for (int pool = 0; pool < n.ledger.num_pools(); ++pool) {
      EXPECT_EQ(n.poolprof.counters(pool).fn, n0.poolprof.counters(pool).fn)
          << "node " << n.node << " pool " << pool;
    }
  }
  // Determinism: an identical config reproduces the rows exactly.
  for (size_t i = 0; i < r1.nodes.size(); ++i) {
    const core::NodeReport& a = r1.nodes[i];
    const core::NodeReport& b = r2.nodes[i];
    EXPECT_EQ(a.ledger.other_run(), b.ledger.other_run()) << "node " << i;
    ASSERT_EQ(a.ledger.num_pools(), b.ledger.num_pools()) << "node " << i;
    for (int pool = 0; pool < a.ledger.num_pools(); ++pool) {
      auto row = [pool](const core::NodeReport& n) {
        const PoolProfiler::Counters c = n.poolprof.counters(pool);
        return std::make_tuple(n.ledger.pool_run(pool), c.blocked, c.faults, c.filaments_run, c.fn);
      };
      EXPECT_EQ(row(a), row(b)) << "node " << i << " pool " << pool;
    }
  }
}

TEST(PoolProfTest, ProfilingOnVsOffIsScheduleInvariant) {
  core::ClusterConfig on = ProfiledConfig();
  on.trace_enabled = true;
  core::ClusterConfig off = on;
  off.pool_profile_enabled = false;

  core::RunReport r_on = QuickJacobi(on);
  core::RunReport r_off = QuickJacobi(off);

  // The profiler must never charge time, send messages, or branch the runtime: the two runs
  // are the same schedule, down to the trace bytes.
  EXPECT_EQ(r_on.makespan, r_off.makespan);
  EXPECT_EQ(r_on.events, r_off.events);
  EXPECT_EQ(r_on.net.messages_sent, r_off.net.messages_sent);
  EXPECT_EQ(r_on.net.bytes_sent, r_off.net.bytes_sent);
  ASSERT_NE(r_on.trace, nullptr);
  ASSERT_NE(r_off.trace, nullptr);
  std::ostringstream trace_on;
  std::ostringstream trace_off;
  r_on.trace->WriteChromeTrace(trace_on);
  r_off.trace->WriteChromeTrace(trace_off);
  EXPECT_EQ(trace_on.str(), trace_off.str());

  // The flag is inert: the metrics export is the same, pool rows included.
  std::ostringstream os_on;
  std::ostringstream os_off;
  core::WriteMetricsJson(r_on, "poolprof", os_on);
  core::WriteMetricsJson(r_off, "poolprof", os_off);
  EXPECT_EQ(os_on.str(), os_off.str());
  // And the schedule-invariance claim is visible to readers: the digest ignores the knob.
  EXPECT_EQ(on.DigestHex(), off.DigestHex());
}

TEST(PoolProfTest, MetricsExportCarriesPoolsAndResidual) {
  core::RunReport r = QuickJacobi(ProfiledConfig());
  std::ostringstream os;
  core::WriteMetricsJson(r, "poolprof_on", os);
  report::RunSummary run;
  std::string error;
  ASSERT_TRUE(report::ParseRun(os.str(), &run, &error)) << error;

  // Cluster-wide rollup: at least the pool fns plus the residual row.
  ASSERT_FALSE(run.pools_by_fn.empty());
  bool rollup_residual = false;
  for (const auto& row : run.pools_by_fn) {
    rollup_residual = rollup_residual || (row.fn == -1);
  }
  EXPECT_TRUE(rollup_residual);

  ASSERT_EQ(run.per_node.size(), r.nodes.size());
  for (size_t i = 0; i < run.per_node.size(); ++i) {
    const auto& node = run.per_node[i];
    ASSERT_FALSE(node.pools.empty()) << "node " << node.node;
    // Exactly one residual row per node, carrying all serve time (handler context serves the
    // cluster, not the pool it preempts) plus run time outside any pool.
    double run_sum = 0.0;
    double serve_sum = 0.0;
    size_t residuals = 0;
    for (const auto& row : node.pools) {
      run_sum += row.run_us;
      serve_sum += row.serve_us;
      if (row.pool == -1) {
        ++residuals;
        EXPECT_EQ(row.fn, -1);
        EXPECT_NEAR(row.serve_us, node.serve_us, 1.0) << "node " << node.node;
      } else {
        EXPECT_EQ(row.serve_us, 0.0) << "node " << node.node << " pool " << row.pool;
      }
    }
    EXPECT_EQ(residuals, 1u) << "node " << node.node;
    // In JSON the partition holds to microsecond rounding only (±1 µs per row); the exact
    // SimTime identity is checked in-process above.
    EXPECT_NEAR(run_sum, node.run_us, static_cast<double>(node.pools.size()))
        << "node " << node.node;
    EXPECT_NEAR(serve_sum, node.serve_us, 1.0) << "node " << node.node;
  }
}

}  // namespace
}  // namespace dfil
