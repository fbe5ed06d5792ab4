// Invariant tests for virtual-time accounting (the basis of Figure 10's breakdown) and for the
// exactness of implicit-invalidate's per-iteration refetch pattern.
#include <gtest/gtest.h>

#include "src/apps/jacobi.h"
#include "src/core/cluster.h"
#include "src/core/global_array.h"

namespace dfil {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::NodeEnv;

TEST(AccountingTest, BusySingleNodeIsFullyAttributed) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  Cluster cluster(cfg);
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    env.ChargeWork(Seconds(1.0));
    env.Charge(TimeCategory::kFilamentExec, Milliseconds(5.0));
  });
  ASSERT_TRUE(r.completed);
  // A node that never idles has every nanosecond attributed to a category.
  EXPECT_EQ(r.nodes[0].ledger.figure10_total(), r.nodes[0].finished_at);
  EXPECT_EQ(r.nodes[0].ledger.figure10(TimeCategory::kWork), Seconds(1.0));
}

TEST(AccountingTest, BreakdownNeverExceedsFinishTime) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  Cluster cluster(cfg);
  auto x = core::GlobalRef<double>::Alloc(cluster.layout(), "x");
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      x.Write(env, 1.0);
    }
    env.Barrier();
    env.ChargeWork(Milliseconds(env.node() * 3.0));
    EXPECT_DOUBLE_EQ(x.Read(env), 1.0);
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  for (const auto& nr : r.nodes) {
    // Charged + classified-idle time can never exceed the node's total run time; any shortfall is
    // an unclassified tail gap (the node finished before a final wake).
    EXPECT_LE(nr.ledger.figure10_total(), nr.finished_at);
    EXPECT_GT(nr.ledger.figure10_total(), 0);
  }
}

TEST(AccountingTest, SyncDelayCapturesBarrierSkew) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster cluster(cfg);
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 1) {
      env.ChargeWork(Milliseconds(50.0));  // node 0 waits ~50 ms at the barrier
    }
    env.Barrier();
  });
  ASSERT_TRUE(r.completed);
  EXPECT_GE(r.nodes[0].ledger.figure10(TimeCategory::kSyncDelay), Milliseconds(40.0));
  EXPECT_LT(r.nodes[1].ledger.figure10(TimeCategory::kSyncDelay), Milliseconds(10.0));
}

TEST(AccountingTest, WorkChargesAreIdenticalAcrossVariants) {
  // The same computation must charge the same kWork regardless of node count — the invariant
  // behind comparing DF against sequential times.
  apps::JacobiParams p;
  p.n = 32;
  p.iterations = 8;
  ClusterConfig one;
  one.nodes = 1;
  apps::AppRun seq = apps::RunJacobiSeq(p, one);
  ClusterConfig four;
  four.nodes = 4;
  apps::AppRun df = apps::RunJacobiDf(p, four);
  ASSERT_TRUE(seq.report.completed);
  ASSERT_TRUE(df.report.completed);
  SimTime seq_work = seq.report.nodes[0].ledger.figure10(TimeCategory::kWork);
  SimTime df_work = 0;
  for (const auto& nr : df.report.nodes) {
    df_work += nr.ledger.figure10(TimeCategory::kWork);
  }
  // Identical point updates => identical total work (init loop overhead differs slightly).
  EXPECT_NEAR(static_cast<double>(df_work) / static_cast<double>(seq_work), 1.0, 0.01);
}

TEST(ImplicitInvalidateTest, ExactlyOneEdgeRefetchPerIterationPerNode) {
  // 2 nodes over 32 rows: one 4 KB page holds 16 rows, each node owns exactly one page, and each
  // reads the neighbour's edge row once per iteration. Under implicit-invalidate the read copy
  // dies at every reduction, so read faults must equal iterations per node, exactly.
  apps::JacobiParams p;
  p.n = 32;
  p.iterations = 12;
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  apps::AppRun df = apps::RunJacobiDf(p, cfg);
  ASSERT_TRUE(df.report.completed) << df.report.deadlock_report;
  for (const auto& nr : df.report.nodes) {
    EXPECT_EQ(nr.dsm.read_faults, static_cast<uint64_t>(p.iterations)) << "node " << nr.node;
    EXPECT_EQ(nr.dsm.page_requests_served, static_cast<uint64_t>(p.iterations))
        << "node " << nr.node;
    EXPECT_EQ(nr.dsm.invalidations_sent, 0u);
  }
}

TEST(ImplicitInvalidateTest, WriteInvalidatePaysWithInvalidationMessages) {
  // Same geometry under write-invalidate: the fetch count is the same (the owner's next-iteration
  // write to its own edge page invalidates the neighbour's copy, forcing a refetch), but now each
  // of those refetches was bought with an explicit invalidate + ack — the message overhead
  // implicit-invalidate eliminates (paper Figure 11 vs Figure 5).
  apps::JacobiParams p;
  p.n = 32;
  p.iterations = 12;
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.dsm.pcp = dsm::Pcp::kWriteInvalidate;
  apps::AppRun df = apps::RunJacobiDf(p, cfg);
  ASSERT_TRUE(df.report.completed) << df.report.deadlock_report;
  uint64_t inv = 0;
  for (const auto& nr : df.report.nodes) {
    EXPECT_EQ(nr.dsm.read_faults, static_cast<uint64_t>(p.iterations)) << "node " << nr.node;
    inv += nr.dsm.invalidations_sent;
  }
  // One upgrade invalidation per node per iteration (minus the first, which starts owned-RW).
  EXPECT_GE(inv, static_cast<uint64_t>(2 * (p.iterations - 1)));

  // And the implicit-invalidate run is strictly cheaper in both messages and time.
  ClusterConfig cfg2;
  cfg2.nodes = 2;
  cfg2.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  apps::AppRun ii = apps::RunJacobiDf(p, cfg2);
  ASSERT_TRUE(ii.report.completed);
  EXPECT_LT(ii.report.net.messages_sent, df.report.net.messages_sent);
  EXPECT_LT(ii.report.makespan, df.report.makespan);
}

}  // namespace
}  // namespace dfil
