// Tests for extension features beyond the paper's evaluation: barrier algorithm variants (the
// paper's stated future work) and the recursive-FFT fork/join application.
#include <gtest/gtest.h>

#include <cmath>

#include "src/apps/fft.h"
#include "src/apps/sor.h"
#include "src/core/cluster.h"

namespace dfil {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::NodeEnv;
using core::ReduceOp;

class BarrierKindTest
    : public ::testing::TestWithParam<std::tuple<ClusterConfig::BarrierKind, int>> {};

TEST_P(BarrierKindTest, SumReductionCorrect) {
  const auto [kind, nodes] = GetParam();
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.barrier = kind;
  Cluster cluster(cfg);
  std::vector<double> results(nodes);
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    for (int i = 0; i < 5; ++i) {
      results[env.node()] = env.Reduce(env.node() + 1.0, ReduceOp::kSum);
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  for (double v : results) {
    EXPECT_DOUBLE_EQ(v, nodes * (nodes + 1) / 2.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BarrierKindTest,
    ::testing::Combine(::testing::Values(ClusterConfig::BarrierKind::kTournamentBroadcast,
                                         ClusterConfig::BarrierKind::kDissemination,
                                         ClusterConfig::BarrierKind::kCentral),
                       ::testing::Values(2, 4, 8, 16)));

TEST(BarrierKindTest, DisseminationBarrierWorksAtOddNodeCounts) {
  ClusterConfig cfg;
  cfg.nodes = 5;
  cfg.barrier = ClusterConfig::BarrierKind::kDissemination;
  Cluster cluster(cfg);
  std::vector<SimTime> after(5);
  core::RunReport r = cluster.Run([&](NodeEnv& env) {
    env.ChargeWork(Milliseconds(env.node() * 2.0));
    env.Barrier();  // barriers (idempotent combine) are fine at any node count
    after[env.node()] = env.Now();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  for (SimTime t : after) {
    EXPECT_GE(t, Milliseconds(8.0));  // nobody leaves before the slowest arrives
  }
}

TEST(BarrierKindTest, MessageCountsMatchTheory) {
  // Tournament: 2(p-1)+1; dissemination: 2 * p*ceil(log2 p) (requests + acks);
  // central: 2(p-1)+1.
  const int p = 8;
  auto count = [&](ClusterConfig::BarrierKind kind) {
    ClusterConfig cfg;
    cfg.nodes = p;
    cfg.barrier = kind;
    Cluster cluster(cfg);
    core::RunReport r = cluster.Run([&](NodeEnv& env) { env.Barrier(); });
    EXPECT_TRUE(r.completed);
    return r.net.messages_sent;
  };
  EXPECT_EQ(count(ClusterConfig::BarrierKind::kTournamentBroadcast),
            static_cast<uint64_t>(2 * (p - 1) + 1));
  EXPECT_EQ(count(ClusterConfig::BarrierKind::kCentral), static_cast<uint64_t>(2 * (p - 1) + 1));
  EXPECT_EQ(count(ClusterConfig::BarrierKind::kDissemination),
            static_cast<uint64_t>(2 * p * 3));
}

TEST(BarrierKindTest, DisseminationHasNoBroadcastHotspot) {
  // Central serializes at node 0; dissemination spreads the load. Compare per-barrier latency.
  auto latency = [&](ClusterConfig::BarrierKind kind) {
    ClusterConfig cfg;
    cfg.nodes = 16;
    cfg.barrier = kind;
    Cluster cluster(cfg);
    core::RunReport r = cluster.Run([&](NodeEnv& env) {
      for (int i = 0; i < 20; ++i) {
        env.Barrier();
      }
    });
    EXPECT_TRUE(r.completed);
    return r.makespan;
  };
  EXPECT_LT(latency(ClusterConfig::BarrierKind::kTournamentBroadcast),
            latency(ClusterConfig::BarrierKind::kCentral));
}

class FftNodes : public ::testing::TestWithParam<int> {};

TEST_P(FftNodes, DfMatchesSequentialBitwise) {
  apps::FftParams p;
  p.log2_n = 10;
  p.sequential_cutoff = 64;
  ClusterConfig base;
  base.nodes = 1;
  apps::AppRun seq = apps::RunFftSeq(p, base);
  ClusterConfig cfg;
  cfg.nodes = GetParam();
  apps::AppRun df = apps::RunFftDf(p, cfg);
  ASSERT_TRUE(seq.report.completed);
  ASSERT_TRUE(df.report.completed) << df.report.deadlock_report;
  ASSERT_EQ(seq.output.size(), df.output.size());
  for (size_t i = 0; i < seq.output.size(); ++i) {
    ASSERT_EQ(seq.output[i], df.output[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Nodes, FftNodes, ::testing::Values(1, 2, 4, 8));

TEST(FftTest, TransformIsActuallyAFourierTransform) {
  // Validate against a direct DFT at small n.
  apps::FftParams p;
  p.log2_n = 6;
  p.sequential_cutoff = 4;
  ClusterConfig base;
  base.nodes = 1;
  apps::AppRun seq = apps::RunFftSeq(p, base);
  const int n = 64;
  // Rebuild the input and compute the DFT directly.
  auto signal_re = [](int i) { return std::sin(0.05 * i); };
  auto signal_im = [](int i) { return std::cos(0.11 * i) * 0.5; };
  for (int k = 0; k < n; ++k) {
    double re = 0, im = 0;
    for (int t = 0; t < n; ++t) {
      const double angle = -2.0 * 3.14159265358979323846 * k * t / n;
      const double c = std::cos(angle), s = std::sin(angle);
      re += signal_re(t) * c - signal_im(t) * s;
      im += signal_re(t) * s + signal_im(t) * c;
    }
    EXPECT_NEAR(seq.output[2 * k], re, 1e-9) << k;
    EXPECT_NEAR(seq.output[2 * k + 1], im, 1e-9) << k;
  }
}

TEST(FftTest, BalancedWorkloadGainsLittleFromStealing) {
  // The paper's §2.3 claim for FFT: the tree distribution already balances it.
  apps::FftParams p;
  p.log2_n = 12;
  ClusterConfig off;
  off.nodes = 8;
  off.fj.steal_enabled = false;
  ClusterConfig on = off;
  on.fj.steal_enabled = true;
  apps::AppRun without = apps::RunFftDf(p, off);
  apps::AppRun with = apps::RunFftDf(p, on);
  ASSERT_TRUE(without.report.completed);
  ASSERT_TRUE(with.report.completed);
  // Stealing must not be a large win here (tolerate noise either way).
  EXPECT_GT(static_cast<double>(with.report.makespan) /
                static_cast<double>(without.report.makespan),
            0.85);
}

class SorNodes : public ::testing::TestWithParam<int> {};

TEST_P(SorNodes, DfMatchesSequentialExactly) {
  apps::SorParams p;
  p.n = 32;
  p.iterations = 15;
  ClusterConfig base;
  base.nodes = 1;
  apps::AppRun seq = apps::RunSorSeq(p, base);
  ClusterConfig cfg;
  cfg.nodes = GetParam();
  cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  apps::AppRun df = apps::RunSorDf(p, cfg);
  ASSERT_TRUE(seq.report.completed);
  ASSERT_TRUE(df.report.completed) << df.report.deadlock_report;
  ASSERT_EQ(seq.output.size(), df.output.size());
  for (size_t i = 0; i < seq.output.size(); ++i) {
    ASSERT_EQ(seq.output[i], df.output[i]) << i;
  }
  EXPECT_EQ(seq.checksum, df.checksum);
}

INSTANTIATE_TEST_SUITE_P(Nodes, SorNodes, ::testing::Values(1, 2, 4, 8));

TEST(SorTest, ConvergesFasterThanJacobiPerIteration) {
  // Sanity: with over-relaxation the residual after K iterations is smaller than plain Jacobi's
  // on the same boundary-value problem size. (Not a paper claim — a numerical sanity check.)
  apps::SorParams p;
  p.n = 32;
  p.iterations = 40;
  ClusterConfig base;
  base.nodes = 1;
  apps::AppRun a = apps::RunSorSeq(p, base);
  apps::SorParams p2 = p;
  p2.omega = 1.0;  // omega=1 degenerates to Gauss-Seidel
  ClusterConfig base2;
  base2.nodes = 1;
  apps::AppRun b = apps::RunSorSeq(p2, base2);
  EXPECT_LT(a.checksum, b.checksum);
}

TEST(SorTest, TwoSyncPointsPerIteration) {
  apps::SorParams p;
  p.n = 32;
  p.iterations = 10;
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  apps::AppRun df = apps::RunSorDf(p, cfg);
  ASSERT_TRUE(df.report.completed);
  // Red and black halves each end in a reduction: at least 2 x iterations implicit-invalidation
  // rounds show up as re-fetches of the edge pages.
  EXPECT_GE(df.report.TotalDsm().read_faults, static_cast<uint64_t>(2 * p.iterations));
}

}  // namespace
}  // namespace dfil
