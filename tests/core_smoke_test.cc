// End-to-end smoke tests of the Distributed Filaments runtime: DSM access across nodes,
// reductions, pools with overlap, and fork/join.
#include <gtest/gtest.h>

#include "src/core/cluster.h"
#include "src/core/global_array.h"

namespace dfil::core {
namespace {

TEST(ClusterSmoke, SingleNodeMainRuns) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  Cluster cluster(cfg);
  bool ran = false;
  RunReport r = cluster.Run([&](NodeEnv& env) {
    env.ChargeWork(Seconds(1.0));
    ran = true;
  });
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_TRUE(ran);
  EXPECT_NEAR(r.seconds(), 1.0, 0.01);
}

TEST(ClusterSmoke, BarrierSynchronizesClocks) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  Cluster cluster(cfg);
  std::vector<SimTime> after(4);
  RunReport r = cluster.Run([&](NodeEnv& env) {
    // Unequal work, then a barrier: everyone leaves at (or after) the slowest node's arrival.
    env.ChargeWork(Seconds(0.1 * (env.node() + 1)));
    env.Barrier();
    after[env.node()] = env.Now();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  for (int n = 0; n < 4; ++n) {
    EXPECT_GE(after[n], Seconds(0.4));
  }
}

TEST(ClusterSmoke, ReduceSumAcrossNodes) {
  ClusterConfig cfg;
  cfg.nodes = 8;
  Cluster cluster(cfg);
  std::vector<double> sums(8);
  RunReport r = cluster.Run([&](NodeEnv& env) {
    sums[env.node()] = env.Reduce(static_cast<double>(env.node() + 1), ReduceOp::kSum);
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  for (double s : sums) {
    EXPECT_DOUBLE_EQ(s, 36.0);
  }
}

TEST(ClusterSmoke, DsmReadAcrossNodes) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.dsm.pcp = dsm::Pcp::kWriteInvalidate;
  Cluster cluster(cfg);
  auto value = GlobalRef<double>::Alloc(cluster.layout(), "x");
  std::vector<double> seen(4);
  RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      value.Write(env, 42.5);
    }
    env.Barrier();
    seen[env.node()] = value.Read(env);
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  for (double v : seen) {
    EXPECT_DOUBLE_EQ(v, 42.5);
  }
}

TEST(ClusterSmoke, DsmMigratoryWriteChain) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.dsm.pcp = dsm::Pcp::kMigratory;
  Cluster cluster(cfg);
  auto counter = GlobalRef<int64_t>::Alloc(cluster.layout(), "counter");
  int64_t final_value = -1;
  RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      counter.Write(env, 0);
    }
    env.Barrier();
    // Each node increments in turn, serialized by barriers (race-free by construction).
    for (int turn = 0; turn < env.nodes(); ++turn) {
      if (turn == env.node()) {
        counter.Write(env, counter.Read(env) + 1);
      }
      env.Barrier();
    }
    if (env.node() == 0) {
      final_value = counter.Read(env);
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_EQ(final_value, 4);
}

// One RTC filament per element; each filament doubles its element.
void DoubleElement(NodeEnv& env, int64_t base_addr, int64_t i, int64_t) {
  const GlobalAddr a = static_cast<GlobalAddr>(base_addr) + static_cast<GlobalAddr>(i) * 8;
  env.Write<double>(a, env.Read<double>(a) * 2.0);
  env.ChargeWork(Microseconds(5.0));
}

TEST(ClusterSmoke, RtcFilamentsSweep) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster cluster(cfg);
  constexpr int kN = 1000;
  auto arr = GlobalArray1D<double>::Alloc(cluster.layout(), kN, "arr");
  std::vector<double> out(kN);
  RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      for (int i = 0; i < kN; ++i) {
        arr.Write(env, i, i + 1.0);
      }
    }
    env.Barrier();
    // Each node takes a strip.
    const int per = kN / env.nodes();
    const int lo = env.node() * per;
    const int hi = env.node() == env.nodes() - 1 ? kN : lo + per;
    const PoolHandle pool = env.CreatePool();
    for (int i = lo; i < hi; ++i) {
      env.CreateFilament(pool, &DoubleElement, static_cast<int64_t>(arr.addr(0)), i, 0);
    }
    env.RunPools();
    env.Barrier();
    if (env.node() == 0) {
      for (int i = 0; i < kN; ++i) {
        out[i] = arr.Read(env, i);
      }
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  for (int i = 0; i < kN; ++i) {
    ASSERT_DOUBLE_EQ(out[i], 2.0 * (i + 1)) << i;
  }
  // Pattern recognition must have kicked in: the strips are affine runs.
  EXPECT_GT(r.TotalFilaments().filaments_run_inlined, 900u);
}

// Fork/join: recursive sum of [lo, hi).
FjResult SumRange(NodeEnv& env, const FjArgs& a) {
  const int64_t lo = a.i[0];
  const int64_t hi = a.i[1];
  env.ChargeWork(Microseconds(20.0));
  if (hi - lo <= 4) {
    int64_t s = 0;
    for (int64_t k = lo; k < hi; ++k) {
      s += k;
    }
    return FjResult{0.0, s};
  }
  const int64_t mid = lo + (hi - lo) / 2;
  FjArgs left;
  left.i[0] = lo;
  left.i[1] = mid;
  FjArgs right;
  right.i[0] = mid;
  right.i[1] = hi;
  FjHandle hl = env.Fork(&SumRange, left);
  FjHandle hr = env.Fork(&SumRange, right);
  FjResult rl = env.Join(hl);
  FjResult rr = env.Join(hr);
  return FjResult{0.0, rl.i + rr.i};
}

class ForkJoinSmoke : public ::testing::TestWithParam<int> {};

TEST_P(ForkJoinSmoke, RecursiveSum) {
  ClusterConfig cfg;
  cfg.nodes = GetParam();
  cfg.wake_at_front = true;
  Cluster cluster(cfg);
  constexpr int64_t kN = 4096;
  int64_t result = -1;
  RunReport r = cluster.Run([&](NodeEnv& env) {
    FjArgs args;
    args.i[0] = 0;
    args.i[1] = kN;
    FjResult res = env.RunForkJoin(&SumRange, args);
    if (env.node() == 0) {
      result = res.i;
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_EQ(result, kN * (kN - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Nodes, ForkJoinSmoke, ::testing::Values(1, 2, 3, 4, 8));

TEST(ClusterSmoke, ChannelsRoundTrip) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster cluster(cfg);
  double got = 0;
  RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      env.SendValue<double>(1, /*tag=*/7, 3.25);
      got = env.RecvValue<double>(1, /*tag=*/8);
    } else {
      const double v = env.RecvValue<double>(0, 7);
      env.SendValue<double>(0, 8, v * 2);
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_DOUBLE_EQ(got, 6.5);
}

TEST(ClusterSmoke, LostChannelMessageDeadlocksLikeThePaper) {
  // The paper's CG programs hang when a UDP message is lost; the simulator detects the hang.
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.fault_plan.loss_rate = 1.0;  // drop everything
  Cluster cluster(cfg);
  RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      env.SendValue<int>(1, 1, 42);
    } else {
      (void)env.RecvValue<int>(0, 1);
    }
  });
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_NE(r.deadlock_report.find("channel"), std::string::npos);
}

}  // namespace
}  // namespace dfil::core
