// Cross-variant validation: every application's CG and DF programs must reproduce the sequential
// program's results, across node counts and consistency protocols (small problem sizes).
#include <gtest/gtest.h>

#include <cmath>

#include "src/apps/exprtree.h"
#include "src/apps/jacobi.h"
#include "src/apps/matmul.h"
#include "src/apps/quadrature.h"

namespace dfil::apps {
namespace {

core::ClusterConfig BaseConfig(int nodes) {
  core::ClusterConfig cfg;
  cfg.nodes = nodes;
  return cfg;
}

void ExpectSameVector(const std::vector<double>& a, const std::vector<double>& b,
                      double tol = 0.0) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (tol == 0.0) {
      ASSERT_EQ(a[i], b[i]) << "index " << i;
    } else {
      ASSERT_NEAR(a[i], b[i], tol) << "index " << i;
    }
  }
}

class MatmulNodes : public ::testing::TestWithParam<int> {};

TEST_P(MatmulNodes, CgAndDfMatchSequential) {
  MatmulParams p;
  p.n = 48;
  AppRun seq = RunMatmulSeq(p, BaseConfig(1));
  AppRun cg = RunMatmulCg(p, BaseConfig(GetParam()));
  AppRun df = RunMatmulDf(p, BaseConfig(GetParam()));
  ASSERT_TRUE(seq.report.completed);
  ASSERT_TRUE(cg.report.completed) << cg.report.deadlock_report;
  ASSERT_TRUE(df.report.completed) << df.report.deadlock_report;
  ExpectSameVector(seq.output, cg.output);
  ExpectSameVector(seq.output, df.output);
}

INSTANTIATE_TEST_SUITE_P(Nodes, MatmulNodes, ::testing::Values(1, 2, 3, 4, 8));

class JacobiCase : public ::testing::TestWithParam<std::tuple<int, dsm::Pcp, int>> {};

TEST_P(JacobiCase, VariantsMatchSequential) {
  const auto [nodes, pcp, pools] = GetParam();
  JacobiParams p;
  p.n = 32;
  p.iterations = 20;
  p.pools = pools;
  AppRun seq = RunJacobiSeq(p, BaseConfig(1));
  core::ClusterConfig cfg = BaseConfig(nodes);
  cfg.dsm.pcp = pcp;
  AppRun cg = RunJacobiCg(p, BaseConfig(nodes));
  AppRun df = RunJacobiDf(p, cfg);
  ASSERT_TRUE(cg.report.completed) << cg.report.deadlock_report;
  ASSERT_TRUE(df.report.completed) << df.report.deadlock_report;
  ExpectSameVector(seq.output, cg.output);
  ExpectSameVector(seq.output, df.output);
  EXPECT_EQ(seq.checksum, df.checksum);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JacobiCase,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(dsm::Pcp::kImplicitInvalidate,
                                         dsm::Pcp::kWriteInvalidate, dsm::Pcp::kMigratory),
                       ::testing::Values(1, 3)));

TEST(JacobiOddNodes, NonAlignedStripsStillCorrect) {
  // 3 nodes over 32 rows: strip boundaries fall mid-page, so writes share pages. The protocols
  // must still serialize correctly (it thrashes, but stays correct — paper §5's remark).
  JacobiParams p;
  p.n = 32;
  p.iterations = 10;
  AppRun seq = RunJacobiSeq(p, BaseConfig(1));
  core::ClusterConfig cfg = BaseConfig(3);
  cfg.dsm.pcp = dsm::Pcp::kWriteInvalidate;
  AppRun df = RunJacobiDf(p, cfg);
  ASSERT_TRUE(df.report.completed) << df.report.deadlock_report;
  ExpectSameVector(seq.output, df.output);
}

// Deterministic host-work proxies of the two hot paths. The machine scans the hosts for a node's
// causal horizon once per node step, not once per Charge; a DSM access leaves the inline resident
// hit only to fault or to cover a range that spans pages.
TEST(HostWorkTest, JacobiScansTheHorizonOncePerStepAndHitsResidentPagesInline) {
  JacobiParams p;
  p.n = 384;  // 3 KB rows: of every four rows of a page-aligned grid, two straddle a page boundary
  p.iterations = 4;
  core::ClusterConfig cfg = BaseConfig(8);
  cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  const AppRun df = RunJacobiDf(p, cfg);
  ASSERT_TRUE(df.report.completed) << df.report.deadlock_report;
  EXPECT_EQ(df.report.horizon_scans, df.report.node_steps);

  // Whole-row accesses that span two pages: each node writes its rows of both grids once (the
  // fill) and reads its rows of the final grid once (the extraction). Strips of 48 rows are
  // page-aligned and owned where they are written, so none of these faults; every other slow
  // entry is exactly one read or write fault.
  const size_t row_bytes = static_cast<size_t>(p.n) * sizeof(double);
  const size_t page_bytes = size_t{1} << cfg.page_shift;
  uint64_t spanning_rows = 0;
  for (size_t i = 0; i < static_cast<size_t>(p.n); ++i) {
    if (i * row_bytes / page_bytes != (i * row_bytes + row_bytes - 1) / page_bytes) {
      spanning_rows++;
    }
  }
  ASSERT_EQ(spanning_rows, static_cast<uint64_t>(p.n / 2));
  const DsmStats dsm = df.report.TotalDsm();
  EXPECT_GT(dsm.read_faults, 0u);
  EXPECT_EQ(df.report.dsm_slow_accesses, dsm.read_faults + dsm.write_faults + 3 * spanning_rows);
}

class QuadNodes : public ::testing::TestWithParam<int> {};

TEST_P(QuadNodes, AllVariantsAgree) {
  QuadratureParams p;
  p.tolerance = 1e-5;  // small eval count for tests
  p.bag_tasks = 64;
  AppRun seq = RunQuadratureSeq(p, BaseConfig(1));
  AppRun cg = RunQuadratureCgStatic(p, BaseConfig(GetParam()));
  AppRun bag = RunQuadratureCgBag(p, BaseConfig(GetParam()));
  AppRun df = RunQuadratureDf(p, BaseConfig(GetParam()));
  ASSERT_TRUE(cg.report.completed) << cg.report.deadlock_report;
  ASSERT_TRUE(bag.report.completed) << bag.report.deadlock_report;
  ASSERT_TRUE(df.report.completed) << df.report.deadlock_report;
  // DF preserves the sequential association exactly; CG variants re-partition the recursion.
  EXPECT_EQ(seq.checksum, df.checksum);
  const double tol = std::fabs(seq.checksum) * 1e-6;
  EXPECT_NEAR(seq.checksum, cg.checksum, tol);
  EXPECT_NEAR(seq.checksum, bag.checksum, tol);
}

INSTANTIATE_TEST_SUITE_P(Nodes, QuadNodes, ::testing::Values(1, 2, 3, 4, 8));

class TreeNodes : public ::testing::TestWithParam<int> {};

TEST_P(TreeNodes, CgAndDfMatchSequential) {
  ExprTreeParams p;
  p.height = 4;
  p.matrix_dim = 12;
  AppRun seq = RunExprTreeSeq(p, BaseConfig(1));
  AppRun cg = RunExprTreeCg(p, BaseConfig(GetParam()));
  AppRun df = RunExprTreeDf(p, BaseConfig(GetParam()));
  ASSERT_TRUE(cg.report.completed) << cg.report.deadlock_report;
  ASSERT_TRUE(df.report.completed) << df.report.deadlock_report;
  ExpectSameVector(seq.output, cg.output);
  ExpectSameVector(seq.output, df.output);
}

INSTANTIATE_TEST_SUITE_P(Nodes, TreeNodes, ::testing::Values(1, 2, 4, 8));

TEST(TreeNonPow2, DfHandlesAnyNodeCount) {
  ExprTreeParams p;
  p.height = 3;
  p.matrix_dim = 8;
  AppRun seq = RunExprTreeSeq(p, BaseConfig(1));
  for (int nodes : {3, 5, 6}) {
    AppRun df = RunExprTreeDf(p, BaseConfig(nodes));
    ASSERT_TRUE(df.report.completed) << df.report.deadlock_report;
    ExpectSameVector(seq.output, df.output);
  }
}

}  // namespace
}  // namespace dfil::apps
