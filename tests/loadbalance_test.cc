// Tests for epoch-driven load balancing (DESIGN.md §13): the balancer-off invariance contract
// (disabled runs are byte-identical, knobs and all), schedule determinism of the balanced runs
// (replay-stable, unperturbed by tracing), page re-homing correctness under message loss and
// duplication with the coherence oracle attached, and ClusterConfig::Validate's accept/reject
// rules for the balancer knob block.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/config.h"
#include "src/core/global_array.h"
#include "src/core/node_env.h"
#include "src/core/node_runtime.h"
#include "src/dsm/coherence_oracle.h"
#include "src/net/packet.h"
#include "src/sim/fault_plan.h"

namespace dfil::core {
namespace {

// A deliberately skewed iterative workload, a miniature of bench_loadbalance: every node owns
// kPoolsPerNode pools of kFilamentsPerPool filaments, one page-aligned grid row per pool, and
// node 0 charges double for every filament. With the balancer off the cluster idles at each
// barrier waiting for node 0; with it on, pools (and their backing pages) should drain to
// node 0's neighbor.
constexpr int kNodes = 4;
constexpr int kSlowNode = 0;
constexpr int kSlowFactor = 2;
constexpr int kPoolsPerNode = 4;
constexpr int kFilamentsPerPool = 8;
// Enough iterations at enough work per filament that a migration's one-time cost (the migrate
// message plus one re-home fault per moved pool, ~4 ms each) amortizes within the run.
constexpr int kIterations = 32;
constexpr SimTime kPointCost = Microseconds(150.0);

struct LbState {
  GlobalArray2D<double> grid;
};

void BumpFilament(NodeEnv& env, int64_t row, int64_t col, int64_t) {
  auto* st = static_cast<LbState*>(env.user_ctx);
  const double v = st->grid.Read(env, static_cast<size_t>(row), static_cast<size_t>(col));
  st->grid.Write(env, static_cast<size_t>(row), static_cast<size_t>(col), v + 1.0);
  env.ChargeWork(kPointCost * (env.node() == kSlowNode ? kSlowFactor : 1));
}

struct LbRun {
  RunReport report;
  double validation_error = 0.0;  // sum over original-home cells of |cell - kIterations|
  std::string trace_json;         // WriteChromeTrace output when the run was traced
};

ClusterConfig BaseConfig() {
  ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.seed = 7;
  return cfg;
}

// Aggressive hysteresis so the tiny problem emits plans within its 16 epochs.
void EnableBalancer(ClusterConfig& cfg) {
  cfg.balancer.enabled = true;
  cfg.balancer.balance_patience_epochs = 1;
  cfg.balancer.balance_cooldown_epochs = 1;
}

LbRun RunSkewed(const ClusterConfig& cfg) {
  Cluster cluster(cfg);
  const size_t rows = static_cast<size_t>(kNodes) * kPoolsPerNode;
  const size_t cols = cluster.layout().page_size() / sizeof(double);
  auto grid = GlobalArray2D<double>::Alloc(cluster.layout(), rows, cols,
                                           /*pad_rows_to_pages=*/true, "lb_grid");
  for (int node = 0; node < kNodes; ++node) {
    for (int p = 0; p < kPoolsPerNode; ++p) {
      const size_t row = static_cast<size_t>(node) * kPoolsPerNode + p;
      cluster.layout().SetInitialOwner(grid.row_addr(row), cols * sizeof(double), node);
    }
  }

  LbRun out;
  std::vector<LbState> states(kNodes);
  std::vector<double> errors(kNodes, 0.0);
  out.report = cluster.Run([&](NodeEnv& env) {
    LbState& st = states[env.node()];
    st.grid = grid;
    env.user_ctx = &st;
    for (int p = 0; p < kPoolsPerNode; ++p) {
      const auto row = static_cast<int64_t>(env.node()) * kPoolsPerNode + p;
      const PoolHandle pool = env.CreatePool();
      for (int f = 0; f < kFilamentsPerPool; ++f) {
        env.CreateFilament(pool, &BumpFilament, row, f, 0);
      }
    }
    env.RunIterative([&](int iter) {
      env.Reduce(0.0, ReduceOp::kMax);
      return iter + 1 < kIterations;
    });
    // Wherever each pool ended up executing, every cell of this node's original rows must have
    // been bumped exactly once per iteration — a migrated filament that ran twice, never, or on
    // stale pages shows up here.
    double err = 0.0;
    for (int p = 0; p < kPoolsPerNode; ++p) {
      const size_t row = static_cast<size_t>(env.node()) * kPoolsPerNode + p;
      for (int f = 0; f < kFilamentsPerPool; ++f) {
        err += std::abs(st.grid.Read(env, row, static_cast<size_t>(f)) - kIterations);
      }
    }
    errors[env.node()] = err;
  });
  for (double e : errors) {
    out.validation_error += e;
  }
  if (out.report.trace != nullptr) {
    std::ostringstream os;
    out.report.trace->WriteChromeTrace(os);
    out.trace_json = os.str();
  }
  return out;
}

uint64_t SumCounter(const RunReport& report, const std::string& name) {
  uint64_t total = 0;
  for (const auto& nr : report.nodes) {
    const auto& counters = nr.metrics.counters();
    if (auto it = counters.find(name); it != counters.end()) {
      total += it->second;
    }
  }
  return total;
}

// --- Balancer-off invariance -----------------------------------------------------------------

TEST(BalancerOffTest, DisabledRunsReplayByteIdentically) {
  ClusterConfig cfg = BaseConfig();
  cfg.trace_enabled = true;
  const LbRun a = RunSkewed(cfg);
  const LbRun b = RunSkewed(cfg);
  ASSERT_TRUE(a.report.completed) << a.report.deadlock_report;
  EXPECT_EQ(a.validation_error, 0.0);
  EXPECT_EQ(a.report.makespan, b.report.makespan);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);  // byte-identical schedule, not just equal totals
}

TEST(BalancerOffTest, KnobValuesAreInertWhileDisabled) {
  // The whole knob block must be dead weight while enabled=false: a config that carries wild
  // balancer settings (but never flips the switch) produces the byte-identical trace of the
  // default config, with zero plans, migrations, or re-homed pages.
  ClusterConfig plain = BaseConfig();
  plain.trace_enabled = true;
  ClusterConfig wild = plain;
  wild.balancer.balance_trigger_ratio = 0.01;
  wild.balancer.balance_patience_epochs = 1;
  wild.balancer.balance_cooldown_epochs = 1;
  wild.balancer.balance_move_fraction = 1.0;
  wild.balancer.balance_rehome_pages = false;
  const LbRun a = RunSkewed(plain);
  const LbRun b = RunSkewed(wild);
  ASSERT_TRUE(a.report.completed) << a.report.deadlock_report;
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(SumCounter(b.report, "core.rebalance_plans"), 0u);
  EXPECT_EQ(SumCounter(b.report, "core.filaments_migrated"), 0u);
  EXPECT_EQ(b.report.TotalDsm().pages_rehomed, 0u);
  EXPECT_EQ(a.report.net.messages_sent, b.report.net.messages_sent);
}

TEST(BalancerOffTest, WaitstateAccountingNeverMovesTheSchedule) {
  // The ledger the balancer reads is pure observation, and waitstate_enabled is inert: flipping
  // it with the balancer off changes no clock and sends no message.
  ClusterConfig on = BaseConfig();
  ClusterConfig off = BaseConfig();
  off.waitstate_enabled = false;
  const LbRun a = RunSkewed(on);
  const LbRun b = RunSkewed(off);
  ASSERT_TRUE(a.report.completed) << a.report.deadlock_report;
  ASSERT_TRUE(b.report.completed) << b.report.deadlock_report;
  EXPECT_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(a.report.net.messages_sent, b.report.net.messages_sent);
  EXPECT_EQ(a.report.events, b.report.events);
}

// --- Migration determinism -------------------------------------------------------------------

TEST(BalancerOnTest, BalancedRunsReplayIdentically) {
  ClusterConfig cfg = BaseConfig();
  EnableBalancer(cfg);
  const LbRun a = RunSkewed(cfg);
  const LbRun b = RunSkewed(cfg);
  ASSERT_TRUE(a.report.completed) << a.report.deadlock_report;
  EXPECT_EQ(a.validation_error, 0.0);
  EXPECT_EQ(b.validation_error, 0.0);
  EXPECT_GE(SumCounter(a.report, "core.rebalance_plans"), 1u)
      << "the skewed workload never triggered a plan; the remaining equalities are vacuous";
  EXPECT_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(a.report.net.messages_sent, b.report.net.messages_sent);
  EXPECT_EQ(SumCounter(a.report, "core.rebalance_plans"),
            SumCounter(b.report, "core.rebalance_plans"));
  EXPECT_EQ(SumCounter(a.report, "core.filaments_migrated"),
            SumCounter(b.report, "core.filaments_migrated"));
  EXPECT_EQ(a.report.TotalDsm().pages_rehomed, b.report.TotalDsm().pages_rehomed);
}

TEST(BalancerOnTest, TracingDoesNotPerturbTheBalancedSchedule) {
  // The rebalance trace instants are observation only: a traced balanced run and an untraced
  // one make identical decisions and finish at the identical virtual instant.
  ClusterConfig untraced = BaseConfig();
  EnableBalancer(untraced);
  ClusterConfig traced = untraced;
  traced.trace_enabled = true;
  const LbRun a = RunSkewed(untraced);
  const LbRun b = RunSkewed(traced);
  ASSERT_TRUE(a.report.completed) << a.report.deadlock_report;
  ASSERT_TRUE(b.report.completed) << b.report.deadlock_report;
  EXPECT_EQ(a.validation_error, 0.0);
  EXPECT_EQ(b.validation_error, 0.0);
  EXPECT_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(a.report.net.messages_sent, b.report.net.messages_sent);
  EXPECT_EQ(SumCounter(a.report, "core.rebalance_plans"),
            SumCounter(b.report, "core.rebalance_plans"));
  EXPECT_EQ(SumCounter(a.report, "core.filaments_migrated"),
            SumCounter(b.report, "core.filaments_migrated"));
  EXPECT_NE(b.trace_json.find("rebalance plan"), std::string::npos)
      << "a balanced traced run must record its plan instants";
}

TEST(BalancerOnTest, MigrationShedsLoadOffTheSlowNode) {
  ClusterConfig off = BaseConfig();
  ClusterConfig on = BaseConfig();
  EnableBalancer(on);
  const LbRun stat = RunSkewed(off);
  const LbRun bal = RunSkewed(on);
  ASSERT_TRUE(stat.report.completed) << stat.report.deadlock_report;
  ASSERT_TRUE(bal.report.completed) << bal.report.deadlock_report;
  EXPECT_EQ(stat.validation_error, 0.0);
  EXPECT_EQ(bal.validation_error, 0.0);
  EXPECT_GE(SumCounter(bal.report, "core.rebalance_plans"), 1u);
  EXPECT_GE(SumCounter(bal.report, "core.filaments_migrated"),
            static_cast<uint64_t>(kFilamentsPerPool));
  EXPECT_GE(bal.report.TotalDsm().pages_rehomed, 1u);
  EXPECT_LT(bal.report.makespan, stat.report.makespan)
      << "migrating pools off a 2x-slow node must shorten the run";
}

// --- Page re-homing under faults, checked by the coherence oracle ----------------------------

// Short retransmission timeouts keep the faulted runs quick.
ClusterConfig FaultedBalancedConfig() {
  ClusterConfig cfg = BaseConfig();
  EnableBalancer(cfg);
  cfg.packet.retransmit_timeout = Milliseconds(10.0);
  cfg.packet.retransmit_timeout_max = Milliseconds(40.0);
  cfg.max_virtual_time = Seconds(300.0);
  return cfg;
}

TEST(BalancerFaultTest, RehomingSurvivesUniformLossUnderTheOracle) {
  ClusterConfig cfg = FaultedBalancedConfig();
  cfg.fault_plan.loss_rate = 0.05;  // every class: migrates, re-homes, acks, page traffic
  cfg.fault_plan.seed = 33;
  dsm::CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  const LbRun r = RunSkewed(cfg);
  ASSERT_TRUE(r.report.completed) << r.report.deadlock_report;
  EXPECT_EQ(r.validation_error, 0.0) << "a lost migrate or re-home corrupted the grid";
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  EXPECT_GE(SumCounter(r.report, "core.filaments_migrated"), 1u);
  EXPECT_GE(r.report.TotalDsm().pages_rehomed, 1u);
}

TEST(BalancerFaultTest, DuplicatedMigratesAndRehomesApplyExactlyOnce) {
  // Duplicate every kFilamentMigrate and kRehomePages datagram with enough delay that the copy
  // lands an epoch later: the per-epoch idempotence guard must drop it, or filaments run twice
  // (validation catches it) and ownership forks (the oracle catches it).
  ClusterConfig cfg = FaultedBalancedConfig();
  for (const net::Service svc : {net::Service::kFilamentMigrate, net::Service::kRehomePages}) {
    sim::FaultRule dup;
    dup.type = static_cast<uint32_t>(svc);
    dup.duplicate = 1.0;
    dup.delay_min = Milliseconds(1.0);
    dup.delay_max = Milliseconds(30.0);
    cfg.fault_plan.rules.push_back(dup);
  }
  cfg.fault_plan.seed = 91;
  dsm::CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  const LbRun r = RunSkewed(cfg);
  ASSERT_TRUE(r.report.completed) << r.report.deadlock_report;
  EXPECT_EQ(r.validation_error, 0.0) << "a duplicated migrate re-ran filaments";
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  EXPECT_GE(SumCounter(r.report, "core.filaments_migrated"), 1u);
  EXPECT_GE(r.report.TotalDsm().pages_rehomed, 1u);
}

TEST(BalancerFaultTest, DelayedRehomeDuplicateCannotOrphanARetakenPage) {
  // The copy of a re-home request reaches the source 150 ms late, after the source has taken the
  // page back with an ordinary write fault. Serving it would transfer ownership to a requester
  // that finished that fetch long ago and drops the reply, leaving the page with no owner: the
  // serve guard must recognize the copy as a stale duplicate.
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.seed = 7;
  sim::FaultRule dup;
  dup.type = static_cast<uint32_t>(net::Service::kRehomePages);
  dup.duplicate = 1.0;
  dup.delay_min = Milliseconds(150.0);
  dup.delay_max = Milliseconds(150.0);
  cfg.fault_plan.rules.push_back(dup);
  dsm::CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  Cluster cluster(cfg);
  const GlobalAddr addr = cluster.layout().AllocPadded(sizeof(int64_t), "rehomed");
  cluster.layout().SetInitialOwner(addr, sizeof(int64_t), 1);
  const PageId page = cluster.layout().PageOf(addr);
  std::vector<int64_t> seen(2, 0);
  const RunReport report = cluster.Run([&](NodeEnv& env) {
    env.Barrier();
    if (env.node() == 0) {
      env.runtime().dsm().RequestRehome({page}, 1);
    }
    env.Barrier();
    if (env.node() == 1) {
      env.Write<int64_t>(addr, 42);
      env.ChargeWork(Milliseconds(400.0));
    }
    env.Barrier();
    if (env.node() == 0) {
      seen[0] = env.Read<int64_t>(addr);
    }
    env.Barrier();
    if (env.node() == 1) {
      seen[1] = env.Read<int64_t>(addr);
    }
    env.Barrier();
  });
  ASSERT_TRUE(report.completed) << report.deadlock_report;
  EXPECT_EQ(seen[0], 42);
  EXPECT_EQ(seen[1], 42);
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  EXPECT_GE(report.TotalDsm().stale_transfer_dups_ignored, 1u);
}

// --- ClusterConfig::Validate on the balancer block -------------------------------------------

bool AnyErrorMentions(const std::vector<std::string>& errors, const std::string& needle) {
  for (const std::string& e : errors) {
    if (e.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(BalancerValidateTest, AcceptsEnabledBalancerOnChampionBarriers) {
  ClusterConfig cfg = BaseConfig();
  EnableBalancer(cfg);
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.barrier = ClusterConfig::BarrierKind::kCentral;  // central also has a champion
  EXPECT_TRUE(cfg.Validate().empty());
}

TEST(BalancerValidateTest, DisabledBalancerSkipsKnobChecks) {
  // Out-of-range knobs in a disabled block are inert (KnobValuesAreInertWhileDisabled proves
  // the runtime side); Validate must not reject a config whose dead knobs are nonsense.
  ClusterConfig cfg = BaseConfig();
  cfg.balancer.enabled = false;
  cfg.balancer.balance_trigger_ratio = -3.0;
  cfg.balancer.balance_move_fraction = 42.0;
  cfg.balancer.balance_patience_epochs = 0;
  EXPECT_TRUE(cfg.Validate().empty());
}

TEST(BalancerValidateTest, RejectsDisseminationBarrier) {
  ClusterConfig cfg = BaseConfig();
  EnableBalancer(cfg);
  cfg.barrier = ClusterConfig::BarrierKind::kDissemination;
  EXPECT_TRUE(AnyErrorMentions(cfg.Validate(), "champion"))
      << "dissemination has no champion to aggregate the samples";
}

TEST(BalancerValidateTest, RejectsOutOfRangeKnobs) {
  {
    ClusterConfig cfg = BaseConfig();
    EnableBalancer(cfg);
    cfg.balancer.balance_trigger_ratio = 0.0;
    EXPECT_TRUE(AnyErrorMentions(cfg.Validate(), "balance_trigger_ratio"));
    cfg.balancer.balance_trigger_ratio = 1.5;
    EXPECT_TRUE(AnyErrorMentions(cfg.Validate(), "balance_trigger_ratio"));
  }
  {
    ClusterConfig cfg = BaseConfig();
    EnableBalancer(cfg);
    cfg.balancer.balance_patience_epochs = 0;
    EXPECT_TRUE(AnyErrorMentions(cfg.Validate(), "balance_patience_epochs"));
  }
  {
    ClusterConfig cfg = BaseConfig();
    EnableBalancer(cfg);
    cfg.balancer.balance_cooldown_epochs = 0;
    EXPECT_TRUE(AnyErrorMentions(cfg.Validate(), "balance_cooldown_epochs"));
  }
  {
    ClusterConfig cfg = BaseConfig();
    EnableBalancer(cfg);
    cfg.balancer.balance_move_fraction = 0.0;
    EXPECT_TRUE(AnyErrorMentions(cfg.Validate(), "balance_move_fraction"));
    cfg.balancer.balance_move_fraction = 2.0;
    EXPECT_TRUE(AnyErrorMentions(cfg.Validate(), "balance_move_fraction"));
  }
}

}  // namespace
}  // namespace dfil::core
