#include "simspeed/workloads.h"

#include <cstring>
#include <functional>

#include "src/apps/fuzz_driver.h"
#include "src/apps/jacobi.h"
#include "src/apps/matmul.h"
#include "src/apps/quadrature.h"
#include "src/core/cluster.h"

namespace simspeed {
namespace {

using namespace dfil;

// The paper's testbed at 8 nodes: SunIpc cost model on one shared 10 Mb/s Ethernet.
core::ClusterConfig PaperConfig8(uint64_t seed) {
  core::ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.costs = sim::CostModel::SunIpcEthernet();
  cfg.network = core::NetworkKind::kSharedEthernet;
  cfg.seed = seed;
  return cfg;
}

// Cluster construction plus an empty SPMD run: stacks, endpoints and the event loop come up.
void FirstClusterStart(const core::ClusterConfig& cfg) {
  core::Cluster cluster(cfg);
  const core::RunReport r = cluster.Run([](core::NodeEnv&) {});
  DFIL_CHECK(r.completed);
}

Counts CountsOf(const core::RunReport& r) {
  Counts c;
  c.makespan_s = r.seconds();
  c.messages = r.net.messages_sent;
  c.bytes_sent = r.net.bytes_sent;
  c.retransmissions = r.net.retransmissions;
  c.events = r.events;
  c.medium_busy_s = ToSeconds(r.medium_busy);
  for (const core::NodeReport& nr : r.nodes) {
    const FilamentStats& f = nr.filaments;
    c.filaments_run += f.filaments_run;
    c.filaments_inlined += f.filaments_run_inlined;
    c.forks += f.forks_local + f.forks_pruned + f.forks_sent;
    c.forks_pruned += f.forks_pruned;
    c.forks_executed += f.forks_local + f.forks_sent;
    c.steals_attempted += f.steals_attempted;
    c.steals_succeeded += f.steals_succeeded;
    c.pool_suspensions += f.pool_suspensions;
    c.server_threads_started += f.server_threads_started;
    c.read_faults += nr.dsm.read_faults;
    c.write_faults += nr.dsm.write_faults;
    c.page_request_messages += nr.dsm.page_request_messages();
    c.page_data_bytes += nr.dsm.page_data_bytes;
    c.invalidations_sent += nr.dsm.invalidations_sent;
    c.datagrams_sent += nr.packet.datagrams_sent;
  }
  return c;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// One DF application at its 8-node paper point, checked bit-for-bit against its sequential
// reference.
struct AppSpec {
  std::string name;
  std::function<core::ClusterConfig(uint64_t seed)> config;
  std::function<apps::AppRun(const core::ClusterConfig&)> df;
  std::function<apps::AppRun(const core::ClusterConfig&)> seq;
  // Empty when `df` matches `seq`, else what differs.
  std::function<std::string(const apps::AppRun& df, const apps::AppRun& seq)> check;
  std::function<Computed(const apps::AppRun& seq)> computed;
};

class AppWorkload : public Workload {
 public:
  explicit AppWorkload(AppSpec spec) : spec_(std::move(spec)) {}

  std::string name() const override { return spec_.name; }

  void Setup(uint64_t seed, Spans* spans) override {
    cfg_ = spec_.config(seed);
    {
      SpanScope s(spans, "setup.seq_reference");
      core::ClusterConfig seq_cfg = cfg_;
      seq_cfg.nodes = 1;
      const Clock::time_point t0 = Clock::now();
      seq_ = spec_.seq(seq_cfg);
      seq_wall_s_ = SecondsSince(t0);
      DFIL_CHECK(seq_.report.completed) << spec_.name << ": sequential reference did not complete";
    }
    SpanScope s(spans, "setup.first_cluster_start");
    FirstClusterStart(cfg_);
  }

  PassResult Pass(const PassOptions& opts) override {
    core::ClusterConfig cfg = cfg_;
    cfg.waitstate_enabled = opts.recorders;
    cfg.pool_profile_enabled = opts.recorders;
    cfg.trace_enabled = opts.program_trace;
    PassResult out;
    out.attempted = 1;
    apps::AppRun df;
    {
      SpanScope s(opts.spans, spec_.name + ".run");
      const Clock::time_point t0 = Clock::now();
      df = spec_.df(cfg);
      out.wall_s = SecondsSince(t0);
    }
    SpanScope s(opts.spans, spec_.name + ".check");
    out.counts = CountsOf(df.report);
    std::string error;
    if (!df.report.completed) {
      error = "did not complete: " + df.report.deadlock_report;
    } else {
      error = spec_.check(df, seq_);
    }
    if (!error.empty()) {
      out.errors.push_back(spec_.name + ": " + error);
    }
    return out;
  }

  double seq_wall_s() const override { return seq_wall_s_; }
  Computed computed() const override { return spec_.computed(seq_); }
  bool has_recorder_switch() const override { return true; }

 private:
  AppSpec spec_;
  core::ClusterConfig cfg_;
  apps::AppRun seq_;
  double seq_wall_s_ = 0;
};

std::string CheckOutputBitwise(const apps::AppRun& df, const apps::AppRun& seq) {
  return BitwiseEqual(df.output, seq.output) ? "" : "output differs from the sequential reference";
}

AppSpec JacobiSpec() {
  apps::JacobiParams p;  // 256x256, 360 iterations, 3 pools
  AppSpec s;
  s.name = "jacobi8";
  s.config = [](uint64_t seed) {
    core::ClusterConfig cfg = PaperConfig8(seed);
    cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
    return cfg;
  };
  s.df = [p](const core::ClusterConfig& cfg) { return apps::RunJacobiDf(p, cfg); };
  s.seq = [p](const core::ClusterConfig& cfg) { return apps::RunJacobiSeq(p, cfg); };
  s.check = CheckOutputBitwise;
  s.computed = [p](const apps::AppRun&) {
    const uint64_t points = static_cast<uint64_t>(p.n - 2) * (p.n - 2) * p.iterations;
    // PointFilament: five reads and one write per point, one ChargeWork per point.
    return Computed{points * 6, points, 1};
  };
  return s;
}

AppSpec MatmulSpec() {
  apps::MatmulParams p;  // 512x512, 4 pools per node
  AppSpec s;
  s.name = "matmul8";
  s.config = [](uint64_t seed) {
    core::ClusterConfig cfg = PaperConfig8(seed);
    cfg.dsm.pcp = dsm::Pcp::kWriteInvalidate;
    return cfg;
  };
  s.df = [p](const core::ClusterConfig& cfg) { return apps::RunMatmulDf(p, cfg); };
  s.seq = [p](const core::ClusterConfig& cfg) { return apps::RunMatmulSeq(p, cfg); };
  s.check = CheckOutputBitwise;
  s.computed = [p](const apps::AppRun&) {
    const uint64_t points = static_cast<uint64_t>(p.n) * p.n;
    // PointFilament: one A-row read, n B reads and one C write per point; one ChargeWork.
    return Computed{points * (p.n + 2), points, 1};
  };
  return s;
}

AppSpec QuadratureSpec() {
  apps::QuadratureParams p;  // [0, 24], default tolerance
  AppSpec s;
  s.name = "quad8";
  s.config = [](uint64_t seed) { return PaperConfig8(seed); };
  s.df = [p](const core::ClusterConfig& cfg) { return apps::RunQuadratureDf(p, cfg); };
  s.seq = [p](const core::ClusterConfig& cfg) { return apps::RunQuadratureSeq(p, cfg); };
  s.check = [](const apps::AppRun& df, const apps::AppRun& seq) -> std::string {
    // DF output is the evaluation count per node; seq output is {integral, evaluations}.
    double evals = 0;
    for (double e : df.output) {
      evals += e;
    }
    if (std::memcmp(&df.checksum, &seq.checksum, sizeof(double)) != 0) {
      return "integral differs from the sequential reference";
    }
    if (seq.output.size() != 2 || evals != seq.output[1]) {
      return "evaluation count differs from the sequential reference";
    }
    return "";
  };
  s.computed = [](const apps::AppRun& seq) {
    // No DSM accesses; one ChargeWork per integrand evaluation.
    return Computed{0, static_cast<uint64_t>(seq.output.at(1)), 1};
  };
  return s;
}

// Every fuzz scenario over kSeedsPerScenario consecutive seeds starting at seed * that count,
// with the coherence oracle on (RunFuzzCase attaches it). A case fails when !ok().
class FuzzSweep : public Workload {
 public:
  static constexpr uint64_t kSeedsPerScenario = 256;

  std::string name() const override { return "fuzz_sweep"; }

  // The first cluster start, then one warm-up case per scenario (the first of its range; a
  // failure shows when the pass runs it again).
  void Setup(uint64_t seed, Spans* spans) override {
    first_seed_ = seed * kSeedsPerScenario;
    {
      SpanScope s(spans, "setup.first_cluster_start");
      core::ClusterConfig cfg;
      cfg.nodes = 4;  // the largest node count the fuzz driver draws
      FirstClusterStart(cfg);
    }
    SpanScope s(spans, "setup.warmup_cases");
    for (const std::string& scenario : apps::FuzzScenarios()) {
      apps::RunFuzzCase(scenario, first_seed_);
    }
  }

  PassResult Pass(const PassOptions& opts) override {
    apps::FuzzOptions fo;
    fo.capture_trace = opts.program_trace;
    PassResult out;
    out.case_ms.reserve(apps::FuzzScenarios().size() * kSeedsPerScenario);
    for (const std::string& scenario : apps::FuzzScenarios()) {
      for (uint64_t s = first_seed_; s < first_seed_ + kSeedsPerScenario; ++s) {
        SpanScope span(opts.spans, "fuzz.case");
        const Clock::time_point t0 = Clock::now();
        const apps::FuzzResult r = apps::RunFuzzCase(scenario, s, fo);
        const double dt = SecondsSince(t0);
        out.wall_s += dt;
        out.case_ms.push_back(dt * 1e3);
        out.attempted++;
        if (!r.ok()) {
          out.errors.push_back(r.Summary());
        }
        Counts& c = out.counts;
        c.makespan_s += ToSeconds(r.makespan);
        c.messages += r.net.messages_sent;
        c.bytes_sent += r.net.bytes_sent;
        c.retransmissions += r.net.retransmissions;
        c.read_faults += r.dsm.read_faults;
        c.write_faults += r.dsm.write_faults;
        c.invalidations_sent += r.dsm.invalidations_sent;
      }
    }
    return out;
  }

  double seq_wall_s() const override { return 0; }
  Computed computed() const override {
    // Two clusters per case: the faulted DF run and its sequential reference.
    return Computed{0, 0, 2 * apps::FuzzScenarios().size() * kSeedsPerScenario};
  }
  bool has_recorder_switch() const override { return false; }

 private:
  uint64_t first_seed_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"jacobi8", "matmul8", "quad8", "fuzz_sweep"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "jacobi8") {
    return std::make_unique<AppWorkload>(JacobiSpec());
  }
  if (name == "matmul8") {
    return std::make_unique<AppWorkload>(MatmulSpec());
  }
  if (name == "quad8") {
    return std::make_unique<AppWorkload>(QuadratureSpec());
  }
  if (name == "fuzz_sweep") {
    return std::make_unique<FuzzSweep>();
  }
  return nullptr;
}

}  // namespace simspeed
