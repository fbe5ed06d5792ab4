#include "simspeed/probes.h"

#include <functional>
#include <sstream>

#include "src/core/dfil.h"
#include "src/core/metrics_io.h"
#include "src/threads/server_thread.h"

namespace simspeed {
namespace {

using namespace dfil;

constexpr int kRepetitions = 5;

// Median over kRepetitions of `once()`, each returning one repetition's per-op figure.
double MedianOf(Spans* spans, const std::string& name, const std::function<double()>& once) {
  SpanScope s(spans, "probe." + name);
  std::vector<double> v;
  for (int i = 0; i < kRepetitions; ++i) {
    v.push_back(once());
  }
  return Median(v);
}

double NsPerOp(Clock::time_point t0, uint64_t ops) {
  return SecondsSince(t0) * 1e9 / static_cast<double>(ops);
}

core::ClusterConfig Config(int nodes) {
  core::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.costs = sim::CostModel::SunIpcEthernet();
  cfg.network = core::NetworkKind::kSharedEthernet;
  return cfg;
}

// Runs `body` on node 0 of a fresh cluster (the other nodes return at once) and returns the
// host ns per op it reports.
double OnNode0(const core::ClusterConfig& cfg, const std::function<double(core::NodeEnv&)>& body) {
  core::Cluster cluster(cfg);
  double ns = 0;
  const core::RunReport r = cluster.Run([&](core::NodeEnv& env) {
    if (env.node() == 0) {
      ns = body(env);
    }
  });
  DFIL_CHECK(r.completed);
  return ns;
}

void NopFilament(core::NodeEnv&, int64_t, int64_t, int64_t) {}

core::FjResult ForkTree(core::NodeEnv& env, const core::FjArgs& args) {
  if (args.i[0] == 0) {
    return core::FjResult{1, 0};
  }
  core::FjArgs child;
  child.i[0] = args.i[0] - 1;
  core::FjHandle l = env.Fork(&ForkTree, child);
  core::FjHandle r = env.Fork(&ForkTree, child);
  return core::FjResult{env.Join(l).d + env.Join(r).d, 0};
}

double SwitchNs() {
  constexpr uint64_t kN = 200000;
  threads::ThreadSystem sys(threads::DefaultContextBackend());
  threads::ServerThread* t = sys.Create([&sys] {
    for (;;) {
      sys.current()->set_state(threads::ThreadState::kReady);
      sys.SwitchToHost();
    }
  });
  sys.SwitchTo(t);
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < kN; ++i) {
    sys.SwitchTo(t);
  }
  return NsPerOp(t0, kN);
}

double EventNs() {
  constexpr uint64_t kN = 200000;
  sim::EventQueue q;
  uint64_t sink = 0;
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < kN; ++i) {
    q.Schedule(static_cast<SimTime>(i % 1000), [&sink] { ++sink; });
  }
  while (!q.empty()) {
    q.Pop().second();
  }
  const double ns = NsPerOp(t0, kN);
  DFIL_CHECK_EQ(sink, kN);
  return ns;
}

double ChargeNs() {
  return OnNode0(Config(1), [](core::NodeEnv& env) {
    constexpr uint64_t kN = 2000000;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < kN; ++i) {
      env.Charge(TimeCategory::kWork, 1);
    }
    return NsPerOp(t0, kN);
  });
}

double FilamentNs(bool strip) {
  return OnNode0(Config(1), [strip](core::NodeEnv& env) {
    constexpr int64_t kN = 200000;
    const core::PoolHandle pool = env.CreatePool();
    const Clock::time_point t0 = Clock::now();
    for (int64_t i = 0; i < kN; ++i) {
      // A non-affine argument sequence defeats the strip recognizer.
      env.CreateFilament(pool, &NopFilament, strip ? i : (i * i) % 97, 0, 0);
    }
    env.RunPools();
    return NsPerOp(t0, kN);
  });
}

double ForkNs() {
  return OnNode0(Config(1), [](core::NodeEnv& env) {
    constexpr int kDepth = 17;
    core::FjArgs root;
    root.i[0] = kDepth;
    const Clock::time_point t0 = Clock::now();
    const core::FjResult r = env.RunForkJoin(&ForkTree, root);
    DFIL_CHECK_EQ(r.d, static_cast<double>(1 << kDepth));
    return NsPerOp(t0, (uint64_t{2} << kDepth) - 2);
  });
}

double AccessHitNs() {
  constexpr uint64_t kElems = 64 * 512;  // 64 pages of doubles
  core::ClusterConfig cfg = Config(1);
  core::Cluster cluster(cfg);
  const GlobalAddr base = cluster.layout().AllocPadded(kElems * sizeof(double), "probe");
  double ns = 0;
  double sink = 0;
  const core::RunReport r = cluster.Run([&](core::NodeEnv& env) {
    constexpr uint64_t kN = 4000000;
    for (uint64_t i = 0; i < kElems; ++i) {
      env.Write<double>(base + i * sizeof(double), 1.0);
    }
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < kN; ++i) {
      sink += env.Read<double>(base + (i % kElems) * sizeof(double));
    }
    ns = NsPerOp(t0, kN);
  });
  DFIL_CHECK(r.completed);
  DFIL_CHECK_EQ(sink, 4000000.0);
  return ns;
}

double FaultNs() {
  constexpr int kF = 200;
  core::ClusterConfig cfg = Config(2);
  core::Cluster cluster(cfg);
  const size_t page = size_t{1} << cfg.page_shift;
  const GlobalAddr base = cluster.layout().AllocPadded(kF * page, "pages");  // owned by node 0
  double ns = 0;
  const core::RunReport r = cluster.Run([&](core::NodeEnv& env) {
    env.Barrier();
    if (env.node() == 1) {
      const Clock::time_point t0 = Clock::now();
      for (int i = 0; i < kF; ++i) {
        env.Read<double>(base + static_cast<GlobalAddr>(i) * page);
      }
      ns = NsPerOp(t0, kF);
    }
    env.Barrier();
  });
  DFIL_CHECK(r.completed);
  DFIL_CHECK_EQ(r.nodes[1].dsm.read_faults, static_cast<uint64_t>(kF));
  return ns;
}

// One 8-node barrier loop; also keeps the report for the serialisation probe.
struct BarrierRun {
  double barrier_ns = 0;
  double datagram_ns = 0;
  core::RunReport report;
};

BarrierRun Barriers() {
  constexpr int kB = 400;
  core::Cluster cluster(Config(8));
  BarrierRun out;
  double loop_s = 0;
  out.report = cluster.Run([&](core::NodeEnv& env) {
    env.Barrier();
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kB; ++i) {
      env.Barrier();
    }
    if (env.node() == 0) {
      loop_s = SecondsSince(t0);
    }
  });
  DFIL_CHECK(out.report.completed);
  uint64_t datagrams = 0;
  for (const core::NodeReport& nr : out.report.nodes) {
    datagrams += nr.packet.datagrams_sent;
  }
  out.barrier_ns = loop_s * 1e9 / kB;
  // kB + 1 barriers sent the datagrams; the loop timed kB of them.
  out.datagram_ns = out.barrier_ns * (kB + 1) / static_cast<double>(datagrams);
  return out;
}

double RunStartupMs() {
  const Clock::time_point t0 = Clock::now();
  core::Cluster cluster(Config(8));
  const core::RunReport r = cluster.Run([](core::NodeEnv&) {});
  DFIL_CHECK(r.completed);
  return SecondsSince(t0) * 1e3;
}

}  // namespace

ProbeResults RunProbes(Spans* spans) {
  ProbeResults p;
  p.switch_ns = MedianOf(spans, "threads.switch", SwitchNs);
  p.event_ns = MedianOf(spans, "sim.event", EventNs);
  p.charge_ns = MedianOf(spans, "core.charge", ChargeNs);
  p.filament_ns = MedianOf(spans, "core.filament", [] { return FilamentNs(true); });
  p.filament_desc_ns = MedianOf(spans, "core.filament_desc", [] { return FilamentNs(false); });
  p.fork_ns = MedianOf(spans, "core.fork", ForkNs);
  p.access_hit_ns = MedianOf(spans, "dsm.access_hit", AccessHitNs);
  p.fault_ns = MedianOf(spans, "dsm.fault", FaultNs);
  BarrierRun last;
  std::vector<double> datagram;
  p.barrier_ns = MedianOf(spans, "net.barrier", [&] {
    last = Barriers();
    datagram.push_back(last.datagram_ns);
    return last.barrier_ns;
  });
  p.datagram_ns = Median(datagram);
  p.run_startup_ms = MedianOf(spans, "core.run_startup", RunStartupMs);
  p.metrics_export_ms = MedianOf(spans, "core.metrics_export", [&] {
    const Clock::time_point t0 = Clock::now();
    std::ostringstream os;
    core::WriteMetricsJson(last.report, "probe", os);
    return SecondsSince(t0) * 1e3;
  });
  return p;
}

}  // namespace simspeed
