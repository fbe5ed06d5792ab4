// simspeed: host wall-clock and virtual makespan of the simulator on four workloads.
//
//   simspeed --workload jacobi8|matmul8|quad8|fuzz_sweep|all --seed N --seconds S --trace 0|1
//            [--check] [--spans FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs the per-layer probes
// and interleaves plain, recorders-off and traced passes. --check runs set-up and two passes per
// workload with no timing loop. Every pass is checked against the sequential reference, and all
// passes of a workload must produce identical virtual results; any failure exits 1. Each workload
// ends with one "RESULT {json}" line; README.md describes every metric.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "simspeed/probes.h"
#include "simspeed/simspeed.h"
#include "simspeed/workloads.h"

namespace simspeed {

int64_t Spans::Begin(const std::string& name) {
  const auto id = static_cast<int64_t>(spans_.size());
  const double now = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  spans_.push_back(Span{name, id, open_.empty() ? -1 : open_.back(), trace_, now, now});
  open_.push_back(id);
  return id;
}

void Spans::End(int64_t id) {
  spans_[static_cast<size_t>(id)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  open_.pop_back();
}

void Spans::WriteChromeJson(std::ostream& os) const {
  os << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"ts\": %.3f, \"dur\": %.3f", s.start_us,
                  s.end_us - s.start_us);
    os << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
       << "\"tid\": 1, " << buf << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"trace\": " << s.trace << "}}";
  }
  os << "\n]}\n";
}

void Spans::PrintSelfTimes() const {
  // Children run nested and one at a time, so self time is duration minus the children's.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  struct Row {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans_) {
    Row& r = rows[s.name];
    r.count++;
    r.total_ms += (s.end_us - s.start_us) / 1e3;
    r.self_ms += (s.end_us - s.start_us - child_us[static_cast<size_t>(s.id)]) / 1e3;
  }
  std::printf("\n== spans (benchmark side, all workloads) ==\n  %-28s %8s %12s %12s\n", "span",
              "count", "total_ms", "self_ms");
  for (const auto& [name, r] : rows) {
    std::printf("  %-28s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(r.count), r.total_ms, r.self_ms);
  }
}

namespace {

struct Args {
  std::string workload = "all";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool check = false;
  std::string spans_path;
};

[[noreturn]] void Usage(const char* argv0, const std::string& bad) {
  std::fprintf(stderr,
               "%s: bad argument '%s'\nusage: %s --workload jacobi8|matmul8|quad8|fuzz_sweep|all "
               "--seed N --seconds S --trace 0|1 [--check] [--spans FILE]\n",
               argv0, bad.c_str(), argv0);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--check") {
      a.check = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(argv[0], key);
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--spans") {
      a.spans_path = value;
    } else {
      Usage(argv[0], key);
    }
  }
  return a;
}

// Peak resident set since the last ResetPeakRss (VmHWM; clear_refs "5" resets it).
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// One workload's outcome: metrics in print order, plus the check verdict.
class Result {
 public:
  explicit Result(std::string workload) : workload_(std::move(workload)) {}

  // clock: "host" or "virtual"; kind: "measured", "exact", "computed" or "modelled".
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& clock, const std::string& kind) {
    metrics_.push_back(Metric{name, value, unit, clock, kind});
  }
  // One failed run or case (or a pass whose schedule changed).
  void Fail(const std::string& error) {
    errors_.push_back(error);
    failed_++;
  }
  void Note(const std::string& note) { notes_.push_back(note); }
  void Count(const PassResult& r) {
    attempted_ += r.attempted;
    for (const std::string& e : r.errors) {
      Fail(e);
    }
  }
  bool correct() const { return errors_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  void Print() const {
    std::printf("\n== %s ==\n", workload_.c_str());
    std::printf("  %-28s %18s  %-10s %-8s %s\n", "metric", "value", "unit", "clock", "kind");
    for (const Metric& m : metrics_) {
      std::printf("  %-28s %18.6g  %-10s %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.clock.c_str(), m.kind.c_str());
    }
    for (const std::string& n : notes_) {
      std::printf("  %s\n", n.c_str());
    }
    std::printf("  checks: %s (%llu attempted, %llu failed)\n", correct() ? "ok" : "FAILED",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < errors_.size() && i < 20; ++i) {
      std::printf("  error: %s\n", errors_[i].c_str());
    }
    std::ostringstream os;
    os << "RESULT {\"workload\": \"" << workload_ << "\", \"correct\": "
       << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char value[40];
      std::snprintf(value, sizeof(value), "%.17g", m.value);
      os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << value
         << ", \"unit\": \"" << m.unit << "\", \"clock\": \"" << m.clock << "\", \"kind\": \""
         << m.kind << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string clock;
    std::string kind;
  };
  std::string workload_;
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Passes must reproduce the first pass's virtual results exactly, whatever the host settings.
// Returns whether they did.
bool CheckSame(Result& res, const Counts& first, const PassResult& r, const std::string& what) {
  if (!(r.counts == first)) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "virtual results changed (%s): makespan %.9f s -> %.9f s, messages %llu -> %llu",
                  what.c_str(), first.makespan_s, r.counts.makespan_s,
                  static_cast<unsigned long long>(first.messages),
                  static_cast<unsigned long long>(r.counts.messages));
    res.Fail(buf);
    return false;
  }
  return true;
}

void AddVirtual(Result& res, const Counts& c) {
  res.Add("makespan_s", c.makespan_s, "virtual_s", "virtual", "exact");
  res.Add("messages", static_cast<double>(c.messages), "count", "virtual", "exact");
}

constexpr int kSetups = 3;     // set-up repetitions in a timed run (setup_s is their median)
constexpr int kMinPasses = 3;  // timed passes, at least

// --trace 0: set-up kSetups times (its first cluster start is the warm-up), then timed passes
// until `seconds` would be exceeded.
Result Timed(Workload& w, const Args& a) {
  Result res(w.name());
  ResetPeakRss();
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    w.Setup(a.seed, nullptr);
    setups.push_back(SecondsSince(t0));
  }
  std::vector<double> walls;
  std::vector<double> cases;
  Counts first;
  const Clock::time_point start = Clock::now();
  while (walls.size() < kMinPasses || SecondsSince(start) + walls.back() <= a.seconds) {
    const PassResult r = w.Pass({});
    res.Count(r);
    if (walls.empty()) {
      first = r.counts;
    }
    CheckSame(res, first, r, "timed pass");
    walls.push_back(r.wall_s);
    std::fprintf(stderr, "%s pass %zu: %.4f s\n", w.name().c_str(), walls.size(), r.wall_s);
    cases.insert(cases.end(), r.case_ms.begin(), r.case_ms.end());
  }
  res.Add("wall_s", Median(walls), "s", "host", "measured");
  res.Add("wall_s_p25", Quantile(walls, 0.25), "s", "host", "measured");
  res.Add("wall_s_p75", Quantile(walls, 0.75), "s", "host", "measured");
  res.Add("wall_s_samples", static_cast<double>(walls.size()), "count", "host", "exact");
  res.Add("setup_s", Median(setups), "s", "host", "measured");
  res.Add("peak_rss_mib", PeakRssMib(), "MiB", "host", "measured");
  AddVirtual(res, first);
  res.Add("failed_ratio", static_cast<double>(res.failed()) / static_cast<double>(res.attempted()),
          "ratio", "host", "exact");
  if (!cases.empty()) {
    res.Add("case_p50_ms", Quantile(cases, 0.5), "ms", "host", "measured");
    res.Add("case_p99_ms", Quantile(cases, 0.99), "ms", "host", "measured");
    res.Add("case_samples", static_cast<double>(cases.size()), "count", "host", "exact");
  }
  return res;
}

// --check: set-up and two passes, outputs and determinism checked, nothing timed.
Result Check(Workload& w, const Args& a) {
  Result res(w.name());
  w.Setup(a.seed, nullptr);
  const PassResult first = w.Pass({});
  res.Count(first);
  const PassResult second = w.Pass({});
  res.Count(second);
  CheckSame(res, first.counts, second, "second pass");
  AddVirtual(res, first.counts);
  return res;
}

// --trace 1: per-layer probes, then cycles of plain / recorders-off / traced passes, interleaved
// so host drift hits all three alike.
Result Traced(Workload& w, const Args& a, Spans& spans) {
  Result res(w.name());
  const Clock::time_point start = Clock::now();
  {
    SpanScope s(&spans, "setup");
    w.Setup(a.seed, &spans);
  }
  const ProbeResults p = RunProbes(&spans);
  struct Kind {
    const char* span;
    PassOptions opts;
    std::vector<double> walls;
  };
  std::vector<Kind> kinds = {{"pass.plain", {}, {}},
                             {"pass.recorders_off", {.recorders = false}, {}},
                             {"pass.traced", {.program_trace = true, .spans = &spans}, {}}};
  if (!w.has_recorder_switch()) {
    kinds.erase(kinds.begin() + 1);
  }
  Counts first;
  bool have_first = false;
  bool same = true;
  for (size_t cycle = 0;; ++cycle) {
    spans.set_trace(static_cast<int64_t>(cycle) + 1);
    const Clock::time_point t0 = Clock::now();
    // Rotate the order each cycle, so no kind always runs first.
    for (size_t i = 0; i < kinds.size(); ++i) {
      Kind& kind = kinds[(cycle + i) % kinds.size()];
      PassResult r;
      {
        SpanScope s(&spans, kind.span);
        r = w.Pass(kind.opts);
      }
      res.Count(r);
      if (!have_first) {
        first = r.counts;
        have_first = true;
      }
      same = CheckSame(res, first, r, kind.span) && same;
      kind.walls.push_back(r.wall_s);
    }
    if (SecondsSince(start) + SecondsSince(t0) > a.seconds) {
      break;
    }
  }
  const std::vector<double>& plain = kinds.front().walls;
  const std::vector<double>& traced = kinds.back().walls;
  const std::vector<double> off = kinds.size() == 3 ? kinds[1].walls : std::vector<double>{};
  const Counts& c = first;
  const Computed k = w.computed();
  const double wall = Median(plain);
  auto exact = [&](const std::string& name, double v) {
    res.Add(name, v, "count", "virtual", "exact");
  };
  exact("core.filaments_run", static_cast<double>(c.filaments_run));
  exact("core.filaments_inlined", static_cast<double>(c.filaments_inlined));
  exact("core.forks", static_cast<double>(c.forks));
  exact("core.forks_pruned", static_cast<double>(c.forks_pruned));
  exact("core.steals_attempted", static_cast<double>(c.steals_attempted));
  res.Add("core.steal_success_ratio",
          c.steals_attempted == 0 ? 0.0
                                  : static_cast<double>(c.steals_succeeded) /
                                        static_cast<double>(c.steals_attempted),
          "ratio", "virtual", "exact");
  exact("core.pool_suspensions", static_cast<double>(c.pool_suspensions));
  exact("core.server_threads_started", static_cast<double>(c.server_threads_started));
  exact("dsm.read_faults", static_cast<double>(c.read_faults));
  exact("dsm.write_faults", static_cast<double>(c.write_faults));
  exact("dsm.page_request_messages", static_cast<double>(c.page_request_messages));
  res.Add("dsm.page_data_bytes", static_cast<double>(c.page_data_bytes), "bytes", "virtual",
          "exact");
  exact("dsm.invalidations_sent", static_cast<double>(c.invalidations_sent));
  res.Add("dsm.accesses", static_cast<double>(k.accesses), "count", "host", "computed");
  exact("net.datagrams_sent", static_cast<double>(c.datagrams_sent));
  res.Add("net.bytes_sent", static_cast<double>(c.bytes_sent), "bytes", "virtual", "exact");
  exact("net.retransmissions", static_cast<double>(c.retransmissions));
  exact("sim.events", static_cast<double>(c.events));
  res.Add("sim.medium_busy_s", c.medium_busy_s, "virtual_s", "virtual", "exact");
  res.Add("apps.seq_wall_s", w.seq_wall_s(), "s", "host", "measured");

  auto probe = [&](const std::string& name, double v, const std::string& unit) {
    res.Add(name, v, unit, "host", "measured");
  };
  probe("threads.switch_ns", p.switch_ns, "ns");
  probe("sim.event_ns", p.event_ns, "ns");
  probe("core.charge_ns", p.charge_ns, "ns");
  probe("core.filament_ns", p.filament_ns, "ns");
  probe("core.filament_desc_ns", p.filament_desc_ns, "ns");
  probe("core.fork_ns", p.fork_ns, "ns");
  probe("dsm.access_hit_ns", p.access_hit_ns, "ns");
  probe("dsm.fault_ns", p.fault_ns, "ns");
  probe("net.barrier_ns", p.barrier_ns, "ns");
  probe("net.datagram_ns", p.datagram_ns, "ns");
  probe("core.run_startup_ms", p.run_startup_ms, "ms");
  probe("core.metrics_export_ms", p.metrics_export_ms, "ms");
  // Differences are taken within a cycle, whose passes ran back to back, then the median.
  std::vector<double> saved, overhead;
  for (size_t i = 0; i < plain.size(); ++i) {
    if (!off.empty()) {
      saved.push_back((plain[i] - off[i]) / plain[i]);
    }
    overhead.push_back(traced[i] - plain[i]);
  }
  // 0 where the recorders cannot be switched off (fuzz_sweep).
  probe("common.recorders_share", Median(saved), "ratio");

  // Modelled split of the plain pass: exact (or computed) count x probe ns/op / wall_s. The
  // probes' own loops overlap (a fault also switches threads and dispatches events), so the
  // split is a guide to where time goes, not a partition; share.unattributed is the rest.
  const double ns = wall * 1e9;
  const double pool_filaments =
      c.filaments_run > c.forks_executed ? static_cast<double>(c.filaments_run - c.forks_executed)
                                         : 0.0;
  const double inlined = static_cast<double>(c.filaments_inlined);
  // fuzz_sweep exports message counts only; a message is at least one datagram.
  const double wire = static_cast<double>(c.datagrams_sent != 0 ? c.datagrams_sent : c.messages);
  std::map<std::string, double> share;
  share["apps"] = w.seq_wall_s() / wall;
  share["core"] = (static_cast<double>(k.charges) * p.charge_ns + inlined * p.filament_ns +
                   (pool_filaments - inlined) * p.filament_desc_ns +
                   static_cast<double>(c.forks) * p.fork_ns +
                   static_cast<double>(k.clusters) * p.run_startup_ms * 1e6) /
                  ns;
  share["dsm"] = (static_cast<double>(k.accesses) * p.access_hit_ns +
                  static_cast<double>(c.read_faults + c.write_faults) * p.fault_ns) /
                 ns;
  share["net"] = wire * p.datagram_ns / ns;
  share["sim"] = static_cast<double>(c.events) * p.event_ns / ns;
  double attributed = 0;
  for (const auto& [layer, v] : share) {
    res.Add("share." + layer, v, "ratio", "host", "modelled");
    attributed += v;
  }
  res.Add("share.unattributed", 1.0 - attributed, "ratio", "host", "modelled");
  res.Add("trace.wall_untraced_s", wall, "s", "host", "measured");
  res.Add("trace.wall_traced_s", Median(traced), "s", "host", "measured");
  res.Add("trace.overhead_s", Median(overhead), "s", "host", "measured");
  res.Add("trace.cycles", static_cast<double>(plain.size()), "count", "host", "exact");
  AddVirtual(res, c);
  res.Note(std::string(same ? "identical" : "NOT identical") +
           " virtual results over " + std::to_string(plain.size()) + " plain, " +
           std::to_string(off.size()) + " recorders-off and " + std::to_string(traced.size()) +
           " traced passes, in rotating order");
  return res;
}

}  // namespace
}  // namespace simspeed

int main(int argc, char** argv) {
  using namespace simspeed;
  const Args a = ParseArgs(argc, argv);
  std::vector<std::string> names;
  if (a.workload == "all") {
    names = WorkloadNames();
  } else if (MakeWorkload(a.workload) != nullptr) {
    names = {a.workload};
  } else {
    Usage(argv[0], a.workload);
  }
  Spans spans;
  bool ok = true;
  for (const std::string& name : names) {
    const std::unique_ptr<Workload> w = MakeWorkload(name);
    const Result res = a.check ? Check(*w, a) : a.trace ? Traced(*w, a, spans) : Timed(*w, a);
    res.Print();
    ok = ok && res.correct();
  }
  if (a.trace) {
    spans.PrintSelfTimes();
    if (!a.spans_path.empty()) {
      std::ofstream out(a.spans_path);
      spans.WriteChromeJson(out);
    }
  }
  return ok ? 0 : 1;
}
