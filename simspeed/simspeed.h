// Shared pieces of the simspeed host-time benchmark: timing helpers, the benchmark's own span
// recorder, and the exact per-layer counts one workload pass produces.
#ifndef DFIL_SIMSPEED_SIMSPEED_H_
#define DFIL_SIMSPEED_SIMSPEED_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace simspeed {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}


// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Benchmark-side spans, kept in memory and written once at exit as Chrome trace-event JSON.
// A span's parent is the span open when it began; `trace` groups the spans of one pass.
class Spans {
 public:
  struct Span {
    std::string name;
    int64_t id;
    int64_t parent;  // -1 at top level
    int64_t trace;
    double start_us;
    double end_us;
  };

  int64_t Begin(const std::string& name);
  void End(int64_t id);
  void set_trace(int64_t trace) { trace_ = trace; }
  void WriteChromeJson(std::ostream& os) const;
  // Count, total and self time per span name, to stdout.
  void PrintSelfTimes() const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
  int64_t trace_ = 0;
};

// RAII span; a null recorder records nothing (the untraced runs).
class SpanScope {
 public:
  SpanScope(Spans* spans, const std::string& name)
      : spans_(spans), id_(spans != nullptr ? spans->Begin(name) : -1) {}
  ~SpanScope() {
    if (spans_ != nullptr) {
      spans_->End(id_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
  int64_t id_;
};

// Exact virtual-clock results of one pass, summed over the pass's runs. Two passes of the same
// workload and seed must produce equal Counts whatever the host-side settings (recorders,
// tracing); the benchmark fails the run otherwise. Fields a FuzzResult does not export stay 0 on
// fuzz_sweep.
struct Counts {
  double makespan_s = 0;  // virtual seconds; summed over cases on fuzz_sweep
  uint64_t messages = 0;  // cluster messages (MessageStats::messages_sent)
  // core
  uint64_t filaments_run = 0;
  uint64_t filaments_inlined = 0;
  uint64_t forks = 0;  // local + pruned + shipped
  uint64_t forks_pruned = 0;
  uint64_t forks_executed = 0;  // local + shipped: forks that ran as filaments
  uint64_t steals_attempted = 0;
  uint64_t steals_succeeded = 0;
  uint64_t pool_suspensions = 0;
  uint64_t server_threads_started = 0;
  // dsm
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t page_request_messages = 0;
  uint64_t page_data_bytes = 0;
  uint64_t invalidations_sent = 0;
  // net
  uint64_t datagrams_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t retransmissions = 0;
  // sim
  uint64_t events = 0;
  double medium_busy_s = 0;

  bool operator==(const Counts&) const = default;
};

}  // namespace simspeed

#endif  // DFIL_SIMSPEED_SIMSPEED_H_
