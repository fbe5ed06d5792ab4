#include "src/core/metrics_io.h"

#include <cstdio>
#include <fstream>
#include <map>

#include "src/common/json.h"
#include "src/net/packet.h"

namespace dfil::core {
namespace {

// Every counter of a stats struct's table becomes the "<layer>.<name>" counter of `m`.
template <typename Stats>
void SetCounters(MetricsRegistry& m, const Stats& stats) {
  stats.ForEachCounter([&m](const char* name, uint64_t value) {
    m.Set(std::string(Stats::kLayer) + "." + name, value);
  });
}

// Every stats-struct field becomes a "<layer>.<name>" counter in one per-node registry, so the
// JSON (and everything downstream: dfil_report, the CI gate) sees a single uniform namespace.
MetricsRegistry FlattenNode(const NodeReport& nr) {
  MetricsRegistry m = nr.metrics;  // live histograms + runtime counters first
  SetCounters(m, nr.dsm);
  m.Set("dsm.page_request_messages", nr.dsm.page_request_messages());
  SetCounters(m, nr.packet);
  for (const auto& [svc, count] : nr.sent_by_service) {
    m.Set(std::string("net.sent.") + net::ServiceName(static_cast<net::Service>(svc)), count);
  }
  SetCounters(m, nr.filaments);
  return m;
}

// Cluster totals: per-node counters summed, plus the network-wide MessageStats and the two gate
// counters the CI workflow tracks.
std::map<std::string, uint64_t> ClusterCounters(const RunReport& report) {
  std::map<std::string, uint64_t> totals;
  for (const NodeReport& nr : report.nodes) {
    const MetricsRegistry flat = FlattenNode(nr);  // bound: counters() refers into it
    for (const auto& [name, value] : flat.counters()) {
      totals[name] += value;
    }
    totals["net.barrier_messages"] +=
        nr.sent_by_service.count(static_cast<uint16_t>(net::Service::kReduceUp)) != 0
            ? nr.sent_by_service.at(static_cast<uint16_t>(net::Service::kReduceUp))
            : 0;
    totals["net.barrier_messages"] +=
        nr.sent_by_service.count(static_cast<uint16_t>(net::Service::kReduceDone)) != 0
            ? nr.sent_by_service.at(static_cast<uint16_t>(net::Service::kReduceDone))
            : 0;
  }
  totals["net.messages_sent"] = report.net.messages_sent;
  totals["net.messages_dropped"] = report.net.messages_dropped;
  totals["net.bytes_sent"] = report.net.bytes_sent;
  totals["net.messages_duplicated"] = report.net.messages_duplicated;
  totals["net.messages_delayed"] = report.net.messages_delayed;
  totals["net.stall_deferrals"] = report.net.stall_deferrals;
  return totals;
}

// Cluster-wide per-filament-function rollup of the per-pool ledgers. Key is the deterministic fn
// id (first-registration order, identical across nodes for SPMD programs); fn -1 is the residual:
// non-pool run time plus all serve time (handlers serve the cluster, not any one pool).
struct FnRollup {
  SimTime run = 0;
  SimTime blocked = 0;
  SimTime serve = 0;
  uint64_t faults = 0;
  uint64_t filaments_run = 0;
  uint64_t migrated_in = 0;
};

// Calls f(pool, counters) in pool-id order for each pool that was given a filament (which binds
// its fn) or ran; every other counter is only ever attributed to such a pool.
template <typename F>
void ForEachPool(const NodeReport& nr, F f) {
  for (int pool = 0; pool < nr.ledger.num_pools(); ++pool) {
    const PoolProfiler::Counters c = nr.poolprof.counters(pool);
    if (c.fn >= 0 || nr.ledger.pool_run(pool) != 0) {
      f(pool, c);
    }
  }
}

std::map<int, FnRollup> RollupByFn(const RunReport& report) {
  std::map<int, FnRollup> by_fn;
  for (const NodeReport& nr : report.nodes) {
    ForEachPool(nr, [&](int pool, const PoolProfiler::Counters& c) {
      FnRollup& r = by_fn[c.fn];
      r.run += nr.ledger.pool_run(pool);
      r.blocked += c.blocked;
      r.faults += c.faults;
      r.filaments_run += c.filaments_run;
      r.migrated_in += c.migrated_in;
    });
    FnRollup& other = by_fn[-1];
    other.run += nr.ledger.other_run();
    other.serve += nr.ledger.serve_time();
  }
  return by_fn;
}

std::string ProvenanceOr(const std::map<std::string, std::string>& provenance,
                         const std::string& key, const std::string& fallback) {
  const auto it = provenance.find(key);
  return it != provenance.end() ? it->second : fallback;
}

}  // namespace

void WriteMetricsJson(const RunReport& report, const std::string& label, std::ostream& os,
                      const std::map<std::string, std::string>& extra_provenance) {
  std::map<std::string, std::string> provenance = report.provenance;
  for (const auto& [key, value] : extra_provenance) {
    provenance[key] = value;
  }
  os << "{\n  \"schema\": \"dfil-metrics-v2\",\n  \"label\": \"";
  json::WriteEscaped(os, label);
  os << "\",\n  \"pcp\": \"" << report.pcp << "\",\n  \"nodes\": " << report.num_nodes
     << ",\n  \"completed\": " << (report.completed ? 1 : 0)
     << ",\n  \"makespan_us\": " << ToMicroseconds(report.makespan)
     << ",\n  \"fingerprint\": {\"config\": \"";
  // Run fingerprint: the four fields `dfil_report diff` checks before comparing two runs.
  // "config" is the canonical digest of every schedule-affecting ClusterConfig knob (config.cc);
  // "app" is the program identity (bench-supplied; distinct labels like jacobi_wi8/jacobi_ii8
  // share it).
  json::WriteEscaped(os, ProvenanceOr(provenance, "config_digest", ""));
  os << "\", \"git\": \"";
  json::WriteEscaped(os, ProvenanceOr(provenance, "git", "unknown"));
  os << "\", \"seed\": \"";
  json::WriteEscaped(os, ProvenanceOr(provenance, "seed", ""));
  os << "\", \"app\": \"";
  json::WriteEscaped(os, ProvenanceOr(provenance, "app", label));
  os << "\"},\n  \"provenance\": {";
  bool first = true;
  for (const auto& [key, value] : provenance) {
    os << (first ? "\n" : ",\n") << "    \"";
    json::WriteEscaped(os, key);
    os << "\": \"";
    json::WriteEscaped(os, value);
    os << "\"";
    first = false;
  }
  os << "\n  },\n  \"cluster\": {\n"
     << "    \"counters\": {";
  first = true;
  for (const auto& [name, value] : ClusterCounters(report)) {
    os << (first ? "\n" : ",\n") << "      \"" << name << "\": " << value;
    first = false;
  }
  os << "\n    },\n    \"pools_by_fn\": [";
  first = true;
  for (const auto& [fn, r] : RollupByFn(report)) {
    os << (first ? "\n" : ",\n") << "      {\"fn\": " << fn
       << ", \"run_us\": " << ToMicroseconds(r.run)
       << ", \"blocked_us\": " << ToMicroseconds(r.blocked)
       << ", \"serve_us\": " << ToMicroseconds(r.serve) << ", \"faults\": " << r.faults
       << ", \"filaments_run\": " << r.filaments_run << ", \"migrated_in\": " << r.migrated_in
       << "}";
    first = false;
  }
  os << (first ? "]" : "\n    ]");
  os << "\n  },\n  \"per_node\": [";
  for (size_t i = 0; i < report.nodes.size(); ++i) {
    const NodeReport& nr = report.nodes[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\n      \"node\": " << nr.node
       << ",\n      \"finished_at_us\": " << ToMicroseconds(nr.finished_at)
       << ",\n      \"final_clock_us\": " << ToMicroseconds(nr.final_clock)
       << ",\n      \"time_us\": {";
    for (size_t c = 0; c < kNumTimeCategories; ++c) {
      const auto cat = static_cast<TimeCategory>(c);
      os << (c == 0 ? "" : ", ") << "\"" << TimeCategoryName(cat)
         << "\": " << ToMicroseconds(nr.ledger.figure10(cat));
    }
    os << "},\n      \"run_us\": " << ToMicroseconds(nr.ledger.run_time())
       << ",\n      \"serve_us\": " << ToMicroseconds(nr.ledger.serve_time())
       << ",\n      \"wait_us\": {";
    for (size_t k = 0; k < kNumWaitKinds; ++k) {
      const auto kind = static_cast<WaitKind>(k);
      os << (k == 0 ? "" : ", ") << "\"" << WaitKindName(kind)
         << "\": " << ToMicroseconds(nr.ledger.wait_time(kind));
    }
    os << "},\n      \"wait_events\": {";
    for (size_t k = 0; k < kNumWaitKinds; ++k) {
      const auto kind = static_cast<WaitKind>(k);
      os << (k == 0 ? "" : ", ") << "\"" << WaitKindName(kind)
         << "\": " << nr.waits.event_count(kind);
    }
    os << "},\n      \"pools\": [";
    ForEachPool(nr, [&](int pool, const PoolProfiler::Counters& c) {
      os << "\n        {\"pool\": " << pool << ", \"fn\": " << c.fn
         << ", \"run_us\": " << ToMicroseconds(nr.ledger.pool_run(pool))
         << ", \"blocked_us\": " << ToMicroseconds(c.blocked)
         << ", \"serve_us\": 0, \"faults\": " << c.faults
         << ", \"filaments_run\": " << c.filaments_run << ", \"migrated_in\": " << c.migrated_in
         << "},";
    });
    // Residual row: run time outside any pool (main/sync/balancer code) plus all handler serve
    // time. With it, sum(run_us)+sum(serve_us) over rows equals this node's run_us+serve_us.
    os << "\n        {\"pool\": -1, \"fn\": -1, \"run_us\": "
       << ToMicroseconds(nr.ledger.other_run())
       << ", \"blocked_us\": 0, \"serve_us\": " << ToMicroseconds(nr.ledger.serve_time())
       << ", \"faults\": 0, \"filaments_run\": 0, \"migrated_in\": 0}\n      ]";
    os << ",\n      \"epochs\": [";
    const auto& epochs = nr.metrics.epochs();
    for (size_t e = 0; e < epochs.size(); ++e) {
      os << (e == 0 ? "\n        {" : ",\n        {");
      bool first_col = true;
      for (const auto& [name, value] : epochs[e]) {
        os << (first_col ? "" : ", ") << "\"" << name << "\": " << value;
        first_col = false;
      }
      os << "}";
    }
    os << (epochs.empty() ? "]" : "\n      ]") << ",\n      \"metrics\": ";
    FlattenNode(nr).WriteJson(os, "      ");
    os << ",\n      \"page_heat\": [";
    bool first_page = true;
    for (size_t p = 0; p < nr.page_heat.size(); ++p) {
      if (nr.page_heat[p] == 0) {
        continue;
      }
      os << (first_page ? "" : ",") << "[" << p << "," << nr.page_heat[p] << "]";
      first_page = false;
    }
    os << "]\n    }";
  }
  os << "\n  ]\n}\n";
}

std::string WriteMetricsFile(const RunReport& report, const std::string& label,
                             const std::map<std::string, std::string>& extra_provenance) {
  const std::string name = "METRICS_" + label + ".json";
  std::ofstream out(name);
  WriteMetricsJson(report, label, out, extra_provenance);
  std::printf("wrote %s\n", name.c_str());
  return name;
}

namespace {

const char* MsgClassLabel(sim::MsgClass klass) {
  switch (klass) {
    case sim::MsgClass::kRequest:
      return "request";
    case sim::MsgClass::kReply:
      return "reply";
    case sim::MsgClass::kRaw:
      return "raw";
    case sim::MsgClass::kAck:
      return "ack";
    case sim::MsgClass::kPacked:
      return "packed";
    case sim::MsgClass::kUnknown:
      break;
  }
  return "unknown";
}

}  // namespace

void WriteFlightJson(const RunReport& report, const std::string& label,
                     const std::vector<std::string>& violations, std::ostream& os) {
  const FlightSnapshot& flight = report.flight;
  os << "{\n  \"schema\": \"dfil-flight-v1\",\n  \"label\": \"";
  json::WriteEscaped(os, label);
  os << "\",\n  \"at_violation\": " << (flight.at_violation ? 1 : 0) << ",\n  \"violations\": [";
  for (size_t i = 0; i < violations.size(); ++i) {
    os << (i == 0 ? "\n    \"" : ",\n    \"");
    json::WriteEscaped(os, violations[i]);
    os << "\"";
  }
  os << (violations.empty() ? "]" : "\n  ]") << ",\n  \"nodes\": [";
  for (size_t n = 0; n < flight.node_events.size(); ++n) {
    os << (n == 0 ? "\n" : ",\n") << "    {\"node\": " << n << ", \"events\": [";
    const auto& events = flight.node_events[n];
    for (size_t i = 0; i < events.size(); ++i) {
      const WaitEvent& e = events[i];
      os << (i == 0 ? "\n" : ",\n") << "      {\"kind\": \"" << WaitKindName(e.kind)
         << "\", \"detail\": " << e.detail << ", \"start_us\": " << ToMicroseconds(e.start)
         << ", \"end_us\": " << ToMicroseconds(e.end) << "}";
    }
    os << (events.empty() ? "]}" : "\n    ]}");
  }
  os << (flight.node_events.empty() ? "]" : "\n  ]") << ",\n  \"injections\": [";
  for (size_t i = 0; i < flight.injections.size(); ++i) {
    const sim::Machine::InjectionNote& note = flight.injections[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"what\": \"" << note.what << "\", \"class\": \""
       << MsgClassLabel(note.klass) << "\", \"type\": " << note.type << ", \"src\": " << note.src
       << ", \"dst\": " << note.dst << ", \"at_us\": " << ToMicroseconds(note.at) << "}";
  }
  os << (flight.injections.empty() ? "]" : "\n  ]") << "\n}\n";
}

std::string WriteFlightFile(const RunReport& report, const std::string& label,
                            const std::vector<std::string>& violations) {
  const std::string name = "FLIGHT_" + label + ".json";
  std::ofstream out(name);
  WriteFlightJson(report, label, violations, out);
  std::printf("wrote %s\n", name.c_str());
  return name;
}

}  // namespace dfil::core
