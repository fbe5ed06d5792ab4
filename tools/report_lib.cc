#include "tools/report_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>

#include "src/common/json.h"

namespace dfil::report {
namespace {

// Figure 10 row order (matches TimeCategoryName; the writer emits all six keys).
constexpr const char* kTimeCategories[] = {"work",          "filament_exec", "data_transfer",
                                           "sync_overhead", "sync_delay",    "idle"};

// Figure 9 rows: the protocol-differentiating traffic counters from the paper, plus the
// multiple-writer diff / adapter traffic (DESIGN.md §10) and totals.
constexpr const char* kFigure9Counters[] = {
    "dsm.page_request_messages", "net.sent.page_request",  "net.sent.bulk_page_request",
    "net.sent.invalidate",       "net.sent.diff_merge",    "dsm.diff_bytes_sent",
    "dsm.page_data_bytes",       "dsm.adapter_switches_to_diff",
    "dsm.adapter_switches_to_ii",
    "net.barrier_messages",      "net.requests_sent",
    "net.replies_sent",          "net.acks_sent",          "net.retransmissions",
    "net.messages_sent",         "net.bytes_sent",
    "core.rebalance_plans",      "core.filaments_migrated",
    "dsm.pages_rehomed",
};

std::string FormatUs(double us) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << us;
  return os.str();
}

// Integers print bare, everything else with one decimal.
std::string DeltaNumber(double v) {
  char buf[40];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  }
  return buf;
}

// The one JSON entry point for every artifact kind: parses `text` and, when `schema` is given,
// requires a root object whose "schema" string names it. False + *error otherwise.
bool ReadDocument(const std::string& text, const char* schema, json::ValuePtr* root,
                  std::string* error) {
  json::ParseResult parsed = json::Parse(text);
  if (!parsed.ok()) {
    *error = "JSON parse error at byte " + std::to_string(parsed.error_offset) + ": " +
             parsed.error;
    return false;
  }
  if (schema != nullptr && parsed.value->GetString("schema") != schema) {
    *error = std::string("not a ") + schema + " document (schema=\"" +
             parsed.value->GetString("schema") + "\")";
    return false;
  }
  *root = std::move(parsed.value);
  return true;
}

}  // namespace

void HistSummary::Merge(const HistSummary& other) {
  if (other.count == 0) {
    return;
  }
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  // Buckets share the power-of-two grid, so merging is summing counts at equal lows.
  for (const auto& b : other.buckets) {
    bool merged = false;
    for (auto& mine : buckets) {
      if (mine[0] == b[0]) {
        mine[2] += b[2];
        merged = true;
        break;
      }
    }
    if (!merged) {
      buckets.push_back(b);
    }
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
}

double HistSummary::Percentile(double p) const {
  if (count == 0) {
    return 0.0;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(count));
  double seen = 0.0;
  for (const auto& b : buckets) {
    if (seen + b[2] >= rank) {
      const double frac = b[2] > 0.0 ? (rank - seen) / b[2] : 0.0;
      const double v = b[0] + frac * (b[1] - b[0]);
      return std::min(std::max(v, min), max);
    }
    seen += b[2];
  }
  return max;
}

uint64_t RunSummary::ClusterCounter(const std::string& name) const {
  if (name == "makespan_us") {
    // Virtual pseudo-counter so gate baselines can pin the run's completion time alongside the
    // traffic counters (the load-balancing gate holds the balanced run's makespan down with it).
    return static_cast<uint64_t>(makespan_us);
  }
  auto it = cluster_counters.find(name);
  return it == cluster_counters.end() ? 0 : it->second;
}

HistSummary RunSummary::MergedHistogram(const std::string& name) const {
  HistSummary merged;
  for (const Node& n : per_node) {
    auto it = n.histograms.find(name);
    if (it != n.histograms.end()) {
      merged.Merge(it->second);
    }
  }
  return merged;
}

bool ReadFile(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = path + ": cannot open";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

namespace {

void ParseCounters(const json::Value* obj, std::map<std::string, uint64_t>* out) {
  if (obj == nullptr || !obj->is_object()) {
    return;
  }
  for (const auto& [key, value] : obj->object) {
    if (value->is_number()) {
      (*out)[key] = static_cast<uint64_t>(std::llround(value->number));
    }
  }
}

HistSummary ParseHistogram(const json::Value& h) {
  HistSummary out;
  out.count = static_cast<uint64_t>(h.GetNumber("count"));
  out.sum = h.GetNumber("sum");
  out.min = h.GetNumber("min");
  out.max = h.GetNumber("max");
  if (const json::Value* buckets = h.Get("buckets"); buckets != nullptr && buckets->is_array()) {
    for (const auto& b : buckets->array) {
      if (b->is_array() && b->array.size() == 3 && b->array[0]->is_number() &&
          b->array[1]->is_number() && b->array[2]->is_number()) {
        out.buckets.push_back(
            {b->array[0]->number, b->array[1]->number, b->array[2]->number});
      }
    }
  }
  return out;
}

PoolRow ParsePoolRow(const json::Value& v) {
  PoolRow r;
  r.pool = static_cast<int>(v.GetNumber("pool", -1));
  r.fn = static_cast<int>(v.GetNumber("fn", -1));
  r.run_us = v.GetNumber("run_us");
  r.blocked_us = v.GetNumber("blocked_us");
  r.serve_us = v.GetNumber("serve_us");
  r.faults = static_cast<uint64_t>(std::llround(v.GetNumber("faults")));
  r.filaments_run = static_cast<uint64_t>(std::llround(v.GetNumber("filaments_run")));
  r.migrated_in = static_cast<uint64_t>(std::llround(v.GetNumber("migrated_in")));
  return r;
}

// Requires `key` to exist on `obj` with the named JSON type; false + *error otherwise. The
// contract ParseRun enforces: the structural skeleton of a metrics document must be present and
// well-typed, so a truncated or hand-damaged file is rejected with a field-level message instead
// of silently parsing to a zeroed summary the downstream gates would happily "pass".
bool RequireField(const json::Value& obj, const std::string& where, const std::string& key,
                  json::Type type, std::string* error) {
  const json::Value* v = obj.Get(key);
  const char* want = type == json::Type::kString ? "string"
                     : type == json::Type::kNumber ? "number"
                     : type == json::Type::kArray ? "array"
                                                  : "object";
  if (v == nullptr) {
    *error = where + ": missing required " + want + " field \"" + key + "\"";
    return false;
  }
  if (v->type != type) {
    *error = where + ": field \"" + key + "\" is not a " + want;
    return false;
  }
  return true;
}

}  // namespace

bool ParseRun(const std::string& text, RunSummary* out, std::string* error) {
  json::ValuePtr doc;
  if (!ReadDocument(text, "dfil-metrics-v2", &doc, error)) {
    return false;
  }
  const json::Value& root = *doc;
  for (const char* key : {"label", "pcp"}) {
    if (!RequireField(root, "root", key, json::Type::kString, error)) {
      return false;
    }
  }
  for (const char* key : {"nodes", "completed", "makespan_us"}) {
    if (!RequireField(root, "root", key, json::Type::kNumber, error)) {
      return false;
    }
  }
  if (!RequireField(root, "root", "fingerprint", json::Type::kObject, error)) {
    return false;
  }
  *out = RunSummary{};
  out->label = root.GetString("label");
  out->pcp = root.GetString("pcp");
  out->nodes = static_cast<int>(root.GetNumber("nodes"));
  out->completed = root.GetNumber("completed") != 0;
  out->makespan_us = root.GetNumber("makespan_us");
  const json::Value* fp = root.Get("fingerprint");
  out->fingerprint = Fingerprint{fp->GetString("config"), fp->GetString("git"),
                                 fp->GetString("seed"), fp->GetString("app")};
  if (const json::Value* prov = root.Get("provenance"); prov != nullptr && prov->is_object()) {
    for (const auto& [key, value] : prov->object) {
      if (value->is_string()) {
        out->provenance[key] = value->str;
      }
    }
  }
  if (const json::Value* cluster = root.Get("cluster"); cluster != nullptr) {
    if (!cluster->is_object()) {
      *error = "root: field \"cluster\" is not an object";
      return false;
    }
    ParseCounters(cluster->Get("counters"), &out->cluster_counters);
    if (const json::Value* by_fn = cluster->Get("pools_by_fn");
        by_fn != nullptr && by_fn->is_array()) {
      for (const auto& row : by_fn->array) {
        if (row->is_object()) {
          out->pools_by_fn.push_back(ParsePoolRow(*row));
        }
      }
    }
  }
  if (!RequireField(root, "root", "per_node", json::Type::kArray, error)) {
    return false;
  }
  const json::Value* per_node = root.Get("per_node");
  for (size_t i = 0; i < per_node->array.size(); ++i) {
    const json::ValuePtr& n = per_node->array[i];
    const std::string where = "per_node[" + std::to_string(i) + "]";
    if (!n->is_object()) {
      *error = where + ": not an object";
      return false;
    }
    if (!RequireField(*n, where, "node", json::Type::kNumber, error)) {
      return false;
    }
    RunSummary::Node node;
    node.node = static_cast<int>(n->GetNumber("node"));
    node.finished_at_us = n->GetNumber("finished_at_us");
    node.final_clock_us = n->GetNumber("final_clock_us");
    node.run_us = n->GetNumber("run_us");
    node.serve_us = n->GetNumber("serve_us");
    if (const json::Value* t = n->Get("time_us"); t != nullptr && t->is_object()) {
      for (const auto& [key, value] : t->object) {
        if (value->is_number()) {
          node.time_us[key] = value->number;
        }
      }
    }
    if (const json::Value* w = n->Get("wait_us"); w != nullptr && w->is_object()) {
      for (const auto& [key, value] : w->object) {
        if (value->is_number()) {
          node.wait_us[key] = value->number;
        }
      }
    }
    if (const json::Value* w = n->Get("wait_events"); w != nullptr && w->is_object()) {
      ParseCounters(w, &node.wait_events);
    }
    if (const json::Value* pools = n->Get("pools"); pools != nullptr && pools->is_array()) {
      for (const auto& row : pools->array) {
        if (row->is_object()) {
          node.pools.push_back(ParsePoolRow(*row));
        }
      }
    }
    if (const json::Value* es = n->Get("epochs"); es != nullptr && es->is_array()) {
      for (const auto& row : es->array) {
        if (!row->is_object()) {
          continue;
        }
        std::map<std::string, double> cols;
        for (const auto& [key, value] : row->object) {
          if (value->is_number()) {
            cols[key] = value->number;
          }
        }
        node.epochs.push_back(std::move(cols));
      }
    }
    if (const json::Value* m = n->Get("metrics"); m != nullptr && m->is_object()) {
      ParseCounters(m->Get("counters"), &node.counters);
      if (const json::Value* hists = m->Get("histograms");
          hists != nullptr && hists->is_object()) {
        for (const auto& [key, value] : hists->object) {
          if (value->is_object()) {
            node.histograms[key] = ParseHistogram(*value);
          }
        }
      }
    }
    if (const json::Value* heat = n->Get("page_heat"); heat != nullptr && heat->is_array()) {
      for (const auto& pair : heat->array) {
        if (pair->is_array() && pair->array.size() == 2 && pair->array[0]->is_number() &&
            pair->array[1]->is_number()) {
          node.page_heat.emplace_back(static_cast<uint64_t>(pair->array[0]->number),
                                      static_cast<uint64_t>(pair->array[1]->number));
        }
      }
    }
    out->per_node.push_back(std::move(node));
  }
  return true;
}

namespace {

// Cluster-wide views of one run's per-node sections, shared by the tables, the gate's drift
// attribution and the A/B diff.

std::map<uint64_t, uint64_t> PageHeatTotals(const RunSummary& run) {
  std::map<uint64_t, uint64_t> heat;
  for (const RunSummary::Node& n : run.per_node) {
    for (const auto& [page, faults] : n.page_heat) {
      heat[page] += faults;
    }
  }
  return heat;
}

// (page, demand faults) summed across nodes, hottest first, ties by page.
std::vector<std::pair<uint64_t, uint64_t>> HottestPages(const RunSummary& run) {
  const auto heat = PageHeatTotals(run);
  std::vector<std::pair<uint64_t, uint64_t>> ranked(heat.begin(), heat.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return ranked;
}

// Per-epoch rows summed across nodes: (epoch, column) -> cluster total. The epoch key is the
// "epoch" column when present, else the row index + 1.
std::map<std::pair<uint64_t, std::string>, double> EpochTotals(const RunSummary& run) {
  std::map<std::pair<uint64_t, std::string>, double> totals;
  for (const RunSummary::Node& n : run.per_node) {
    for (size_t i = 0; i < n.epochs.size(); ++i) {
      const auto& row = n.epochs[i];
      uint64_t epoch = i + 1;
      if (auto it = row.find("epoch"); it != row.end()) {
        epoch = static_cast<uint64_t>(it->second);
      }
      for (const auto& [col, value] : row) {
        if (col != "epoch") {
          totals[{epoch, col}] += value;
        }
      }
    }
  }
  return totals;
}

std::map<int, PoolRow> PoolsByFn(const RunSummary& run) {
  std::map<int, PoolRow> by_fn;
  for (const PoolRow& row : run.pools_by_fn) {
    by_fn[row.fn] = row;
  }
  return by_fn;
}

// Every histogram of the run, each merged across nodes.
std::map<std::string, HistSummary> MergedHistograms(const RunSummary& run) {
  std::map<std::string, HistSummary> merged;
  for (const RunSummary::Node& n : run.per_node) {
    for (const auto& [name, hist] : n.histograms) {
      merged[name].Merge(hist);
    }
  }
  return merged;
}

}  // namespace

void PrintFigure10(const RunSummary& run, std::ostream& os) {
  os << "Figure 10 — per-node time breakdown (us): " << run.label << " (" << run.pcp << ", "
     << run.nodes << " nodes, makespan " << FormatUs(run.makespan_us) << " us)\n";
  os << std::setw(5) << "node";
  for (const char* cat : kTimeCategories) {
    os << std::setw(15) << cat;
  }
  os << std::setw(15) << "total" << "\n";
  std::map<std::string, double> totals;
  double grand_total = 0.0;
  for (const RunSummary::Node& n : run.per_node) {
    os << std::setw(5) << n.node;
    double row_total = 0.0;
    for (const char* cat : kTimeCategories) {
      auto it = n.time_us.find(cat);
      const double us = it == n.time_us.end() ? 0.0 : it->second;
      totals[cat] += us;
      row_total += us;
      os << std::setw(15) << FormatUs(us);
    }
    grand_total += row_total;
    os << std::setw(15) << FormatUs(row_total) << "\n";
  }
  os << std::setw(5) << "sum";
  for (const char* cat : kTimeCategories) {
    os << std::setw(15) << FormatUs(totals[cat]);
  }
  os << std::setw(15) << FormatUs(grand_total) << "\n";
  os << std::setw(5) << "share";
  for (const char* cat : kTimeCategories) {
    std::ostringstream pct;
    pct << std::fixed << std::setprecision(1)
        << (grand_total > 0.0 ? 100.0 * totals[cat] / grand_total : 0.0) << "%";
    os << std::setw(15) << pct.str();
  }
  os << "\n";
}

void PrintFigure9(const std::vector<RunSummary>& runs, std::ostream& os) {
  os << "Figure 9 — message counts by protocol";
  if (!runs.empty()) {
    os << " (" << runs.front().nodes << " nodes)";
  }
  os << "\n" << std::left << std::setw(28) << "counter" << std::right;
  for (const RunSummary& run : runs) {
    os << std::setw(21) << run.pcp;
  }
  os << "\n";
  for (const char* counter : kFigure9Counters) {
    os << std::left << std::setw(28) << counter << std::right;
    for (const RunSummary& run : runs) {
      os << std::setw(21) << run.ClusterCounter(counter);
    }
    os << "\n";
  }
  for (const char* row : {"fault_wait_us p50", "fault_wait_us p99"}) {
    const double p = row[std::string(row).size() - 2] == '5' ? 50.0 : 99.0;
    os << std::left << std::setw(28) << row << std::right;
    for (const RunSummary& run : runs) {
      os << std::setw(21) << FormatUs(run.MergedHistogram("dsm.fault_wait_us").Percentile(p));
    }
    os << "\n";
  }
}

void PrintFaultLatency(const RunSummary& run, std::ostream& os) {
  const HistSummary h = run.MergedHistogram("dsm.fault_wait_us");
  os << "Fault latency: " << run.label << " — " << h.count << " remote faults";
  if (h.count > 0) {
    os << ", p50 " << FormatUs(h.Percentile(50.0)) << " us, p90 " << FormatUs(h.Percentile(90.0))
       << " us, p99 " << FormatUs(h.Percentile(99.0)) << " us, max " << FormatUs(h.max) << " us";
  }
  os << "\n";
}

void PrintHotPages(const RunSummary& run, size_t top_n, std::ostream& os) {
  const auto ranked = HottestPages(run);
  std::map<uint64_t, int> spread;  // page -> nodes that faulted it
  for (const RunSummary::Node& n : run.per_node) {
    for (const auto& [page, faults] : n.page_heat) {
      spread[page]++;
    }
  }
  os << "Hottest pages: " << run.label << " (" << ranked.size() << " pages faulted)\n";
  os << std::setw(10) << "page" << std::setw(10) << "faults" << std::setw(10) << "nodes" << "\n";
  for (size_t i = 0; i < ranked.size() && i < top_n; ++i) {
    os << std::setw(10) << ranked[i].first << std::setw(10) << ranked[i].second << std::setw(10)
       << spread[ranked[i].first] << "\n";
  }
}

// ---- Trace analysis ------------------------------------------------------------------------

bool ParseTrace(const std::string& text, std::vector<TraceEvent>* events, std::string* error) {
  json::ValuePtr doc;
  if (!ReadDocument(text, nullptr, &doc, error)) {
    return false;
  }
  const json::Value* array = doc->is_array() ? doc.get() : doc->Get("traceEvents");
  if (array == nullptr || !array->is_array()) {
    *error = "no trace event array found";
    return false;
  }
  events->clear();
  events->reserve(array->array.size());
  for (const json::ValuePtr& v : array->array) {
    TraceEvent e;
    const std::string ph = v->GetString("ph");
    e.ph = ph.size() == 1 ? ph[0] : 0;
    e.pid = static_cast<int64_t>(v->GetNumber("pid", -1));
    e.tid = static_cast<int64_t>(v->GetNumber("tid", -1));
    e.ts = v->GetNumber("ts", -1.0);
    e.name = v->GetString("name");
    e.id = static_cast<uint64_t>(v->GetNumber("id", 0));
    events->push_back(std::move(e));
  }
  return true;
}

TraceCheck CheckChromeTrace(const std::vector<TraceEvent>& events) {
  TraceCheck out;
  constexpr size_t kMaxErrors = 32;
  auto fail = [&out](std::string msg) {
    if (out.errors.size() < kMaxErrors) {
      out.errors.push_back(std::move(msg));
    }
  };
  struct Track {
    int depth = 0;
    double last_ts = -1.0;
  };
  std::map<std::pair<int64_t, int64_t>, Track> tracks;
  std::set<uint64_t> flow_start_ids;
  std::set<uint64_t> flow_end_ids;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out.events++;
    if (e.ph == 0) {
      fail("event " + std::to_string(i) + ": missing/bad ph");
      continue;
    }
    const std::string ph(1, e.ph);
    Track& track = tracks[{e.pid, e.tid}];
    switch (e.ph) {
      case 'B':
      case 'E':
        // Duration events must nest and be time-ordered per (pid, tid) track.
        if (e.ts < track.last_ts) {
          fail("event " + std::to_string(i) + ": ts " + std::to_string(e.ts) +
               " goes backwards on track (" + std::to_string(e.pid) + "," +
               std::to_string(e.tid) + ")");
        }
        track.last_ts = e.ts;
        if (e.ph == 'B') {
          if (e.name.empty()) {
            fail("event " + std::to_string(i) + ": B without a name");
          }
          track.depth++;
        } else {
          if (track.depth <= 0) {
            fail("event " + std::to_string(i) + ": E with no open span on track (" +
                 std::to_string(e.pid) + "," + std::to_string(e.tid) + ")");
          } else {
            track.depth--;
            out.spans++;
          }
        }
        break;
      case 's':
      case 't':
      case 'f': {
        if (e.id == 0) {
          fail("event " + std::to_string(i) + ": flow '" + ph + "' without an id");
          break;
        }
        if (e.ph == 's') {
          if (!flow_start_ids.insert(e.id).second) {
            fail("event " + std::to_string(i) + ": duplicate flow start id " +
                 std::to_string(e.id));
          }
          out.flow_starts++;
        } else if (e.ph == 'f') {
          flow_end_ids.insert(e.id);
          out.flow_ends++;
        }
        break;
      }
      case 'i':
        break;  // instants may sit on dedicated tracks (injection events) at delivery times
      default:
        fail("event " + std::to_string(i) + ": unexpected ph '" + ph + "'");
    }
  }
  for (const auto& [key, track] : tracks) {
    if (track.depth != 0) {
      fail("track (" + std::to_string(key.first) + "," + std::to_string(key.second) + ") ends with " +
           std::to_string(track.depth) + " unclosed span(s)");
    }
  }
  // An 'f' without an 's' is fine (a serve observed without the faulting side blocking), but every
  // started arc must terminate somewhere or Perfetto renders a dangling arrow.
  for (uint64_t id : flow_start_ids) {
    if (flow_end_ids.count(id) != 0) {
      out.complete_flows++;
    } else {
      fail("flow id " + std::to_string(id) + " has 's' but no matching 'f'");
    }
  }
  out.ok = out.errors.empty();
  return out;
}

std::vector<FlowArc> ExtractFlows(const std::vector<TraceEvent>& events) {
  std::map<uint64_t, FlowArc> by_id;
  std::set<uint64_t> finished;
  for (const TraceEvent& e : events) {
    if ((e.ph != 's' && e.ph != 't' && e.ph != 'f') || e.id == 0) {
      continue;
    }
    FlowArc& arc = by_id[e.id];
    arc.id = e.id;
    if (e.ph == 's') {
      arc.name = e.name;
      arc.start_ts = e.ts;
      arc.start_node = static_cast<int>(e.pid);
    } else if (e.ph == 't') {
      arc.steps++;
    } else {
      arc.end_ts = e.ts;
      arc.end_node = static_cast<int>(e.pid);
      finished.insert(e.id);
    }
  }
  std::vector<FlowArc> arcs;
  for (const auto& [id, arc] : by_id) {
    if (arc.start_node >= 0 && finished.count(id) != 0) {
      arcs.push_back(arc);
    }
  }
  return arcs;
}

void PrintCriticalPaths(std::vector<FlowArc> arcs, size_t top_n, std::ostream& os) {
  std::sort(arcs.begin(), arcs.end(),
            [](const FlowArc& a, const FlowArc& b) { return a.duration_us() > b.duration_us(); });
  os << "Longest fault critical paths (" << arcs.size() << " complete flow arcs)\n";
  os << std::left << std::setw(14) << "flow" << std::right << std::setw(12) << "wait_us"
     << std::setw(8) << "hops" << std::setw(14) << "path" << std::setw(14) << "start_us" << "\n";
  for (size_t i = 0; i < arcs.size() && i < top_n; ++i) {
    const FlowArc& a = arcs[i];
    os << std::left << std::setw(14) << a.name << std::right << std::setw(12)
       << FormatUs(a.duration_us()) << std::setw(8) << a.steps << std::setw(14)
       << std::string("n").append(std::to_string(a.start_node)).append("->n").append(
              std::to_string(a.end_node))
       << std::setw(14) << FormatUs(a.start_ts) << "\n";
  }
}

// ---- End-to-end critical path --------------------------------------------------------------

const char* PathSegmentKindName(PathSegment::Kind kind) {
  switch (kind) {
    case PathSegment::Kind::kCompute:
      return "compute";
    case PathSegment::Kind::kPageFault:
      return "page_fault";
    case PathSegment::Kind::kBarrier:
      return "barrier";
  }
  return "?";
}

namespace {

struct TraceSpan {
  double b = 0.0;
  double e = 0.0;
};

// The three trace shapes the walker consumes, keyed for lookup: per-node completion instants,
// per-(node, epoch) barrier spans, and per-node fault spans (across all thread tracks — several
// threads of one node can be blocked faulting concurrently).
struct CritTrace {
  std::map<int, double> done_ts;
  std::map<int, std::map<uint64_t, TraceSpan>> reduces;
  std::map<int, std::vector<std::pair<TraceSpan, uint64_t>>> faults;
  uint64_t rebalance_events = 0;  // plan/migrate instants on the rebalance track
};

CritTrace IndexCritTrace(const std::vector<TraceEvent>& events) {
  CritTrace out;
  // Open-span stack per (pid, tid) track; E events carry no name, so the B name rides the stack.
  std::map<std::pair<int, int64_t>, std::vector<std::pair<std::string, double>>> open;
  for (const TraceEvent& e : events) {
    const int pid = static_cast<int>(e.pid);
    if (e.ph == 'i') {
      if (e.name == "done" && e.ts > out.done_ts[pid]) {
        out.done_ts[pid] = e.ts;
      } else if (e.name.rfind("rebalance", 0) == 0) {
        ++out.rebalance_events;
      }
    } else if (e.ph == 'B') {
      open[{pid, e.tid}].emplace_back(e.name, e.ts);
    } else if (e.ph == 'E') {
      auto& stack = open[{pid, e.tid}];
      if (stack.empty()) {
        continue;  // unbalanced track; CheckChromeTrace is the validity gate, not this index
      }
      const auto [name, begin_ts] = stack.back();
      stack.pop_back();
      if (name.rfind("reduce e", 0) == 0) {
        const uint64_t epoch = std::strtoull(name.c_str() + 8, nullptr, 10);
        out.reduces[pid][epoch] = TraceSpan{begin_ts, e.ts};
      } else if (name.rfind("fault p", 0) == 0) {
        const uint64_t page = std::strtoull(name.c_str() + 7, nullptr, 10);
        out.faults[pid].emplace_back(TraceSpan{begin_ts, e.ts}, page);
      }
    }
  }
  return out;
}

// Decomposes the on-node interval [s, e] into page-fault stalls vs compute: fault spans are
// clipped to the interval and merged where they overlap (concurrent faults from different
// threads), each merged stall attributed to the page covering the most of it; what no fault
// covers is compute. The returned segments tile [s, e] exactly, in time order.
std::vector<PathSegment> DecomposeGap(const CritTrace& t, int node, double s, double e) {
  std::vector<PathSegment> out;
  if (e <= s) {
    return out;
  }
  struct Clip {
    double b, e;
    uint64_t page;
  };
  std::vector<Clip> clips;
  if (auto it = t.faults.find(node); it != t.faults.end()) {
    for (const auto& [span, page] : it->second) {
      if (span.e > s && span.b < e) {
        clips.push_back({std::max(span.b, s), std::min(span.e, e), page});
      }
    }
  }
  std::sort(clips.begin(), clips.end(), [](const Clip& a, const Clip& b) { return a.b < b.b; });
  auto push = [&out, node](PathSegment::Kind kind, double b, double end, uint64_t page) {
    if (end <= b) {
      return;  // zero-width: boundaries are shared, so dropping it keeps the tiling exact
    }
    PathSegment seg;
    seg.kind = kind;
    seg.node = node;
    seg.start_us = b;
    seg.end_us = end;
    seg.page = page;
    out.push_back(seg);
  };
  double cursor = s;
  for (size_t i = 0; i < clips.size();) {
    double merged_end = clips[i].e;
    std::map<uint64_t, double> cover;
    cover[clips[i].page] += clips[i].e - clips[i].b;
    size_t j = i + 1;
    while (j < clips.size() && clips[j].b <= merged_end) {
      merged_end = std::max(merged_end, clips[j].e);
      cover[clips[j].page] += clips[j].e - clips[j].b;
      ++j;
    }
    uint64_t page = clips[i].page;
    double best = -1.0;
    for (const auto& [p, us] : cover) {
      if (us > best) {
        best = us;
        page = p;
      }
    }
    push(PathSegment::Kind::kCompute, cursor, clips[i].b, 0);
    push(PathSegment::Kind::kPageFault, clips[i].b, merged_end, page);
    cursor = merged_end;
    i = j;
  }
  push(PathSegment::Kind::kCompute, cursor, e, 0);
  return out;
}

}  // namespace

CriticalPath BuildCriticalPath(const std::vector<TraceEvent>& events) {
  CriticalPath path;
  const CritTrace t = IndexCritTrace(events);
  if (t.done_ts.empty()) {
    path.error = "trace has no per-node \"done\" instants (not produced by this runtime?)";
    return path;
  }
  path.rebalance_events = t.rebalance_events;
  for (const auto& [node, ts] : t.done_ts) {
    if (ts > path.completion_us) {
      path.completion_us = ts;
      path.critical_node = node;
    }
  }
  // Walk backward from the last-finishing node's "done". At each step the interval since the
  // previous barrier release belongs to the current node; the barrier itself is blamed on the
  // epoch and the walk jumps to its last arriver — the node that held the release back.
  constexpr double kEps = 1e-6;
  std::vector<PathSegment> rev;  // built back-to-front
  int node = path.critical_node;
  double anchor = path.completion_us;
  uint64_t prev_epoch = UINT64_MAX;  // epochs must strictly decrease, guaranteeing termination
  while (true) {
    const TraceSpan* release = nullptr;
    uint64_t epoch = 0;
    if (auto it = t.reduces.find(node); it != t.reduces.end()) {
      for (const auto& [ep, span] : it->second) {
        if (ep < prev_epoch && span.e <= anchor + kEps &&
            (release == nullptr || span.e > release->e)) {
          release = &span;
          epoch = ep;
        }
      }
    }
    if (release == nullptr) {
      // No earlier barrier on this node: the chain starts with its initial segment from t = 0.
      const auto gap = DecomposeGap(t, node, 0.0, anchor);
      rev.insert(rev.end(), gap.rbegin(), gap.rend());
      break;
    }
    const auto gap = DecomposeGap(t, node, release->e, anchor);
    rev.insert(rev.end(), gap.rbegin(), gap.rend());
    // Last arriver for this epoch across all nodes; its entry opens the barrier hop.
    int last_arriver = node;
    double entry = release->b;
    for (const auto& [n, reds] : t.reduces) {
      if (auto it = reds.find(epoch); it != reds.end() && it->second.b > entry) {
        entry = it->second.b;
        last_arriver = n;
      }
    }
    if (entry > release->e + kEps) {
      path.error = "barrier e" + std::to_string(epoch) + " released on node " +
                   std::to_string(node) + " before its last arriver entered (malformed trace)";
      path.segments.clear();
      return path;
    }
    PathSegment hop;
    hop.kind = PathSegment::Kind::kBarrier;
    hop.node = node;
    hop.start_us = std::min(entry, release->e);
    hop.end_us = release->e;
    hop.epoch = epoch;
    if (hop.end_us > hop.start_us) {
      rev.push_back(hop);
    }
    node = last_arriver;
    anchor = hop.start_us;
    prev_epoch = epoch;
  }
  path.segments.assign(rev.rbegin(), rev.rend());
  // The invariant the whole analysis rests on: the hops tile [0, completion] with no gap and no
  // overlap, so their durations sum to the run's virtual completion time.
  double cursor = 0.0;
  for (const PathSegment& seg : path.segments) {
    if (std::abs(seg.start_us - cursor) > 1e-3) {
      path.error = "path discontinuity at " + FormatUs(seg.start_us) + " us (previous hop ended " +
                   FormatUs(cursor) + " us)";
      return path;
    }
    cursor = seg.end_us;
    switch (seg.kind) {
      case PathSegment::Kind::kCompute:
        path.compute_us += seg.duration_us();
        break;
      case PathSegment::Kind::kPageFault:
        path.fault_us += seg.duration_us();
        break;
      case PathSegment::Kind::kBarrier:
        path.barrier_us += seg.duration_us();
        break;
    }
  }
  if (std::abs(cursor - path.completion_us) > 1e-3) {
    path.error = "path length " + FormatUs(cursor) + " us != completion time " +
                 FormatUs(path.completion_us) + " us";
    return path;
  }
  path.ok = true;
  return path;
}

std::vector<BlameRow> BlamePath(const CriticalPath& path) {
  std::map<std::string, BlameRow> rows;
  for (const PathSegment& seg : path.segments) {
    std::string label;
    switch (seg.kind) {
      case PathSegment::Kind::kCompute:
        label = "compute n" + std::to_string(seg.node);
        break;
      case PathSegment::Kind::kPageFault:
        label = "page " + std::to_string(seg.page);
        break;
      case PathSegment::Kind::kBarrier:
        label = "barrier e" + std::to_string(seg.epoch);
        break;
    }
    BlameRow& row = rows[label];
    row.label = label;
    row.us += seg.duration_us();
    row.hops++;
  }
  std::vector<BlameRow> ranked;
  ranked.reserve(rows.size());
  for (auto& [label, row] : rows) {
    ranked.push_back(std::move(row));
  }
  std::sort(ranked.begin(), ranked.end(), [](const BlameRow& a, const BlameRow& b) {
    return a.us != b.us ? a.us > b.us : a.label < b.label;
  });
  return ranked;
}

double WhatIfZeroCostPages(const CriticalPath& path) {
  return path.completion_us - path.fault_us;
}

namespace {

std::string Pct(double part, double whole) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << (whole > 0.0 ? 100.0 * part / whole : 0.0) << "%";
  return os.str();
}

std::string SegmentDetail(const PathSegment& seg) {
  switch (seg.kind) {
    case PathSegment::Kind::kPageFault:
      return "p" + std::to_string(seg.page);
    case PathSegment::Kind::kBarrier:
      return "e" + std::to_string(seg.epoch);
    case PathSegment::Kind::kCompute:
      break;
  }
  return "-";
}

}  // namespace

void PrintCritPath(const CriticalPath& path, size_t top_n, std::ostream& os) {
  if (!path.ok) {
    os << "critical path: UNAVAILABLE — " << path.error << "\n";
    return;
  }
  os << "Critical path: " << FormatUs(path.completion_us) << " us end-to-end, finishing on node "
     << path.critical_node << " (" << path.segments.size() << " hops)\n";
  os << "  compute " << FormatUs(path.compute_us) << " us (" << Pct(path.compute_us, path.completion_us)
     << "), page_fault " << FormatUs(path.fault_us) << " us ("
     << Pct(path.fault_us, path.completion_us) << "), barrier " << FormatUs(path.barrier_us)
     << " us (" << Pct(path.barrier_us, path.completion_us) << ")\n";
  os << "  what-if zero-cost page serves: " << FormatUs(WhatIfZeroCostPages(path)) << " us ("
     << Pct(path.fault_us, path.completion_us) << " faster)\n";
  if (path.rebalance_events > 0) {
    os << "  load balancing: " << path.rebalance_events
       << " rebalance event(s) on the trace (plans + migrations, DESIGN.md §13)\n";
  }
  // The top_n longest hops, each tagged with its position on the path so the reader can line
  // them up with the full timeline.
  std::vector<size_t> order(path.segments.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&path](size_t a, size_t b) {
    return path.segments[a].duration_us() > path.segments[b].duration_us();
  });
  os << std::setw(8) << "hop" << std::setw(12) << "kind" << std::setw(8) << "node" << std::setw(10)
     << "detail" << std::setw(14) << "start_us" << std::setw(14) << "dur_us" << std::setw(9)
     << "share" << "\n";
  for (size_t i = 0; i < order.size() && i < top_n; ++i) {
    const PathSegment& seg = path.segments[order[i]];
    os << std::setw(8) << ("#" + std::to_string(order[i])) << std::setw(12)
       << PathSegmentKindName(seg.kind) << std::setw(8) << seg.node << std::setw(10)
       << SegmentDetail(seg) << std::setw(14) << FormatUs(seg.start_us) << std::setw(14)
       << FormatUs(seg.duration_us()) << std::setw(9) << Pct(seg.duration_us(), path.completion_us)
       << "\n";
  }
}

void PrintBlame(const CriticalPath& path, size_t top_n, std::ostream& os) {
  if (!path.ok) {
    os << "blame: UNAVAILABLE — " << path.error << "\n";
    return;
  }
  const std::vector<BlameRow> ranked = BlamePath(path);
  os << "Critical-path blame (" << FormatUs(path.completion_us) << " us total, " << ranked.size()
     << " causes)\n";
  os << std::left << std::setw(20) << "cause" << std::right << std::setw(14) << "path_us"
     << std::setw(9) << "share" << std::setw(8) << "hops" << "\n";
  for (size_t i = 0; i < ranked.size() && i < top_n; ++i) {
    const BlameRow& row = ranked[i];
    os << std::left << std::setw(20) << row.label << std::right << std::setw(14)
       << FormatUs(row.us) << std::setw(9) << Pct(row.us, path.completion_us) << std::setw(8)
       << row.hops << "\n";
  }
}

// ---- Flight-recorder dumps -----------------------------------------------------------------

bool ParseFlight(const std::string& text, FlightDump* out, std::string* error) {
  json::ValuePtr doc;
  if (!ReadDocument(text, "dfil-flight-v1", &doc, error)) {
    return false;
  }
  const json::Value& root = *doc;
  out->label = root.GetString("label");
  out->at_violation = root.GetNumber("at_violation") != 0;
  out->violations.clear();
  out->nodes.clear();
  out->injections.clear();
  if (const json::Value* v = root.Get("violations"); v != nullptr && v->is_array()) {
    for (const auto& item : v->array) {
      if (item->is_string()) {
        out->violations.push_back(item->str);
      }
    }
  }
  if (const json::Value* nodes = root.Get("nodes"); nodes != nullptr && nodes->is_array()) {
    for (const auto& n : nodes->array) {
      FlightDump::NodeLog log;
      log.node = static_cast<int>(n->GetNumber("node"));
      if (const json::Value* events = n->Get("events"); events != nullptr && events->is_array()) {
        for (const auto& e : events->array) {
          FlightDump::Event event;
          event.kind = e->GetString("kind");
          event.detail = static_cast<uint64_t>(e->GetNumber("detail"));
          event.start_us = e->GetNumber("start_us");
          event.end_us = e->GetNumber("end_us");
          log.events.push_back(std::move(event));
        }
      }
      out->nodes.push_back(std::move(log));
    }
  }
  if (const json::Value* inj = root.Get("injections"); inj != nullptr && inj->is_array()) {
    for (const auto& i : inj->array) {
      FlightDump::Injection note;
      note.what = i->GetString("what");
      note.klass = i->GetString("class");
      note.type = static_cast<uint32_t>(i->GetNumber("type"));
      note.src = static_cast<int>(i->GetNumber("src"));
      note.dst = static_cast<int>(i->GetNumber("dst"));
      note.at_us = i->GetNumber("at_us");
      out->injections.push_back(std::move(note));
    }
  }
  return true;
}

void PrintFlight(const FlightDump& dump, std::ostream& os) {
  os << "Flight recorder: " << dump.label << " — captured "
     << (dump.at_violation ? "at first oracle violation" : "at end of run") << "\n";
  if (!dump.violations.empty()) {
    os << dump.violations.size() << " violation(s):\n";
    for (const std::string& v : dump.violations) {
      os << "  ! " << v << "\n";
    }
  }
  // Interleave the per-node wait rings and the injection log into one timeline, ordered by the
  // instant each entry completed — the shape of the cluster's final moments.
  struct Line {
    double ts;
    std::string text;
  };
  std::vector<Line> lines;
  size_t events = 0;
  for (const FlightDump::NodeLog& log : dump.nodes) {
    for (const FlightDump::Event& e : log.events) {
      events++;
      std::ostringstream text;
      text << std::fixed << std::setprecision(1) << std::setw(14) << e.end_us << "  n" << log.node
           << " " << e.kind;
      if (e.kind == "page_fault") {
        text << " p" << e.detail;
      } else if (e.kind == "barrier") {
        text << " e" << e.detail;
      } else if (e.detail != 0) {
        text << " d" << e.detail;
      }
      text << " (" << FormatUs(e.end_us - e.start_us) << " us)";
      lines.push_back({e.end_us, text.str()});
    }
  }
  for (const FlightDump::Injection& i : dump.injections) {
    std::ostringstream text;
    text << std::fixed << std::setprecision(1) << std::setw(14) << i.at_us << "  inject " << i.what
         << " " << i.klass << " svc" << i.type << " n" << i.src << "->n" << i.dst;
    lines.push_back({i.at_us, text.str()});
  }
  std::stable_sort(lines.begin(), lines.end(),
                   [](const Line& a, const Line& b) { return a.ts < b.ts; });
  os << events << " wait event(s) across " << dump.nodes.size() << " node(s), "
     << dump.injections.size() << " injection(s):\n";
  for (const Line& line : lines) {
    os << line.text << "\n";
  }
}

// ---- CI regression gate --------------------------------------------------------------------

GateResult CheckGate(const std::string& baseline_text, const std::vector<RunSummary>& runs,
                     std::string* error) {
  GateResult out;
  json::ValuePtr doc;
  if (!ReadDocument(baseline_text, "dfil-gate-v1", &doc, error)) {
    out.ok = false;
    return out;
  }
  const double tolerance = doc->GetNumber("tolerance", 0.10);
  const json::Value* baseline_runs = doc->Get("runs");
  if (baseline_runs == nullptr || !baseline_runs->is_object()) {
    *error = "baseline has no runs object";
    out.ok = false;
    return out;
  }
  for (const auto& [label, expectations] : baseline_runs->object) {
    if (!expectations->is_object()) {
      // Otherwise the label would pass with no comparison made.
      *error = "baseline run \"" + label + "\" is not an object of counters";
      out.ok = false;
      return out;
    }
    const RunSummary* run = nullptr;
    for (const RunSummary& candidate : runs) {
      if (candidate.label == label) {
        run = &candidate;
        break;
      }
    }
    if (run == nullptr) {
      out.lines.push_back("FAIL " + label + ": no metrics file with this label was supplied");
      out.drifts.push_back(GateDrift{label, nullptr, ""});
      continue;
    }
    for (const auto& [counter, expected_value] : expectations->object) {
      if (!expected_value->is_number()) {
        continue;
      }
      const double expected = expected_value->number;
      const auto actual = static_cast<double>(run->ClusterCounter(counter));
      const bool fail = std::abs(actual - expected) / std::max(expected, 1.0) > tolerance;
      std::ostringstream line;
      line << (fail ? "FAIL " : "ok   ") << label << " " << counter << ": expected "
           << std::llround(expected) << ", got " << std::llround(actual) << " ("
           << std::showpos << std::fixed << std::setprecision(1) << 100.0 * (actual - expected) /
                  std::max(expected, 1.0)
           << "%, tolerance ±" << std::noshowpos << 100.0 * tolerance << "%)";
      out.lines.push_back(line.str());
      if (fail) {
        out.drifts.push_back(GateDrift{label, run, counter});
      }
    }
  }
  out.ok = out.drifts.empty();
  return out;
}

namespace {

// Where a failing counter lives: the per-node split, the hottest pages for DSM counters, and
// the epochs carrying the matching per-epoch column when the series records one.
void ExplainCounter(const RunSummary& run, const std::string& counter, size_t top_n,
                    std::ostream& os) {
  os << "  " << run.label << " " << counter << ":\n";
  os << "    per-node:";
  for (const RunSummary::Node& n : run.per_node) {
    std::ostringstream cell;
    if (counter == "makespan_us") {
      cell << FormatUs(n.finished_at_us);
    } else {
      auto it = n.counters.find(counter);
      cell << (it == n.counters.end() ? 0 : it->second);
    }
    os << " n" << n.node << "=" << cell.str();
  }
  os << "\n";
  if (counter.rfind("dsm.", 0) == 0) {
    const auto ranked = HottestPages(run);
    if (!ranked.empty()) {
      os << "    hottest pages:";
      for (size_t i = 0; i < ranked.size() && i < top_n; ++i) {
        os << " p" << ranked[i].first << "=" << ranked[i].second;
      }
      os << "\n";
    }
  }
  // The per-epoch series names columns without the layer prefix ("faults", not
  // "dsm.read_faults"); try the counter's suffix, then the generic fault column.
  std::string col = counter.substr(counter.rfind('.') + 1);
  const auto epochs = EpochTotals(run);
  auto has_col = [&epochs](const std::string& name) {
    return std::any_of(epochs.begin(), epochs.end(),
                       [&name](const auto& cell) { return cell.first.second == name; });
  };
  if (!has_col(col) && counter.find("fault") != std::string::npos && has_col("faults")) {
    col = "faults";
  }
  std::vector<std::pair<uint64_t, double>> by_epoch;
  for (const auto& [key, value] : epochs) {
    if (key.second == col && value != 0.0) {
      by_epoch.emplace_back(key.first, value);
    }
  }
  std::sort(by_epoch.begin(), by_epoch.end(), [](const auto& x, const auto& y) {
    return x.second != y.second ? x.second > y.second : x.first < y.first;
  });
  if (!by_epoch.empty()) {
    os << "    top epochs by " << col << ":";
    for (size_t i = 0; i < by_epoch.size() && i < top_n; ++i) {
      os << " e" << by_epoch[i].first << "=" << DeltaNumber(by_epoch[i].second);
    }
    os << "\n";
  }
}

}  // namespace

void PrintGateDrift(const GateResult& gate, size_t top_n, std::ostream& os) {
  if (gate.drifts.empty()) {
    return;
  }
  os << "\nWhere the drift lives:\n";
  for (const GateDrift& drift : gate.drifts) {
    if (drift.run == nullptr) {
      os << "  " << drift.label
         << ": no metrics file with this label was supplied — check the CI\n"
         << "  step's file list against the baseline's run labels\n";
    } else {
      ExplainCounter(*drift.run, drift.counter, top_n, os);
    }
  }
}

GateResult CheckCritpathGate(const std::string& baseline_text, const CriticalPath& path,
                             std::string* error) {
  GateResult out;
  json::ValuePtr doc;
  if (!ReadDocument(baseline_text, "dfil-critpath-gate-v1", &doc, error)) {
    out.ok = false;
    return out;
  }
  const json::Value& root = *doc;
  if (!path.ok) {
    out.ok = false;
    out.lines.push_back("FAIL critpath: " + path.error);
    return out;
  }
  out.lines.push_back("ok   critpath: " + std::to_string(path.segments.size()) + " hops tile [0, " +
                      FormatUs(path.completion_us) + " us] with no gaps");
  const double tolerance_pp = root.GetNumber("tolerance_pp", 10.0);
  const json::Value* shares = root.Get("shares_pct");
  if (shares == nullptr || !shares->is_object()) {
    *error = "baseline has no shares_pct object";
    out.ok = false;
    return out;
  }
  const double denom = path.completion_us > 0.0 ? path.completion_us : 1.0;
  const std::map<std::string, double> actual = {
      {"compute", 100.0 * path.compute_us / denom},
      {"page_fault", 100.0 * path.fault_us / denom},
      {"barrier", 100.0 * path.barrier_us / denom},
  };
  for (const auto& [kind, expected_value] : shares->object) {
    if (!expected_value->is_number()) {
      continue;
    }
    auto it = actual.find(kind);
    if (it == actual.end()) {
      out.ok = false;
      out.lines.push_back("FAIL critpath " + kind + ": unknown wait category in baseline");
      continue;
    }
    const double expected = expected_value->number;
    const double drift = std::abs(it->second - expected);
    std::ostringstream line;
    line << (drift > tolerance_pp ? "FAIL " : "ok   ") << "critpath " << kind << " share: expected "
         << std::fixed << std::setprecision(1) << expected << "pp, got " << it->second << "pp (±"
         << tolerance_pp << "pp)";
    out.lines.push_back(line.str());
    if (drift > tolerance_pp) {
      out.ok = false;
    }
  }
  return out;
}

// ---- Shared CLI parsing --------------------------------------------------------------------

CliOptions ParseCliOptions(int argc, char** argv, int first) {
  CliOptions opt;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    // "--flag VALUE" and "--flag=VALUE" are both accepted; a trailing valueless "--flag" is a
    // usage error (reported through opt.error, never a silent default).
    auto value_of = [&](const char* flag, std::string* value) {
      const std::string name(flag);
      if (arg == name) {
        if (i + 1 >= argc) {
          opt.error = arg + " (missing value)";
          return true;
        }
        *value = argv[++i];
        return true;
      }
      if (arg.rfind(name + "=", 0) == 0) {
        *value = arg.substr(name.size() + 1);
        return true;
      }
      return false;
    };
    std::string top_value;
    if (value_of("--top", &top_value)) {
      if (!opt.error.empty()) {
        break;
      }
      opt.top_n = static_cast<size_t>(std::strtoul(top_value.c_str(), nullptr, 10));
      opt.flags.push_back("--top");
    } else if (value_of("--check", &opt.check_baseline)) {
      if (!opt.error.empty()) {
        break;
      }
      opt.flags.push_back("--check");
    } else if (arg == "--force") {
      opt.force = true;
      opt.flags.push_back("--force");
    } else if (arg.rfind("--", 0) == 0) {
      opt.error = arg;
      break;
    } else {
      opt.paths.push_back(arg);
    }
  }
  return opt;
}

// ---- Run diffing (dfil_report diff) --------------------------------------------------------

double Delta::rel() const {
  return (b - a) / std::max(std::abs(a), 1.0);
}

namespace {

std::string ProvenanceOr(const RunSummary& run, const std::string& key) {
  auto it = run.provenance.find(key);
  return it == run.provenance.end() ? std::string() : it->second;
}

void AddDelta(std::vector<Delta>* out, std::string name, double a, double b) {
  if (a == b) {
    return;
  }
  out->push_back(Delta{std::move(name), a, b});
}

void RankDeltas(std::vector<Delta>* deltas) {
  std::sort(deltas->begin(), deltas->end(), [](const Delta& x, const Delta& y) {
    const double rx = std::abs(x.rel());
    const double ry = std::abs(y.rel());
    if (rx != ry) {
      return rx > ry;
    }
    const double dx = std::abs(x.diff());
    const double dy = std::abs(y.diff());
    return dx != dy ? dx > dy : x.name < y.name;
  });
}

std::string FnLabel(int fn) { return fn < 0 ? std::string("residual") : "fn" + std::to_string(fn); }

// The A/B join every diff section shares: f(key, A's value, B's value) over the union of both
// maps' keys in key order, a side without the key contributing a value-initialized V.
template <typename K, typename V, typename F>
void JoinAB(const std::map<K, V>& a, const std::map<K, V>& b, F f) {
  std::set<K> keys;
  for (const auto& [key, value] : a) {
    keys.insert(key);
  }
  for (const auto& [key, value] : b) {
    keys.insert(key);
  }
  for (const K& key : keys) {
    const auto ia = a.find(key);
    const auto ib = b.find(key);
    f(key, ia == a.end() ? V{} : ia->second, ib == b.end() ? V{} : ib->second);
  }
}

}  // namespace

FingerprintCheck CompareFingerprints(const RunSummary& a, const RunSummary& b) {
  FingerprintCheck out;
  // Hard mismatches: the runs execute different programs or a different memory shape, so no
  // counter delta between them attributes anything. Empty fields (old files) are "unknown", not
  // a mismatch.
  auto hard = [&out](const char* what, const std::string& va, const std::string& vb) {
    if (!va.empty() && !vb.empty() && va != vb) {
      out.compatible = false;
      out.mismatches.push_back(std::string(what) + ": " + va + " vs " + vb);
    }
  };
  hard("app", a.fingerprint.app, b.fingerprint.app);
  hard("page_shift", ProvenanceOr(a, "page_shift"), ProvenanceOr(b, "page_shift"));
  if (a.nodes != b.nodes) {
    out.compatible = false;
    out.mismatches.push_back("nodes: " + std::to_string(a.nodes) + " vs " +
                             std::to_string(b.nodes));
  }
  out.identical_config =
      !a.fingerprint.config.empty() && a.fingerprint.config == b.fingerprint.config;
  if (!out.identical_config) {
    // The digest only says "something schedule-affecting differs"; the provenance block says
    // what. cli.* keys record how the bench was invoked, not what ran — skip them.
    std::set<std::string> keys;
    for (const auto& [key, value] : a.provenance) {
      keys.insert(key);
    }
    for (const auto& [key, value] : b.provenance) {
      keys.insert(key);
    }
    for (const std::string& key : keys) {
      if (key.rfind("cli.", 0) == 0 || key == "config_digest") {
        continue;
      }
      const std::string va = ProvenanceOr(a, key);
      const std::string vb = ProvenanceOr(b, key);
      if (va != vb) {
        out.config_notes.push_back(key + ": " + (va.empty() ? "(unset)" : va) + " -> " +
                                   (vb.empty() ? "(unset)" : vb));
      }
    }
  }
  return out;
}

RunDiff DiffRuns(const RunSummary& a, const RunSummary& b) {
  RunDiff d;
  d.fingerprints = CompareFingerprints(a, b);
  d.makespan = Delta{"makespan_us", a.makespan_us, b.makespan_us};

  JoinAB(a.cluster_counters, b.cluster_counters,
         [&d](const std::string& name, uint64_t x, uint64_t y) {
           AddDelta(&d.counters, name, static_cast<double>(x), static_cast<double>(y));
         });
  JoinAB(MergedHistograms(a), MergedHistograms(b),
         [&d](const std::string& name, const HistSummary& x, const HistSummary& y) {
           AddDelta(&d.histograms, name + ".p50", x.Percentile(50.0), y.Percentile(50.0));
           AddDelta(&d.histograms, name + ".p99", x.Percentile(99.0), y.Percentile(99.0));
         });
  JoinAB(EpochTotals(a), EpochTotals(b),
         [&d](const std::pair<uint64_t, std::string>& cell, double x, double y) {
           std::string name = "e";
           name.append(std::to_string(cell.first)).append(".").append(cell.second);
           AddDelta(&d.epochs, std::move(name), x, y);
         });
  JoinAB(PoolsByFn(a), PoolsByFn(b), [&d](int fn, const PoolRow& x, const PoolRow& y) {
    const std::string prefix = FnLabel(fn) + ".";
    AddDelta(&d.pools, prefix + "run_us", x.run_us, y.run_us);
    AddDelta(&d.pools, prefix + "blocked_us", x.blocked_us, y.blocked_us);
    AddDelta(&d.pools, prefix + "serve_us", x.serve_us, y.serve_us);
    AddDelta(&d.pools, prefix + "faults", static_cast<double>(x.faults),
             static_cast<double>(y.faults));
    AddDelta(&d.pools, prefix + "filaments_run", static_cast<double>(x.filaments_run),
             static_cast<double>(y.filaments_run));
    AddDelta(&d.pools, prefix + "migrated_in", static_cast<double>(x.migrated_in),
             static_cast<double>(y.migrated_in));
  });
  JoinAB(PageHeatTotals(a), PageHeatTotals(b), [&d](uint64_t page, uint64_t x, uint64_t y) {
    AddDelta(&d.pages, "page " + std::to_string(page), static_cast<double>(x),
             static_cast<double>(y));
  });

  RankDeltas(&d.counters);
  RankDeltas(&d.histograms);
  RankDeltas(&d.epochs);
  RankDeltas(&d.pools);
  RankDeltas(&d.pages);
  return d;
}

namespace {

std::string RelPct(const Delta& d) {
  // Appearing / vanishing quantities would print as absurd percentages of the +/-1 floor;
  // name the situation instead.
  if (d.a == 0.0 && d.b != 0.0) {
    return "(new)";
  }
  if (d.b == 0.0 && d.a != 0.0) {
    return "(gone)";
  }
  std::ostringstream os;
  os << std::showpos << std::fixed << std::setprecision(1) << 100.0 * d.rel() << "%";
  return os.str();
}

void PrintDeltaTable(const char* title, const std::vector<Delta>& deltas, size_t top_n,
                     std::ostream& os) {
  if (deltas.empty()) {
    return;
  }
  os << title << " (" << deltas.size() << " changed)\n";
  os << std::left << std::setw(34) << "  name" << std::right << std::setw(16) << "A"
     << std::setw(16) << "B" << std::setw(16) << "delta" << std::setw(10) << "rel" << "\n";
  for (size_t i = 0; i < deltas.size() && i < top_n; ++i) {
    const Delta& d = deltas[i];
    os << std::left << std::setw(34) << ("  " + d.name) << std::right << std::setw(16)
       << DeltaNumber(d.a) << std::setw(16) << DeltaNumber(d.b) << std::setw(16)
       << DeltaNumber(d.diff()) << std::setw(10) << RelPct(d) << "\n";
  }
  if (deltas.size() > top_n) {
    os << "  ... " << deltas.size() - top_n << " more (raise --top)\n";
  }
}

}  // namespace

void PrintRunDiff(const RunDiff& diff, const RunSummary& a, const RunSummary& b, size_t top_n,
                  std::ostream& os) {
  os << "Run diff: A=" << a.label << " (" << a.pcp << ") vs B=" << b.label << " (" << b.pcp
     << ")\n";
  const FingerprintCheck& fp = diff.fingerprints;
  if (!fp.compatible) {
    os << "fingerprints: INCOMPATIBLE — the runs execute different programs:\n";
    for (const std::string& m : fp.mismatches) {
      os << "  ! " << m << "\n";
    }
  } else if (fp.identical_config) {
    os << "fingerprints: identical config (digest " << a.fingerprint.config
       << ") — any delta below is noise or a code change";
    if (!a.fingerprint.git.empty() && a.fingerprint.git != b.fingerprint.git) {
      os << " (git " << a.fingerprint.git << " -> " << b.fingerprint.git << ")";
    }
    os << "\n";
  } else {
    os << "fingerprints: comparable A/B (app " << (a.fingerprint.app.empty() ? "?" : a.fingerprint.app)
       << ", " << a.nodes << " nodes); config differs:\n";
    for (const std::string& note : fp.config_notes) {
      os << "  ~ " << note << "\n";
    }
    if (fp.config_notes.empty()) {
      os << "  ~ (digest differs but no provenance key does — a knob outside provenance moved)\n";
    }
  }
  {
    std::ostringstream line;
    line << "makespan_us: " << DeltaNumber(diff.makespan.a) << " -> "
         << DeltaNumber(diff.makespan.b);
    if (diff.makespan.diff() != 0.0) {
      line << " (" << RelPct(diff.makespan) << ")";
    }
    os << line.str() << "\n\n";
  }
  PrintDeltaTable("Counter deltas", diff.counters, top_n, os);
  PrintDeltaTable("Histogram percentile deltas", diff.histograms, top_n, os);
  PrintDeltaTable("Per-pool deltas (by filament fn)", diff.pools, top_n, os);
  PrintDeltaTable("Per-epoch deltas (cluster totals)", diff.epochs, top_n, os);
  PrintDeltaTable("Page-heat deltas (demand faults)", diff.pages, top_n, os);
}

std::vector<Delta> DiffBlame(const CriticalPath& a, const CriticalPath& b) {
  auto path_us = [](const CriticalPath& path) {
    std::map<std::string, double> by_cause;
    for (const BlameRow& row : BlamePath(path)) {
      by_cause[row.label] = row.us;
    }
    return by_cause;
  };
  std::vector<Delta> out;
  JoinAB(path_us(a), path_us(b), [&out](const std::string& cause, double x, double y) {
    AddDelta(&out, cause, x, y);
  });
  RankDeltas(&out);
  return out;
}

void PrintBlameDiff(const std::vector<Delta>& deltas, size_t top_n, std::ostream& os) {
  if (deltas.empty()) {
    os << "Critical-path blame: identical between the two traces\n";
    return;
  }
  PrintDeltaTable("Critical-path blame deltas (us on the path)", deltas, top_n, os);
}

// ---- Result history (bench/HISTORY.jsonl) --------------------------------------------------

namespace {

// Writes `, "key": "value"` with both strings escaped.
void WriteStringField(std::ostream& os, const std::string& key, const std::string& value) {
  os << ", \"";
  json::WriteEscaped(os, key);
  os << "\": \"";
  json::WriteEscaped(os, value);
  os << "\"";
}

}  // namespace

std::string HistoryLine(const RunSummary& run) {
  std::ostringstream os;
  os << "{\"kind\": \"metrics\"";
  WriteStringField(os, "label", run.label);
  WriteStringField(os, "app", run.fingerprint.app);
  WriteStringField(os, "config", run.fingerprint.config);
  WriteStringField(os, "git", run.fingerprint.git);
  WriteStringField(os, "seed", run.fingerprint.seed);
  os << ", \"nodes\": " << run.nodes;
  WriteStringField(os, "pcp", run.pcp);
  os << ", \"completed\": " << (run.completed ? 1 : 0)
     << ", \"makespan_us\": " << DeltaNumber(run.makespan_us) << ", \"counters\": {";
  bool first = true;
  for (const char* counter : kFigure9Counters) {
    const uint64_t value = run.ClusterCounter(counter);
    if (value == 0) {
      continue;
    }
    os << (first ? "" : ", ") << "\"" << counter << "\": " << value;
    first = false;
  }
  os << "}}";
  return os.str();
}

bool BenchHistoryLine(const std::string& bench_json_text, std::string* line, std::string* error) {
  json::ValuePtr doc;
  if (!ReadDocument(bench_json_text, nullptr, &doc, error)) {
    return false;
  }
  const json::Value& root = *doc;
  if (root.Get("bench") == nullptr || !root.Get("bench")->is_string()) {
    *error = "not a BENCH_*.json report (no \"bench\" string field)";
    return false;
  }
  std::ostringstream os;
  os << "{\"kind\": \"bench\"";
  WriteStringField(os, "bench", root.GetString("bench"));
  size_t rows = 0;
  for (const auto& [key, value] : root.object) {
    if (value->is_number()) {
      os << ", \"";
      json::WriteEscaped(os, key);
      os << "\": " << DeltaNumber(value->number);
    } else if (key == "rows" && value->is_array()) {
      rows = value->array.size();
    }
  }
  os << ", \"rows\": " << rows << "}";
  *line = os.str();
  return true;
}

bool AppendHistory(const std::string& path, const std::vector<std::string>& lines,
                   size_t* appended, std::string* error) {
  *appended = 0;
  std::set<std::string> existing;
  {
    std::ifstream in(path);  // absent file = empty history, created below
    std::string line;
    while (std::getline(in, line)) {
      // Every record starts with its kind; anything else is not a history file (say, a METRICS
      // file given where the history file belongs), and appending would corrupt it.
      if (!line.empty() && line.rfind("{\"kind\": ", 0) != 0) {
        *error = path + ": not a result-history file (a line without a \"kind\" prefix)";
        return false;
      }
      existing.insert(line);
    }
  }
  std::ofstream out(path, std::ios::app);
  if (!out) {
    *error = path + ": cannot open for append";
    return false;
  }
  for (const std::string& line : lines) {
    if (existing.insert(line).second) {
      out << line << "\n";
      ++*appended;
    }
  }
  if (!out) {
    *error = path + ": write failed";
    return false;
  }
  return true;
}

// ---- Command line --------------------------------------------------------------------------

namespace {

int Usage(std::ostream& err) {
  err << "usage: dfil_report <command> [flags] <operands...>\n"
         "\n"
         "metrics commands (METRICS_*.json, dfil-metrics-v2):\n"
         "  report      METRICS_*.json        Figure 10 + fault latency + hottest pages per run,\n"
         "                                    Figure 9 across runs\n"
         "  figure10    METRICS_*.json        per-node time breakdown only\n"
         "  figure9     METRICS_*.json        message counts per protocol only\n"
         "  hot         METRICS_*.json        hottest pages only\n"
         "\n"
         "trace commands (Chrome trace-event JSON):\n"
         "  check-trace TRACE.json...         structural validity (span nesting, flow arcs)\n"
         "  paths       TRACE.json...         longest single-fault flow arcs\n"
         "  critpath    TRACE.json...         end-to-end critical path: per-hop compute /\n"
         "                                    page-fault / barrier blame and the what-if bound\n"
         "  blame       TRACE.json...         critical-path residency ranked by cause\n"
         "                                    (page / barrier epoch / node compute)\n"
         "\n"
         "failure forensics (FLIGHT_*.json, dfil-flight-v1):\n"
         "  flight      FLIGHT.json...        render a flight-recorder dump: oracle violations,\n"
         "                                    last wait events per node, recent fault injections\n"
         "\n"
         "A/B attribution and history:\n"
         "  diff     A_METRICS.json B_METRICS.json [A_TRACE.json B_TRACE.json]\n"
         "                                    fingerprint check, then ranked per-counter /\n"
         "                                    histogram / pool / epoch / page deltas; with the\n"
         "                                    trace pair, the critical-path blame deltas too\n"
         "  history  FILE.jsonl METRICS_*.json|BENCH_*.json...\n"
         "                                    append one-line summaries, skipping duplicates\n"
         "\n"
         "CI gates:\n"
         "  gate     BASELINE.json METRICS_*.json   counter-regression gate (dfil-gate-v1);\n"
         "                                    on failure, where the drift lives (per-node\n"
         "                                    split, hottest pages, top epochs)\n"
         "  critpath --check BASELINE.json TRACE.json\n"
         "                                    gate the path's wait-category shares\n"
         "                                    (dfil-critpath-gate-v1)\n"
         "\n"
         "flags (position-independent; a command refuses a flag it does not read):\n"
         "  --top N          report/hot/paths/critpath/blame/gate/diff: rows/hops to print\n"
         "                   (default 10)\n"
         "  --check FILE     critpath/blame: gate against a dfil-critpath-gate-v1 baseline\n"
         "  --force          diff: compare even when the fingerprints are incompatible\n"
         "\n"
         "exit codes (scripts may rely on them):\n"
         "  0 ok, 1 gate/check failure or incompatible runs, 2 usage error,\n"
         "  3 unreadable/unparseable input\n";
  return kExitUsage;
}

// Reports `what` on err and returns `rc`.
int Fail(std::ostream& err, const std::string& what, int rc) {
  err << "dfil_report: " << what << "\n";
  return rc;
}

// Reads `path` and parses it with `parse` (ParseRun, ParseTrace or ParseFlight); a parse error
// names the file.
template <typename T>
bool LoadFile(const std::string& path, bool (*parse)(const std::string&, T*, std::string*),
              T* out, std::string* error) {
  std::string text;
  if (!ReadFile(path, &text, error)) {
    return false;
  }
  if (!parse(text, out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

bool LoadRuns(const std::vector<std::string>& paths, std::vector<RunSummary>* runs,
              std::string* error) {
  for (const std::string& path : paths) {
    RunSummary run;
    if (!LoadFile(path, ParseRun, &run, error)) {
      return false;
    }
    runs->push_back(std::move(run));
  }
  return true;
}

int CmdMetrics(const std::string& cmd, const CliOptions& opt, std::ostream& out,
               std::ostream& err) {
  std::vector<RunSummary> runs;
  std::string error;
  if (!LoadRuns(opt.paths, &runs, &error)) {
    return Fail(err, error, kExitIo);
  }
  const bool all = cmd == "report";
  for (const RunSummary& run : runs) {
    if (all || cmd == "figure10") {
      PrintFigure10(run, out);
      out << "\n";
    }
    if (all) {
      PrintFaultLatency(run, out);
    }
    if (all || cmd == "hot") {
      PrintHotPages(run, opt.top_n, out);
      out << "\n";
    }
  }
  if (all || cmd == "figure9") {
    PrintFigure9(runs, out);
  }
  return kExitOk;
}

int CmdTrace(const std::string& cmd, const CliOptions& opt, std::ostream& out,
             std::ostream& err) {
  const bool critpath = cmd == "critpath" || cmd == "blame";
  std::string baseline_text;
  std::string error;
  if (critpath && !opt.check_baseline.empty() &&
      !ReadFile(opt.check_baseline, &baseline_text, &error)) {
    return Fail(err, error, kExitIo);
  }
  bool ok = true;
  for (const std::string& path : opt.paths) {
    std::vector<TraceEvent> events;
    if (!LoadFile(path, ParseTrace, &events, &error)) {
      return Fail(err, error, kExitIo);
    }
    if (cmd == "check-trace") {
      const TraceCheck check = CheckChromeTrace(events);
      out << path << ": " << check.events << " events, " << check.spans << " spans, "
          << check.complete_flows << "/" << check.flow_starts << " flows complete — "
          << (check.ok ? "OK" : "MALFORMED") << "\n";
      for (const std::string& line : check.errors) {
        out << "  " << line << "\n";
      }
      ok = ok && check.ok;
      continue;
    }
    out << path << ":\n";
    if (!critpath) {
      PrintCriticalPaths(ExtractFlows(events), opt.top_n, out);
      continue;
    }
    const CriticalPath path_built = BuildCriticalPath(events);
    if (cmd == "blame") {
      PrintBlame(path_built, opt.top_n, out);
    } else {
      PrintCritPath(path_built, opt.top_n, out);
    }
    ok = ok && path_built.ok;
    if (!opt.check_baseline.empty()) {
      const GateResult gate = CheckCritpathGate(baseline_text, path_built, &error);
      if (!error.empty()) {
        return Fail(err, opt.check_baseline + ": " + error, kExitIo);
      }
      for (const std::string& line : gate.lines) {
        out << line << "\n";
      }
      out << "critpath gate: " << (gate.ok ? "PASS" : "FAIL") << "\n";
      ok = ok && gate.ok;
    }
    out << "\n";
  }
  return ok ? kExitOk : kExitCheckFailed;
}

int CmdFlight(const CliOptions& opt, std::ostream& out, std::ostream& err) {
  for (const std::string& path : opt.paths) {
    std::string error;
    FlightDump dump;
    if (!LoadFile(path, ParseFlight, &dump, &error)) {
      return Fail(err, error, kExitIo);
    }
    out << path << ":\n";
    PrintFlight(dump, out);
    out << "\n";
  }
  return kExitOk;
}

int CmdGate(const CliOptions& opt, std::ostream& out, std::ostream& err) {
  const std::string& baseline = opt.paths[0];
  std::string baseline_text;
  std::string error;
  std::vector<RunSummary> runs;
  if (!ReadFile(baseline, &baseline_text, &error) ||
      !LoadRuns({opt.paths.begin() + 1, opt.paths.end()}, &runs, &error)) {
    return Fail(err, error, kExitIo);
  }
  const GateResult gate = CheckGate(baseline_text, runs, &error);
  if (!error.empty()) {
    return Fail(err, baseline + ": " + error, kExitIo);
  }
  for (const std::string& line : gate.lines) {
    out << line << "\n";
  }
  PrintGateDrift(gate, opt.top_n, out);
  out << "gate: " << (gate.ok ? "PASS" : "FAIL") << "\n";
  return gate.ok ? kExitOk : kExitCheckFailed;
}

int CmdDiff(const CliOptions& opt, std::ostream& out, std::ostream& err) {
  std::vector<RunSummary> runs;
  std::string error;
  if (!LoadRuns({opt.paths[0], opt.paths[1]}, &runs, &error)) {
    return Fail(err, error, kExitIo);
  }
  const RunDiff diff = DiffRuns(runs[0], runs[1]);
  PrintRunDiff(diff, runs[0], runs[1], opt.top_n, out);
  if (!diff.fingerprints.compatible && !opt.force) {
    return Fail(err,
                "fingerprints are incompatible — the deltas above compare different programs "
                "(use --force to accept them anyway)",
                kExitCheckFailed);
  }
  if (opt.paths.size() == 2) {
    return kExitOk;
  }
  std::vector<TraceEvent> events_a;
  std::vector<TraceEvent> events_b;
  if (!LoadFile(opt.paths[2], ParseTrace, &events_a, &error) ||
      !LoadFile(opt.paths[3], ParseTrace, &events_b, &error)) {
    return Fail(err, error, kExitIo);
  }
  const CriticalPath path_a = BuildCriticalPath(events_a);
  const CriticalPath path_b = BuildCriticalPath(events_b);
  if (!path_a.ok) {
    return Fail(err, opt.paths[2] + ": " + path_a.error, kExitCheckFailed);
  }
  if (!path_b.ok) {
    return Fail(err, opt.paths[3] + ": " + path_b.error, kExitCheckFailed);
  }
  out << "\nCritical path A (" << opt.paths[2] << "):\n";
  PrintCritPath(path_a, 3, out);
  out << "\nCritical path B (" << opt.paths[3] << "):\n";
  PrintCritPath(path_b, 3, out);
  out << "\n";
  PrintBlameDiff(DiffBlame(path_a, path_b), opt.top_n, out);
  return kExitOk;
}

int CmdHistory(const CliOptions& opt, std::ostream& out, std::ostream& err) {
  const std::string& history = opt.paths[0];
  std::vector<std::string> lines;
  std::string error;
  for (size_t i = 1; i < opt.paths.size(); ++i) {
    const std::string& path = opt.paths[i];
    std::string text;
    if (!ReadFile(path, &text, &error)) {
      return Fail(err, error, kExitIo);
    }
    // METRICS files carry a dfil-metrics schema tag; everything else must be a BENCH report.
    std::string line;
    if (text.find("\"dfil-metrics-v") != std::string::npos) {
      RunSummary run;
      if (!ParseRun(text, &run, &error)) {
        return Fail(err, path + ": " + error, kExitIo);
      }
      line = HistoryLine(run);
    } else if (!BenchHistoryLine(text, &line, &error)) {
      return Fail(err, path + ": " + error, kExitIo);
    }
    lines.push_back(std::move(line));
  }
  size_t appended = 0;
  if (!AppendHistory(history, lines, &appended, &error)) {
    return Fail(err, error, kExitIo);
  }
  out << "appended " << appended << " line(s) to " << history << " ("
      << lines.size() - appended << " duplicate(s) skipped)\n";
  return kExitOk;
}

}  // namespace

int RunCli(int argc, char** argv, std::ostream& out, std::ostream& err) {
  const std::string cmd = argc >= 2 ? argv[1] : "";
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    Usage(err);
    return kExitOk;
  }
  // Flags may appear anywhere after the command; everything else is an operand, in order.
  const CliOptions opt = ParseCliOptions(argc, argv, 2);
  if (!opt.error.empty()) {
    err << "dfil_report: unrecognized flag '" << opt.error << "'\n";
    return Usage(err);
  }
  // The flags each command reads. Any other is refused rather than ignored, so a mistyped gate
  // step cannot pass while checking nothing.
  static const std::map<std::string, std::set<std::string>> kCommandFlags = {
      {"report", {"--top"}},           {"figure10", {}},
      {"figure9", {}},                 {"hot", {"--top"}},
      {"check-trace", {}},             {"paths", {"--top"}},
      {"critpath", {"--top", "--check"}}, {"blame", {"--top", "--check"}},
      {"flight", {}},                  {"gate", {"--top"}},
      {"diff", {"--top", "--force"}},  {"history", {}},
  };
  const auto command = kCommandFlags.find(cmd);
  if (command == kCommandFlags.end()) {
    return Usage(err);
  }
  for (const std::string& flag : opt.flags) {
    if (command->second.count(flag) == 0) {
      err << "dfil_report: " << cmd << " does not take " << flag << "\n";
      return Usage(err);
    }
  }
  const size_t operands = opt.paths.size();
  if (operands >= 1 &&
      (cmd == "report" || cmd == "figure10" || cmd == "figure9" || cmd == "hot")) {
    return CmdMetrics(cmd, opt, out, err);
  }
  if (operands >= 1 &&
      (cmd == "check-trace" || cmd == "paths" || cmd == "critpath" || cmd == "blame")) {
    return CmdTrace(cmd, opt, out, err);
  }
  if (operands >= 1 && cmd == "flight") {
    return CmdFlight(opt, out, err);
  }
  if (operands >= 2 && cmd == "gate") {
    return CmdGate(opt, out, err);
  }
  if ((operands == 2 || operands == 4) && cmd == "diff") {
    return CmdDiff(opt, out, err);
  }
  if (operands >= 2 && cmd == "history") {
    return CmdHistory(opt, out, err);
  }
  return Usage(err);
}

}  // namespace dfil::report
