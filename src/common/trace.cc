#include "src/common/trace.h"

#include <cstdio>

#include "src/common/check.h"
#include "src/common/json.h"

namespace dfil {
void TraceRecorder::Begin(NodeId node, uint64_t tid, const char* category, std::string name,
                          SimTime ts) {
  events_.push_back(Event{'B', node, tid, category, std::move(name), ts, 0});
  depth_[{node, tid}]++;
}

void TraceRecorder::End(NodeId node, uint64_t tid, SimTime ts) {
  auto it = depth_.find({node, tid});
  if (it == depth_.end() || it->second <= 0) {
    // No open span on this track: a caller closed more than it opened (or an aborted run resumed
    // on a different thread). Dropping the event keeps the trace well-formed.
    unmatched_ends_++;
    return;
  }
  it->second--;
  events_.push_back(Event{'E', node, tid, "", "", ts, 0});
}

void TraceRecorder::Instant(NodeId node, uint64_t tid, const char* category, std::string name,
                            SimTime ts) {
  events_.push_back(Event{'i', node, tid, category, std::move(name), ts, 0});
}

void TraceRecorder::Flow(NodeId node, uint64_t tid, char phase, const char* category,
                         std::string name, SimTime ts, uint64_t flow_id) {
  DFIL_DCHECK(phase == kFlowStart || phase == kFlowStep || phase == kFlowEnd);
  events_.push_back(Event{phase, node, tid, category, std::move(name), ts, flow_id});
}

size_t TraceRecorder::open_spans() const {
  size_t open = 0;
  for (const auto& [key, depth] : depth_) {
    open += static_cast<size_t>(depth);
  }
  return open;
}

void TraceRecorder::WriteChromeTrace(std::ostream& os) const {
  os << "[";
  bool first = true;
  SimTime last_ts = 0;
  auto emit = [&](const Event& e) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    // ts is printed at fixed nanosecond precision: default ostream double formatting keeps only
    // six significant digits, which collapses distinct microsecond timestamps on second-long
    // runs — fatal for the critpath walker, which aligns spans across nodes by exact ts.
    char ts_buf[32];
    std::snprintf(ts_buf, sizeof(ts_buf), "%.3f", ToMicroseconds(e.ts));
    os << "{\"ph\":\"" << e.phase << "\",\"pid\":" << e.node << ",\"tid\":" << e.tid
       << ",\"ts\":" << ts_buf;
    if (e.phase != 'E') {
      os << ",\"cat\":\"";
      json::WriteEscaped(os, e.category);
      os << "\",\"name\":\"";
      json::WriteEscaped(os, e.name);
      os << "\"";
      if (e.phase == 'i') {
        os << ",\"s\":\"t\"";
      } else if (e.phase == kFlowStart || e.phase == kFlowStep || e.phase == kFlowEnd) {
        // bp:e binds the flow event to its enclosing slice (the default for 'f' is the next
        // slice, which would detach the arc from the install span).
        os << ",\"id\":" << e.flow_id << ",\"bp\":\"e\"";
      }
    }
    os << "}";
  };
  // Replayed open-span depth per track, so an aborted run's dangling spans can be closed.
  std::map<std::pair<NodeId, uint64_t>, int> open;
  for (const Event& e : events_) {
    if (e.phase == 'B') {
      open[{e.node, e.tid}]++;
    } else if (e.phase == 'E') {
      open[{e.node, e.tid}]--;
    }
    if (e.ts > last_ts) {
      last_ts = e.ts;
    }
    emit(e);
  }
  for (const auto& [track, depth] : open) {
    for (int i = 0; i < depth; ++i) {
      emit(Event{'E', track.first, track.second, "", "", last_ts, 0});
    }
  }
  os << "]\n";
}

}  // namespace dfil
