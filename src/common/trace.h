// Virtual-time execution tracing.
//
// When enabled (ClusterConfig::trace_enabled), the runtime records spans and instants — pool
// sweeps, page faults, reductions, fork/join task executions, message sends — against each node's
// virtual clock, keyed by (node, server thread). The result exports as Chrome trace-event JSON
// (chrome://tracing, Perfetto), which makes the paper's overlap story *visible*: the interior
// pool's span running under another thread's open page-fault span IS the communication/
// computation overlap.
//
// Causal cross-node tracing: every packet carries a 64-bit trace id (allocated at the fault that
// started the exchange and propagated through forwards, retransmissions and replies), and the
// runtime emits Chrome flow events ('s'/'t'/'f') carrying that id. Perfetto draws each fault's
// critical path — fault span, owner serve span, install — as one connected arc across nodes.
// DESIGN.md §Observability documents the propagation rules.
#ifndef DFIL_COMMON_TRACE_H_
#define DFIL_COMMON_TRACE_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/common/upcalls.h"

namespace dfil {

// Chrome trace-event flow phases. Events sharing a flow id form one arrow chain in Perfetto:
// exactly one 's' opens the arc, any number of 't' steps extend it, 'f' terminates it. Flow
// events bind to the slice enclosing them on their (node, tid) track.
inline constexpr char kFlowStart = 's';
inline constexpr char kFlowStep = 't';
inline constexpr char kFlowEnd = 'f';

class TraceRecorder {
 public:
  // Opens a span on (node, tid) at virtual time ts.
  void Begin(NodeId node, uint64_t tid, const char* category, std::string name, SimTime ts);
  // Closes the innermost open span on (node, tid). An End with no open span on the track is
  // dropped and counted (unmatched_ends) rather than aborting: fuzz-replay runs can abort
  // mid-span and their partial traces must still be collectable.
  void End(NodeId node, uint64_t tid, SimTime ts);
  // A point event.
  void Instant(NodeId node, uint64_t tid, const char* category, std::string name, SimTime ts);
  // A flow event; `phase` is one of kFlowStart/kFlowStep/kFlowEnd and `flow_id` links the arc.
  void Flow(NodeId node, uint64_t tid, char phase, const char* category, std::string name,
            SimTime ts, uint64_t flow_id);

  size_t event_count() const { return events_.size(); }
  // Number of spans still open (should be zero after a clean run).
  size_t open_spans() const;
  // End() calls that found no open span (should be zero; nonzero means a caller bug).
  size_t unmatched_ends() const { return unmatched_ends_; }

  // Chrome trace-event format: a JSON array of {name, cat, ph, pid, tid, ts} objects, with pid =
  // node id and ts in microseconds of virtual time. Spans still open (a run that aborted
  // mid-span) are closed with synthetic 'E' events at the final timestamp, so the output is
  // always balanced and loadable.
  void WriteChromeTrace(std::ostream& os) const;

 private:
  struct Event {
    char phase;  // 'B', 'E', 'i', or a flow phase 's'/'t'/'f'
    NodeId node;
    uint64_t tid;
    const char* category;
    std::string name;
    SimTime ts;
    uint64_t flow_id;
  };

  std::vector<Event> events_;
  std::map<std::pair<NodeId, uint64_t>, int> depth_;
  size_t unmatched_ends_ = 0;
};

// Per-node tracing facade: binds one node's identity (id; current server thread and virtual
// clock through its NodeUpcalls) to the shared TraceRecorder so lower layers (net, dsm) can trace
// without depending on the runtime. Also owns the node's *causal trace context*: the 64-bit trace
// id stamped on every outgoing packet. The recorder may be null (tracing off) — spans and events
// become no-ops, but trace ids are still allocated and propagated, so the wire format and the
// message schedule are identical with tracing on and off.
class NodeTracer {
 public:
  NodeTracer(NodeId node, NodeUpcalls* host) : node_(node), host_(host) {}

  void SetRecorder(TraceRecorder* recorder) { rec_ = recorder; }
  bool enabled() const { return rec_ != nullptr; }

  void Begin(const char* category, std::string name) {
    if (rec_ != nullptr) {
      rec_->Begin(node_, host_->CurrentTid(), category, std::move(name), host_->Clock());
    }
  }
  void End() {
    if (rec_ != nullptr) {
      rec_->End(node_, host_->CurrentTid(), host_->Clock());
    }
  }
  void Instant(const char* category, std::string name) {
    if (rec_ != nullptr) {
      rec_->Instant(node_, host_->CurrentTid(), category, std::move(name), host_->Clock());
    }
  }
  // A point event on an explicit tid track instead of the current server thread's — decision
  // lanes like the fault-injection `inject` track (sim::Machine::kInjectionTid) or the protocol
  // adapter's `adapt` track, which group per node in the trace viewer.
  void InstantOnTrack(uint64_t tid, const char* category, std::string name) {
    if (rec_ != nullptr) {
      rec_->Instant(node_, tid, category, std::move(name), host_->Clock());
    }
  }
  void Flow(char phase, const char* category, std::string name, uint64_t flow_id) {
    if (rec_ != nullptr && flow_id != 0) {
      rec_->Flow(node_, host_->CurrentTid(), phase, category, std::move(name), host_->Clock(),
                 flow_id);
    }
  }

  // Allocates a cluster-unique trace id (node id in the top bits, a local counter below; never 0,
  // 0 means "no causal context").
  uint64_t NewTraceId() { return ((static_cast<uint64_t>(node_) + 1) << 40) | ++next_id_; }

  // The trace id of the work currently executing on this node. The Packet layer stamps it on
  // every outgoing message; message handlers run with it set to the incoming message's id, so
  // nested sends (redirect chases, invalidation rounds) inherit the originating fault's id.
  uint64_t current() const { return current_; }
  uint64_t SwapCurrent(uint64_t id) {
    const uint64_t prev = current_;
    current_ = id;
    return prev;
  }

 private:
  TraceRecorder* rec_ = nullptr;
  NodeId node_;
  NodeUpcalls* host_;
  uint64_t next_id_ = 0;
  uint64_t current_ = 0;
};

// RAII span on a NodeTracer; tolerates a null tracer. The (prefix, n) constructor skips building
// the name string entirely when the tracer is null or disabled.
class TraceSpan {
 public:
  TraceSpan(NodeTracer* t, const char* category, std::string name) : t_(Live(t)) {
    if (t_ != nullptr) {
      t_->Begin(category, std::move(name));
    }
  }
  TraceSpan(NodeTracer* t, const char* category, const char* prefix, uint64_t n) : t_(Live(t)) {
    if (t_ != nullptr) {
      t_->Begin(category, std::string(prefix) + std::to_string(n));
    }
  }
  ~TraceSpan() {
    if (t_ != nullptr) {
      t_->End();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  static NodeTracer* Live(NodeTracer* t) { return t != nullptr && t->enabled() ? t : nullptr; }
  NodeTracer* t_;
};

// RAII causal-context switch: runs a scope under `flow_id`, restoring the previous id on exit.
class TraceContext {
 public:
  TraceContext(NodeTracer* t, uint64_t flow_id) : t_(t) {
    if (t_ != nullptr) {
      prev_ = t_->SwapCurrent(flow_id);
    }
  }
  ~TraceContext() {
    if (t_ != nullptr) {
      t_->SwapCurrent(prev_);
    }
  }
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

 private:
  NodeTracer* t_;
  uint64_t prev_ = 0;
};

}  // namespace dfil

#endif  // DFIL_COMMON_TRACE_H_
