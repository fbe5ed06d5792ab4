// NodeUpcalls: everything the lower layers of a node may ask of the runtime above them.
//
// Paper Figure 1 stacks the Filaments runtime over the DSM over Packet. Calls go down freely;
// the calls that go back up are few: charge CPU time, read the clock, block and wake server
// threads, plus recording hooks. This interface lists all of them, so the DSM, Packet and the
// per-node tracer hold one pointer to the runtime instead of a bag of callbacks. NodeRuntime
// implements it; Packet-only test and bench rigs implement it with a clock and no threads.
// DESIGN.md §3 lists which layer makes which upcall.
#ifndef DFIL_COMMON_UPCALLS_H_
#define DFIL_COMMON_UPCALLS_H_

#include <cstdint>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/common/waitstate.h"

namespace dfil {

namespace threads {
class ServerThread;
}  // namespace threads

class MetricsRegistry;
class NodeTracer;

class NodeUpcalls {
 public:
  virtual ~NodeUpcalls() = default;

  // --- Virtual time ---
  // Advances this node's clock by `cost`, attributed to `category`. From a server thread it may
  // yield mid-charge so due message handlers run at their exact virtual times.
  virtual void Charge(TimeCategory category, SimTime cost) = 0;
  // This node's virtual clock.
  virtual SimTime Clock() const = 0;

  // --- Server threads (the DSM fault path) ---
  // The server thread executing on this node; nullptr in handler context.
  virtual threads::ServerThread* CurrentThread() = 0;
  // Its id, the trace track events land on; 0 in handler context.
  virtual uint64_t CurrentTid() = 0;
  // The current thread is about to suspend on `page`: the engines start a replacement server
  // thread here. May charge time and yield, so the fetch may complete during the call.
  virtual void BeforePageBlock(PageId page) = 0;
  // Suspends the current server thread, which the caller has already marked blocked and queued.
  // Returns when the thread is woken. Must not charge.
  virtual void BlockCurrent() = 0;
  // Makes a blocked thread runnable (placement is the runtime's wake policy).
  virtual void Wake(threads::ServerThread* t) = 0;
  // The DSM's last outstanding page fetch completed (synchronization points wait on this).
  virtual void OnFetchesDrained() = 0;

  // --- Packet ---
  // While true, requests for mutating (non-idempotent) services are ignored (paper §3).
  virtual bool InCriticalSection() const = 0;

  // --- Recording only; never perturbs the schedule ---
  // The node's causal tracer: trace-id context plus span emission when a recorder is attached.
  virtual NodeTracer& tracer() = 0;
  // Live histograms and runtime counters, exported with the stats structs by metrics_io.
  virtual MetricsRegistry& metrics() = 0;
  // Records a blocked interval [from, to] in the wait-state ledger; a no-op when wait-state
  // accounting is off.
  virtual void RecordWait(WaitKind kind, uint64_t detail, SimTime from, SimTime to) = 0;
};

}  // namespace dfil

#endif  // DFIL_COMMON_UPCALLS_H_
