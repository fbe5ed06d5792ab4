// A node that runs only Packet handlers — no server threads are needed at this layer. It is the
// machine's sim::NodeHost and its endpoint's NodeUpcalls: charges advance the clock, the
// critical-section flag is a plain field, and the DSM-only upcalls are never made.
#ifndef DFIL_TESTS_MINI_HOST_H_
#define DFIL_TESTS_MINI_HOST_H_

#include <memory>
#include <string>
#include <utility>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/common/upcalls.h"
#include "src/net/packet.h"
#include "src/sim/machine.h"

namespace dfil::net {

class MiniHost final : public sim::NodeHost, public NodeUpcalls {
 public:
  MiniHost(NodeId id, sim::Machine* machine, PacketConfig config = PacketConfig{},
           CoalesceConfig coalesce = CoalesceConfig{})
      : id_(id), tracer_(id, this) {
    endpoint = std::make_unique<PacketEndpoint>(machine, id, config, this, coalesce);
  }

  // --- sim::NodeHost (Clock() also serves NodeUpcalls) ---
  NodeId id() const override { return id_; }
  SimTime Clock() const override { return clock_; }
  bool Runnable() const override { return false; }
  bool Done() const override { return true; }
  void Step() override {}
  void AdvanceTo(SimTime t) override { clock_ = t > clock_ ? t : clock_; }
  void OnDatagram(sim::Datagram d) override { endpoint->OnDatagram(std::move(d)); }
  std::string DescribeBlocked() const override { return ""; }

  // --- NodeUpcalls ---
  void Charge(TimeCategory, SimTime cost) override { clock_ += cost; }
  threads::ServerThread* CurrentThread() override { return nullptr; }
  uint64_t CurrentTid() override { return 0; }
  void BeforePageBlock(PageId) override {}
  void BlockCurrent() override {}
  void Wake(threads::ServerThread*) override {}
  void OnFetchesDrained() override {}
  bool InCriticalSection() const override { return in_critical; }
  NodeTracer& tracer() override { return tracer_; }
  MetricsRegistry& metrics() override { return metrics_; }
  void RecordWait(WaitKind, uint64_t, SimTime, SimTime) override {}

  std::unique_ptr<PacketEndpoint> endpoint;
  // While true, the endpoint ignores requests for mutating services.
  bool in_critical = false;

 private:
  NodeId id_;
  SimTime clock_ = 0;
  NodeTracer tracer_;
  MetricsRegistry metrics_;
};

}  // namespace dfil::net

#endif  // DFIL_TESTS_MINI_HOST_H_
