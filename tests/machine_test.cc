// Tests for the Machine event loop: virtual-time causality, timer semantics, broadcast delivery,
// deadlock detection, and the wire serialization helpers.
#include <gtest/gtest.h>

#include <memory>

#include "src/net/wire.h"
#include "src/sim/machine.h"

namespace dfil::sim {
namespace {

// Scriptable host: runs a queue of (charge, action) steps when stepped.
class ScriptHost : public NodeHost {
 public:
  ScriptHost(NodeId id, Machine* machine) : id_(id), machine_(machine) {}

  NodeId id() const override { return id_; }
  SimTime Clock() const override { return clock_; }
  bool Runnable() const override { return !steps_.empty(); }
  bool Done() const override { return steps_.empty() && done_; }
  void Step() override {
    // One step: advance the clock by the scripted charge (respecting the machine's charge
    // limit — split like a real runtime would), then run the action.
    auto [cost, action] = steps_.front();
    const SimTime limit = machine_->ChargeLimit(id_);
    if (limit != kSimTimeNever && clock_ + cost > limit) {
      // Partial charge up to the limit; the remainder stays scripted.
      const SimTime done_part = limit > clock_ ? limit - clock_ : 0;
      clock_ += done_part;
      steps_.front().first = cost - done_part;
      return;
    }
    clock_ += cost;
    steps_.erase(steps_.begin());
    if (action) {
      action();
    }
  }
  void AdvanceTo(SimTime t) override { clock_ = t > clock_ ? t : clock_; }
  void OnDatagram(Datagram d) override { received.push_back(std::move(d)); }
  std::string DescribeBlocked() const override { return "scripted"; }

  void AddStep(SimTime cost, std::function<void()> action = nullptr) {
    steps_.emplace_back(cost, std::move(action));
  }
  void MarkDone() { done_ = true; }

  std::vector<Datagram> received;

 private:
  NodeId id_;
  Machine* machine_;
  SimTime clock_ = 0;
  bool done_ = true;
  std::vector<std::pair<SimTime, std::function<void()>>> steps_;
};

struct Rig {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<ScriptHost> a, b;

  Rig() {
    CostModel costs = CostModel::SunIpcEthernet();
    machine = std::make_unique<Machine>(std::make_unique<SharedEthernet>(costs), costs);
    a = std::make_unique<ScriptHost>(0, machine.get());
    b = std::make_unique<ScriptHost>(1, machine.get());
    machine->AddHost(a.get());
    machine->AddHost(b.get());
  }
};

TEST(MachineTest, MessageArrivesAtItsVirtualTime) {
  Rig rig;
  // A sends at its clock 1 ms; B is busy computing for 50 ms. The delivery must bump nothing —
  // B's AdvanceTo sees a time in its past, and the message is handled "during" B's compute.
  rig.a->AddStep(Milliseconds(1.0), [&] {
    Datagram d;
    d.src = 0;
    d.dst = 1;
    d.type = 7;
    rig.machine->Send(std::move(d), rig.a->Clock());
  });
  rig.b->AddStep(Milliseconds(50.0));
  RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  ASSERT_EQ(rig.b->received.size(), 1u);
  // B's final clock is its own compute time; the early delivery never rewound it.
  EXPECT_GE(rig.b->Clock(), Milliseconds(50.0));
}

TEST(MachineTest, CausalityHorizonStopsRunahead) {
  Rig rig;
  // Both nodes runnable. The charge limit for each must track the other's clock + lookahead, so
  // neither can race ahead while its peer is runnable.
  rig.a->AddStep(Milliseconds(10.0));
  rig.b->AddStep(Milliseconds(10.0));
  // Outside Run no node is being stepped, so ChargeLimit scans the hosts afresh.
  const SimTime limit0 = rig.machine->ChargeLimit(0);
  EXPECT_LT(limit0, Milliseconds(1.0));  // other node is at 0; lookahead is small
  EXPECT_EQ(rig.machine->horizon_scans(), 1u);
  RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(rig.a->Clock(), Milliseconds(10.0));
  EXPECT_EQ(rig.b->Clock(), Milliseconds(10.0));
}

// A host that works off units of compute, split at the machine's charge limit, and sends a
// datagram to the next host as it starts each unit; a received datagram adds a unit while the
// relay budget lasts, so idle hosts become runnable through event dispatch (at the clock of the
// host that yielded for it, which is then stepped again on the id tie-break). Every step checks
// the limit it gets against a fresh horizon scan.
class RelayHost : public NodeHost {
 public:
  RelayHost(NodeId id, Machine* machine, SimTime unit, int units, int relays)
      : id_(id), machine_(machine), unit_(unit), units_(units), relays_(relays) {}

  NodeId id() const override { return id_; }
  SimTime Clock() const override { return clock_; }
  bool Runnable() const override { return units_ > 0; }
  bool Done() const override { return units_ == 0; }
  void Step() override {
    if (done_ == 0) {
      Datagram d;
      d.src = id_;
      d.dst = (id_ + 1) % machine_->num_nodes();
      machine_->Send(std::move(d), clock_);
    }
    const uint64_t scans = machine_->horizon_scans();
    const SimTime limit = machine_->ChargeLimit(id_);
    const SimTime fresh = machine_->CausalHorizon(id_);
    const SimTime ev = machine_->NextExternalTime();
    EXPECT_EQ(limit, ev < fresh ? ev : fresh) << "node " << id_ << " @" << clock_;
    EXPECT_EQ(machine_->horizon_scans(), scans) << "a step's ChargeLimit must not rescan";
    checks++;
    if (fresh < ev && fresh != kSimTimeNever) {
      horizon_bound++;
    }
    const SimTime left = unit_ - done_;
    if (limit != kSimTimeNever && clock_ + left > limit) {
      const SimTime part = limit > clock_ ? limit - clock_ : 0;
      clock_ += part;
      done_ += part;
      return;
    }
    clock_ += left;
    done_ = 0;
    units_--;
  }
  void AdvanceTo(SimTime t) override { clock_ = t > clock_ ? t : clock_; }
  void OnDatagram(Datagram) override {
    if (relays_ > 0) {
      relays_--;
      units_++;
    }
  }
  std::string DescribeBlocked() const override { return "relay"; }

  int checks = 0;
  int horizon_bound = 0;  // steps whose limit was the causal horizon, not the next event

 private:
  NodeId id_;
  Machine* machine_;
  SimTime unit_;
  int units_;
  int relays_;
  SimTime clock_ = 0;
  SimTime done_ = 0;  // of the current unit
};

TEST(MachineTest, ChargeLimitInsideAStepMatchesAFreshScan) {
  CostModel costs = CostModel::SunIpcEthernet();
  Machine machine(std::make_unique<SharedEthernet>(costs), costs);
  std::vector<std::unique_ptr<RelayHost>> hosts;
  for (NodeId n = 0; n < 4; ++n) {
    hosts.push_back(std::make_unique<RelayHost>(n, &machine, Milliseconds(3.0 + 0.7 * n),
                                                /*units=*/n == 0 ? 3 : 0, /*relays=*/6));
    machine.AddHost(hosts.back().get());
  }
  const RunResult r = machine.Run();
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_EQ(machine.horizon_scans(), machine.node_steps());
  int checks = 0;
  int horizon_bound = 0;
  for (const auto& h : hosts) {
    checks += h->checks;
    horizon_bound += h->horizon_bound;
  }
  EXPECT_EQ(static_cast<uint64_t>(checks), machine.node_steps());
  EXPECT_GT(horizon_bound, 0);
  EXPECT_GT(r.events_dispatched, 0u);
}

TEST(MachineTest, TimersFireInOrderAndAdvanceTheHost) {
  Rig rig;
  std::vector<int> order;
  rig.machine->ScheduleTimer(0, Milliseconds(5.0), [&] { order.push_back(2); }).Release();
  rig.machine->ScheduleTimer(0, Milliseconds(2.0), [&] { order.push_back(1); }).Release();
  rig.machine->ScheduleTimer(1, Milliseconds(9.0), [&] { order.push_back(3); }).Release();
  RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(rig.a->Clock(), Milliseconds(5.0));
  EXPECT_EQ(rig.b->Clock(), Milliseconds(9.0));
}

TEST(MachineTest, CancelledTimerNeverFires) {
  Rig rig;
  bool fired = false;
  EventHandle h = rig.machine->ScheduleTimer(0, Milliseconds(1.0), [&] { fired = true; });
  h.Cancel();
  RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(fired);
}

TEST(MachineTest, BroadcastReachesAllOthers) {
  CostModel costs = CostModel::SunIpcEthernet();
  auto machine = std::make_unique<Machine>(std::make_unique<SharedEthernet>(costs), costs);
  std::vector<std::unique_ptr<ScriptHost>> hosts;
  for (NodeId n = 0; n < 4; ++n) {
    hosts.push_back(std::make_unique<ScriptHost>(n, machine.get()));
    machine->AddHost(hosts.back().get());
  }
  Datagram d;
  d.src = 2;
  d.type = 9;
  machine->Broadcast(std::move(d), 0);
  RunResult r = machine->Run();
  EXPECT_TRUE(r.completed);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(hosts[n]->received.size(), n == 2 ? 0u : 1u) << n;
  }
}

TEST(MachineTest, MakespanIsMaxClock) {
  Rig rig;
  rig.a->AddStep(Milliseconds(3.0));
  rig.b->AddStep(Milliseconds(8.0));
  RunResult r = rig.machine->Run();
  EXPECT_EQ(r.makespan, Milliseconds(8.0));
}

TEST(MachineTest, VirtualTimeLimitStopsRunaways) {
  Rig rig;
  // Many steps: the loop's limit check runs between steps and must cut the run short.
  for (int i = 0; i < 100; ++i) {
    rig.a->AddStep(Seconds(0.5));
  }
  RunResult r = rig.machine->Run(/*max_virtual_time=*/Seconds(1.0));
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.deadlock_report.find("limit"), std::string::npos);
  EXPECT_LT(r.makespan, Seconds(2.0));
}

// --- Wire serialization ---

TEST(WireTest, RoundTripsPods) {
  net::WireWriter w;
  w.Put<uint64_t>(0x1122334455667788ULL);
  w.Put<int32_t>(-7);
  w.Put(3.5);
  net::Payload p = w.Take();
  net::WireReader r(p);
  EXPECT_EQ(r.Get<uint64_t>(), 0x1122334455667788ULL);
  EXPECT_EQ(r.Get<int32_t>(), -7);
  EXPECT_EQ(r.Get<double>(), 3.5);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, BytesAndRest) {
  net::WireWriter w;
  w.Put<uint16_t>(2);
  const char data[] = "abcd";
  w.PutBytes(data, 4);
  net::Payload p = w.Take();
  net::WireReader r(p);
  EXPECT_EQ(r.Get<uint16_t>(), 2);
  EXPECT_EQ(r.Rest().size(), 4u);
  char out[4];
  r.GetBytes(out, 4);
  EXPECT_EQ(std::memcmp(out, data, 4), 0);
}

TEST(WireDeathTest, TruncatedReadIsFatal) {
  net::WireWriter w;
  w.Put<uint16_t>(1);
  net::Payload p = w.Take();
  net::WireReader r(p);
  EXPECT_DEATH(r.Get<uint64_t>(), "DFIL_CHECK failed");
}

}  // namespace
}  // namespace dfil::sim
