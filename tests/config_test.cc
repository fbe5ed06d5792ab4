// ClusterConfig::Digest(): each schedule-affecting field, perturbed alone, moves the digest; the
// instrumentation-only fields do not. ClusterConfig::Validate: the DSM adaptation precondition
// (the balancer's rows live in loadbalance_test.cc).
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/config.h"

namespace dfil::core {
namespace {

using Row = std::pair<const char*, std::function<void(ClusterConfig&)>>;
#define ROW(assignment) Row{#assignment, [](ClusterConfig& c) { c.assignment; }}

// Defaults plus one fault rule and one stall, so their per-element fields have something to move.
ClusterConfig Base() {
  ClusterConfig c;
  c.fault_plan.rules.emplace_back();
  c.fault_plan.stalls.emplace_back();
  return c;
}

TEST(ConfigDigestTest, EveryScheduleAffectingFieldMovesTheDigest) {
  const std::vector<Row> rows = {
      ROW(nodes = 4), ROW(network = NetworkKind::kSwitched), ROW(seed = 2), ROW(page_shift = 13),
      ROW(wake_at_front = true), ROW(barrier = ClusterConfig::BarrierKind::kCentral),
      ROW(max_virtual_time += 1),
      ROW(dsm.pcp = dsm::Pcp::kDiff), ROW(dsm.mirage_window += 1),
      ROW(dsm.prefetch_detector = true), ROW(dsm.prefetch_hints = true),
      ROW(dsm.adapt_protocols = true), ROW(dsm.adapt_to_diff_threshold += 1),
      ROW(dsm.adapt_calm_epochs += 1), ROW(packet.retransmit_timeout += 1),
      ROW(packet.retransmit_timeout_max += 1), ROW(packet.rto_min += 1),
      ROW(packet.retransmit_limit += 1), ROW(packet.ack_replies = true),
      ROW(coalesce.enabled = true), ROW(fj.steal_enabled = false), ROW(fj.prune_threshold += 1),
      ROW(balancer.enabled = true), ROW(balancer.balance_trigger_ratio += 0.5),
      ROW(balancer.balance_patience_epochs += 1), ROW(balancer.balance_cooldown_epochs += 1),
      ROW(balancer.balance_move_fraction += 0.5), ROW(balancer.balance_rehome_pages = false),
      ROW(fault_plan.seed = 7), ROW(fault_plan.loss_rate = 0.1),
      ROW(fault_plan.burst.p_good_to_bad = 0.1), ROW(fault_plan.burst.p_bad_to_good = 0.5),
      ROW(fault_plan.burst.loss_good = 0.1), ROW(fault_plan.burst.loss_bad = 0.5),
      ROW(fault_plan.rules.emplace_back()), ROW(fault_plan.rules[0].src = 1),
      ROW(fault_plan.rules[0].dst = 1), ROW(fault_plan.rules[0].type = 1),
      ROW(fault_plan.rules[0].klass = sim::MsgClass::kReply),
      ROW(fault_plan.rules[0].seq_from = 1), ROW(fault_plan.rules[0].seq_to = 1),
      ROW(fault_plan.rules[0].drop = 0.5),
      ROW(fault_plan.rules[0].duplicate = 0.5), ROW(fault_plan.rules[0].delay = 0.5),
      ROW(fault_plan.rules[0].delay_min = 1), ROW(fault_plan.rules[0].delay_max = 1),
      ROW(fault_plan.stalls.emplace_back()), ROW(fault_plan.stalls[0].node = 1),
      ROW(fault_plan.stalls[0].first = 1), ROW(fault_plan.stalls[0].period = 1),
      ROW(fault_plan.stalls[0].duration = 1),
  };
  std::set<uint64_t> seen = {Base().Digest()};
  for (const auto& [name, perturb] : rows) {
    ClusterConfig c = Base();
    perturb(c);
    EXPECT_TRUE(seen.insert(c.Digest()).second) << name << " did not produce a new digest";
  }
}

// Every cost is an 8-byte SimTime, double or size_t, so stepping each 8-byte word of the model
// steps one cost; a cost added without its Digest() line fails here.
TEST(ConfigDigestTest, EveryCostModelFieldMovesTheDigest) {
  static_assert(std::is_trivially_copyable_v<sim::CostModel>);
  static_assert(sizeof(sim::CostModel) % sizeof(uint64_t) == 0);
  std::set<uint64_t> seen = {Base().Digest()};
  for (size_t offset = 0; offset < sizeof(sim::CostModel); offset += sizeof(uint64_t)) {
    ClusterConfig c = Base();
    auto* bytes = reinterpret_cast<unsigned char*>(&c.costs) + offset;
    uint64_t word = 0;
    std::memcpy(&word, bytes, sizeof(word));
    ++word;
    std::memcpy(bytes, &word, sizeof(word));
    EXPECT_TRUE(seen.insert(c.Digest()).second) << "cost model word at byte " << offset;
  }
}

TEST(ConfigDigestTest, InstrumentationFieldsLeaveTheDigestUnchanged) {
  const Row rows[] = {ROW(trace_enabled = true), ROW(waitstate_enabled = false),
                      ROW(pool_profile_enabled = false)};
  for (const auto& [name, perturb] : rows) {
    ClusterConfig c = Base();
    perturb(c);
    EXPECT_EQ(c.Digest(), Base().Digest()) << name;
  }
}

// The adapter switches groups between implicit-invalidate and diff, so it needs implicit-
// invalidate as the base protocol. Validate names the contradiction instead of a mid-run abort.
TEST(ConfigValidateTest, AdaptationRequiresImplicitInvalidate) {
  for (const dsm::Pcp pcp : {dsm::Pcp::kMigratory, dsm::Pcp::kWriteInvalidate,
                             dsm::Pcp::kImplicitInvalidate, dsm::Pcp::kDiff}) {
    ClusterConfig c;
    c.dsm.pcp = pcp;
    c.dsm.adapt_protocols = true;
    const std::vector<std::string> errors = c.Validate();
    if (pcp == dsm::Pcp::kImplicitInvalidate) {
      EXPECT_TRUE(errors.empty()) << errors.front();
    } else {
      ASSERT_EQ(errors.size(), 1u) << dsm::PcpName(pcp);
      EXPECT_NE(errors.front().find("dsm.adapt_protocols"), std::string::npos) << errors.front();
    }
  }
}

}  // namespace
}  // namespace dfil::core
