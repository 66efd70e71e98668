// Campaign generation: determinism, the metamorphic twin contract, and
// the knob wiring into the generated plant.
#include <gtest/gtest.h>

#include "check/campaign.hpp"
#include "simcore/hash.hpp"

namespace cpa::check {
namespace {

TEST(Campaign, SameSeedGeneratesIdenticalCampaign) {
  const ChaosConfig cfg = ChaosConfig{}.with_seed(42).with_ops(120);
  const ChaosCampaign a = ChaosCampaign::generate(cfg);
  const ChaosCampaign b = ChaosCampaign::generate(cfg);
  EXPECT_EQ(a.render(), b.render());
  EXPECT_EQ(sim::fnv1a64(a.render()), sim::fnv1a64(b.render()));
}

TEST(Campaign, DifferentSeedsDiverge) {
  const ChaosCampaign a =
      ChaosCampaign::generate(ChaosConfig{}.with_seed(1).with_ops(60));
  const ChaosCampaign b =
      ChaosCampaign::generate(ChaosConfig{}.with_seed(2).with_ops(60));
  EXPECT_NE(a.render(), b.render());
}

TEST(Campaign, OpBudgetAndLaneDerivationHold) {
  const ChaosCampaign c =
      ChaosCampaign::generate(ChaosConfig{}.with_seed(7).with_ops(96));
  EXPECT_EQ(c.ops.size(), 96u);
  EXPECT_EQ(c.lane_count(), 8u);  // clamp(96 / 12, 2, 8)
  for (const ChaosOp& op : c.ops) {
    // Job ops target a real lane; maintenance ops use lane == lane_count.
    EXPECT_LE(op.lane, c.lane_count());
    if (op.kind == OpKind::Scrub || op.kind == OpKind::Reconcile) {
      EXPECT_EQ(op.lane, c.lane_count());
    }
  }
}

TEST(Campaign, FaultFreeTwinKeepsOpsDropsFaults) {
  const ChaosConfig cfg = ChaosConfig{}.with_seed(13).with_ops(80);
  const ChaosCampaign full = ChaosCampaign::generate(cfg);
  const ChaosCampaign twin = ChaosCampaign::generate(cfg.fault_free_twin());
  ASSERT_EQ(full.ops.size(), twin.ops.size());
  for (std::size_t i = 0; i < full.ops.size(); ++i) {
    EXPECT_EQ(full.ops[i].render(), twin.ops[i].render()) << "op " << i;
  }
  EXPECT_FALSE(full.fault_plan.empty());
  EXPECT_TRUE(twin.fault_plan.empty());
}

TEST(Campaign, DisablingCorruptionsKeepsWindowFaults) {
  const ChaosConfig cfg =
      ChaosConfig{}.with_seed(13).with_ops(200).with_corruptions(false);
  const ChaosCampaign c = ChaosCampaign::generate(cfg);
  EXPECT_FALSE(c.fault_plan.empty());
  for (const fault::FaultEvent& ev : c.fault_plan.events) {
    EXPECT_NE(ev.kind, fault::FaultKind::Corrupt);
  }
}

TEST(Campaign, DisablingCancelsRemovesRaces) {
  const ChaosCampaign c = ChaosCampaign::generate(
      ChaosConfig{}.with_seed(21).with_ops(300).with_cancels(false));
  for (const ChaosOp& op : c.ops) {
    EXPECT_LT(op.cancel_after, 0);
  }
}

TEST(Campaign, PlantWiresQuotasCopiesAndPlan) {
  const ChaosCampaign c =
      ChaosCampaign::generate(ChaosConfig{}.with_seed(3).with_ops(100));
  const archive::SystemConfig sys = plant_for(c);
  EXPECT_TRUE(sys.sched.enabled);
  EXPECT_EQ(sys.hsm.tape_copies, 2u);
  EXPECT_TRUE(sys.pftool.restartable);
  EXPECT_EQ(sys.fault_plan.render(), c.fault_plan.render());
  // Tenant t0 is drive-throttled so recall storms contend under quota.
  const auto t0 = sys.sched.tenants.find("t0");
  ASSERT_NE(t0, sys.sched.tenants.end());
  EXPECT_EQ(t0->second.max_drives, 2u);
}

TEST(Campaign, Fnv1a64MatchesKnownVector) {
  // FNV-1a 64 test vector: fnv1a64("a") from the reference parameters.
  EXPECT_EQ(sim::fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(sim::fnv1a64("a"), 12638187200555641996ULL);
  // Folding in pieces hashes the concatenation.
  EXPECT_EQ(sim::fnv1a64("b", sim::fnv1a64("a")), sim::fnv1a64("ab"));
}

}  // namespace
}  // namespace cpa::check
