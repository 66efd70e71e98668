// End-to-end chaos runs (ctest label: chaos).  Bounded op counts keep
// each case in the low seconds, but every one drives a whole simulated
// plant through a randomized faulted campaign, so they sit outside the
// tier-1 gate.
#include <gtest/gtest.h>

#include <vector>

#include "check/runner.hpp"
#include "check/shrink.hpp"

namespace cpa::check {
namespace {

TEST(Chaos, FaultedCampaignCompletesWithZeroViolations) {
  const ChaosConfig cfg = ChaosConfig{}.with_seed(1).with_ops(120);
  const ChaosResult r = run_chaos(cfg);
  EXPECT_TRUE(r.ok()) << r.render_violations();
  EXPECT_EQ(r.ops_executed + r.ops_skipped, 120u);
  EXPECT_GT(r.jobs_submitted, 0u);
  EXPECT_GT(r.drained_at, 0u);
}

TEST(Chaos, SameSeedReplaysToIdenticalDigest) {
  const ChaosConfig cfg = ChaosConfig{}.with_seed(7).with_ops(100);
  const ChaosResult a = run_chaos(cfg);
  const ChaosResult b = run_chaos(cfg);
  ASSERT_TRUE(a.ok()) << a.render_violations();
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.state_digest, b.state_digest);
}

TEST(Chaos, RecoveredFaultedRunMatchesFaultFreeTwinState) {
  // The metamorphic oracle: faults that were fully ridden out must leave
  // the plant in the same logical final state as never having happened.
  // Cancels and corruptions stay off so the op stream is twin-comparable.
  const ChaosConfig cfg = ChaosConfig{}
                              .with_seed(5)
                              .with_ops(90)
                              .with_cancels(false)
                              .with_corruptions(false);
  const ChaosResult faulted = run_chaos(cfg);
  ASSERT_TRUE(faulted.ok()) << faulted.render_violations();
  if (!faulted.fully_recovered) {
    GTEST_SKIP() << "seed 5 no longer fully recovers; pick a new seed";
  }
  const ChaosResult twin = run_chaos(cfg.fault_free_twin());
  ASSERT_TRUE(twin.ok()) << twin.render_violations();
  EXPECT_EQ(faulted.state_digest, twin.state_digest)
      << "faulted:\n" << faulted.state << "\ntwin:\n" << twin.state;
}

TEST(Chaos, DoctoredScrubBugIsCaughtAndShrinks) {
  // Self-test: sabotage a tape segment after the final sweep and prove
  // the oracles flag it and the shrinker reduces the repro.
  const ChaosConfig cfg = ChaosConfig{}.with_seed(11).with_ops(120).with_doctor(
      Doctor::BreakScrubRepair);
  const ChaosResult r = run_chaos(cfg);
  ASSERT_FALSE(r.ok()) << "doctored run failed to trip any oracle";
  const auto shrunk = shrink(ChaosCampaign::generate(cfg));
  ASSERT_TRUE(shrunk.has_value());
  EXPECT_FALSE(shrunk->failure.ok());
  EXPECT_LT(shrunk->minimal.ops.size(), 120u / 2);
  EXPECT_GT(shrunk->runs, 0u);
}

TEST(Chaos, DoctoredFixityDropIsCaught) {
  const ChaosConfig cfg =
      ChaosConfig{}.with_seed(11).with_ops(120).with_doctor(
          Doctor::DropFixityRow);
  const ChaosResult r = run_chaos(cfg);
  ASSERT_FALSE(r.ok());
  bool fixity = false;
  for (const Violation& v : r.violations) {
    if (v.invariant == "fixity-consistency") fixity = true;
  }
  EXPECT_TRUE(fixity) << r.render_violations();
}

TEST(Chaos, CrashCampaignCompletesWithZeroViolations) {
  // Whole-archive power failures mid-campaign: every durably-acked file
  // must still restore byte-exact after WAL recovery + reconciliation.
  const ChaosConfig cfg =
      ChaosConfig{}.with_seed(20).with_ops(150).with_crashes(true);
  const ChaosResult r = run_chaos(cfg);
  EXPECT_TRUE(r.ok()) << r.render_violations();
  EXPECT_EQ(r.ops_executed + r.ops_skipped, 150u);
  EXPECT_GT(r.jobs_submitted, 0u);
}

TEST(Chaos, CrashCampaignReplaysToIdenticalDigest) {
  const ChaosConfig cfg =
      ChaosConfig{}.with_seed(6).with_ops(120).with_crashes(true);
  const ChaosResult a = run_chaos(cfg);
  const ChaosResult b = run_chaos(cfg);
  ASSERT_TRUE(a.ok()) << a.render_violations();
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.state_digest, b.state_digest);
}

TEST(Chaos, QuiescentCrashRecoverMatchesCrashFreeState) {
  // The crash metamorphic gate: power-fail a fully drained plant, recover
  // it, and the logical state must equal the run that never crashed.
  const ChaosResult plain =
      run_chaos(ChaosConfig{}.with_seed(9).with_ops(100));
  ASSERT_TRUE(plain.ok()) << plain.render_violations();
  const ChaosResult crashed = run_chaos(
      ChaosConfig{}.with_seed(9).with_ops(100).with_quiescent_crash(true));
  ASSERT_TRUE(crashed.ok()) << crashed.render_violations();
  EXPECT_EQ(crashed.state_digest, plain.state_digest)
      << "crashed:\n" << crashed.state << "\nplain:\n" << plain.state;
}

TEST(Chaos, FaultedCampaignWithBatchingCompletesWithZeroViolations) {
  // Same adversity, batched metadata path: every oracle (no-lost-files,
  // fixity, structural, profiler conservation) must hold when the object
  // DB round-trips are group-committed 8 at a time.
  const ChaosConfig cfg =
      ChaosConfig{}.with_seed(1).with_ops(120).with_md_batch(8);
  const ChaosResult r = run_chaos(cfg);
  EXPECT_TRUE(r.ok()) << r.render_violations();
  EXPECT_EQ(r.ops_executed + r.ops_skipped, 120u);
  EXPECT_GT(r.jobs_submitted, 0u);
}

TEST(Chaos, CrashCampaignWithBatchingCompletesWithZeroViolations) {
  // Power failures landing on in-flight batches: the torn-whole contract
  // (no partial batch survives into the recovered catalog) is what keeps
  // the no-lost-files and fixity oracles green here.
  const ChaosConfig cfg = ChaosConfig{}
                              .with_seed(20)
                              .with_ops(150)
                              .with_crashes(true)
                              .with_md_batch(8);
  const ChaosResult r = run_chaos(cfg);
  EXPECT_TRUE(r.ok()) << r.render_violations();
  EXPECT_EQ(r.ops_executed + r.ops_skipped, 150u);
}

TEST(Chaos, BatchedStateMatchesSingletonState) {
  // Metamorphic equivalence: batching changes *when* metadata lands, not
  // *what* lands.  Over benign campaigns (no faults/cancels/corruption —
  // those legitimately couple outcomes to timing) the final logical state
  // must be identical at any batch size.  The quiescent-crash input runs
  // the WAL and power-fails the drained plant: B=1 and B=16 must reach
  // the same state through the crash and its recovery too.
  struct Input {
    std::uint64_t seed;
    bool quiescent_crash;
    std::vector<unsigned> batches;
  };
  for (const Input& in : {Input{3, false, {4, 16}}, Input{14, false, {4, 16}},
                          Input{27, false, {4, 16}}, Input{14, true, {16}}}) {
    const ChaosConfig base = ChaosConfig{}
                                 .with_seed(in.seed)
                                 .with_ops(90)
                                 .with_faults(false)
                                 .with_corruptions(false)
                                 .with_cancels(false)
                                 .with_quiescent_crash(in.quiescent_crash);
    const ChaosResult singleton = run_chaos(base);
    ASSERT_TRUE(singleton.ok()) << singleton.render_violations();
    for (const unsigned b : in.batches) {
      ChaosConfig batched = base;
      batched.with_md_batch(b);
      const ChaosResult r = run_chaos(batched);
      ASSERT_TRUE(r.ok()) << repro_line(batched) << "\n"
                          << r.render_violations();
      EXPECT_EQ(r.state_digest, singleton.state_digest)
          << repro_line(batched) << "\nbatched:\n"
          << r.state << "\nsingleton:\n" << singleton.state;
    }
  }
}

TEST(Chaos, ReproLineRoundTripsTheConfig) {
  const ChaosConfig cfg = ChaosConfig{}
                              .with_seed(99)
                              .with_ops(40)
                              .with_corruptions(false)
                              .with_md_batch(8)
                              .with_doctor(Doctor::DropFixityRow);
  const std::string line = repro_line(cfg);
  EXPECT_NE(line.find("--seed=99"), std::string::npos);
  EXPECT_NE(line.find("--ops=40"), std::string::npos);
  EXPECT_NE(line.find("--no-corruptions"), std::string::npos);
  EXPECT_NE(line.find("--md-batch=8"), std::string::npos);
  EXPECT_NE(line.find("--doctor=fixity"), std::string::npos);
}

}  // namespace
}  // namespace cpa::check
