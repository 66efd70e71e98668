// End-to-end fault injection and recovery through the submission API:
// node crashes resumed from the restart journal, drive failures ridden
// out by the HSM retry policy, media errors retried with backoff, and
// seeded plans replaying byte-for-byte.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "archive/system.hpp"

namespace cpa::archive {
namespace {

/// 8 multi-chunk files (16 GB = 4 chunks each at the default 4 GB chunk
/// size) so a mid-copy node crash always aborts in-flight chunks and the
/// journal has real per-chunk state to resume.
void make_tree(CotsParallelArchive& sys, unsigned files) {
  for (unsigned i = 0; i < files; ++i) {
    sys.make_file(sys.scratch(), "/scratch/tree/f" + std::to_string(i),
                  16 * kGB, 0xBEEF00 + i);
  }
}

TEST(FaultRecovery, NodeCrashResumesFromJournalAndTreeMatches) {
  fault::FaultPlan plan;
  plan.node_crash(1, sim::secs(10));  // permanent: attempt 2 avoids it
  SystemConfig cfg = SystemConfig::small().with_workers(8).with_fault_plan(plan);
  CotsParallelArchive sys(cfg);
  make_tree(sys, 8);

  JobHandle job = sys.submit(JobSpec::pfcp("/scratch/tree", "/proj/tree")
                                 .with_restartable()
                                 .with_retry(fault::RetryPolicy::standard()));
  sys.sim().run();

  ASSERT_TRUE(job.done());
  EXPECT_EQ(job.state(), JobState::Succeeded);
  EXPECT_EQ(job.attempts(), 2u);  // crash failed attempt 1, relaunch healed
  const pftool::JobReport& r = job.report();
  EXPECT_EQ(r.files_failed, 0u);
  // The relaunch must not have re-copied what attempt 1 already landed.
  EXPECT_GT(r.chunks_skipped_restart, 0u);
  EXPECT_GT(sys.observer().metrics().counter_value("pftool.worker_crashes"), 0u);
  EXPECT_GT(sys.observer().metrics().counter_value("pftool.retries_total"), 0u);
  EXPECT_EQ(sys.observer().metrics().counter_value("fault.injected_total"), 1u);
  // One rate sample for the job, the rate its handle reports, not one per
  // attempt.
  const sim::Samples* rates =
      sys.observer().metrics().find_series("pftool.job_rate_bps");
  ASSERT_NE(rates, nullptr);
  EXPECT_EQ(rates->count(), 1u);
  EXPECT_EQ(rates->values()[0], r.rate_bps());

  // Byte-exact tree compare: every file present, sized and tagged right.
  const pftool::JobReport cm = sys.pfcm("/scratch/tree", "/proj/tree");
  EXPECT_EQ(cm.files_compared, 8u);
  EXPECT_EQ(cm.files_mismatched, 0u);
}

TEST(FaultRecovery, RelaunchBackoffIsExactInVirtualTime) {
  fault::FaultPlan plan;
  plan.node_crash(1, sim::secs(10));
  SystemConfig cfg = SystemConfig::small().with_workers(8).with_fault_plan(plan);
  CotsParallelArchive sys(cfg);
  make_tree(sys, 8);

  fault::RetryPolicy rp;
  rp.max_attempts = 3;
  rp.backoff = sim::secs(30);
  JobHandle job = sys.submit(JobSpec::pfcp("/scratch/tree", "/proj/tree")
                                 .with_restartable()
                                 .with_retry(rp));

  // Step to the attempt-1 failure, then to the relaunch: the gap must be
  // exactly the policy's first backoff (virtual time makes this exact).
  while (job.state() != JobState::Retrying && sys.sim().step()) {
  }
  ASSERT_EQ(job.state(), JobState::Retrying);
  const sim::Tick failed_at = sys.sim().now();
  while (job.state() != JobState::Running && sys.sim().step()) {
  }
  ASSERT_EQ(job.state(), JobState::Running);
  EXPECT_EQ(sys.sim().now() - failed_at, rp.delay(1));

  job.await();
  EXPECT_EQ(job.state(), JobState::Succeeded);
}

TEST(FaultRecovery, DriveFailuresDuringMigrationAreRetried) {
  fault::FaultPlan plan;
  plan.drive_failure(0, sim::secs(30), sim::minutes(3));
  plan.drive_failure(1, sim::secs(60), sim::minutes(3));
  SystemConfig cfg = SystemConfig::small().with_fault_plan(plan);
  CotsParallelArchive sys(cfg);

  std::vector<std::string> paths;
  for (unsigned i = 0; i < 8; ++i) {
    const std::string p = "/proj/mig/f" + std::to_string(i);
    sys.make_file(sys.archive_fs(), p, 2 * kGB, 0xAB00 + i);
    paths.push_back(p);
  }
  hsm::MigrateReport mig;
  sys.hsm().parallel_migrate(paths, {0, 1},
                             hsm::DistributionStrategy::SizeBalanced, "grp",
                             [&mig](const hsm::MigrateReport& r) { mig = r; });
  sys.sim().run();

  EXPECT_EQ(mig.files_migrated, 8u);
  EXPECT_EQ(mig.files_failed, 0u);
  EXPECT_GT(mig.retries, 0u);  // failover to a healthy drive happened
  EXPECT_EQ(sys.observer().metrics().counter_value("fault.injected_total"), 2u);
  EXPECT_EQ(sys.observer().metrics().counter_value("fault.repaired_total"), 2u);
}

TEST(FaultRecovery, MediaErrorsDuringRecallAreRetriedWithBackoff) {
  // Damage every cartridge index that could back the group for a 10 min
  // window starting at t=1h; the recall launched inside the window fails,
  // backs off, and succeeds once the media heals.
  fault::FaultPlan plan;
  for (std::uint64_t c = 0; c < 8; ++c) {
    plan.media_error(c, sim::hours(1), sim::minutes(10));
  }
  fault::RetryPolicy rp;
  rp.max_attempts = 8;
  rp.backoff = sim::minutes(5);
  rp.max_backoff = sim::minutes(10);
  SystemConfig cfg = SystemConfig::small().with_retry(rp).with_fault_plan(plan);
  CotsParallelArchive sys(cfg);

  std::vector<std::string> paths;
  for (unsigned i = 0; i < 4; ++i) {
    const std::string p = "/proj/rec/f" + std::to_string(i);
    sys.make_file(sys.archive_fs(), p, 1 * kGB, 0xCD00 + i);
    paths.push_back(p);
  }
  bool migrated = false;
  sys.hsm().parallel_migrate(paths, {0},
                             hsm::DistributionStrategy::SizeBalanced, "grp",
                             [&migrated](const hsm::MigrateReport& r) {
                               migrated = r.files_failed == 0;
                             });
  // Launch the recall just before the strike: it resolves against healthy
  // media, then the window opens while its reads are still in flight, so
  // later reads fail transiently and go through the backoff path.
  hsm::RecallReport rec;
  sys.sim().at(sim::hours(1) - sim::secs(10), [&] {
    sys.hsm().recall(paths, hsm::RecallOptions{},
                     [&rec](const hsm::RecallReport& r) { rec = r; });
  });
  sys.sim().run();
  ASSERT_TRUE(migrated);

  EXPECT_EQ(rec.files_recalled, 4u);
  EXPECT_EQ(rec.files_failed, 0u);
  EXPECT_GT(rec.retries, 0u);
}

/// Renders everything an acceptance check would compare across two runs.
std::string faulty_run_digest(std::uint64_t seed) {
  fault::RandomFaultConfig rnd;
  rnd.drive_failures = 2;
  rnd.node_crashes = 1;
  rnd.drives = 4;
  rnd.nodes = 4;
  rnd.horizon = sim::minutes(2);
  const fault::FaultPlan plan = fault::FaultPlan::random(rnd, seed);

  SystemConfig cfg = SystemConfig::small().with_workers(8).with_fault_plan(plan);
  CotsParallelArchive sys(cfg);
  make_tree(sys, 8);
  JobHandle job = sys.submit(JobSpec::pfcp("/scratch/tree", "/proj/tree")
                                 .with_restartable()
                                 .with_retry(fault::RetryPolicy::standard()));
  sys.sim().run();

  std::string digest = plan.render();
  digest += '\n';
  digest += job.report().render();
  digest += "attempts=" + std::to_string(job.attempts());
  digest += " injected=" +
            std::to_string(
                sys.observer().metrics().counter_value("fault.injected_total"));
  digest += " retries=" +
            std::to_string(
                sys.observer().metrics().counter_value("pftool.retries_total"));
  return digest;
}

TEST(FaultRecovery, SeededFaultPlanReplaysByteForByte) {
  const std::string a = faulty_run_digest(1234);
  const std::string b = faulty_run_digest(1234);
  const std::string c = faulty_run_digest(5678);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // a different seed must produce a different plan
}

TEST(FaultRecovery, JobRecordsAreReapedAcrossACampaign) {
  CotsParallelArchive sys(SystemConfig::small());
  std::size_t max_live = 0;
  for (unsigned i = 0; i < 62; ++i) {
    const std::string src = "/scratch/c/f" + std::to_string(i);
    sys.make_file(sys.scratch(), src, 64 * kMB, 0xF00 + i);
    JobHandle job =
        sys.submit(JobSpec::pfcp(src, "/proj/c/f" + std::to_string(i)));
    max_live = std::max(max_live, sys.jobs_live());
    job.await();
    EXPECT_EQ(job.state(), JobState::Succeeded);
  }
  // submit() reaps finished records, so the live set never grows with the
  // campaign; the bound is the in-flight job plus the one just submitted.
  EXPECT_LE(max_live, 2u);
  sys.reap_finished();
  EXPECT_EQ(sys.jobs_live(), 0u);
}

}  // namespace
}  // namespace cpa::archive
