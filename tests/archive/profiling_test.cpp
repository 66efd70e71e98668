// End-to-end acceptance for the causal critical-path profiler: real jobs
// through the full plant (pftool -> HSM -> tape -> flows), then the
// tentpole invariant — every job's attribution buckets sum exactly, in
// virtual ticks, to its wall-clock — and the Sec 5 story: a disk-to-disk
// copy is PFS-transfer-bound, while a recall of punched files spends its
// critical path on tape mount/position/transfer spans.
#include <gtest/gtest.h>

#include "archive/system.hpp"
#include "bench/campaign_runner.hpp"
#include "obs/profile.hpp"

namespace cpa::archive {
namespace {

class ProfilingTest : public ::testing::Test {
 protected:
  ProfilingTest() : sys_(traced_config()) {}

  static SystemConfig traced_config() {
    SystemConfig cfg = SystemConfig::small();
    cfg.obs.tracing = true;
    cfg.hsm.punch_after_migrate = true;
    return cfg;
  }

  void make_scratch_tree(int files, std::uint64_t bytes) {
    for (int i = 0; i < files; ++i) {
      ASSERT_EQ(sys_.make_file(sys_.scratch(), "/runs/f" + std::to_string(i),
                               bytes, 0xFEED + static_cast<std::uint64_t>(i)),
                pfs::Errc::Ok);
    }
  }

  void migrate_all() {
    pfs::Rule rule;
    rule.name = "tape-candidates";
    rule.action = pfs::Rule::Action::List;
    rule.where = {pfs::Condition::path_glob("/proj/*"),
                  pfs::Condition::dmapi_is(pfs::DmapiState::Resident)};
    sys_.policy().add_rule(rule);
    bool done = false;
    sys_.run_migration_cycle("tape-candidates", "proj",
                             [&](const hsm::MigrateReport& r) {
                               EXPECT_GT(r.files_migrated, 0u);
                               done = true;
                             });
    sys_.sim().run();
    ASSERT_TRUE(done);
  }

  CotsParallelArchive sys_;
};

TEST_F(ProfilingTest, DiskCopyConservesAndIsPfsBound) {
  make_scratch_tree(6, 80 * kMB);
  const pftool::JobReport cp = sys_.pfcp_archive("/runs", "/proj/run");
  ASSERT_EQ(cp.files_failed, 0u);

  const obs::Profiler prof(sys_.observer().trace());
  ASSERT_EQ(prof.jobs().size(), 1u);
  const obs::JobProfile& jp = prof.jobs()[0];
  EXPECT_EQ(jp.job_class, "pfcp");
  EXPECT_TRUE(jp.conserved()) << "bucket sum " << jp.bucket_sum() << " wall "
                              << jp.wall();
  const sim::Tick pfs =
      jp.buckets[static_cast<std::size_t>(obs::Bucket::PfsTransfer)];
  EXPECT_GT(pfs, jp.wall() / 2);  // a disk copy is transfer-dominated
  EXPECT_EQ(jp.buckets[static_cast<std::size_t>(obs::Bucket::TapeTransfer)],
            0u);
}

TEST_F(ProfilingTest, TapeBoundRecallNamesTapeSpansOnCriticalPath) {
  make_scratch_tree(5, 60 * kMB);
  ASSERT_EQ(sys_.pfcp_archive("/runs", "/proj/run").files_failed, 0u);
  migrate_all();  // punch_after_migrate: data now lives on tape only
  const pftool::JobReport rs = sys_.pfcp_restore("/proj/run", "/restage/run");
  ASSERT_EQ(rs.files_restored, 5u);

  const obs::Profiler prof(sys_.observer().trace());
  // Job 0 is the archive copy, job 1 the restore.
  ASSERT_GE(prof.jobs().size(), 2u);
  EXPECT_TRUE(prof.conservation_ok());
  for (const obs::JobProfile& jp : prof.jobs()) {
    EXPECT_TRUE(jp.conserved()) << jp.job_class << ": bucket sum "
                                << jp.bucket_sum() << " wall " << jp.wall();
  }
  const obs::JobProfile& restore = prof.jobs().back();
  const auto bucket = [&](obs::Bucket b) {
    return restore.buckets[static_cast<std::size_t>(b)];
  };
  // The recall actually touched tape mechanics, not just the network.
  EXPECT_GT(bucket(obs::Bucket::TapeTransfer), 0u);
  EXPECT_GT(bucket(obs::Bucket::TapeMountWait) +
                bucket(obs::Bucket::TapePosition) +
                bucket(obs::Bucket::DriveQueueWait),
            0u);
  // And the critical path names them: a tape-category span carrying
  // mount/position/read time shows up in the per-segment decomposition.
  bool tape_on_path = false;
  const obs::TraceRecorder& tr = sys_.observer().trace();
  for (const obs::PathSegment& seg : restore.path.segments) {
    const obs::TraceRecorder::SpanView v = tr.view(seg.span);
    if (v.comp == obs::Component::Tape &&
        (*v.name == "mount_wait" || *v.name == "position" ||
         *v.name == "read" || *v.name == "drive_wait")) {
      tape_on_path = true;
      break;
    }
  }
  EXPECT_TRUE(tape_on_path);

  // The report renders without surprises and flags nothing.
  const std::string rep = prof.report(5);
  EXPECT_NE(rep.find("conservation: OK"), std::string::npos);
  EXPECT_NE(rep.find("tape"), std::string::npos);
}

TEST_F(ProfilingTest, ScrubSpansLiveUnderIntegrityComponent) {
  make_scratch_tree(4, 40 * kMB);
  ASSERT_EQ(sys_.pfcp_archive("/runs", "/proj/run").files_failed, 0u);
  migrate_all();
  bool done = false;
  sys_.hsm().scrub(integrity::ScrubConfig{},
                   [&](const integrity::ScrubReport& r) {
                     EXPECT_GT(r.segments_scanned, 0u);
                     done = true;
                   });
  sys_.sim().run();
  ASSERT_TRUE(done);
  EXPECT_GT(sys_.observer().trace().events_for(obs::Component::Integrity), 0u);
  EXPECT_GT(
      sys_.observer().metrics().counter_value("integrity.scrub_segments_scanned"),
      0u);
}

// Tracing off: the whole causal layer must vanish behind one branch.
TEST(ProfilingDisabled, NoEventsNoEdgesNoJobs) {
  CotsParallelArchive sys(SystemConfig::small());
  ASSERT_EQ(sys.make_file(sys.scratch(), "/runs/f0", 10 * kMB, 1),
            pfs::Errc::Ok);
  ASSERT_EQ(sys.pfcp_archive("/runs", "/proj/run").files_copied, 1u);
  EXPECT_EQ(sys.observer().trace().event_count(), 0u);
  EXPECT_EQ(sys.observer().trace().edge_count(), 0u);
  const obs::Profiler prof(sys.observer().trace());
  EXPECT_TRUE(prof.jobs().empty());
  EXPECT_TRUE(prof.conservation_ok());
}

// An unwritable --profile= path is reported, as an unwritable trace or
// metrics path is, instead of passing for a written report.
TEST(ProfilingCampaign, UnwritableProfilePathIsReported) {
  bench::CampaignOptions opts;
  opts.file_count_scale = 0.0001;
  opts.profile_path = "/nonexistent_dir/profile.txt";
  const bench::CampaignResult result = bench::run_campaign(opts);
  EXPECT_FALSE(result.profile_written);
  EXPECT_TRUE(result.trace_written);
  EXPECT_TRUE(result.metrics_written);
  EXPECT_GT(result.profiled_jobs, 0u);
  EXPECT_FALSE(result.profile_report.empty());
}

}  // namespace
}  // namespace cpa::archive
