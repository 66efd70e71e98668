#include "archive/system.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace cpa::archive {
namespace {

TEST(SystemConfig, RoadrunnerMatchesPaperPlant) {
  const SystemConfig cfg = SystemConfig::roadrunner();
  EXPECT_EQ(cfg.cluster.fta_nodes, 10u);
  EXPECT_EQ(cfg.cluster.trunk_count, 2u);
  EXPECT_EQ(cfg.tape.drive_count, 24u);
  EXPECT_TRUE(cfg.hsm.lan_free);
  EXPECT_EQ(cfg.hsm.server_count, 1u);
  // Fast pool = 100 TB of FC disk.
  ASSERT_GE(cfg.archive_fs.pools.size(), 2u);
  EXPECT_EQ(cfg.archive_fs.pools[0].name, "fast");
  EXPECT_EQ(cfg.archive_fs.pools[0].capacity_bytes, 100ULL * kTB);
  EXPECT_EQ(cfg.archive_fs.pools[1].name, "slow");
}

TEST(CotsParallelArchive, ConstructsAndWiresEverything) {
  CotsParallelArchive sys(SystemConfig::small());
  EXPECT_EQ(sys.library().drive_count(), 4u);
  EXPECT_EQ(sys.fta().node_count(), 4u);
  EXPECT_TRUE(sys.archive_fs().exists("/.trashcan"));
}

class EndToEndTest : public ::testing::Test {
 protected:
  EndToEndTest() : sys_(SystemConfig::small()) {}
  CotsParallelArchive sys_;
};

TEST_F(EndToEndTest, FullLifecycleArchiveMigrateRecallRestoreVerify) {
  // 1. Science run produces files on scratch.
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(sys_.make_file(sys_.scratch(), "/runs/ckpt" + std::to_string(i),
                             100 * kMB, 0xC0DE + static_cast<std::uint64_t>(i)),
              pfs::Errc::Ok);
  }
  // 2. pfcp to the archive file system.
  const auto cp = sys_.pfcp_archive("/runs", "/proj/run1");
  ASSERT_EQ(cp.files_copied, 8u);
  // 3. Verify the copy.
  const auto cm = sys_.pfcm("/runs", "/proj/run1");
  ASSERT_EQ(cm.files_matched, 8u);
  // 4. ILM policy migrates everything older than 0 s to tape.
  pfs::Rule rule;
  rule.name = "tape-candidates";
  rule.action = pfs::Rule::Action::List;
  rule.where = {pfs::Condition::path_glob("/proj/*"),
                pfs::Condition::dmapi_is(pfs::DmapiState::Resident)};
  sys_.policy().add_rule(rule);
  bool migrated = false;
  sys_.run_migration_cycle("tape-candidates", "proj",
                           [&](const hsm::MigrateReport& r) {
                             EXPECT_EQ(r.files_migrated, 8u);
                             migrated = true;
                           });
  sys_.sim().run();
  ASSERT_TRUE(migrated);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(
        sys_.archive_fs().stat("/proj/run1/ckpt" + std::to_string(i)).value().dmapi,
        pfs::DmapiState::Migrated);
  }
  // Disk space was released by the punch.
  EXPECT_EQ(sys_.archive_fs().pool("fast").value().used_bytes, 0u);

  // 5. Years later: restore the whole project back to scratch.
  const auto restore = sys_.pfcp_restore("/proj/run1", "/restage/run1");
  EXPECT_EQ(restore.files_restored, 8u);
  EXPECT_EQ(restore.files_copied, 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(sys_.scratch()
                  .read_tag("/restage/run1/ckpt" + std::to_string(i))
                  .value(),
              0xC0DE + static_cast<std::uint64_t>(i));
  }
}

// Path resolutions (root-to-leaf walks, scratch plus archive) per
// archived file, pinned exactly over a 200-file tree in four directories.
// Making a file is one pass down its path; pftool resolves each file once
// to stat its source and once to create its destination, and copies and
// finalizes it by the ids those returned; the HSM's intake stat is the
// migrate's one walk.  Everything else is per directory.  The same
// scenario took 2,011 walks (600 + 1,211 + 200, 10.06 per file) when a
// file took three walks to make and six to copy.
TEST_F(EndToEndTest, WalksPerArchivedFileArePinned) {
  constexpr unsigned kFiles = 200;
  const auto walks = [this] {
    return sys_.scratch().walks() + sys_.archive_fs().walks();
  };
  const auto name = [](const char* root, unsigned i) {
    return std::string(root) + "/d" + std::to_string(i / 50) + "/f" +
           std::to_string(i);
  };
  ASSERT_NE(&sys_.scratch(), &sys_.archive_fs());
  const std::uint64_t at_start = walks();
  for (unsigned i = 0; i < kFiles; ++i) {
    ASSERT_EQ(sys_.make_file(sys_.scratch(), name("/runs", i), kMB, i),
              pfs::Errc::Ok);
  }
  const std::uint64_t made = walks() - at_start;
  EXPECT_EQ(made, kFiles);  // one walk per file

  const auto cp = sys_.pfcp_archive("/runs", "/proj/run");
  ASSERT_EQ(cp.files_copied, kFiles);
  const std::uint64_t copied = walks() - at_start - made;
  // stat + create per file; per directory a readdir and a destination
  // mkdirs, and for the root its stat too.
  EXPECT_EQ(copied, 2 * kFiles + 2 * 5 + 1);

  std::vector<std::string> paths;
  for (unsigned i = 0; i < kFiles; ++i) paths.push_back(name("/proj/run", i));
  hsm::MigrateReport mig;
  sys_.hsm().parallel_migrate(std::move(paths), {0, 1, 2, 3},
                              hsm::DistributionStrategy::SizeBalanced, "run",
                              [&](const hsm::MigrateReport& r) { mig = r; });
  sys_.sim().run();
  ASSERT_EQ(mig.files_migrated, kFiles);
  const std::uint64_t migrated = walks() - at_start - made - copied;
  EXPECT_EQ(migrated, kFiles);

  EXPECT_EQ(made + copied + migrated, 811u);  // 4.055 per archived file
}

TEST_F(EndToEndTest, MigrationCycleChargesScanTime) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(sys_.make_file(sys_.archive_fs(), "/p/f" + std::to_string(i),
                             kMB, 1),
              pfs::Errc::Ok);
  }
  pfs::Rule rule;
  rule.name = "all";
  rule.action = pfs::Rule::Action::List;
  sys_.policy().add_rule(rule);
  sim::Tick finished = 0;
  sys_.run_migration_cycle("all", "g", [&](const hsm::MigrateReport& r) {
    EXPECT_EQ(r.files_migrated, 50u);
    finished = sys_.sim().now();
  });
  sys_.sim().run();
  // Scan of ~52 inodes over 4 streams at 1667/s plus migration time.
  EXPECT_GT(finished, 0u);
}

TEST_F(EndToEndTest, MigrationCycleWithUnknownRuleCompletesEmpty) {
  bool done = false;
  sys_.run_migration_cycle("no-such-rule", "g",
                           [&](const hsm::MigrateReport& r) {
                             EXPECT_EQ(r.files_migrated, 0u);
                             done = true;
                           });
  sys_.sim().run();
  EXPECT_TRUE(done);
}

TEST_F(EndToEndTest, ConcurrentJobsShareTheTrunks) {
  for (int j = 0; j < 4; ++j) {
    for (int f = 0; f < 4; ++f) {
      ASSERT_EQ(sys_.make_file(sys_.scratch(),
                               "/j" + std::to_string(j) + "/f" + std::to_string(f),
                               500 * kMB, static_cast<std::uint64_t>(j * 10 + f)),
                pfs::Errc::Ok);
    }
  }
  // One job alone.
  const auto solo = sys_.pfcp_archive("/j0", "/archive/solo");
  // Three jobs concurrently.
  std::vector<pftool::JobReport> reports;
  for (int j = 1; j < 4; ++j) {
    sys_.submit(JobSpec::pfcp("/j" + std::to_string(j),
                              "/archive/c" + std::to_string(j)))
        .on_done([&](const pftool::JobReport& r) { reports.push_back(r); });
  }
  sys_.sim().run();
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& r : reports) {
    EXPECT_EQ(r.files_copied, 4u);
    // Sharing the plant: each concurrent job is slower than the solo run.
    EXPECT_LT(r.rate_bps(), solo.rate_bps() * 1.01);
  }
}

}  // namespace
}  // namespace cpa::archive
