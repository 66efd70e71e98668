// Volume space reclamation: live segments move off mostly-dead volumes
// and the owning objects follow.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "hsm/hsm.hpp"
#include "simcore/units.hpp"

namespace cpa::hsm {
namespace {

pfs::FsConfig fs_config() {
  pfs::FsConfig cfg;
  cfg.pools = {pfs::PoolConfig{"fast", 0, 4, false}};
  return cfg;
}

/// A one-server archive with four drives.
struct Plant {
  Plant()
      : fs_(sim_, fs_config()),
        lib_(sim_, net_, lib_config()),
        hsm_(sim_, net_, fs_, lib_, Fabric::unconstrained(), HsmConfig{}) {}

  static tape::LibraryConfig lib_config() {
    tape::LibraryConfig cfg;
    cfg.drive_count = 4;
    return cfg;
  }

  void make_file(const std::string& path, std::uint64_t size, std::uint64_t tag) {
    ASSERT_EQ(fs_.mkdirs(pfs::parent_path(path)), pfs::Errc::Ok);
    ASSERT_TRUE(fs_.create(path).ok());
    ASSERT_EQ(fs_.write_all(path, size, tag), pfs::Errc::Ok);
  }

  /// Migrates n files to one volume, then sync-deletes all but `keep`.
  std::vector<std::string> fragment_volume(unsigned n, unsigned keep) {
    std::vector<std::string> paths;
    for (unsigned i = 0; i < n; ++i) {
      const std::string p = "/arch/f" + std::to_string(i);
      make_file(p, 50 * kMB, 0x100 + i);
      paths.push_back(p);
    }
    hsm_.migrate_batch(0, paths, "g", nullptr);
    sim_.run();
    for (unsigned i = keep; i < n; ++i) {
      hsm_.synchronous_delete(paths[i], nullptr);
    }
    sim_.run();
    paths.resize(keep);
    return paths;
  }

  /// Live tape bytes that no catalog object owns.
  std::uint64_t unowned_live_bytes() {
    std::uint64_t bytes = 0;
    lib_.for_each_cartridge([&](tape::Cartridge& cart) {
      for (const tape::Segment& s : cart.segments()) {
        if (s.object_id != 0 && hsm_.server(0).object(s.object_id) == nullptr) {
          bytes += s.bytes;
        }
      }
    });
    return bytes;
  }

  sim::Simulation sim_;
  sim::FlowNetwork net_{sim_};
  pfs::FileSystem fs_;
  tape::TapeLibrary lib_;
  HsmSystem hsm_;
};

class ReclaimTest : public ::testing::Test, protected Plant {};

TEST_F(ReclaimTest, MovesLiveSegmentsAndRetiresVolume) {
  const auto survivors = fragment_volume(20, 4);  // 80% dead
  ASSERT_EQ(lib_.cartridge_count(), 1u);
  tape::Cartridge* old_cart = lib_.cartridge(1);
  ASSERT_EQ(old_cart->dead_bytes(), 16 * 50 * kMB);

  std::optional<ReclaimReport> report;
  hsm_.reclaim_volumes(0.5, 0, [&](const ReclaimReport& r) { report = r; });
  sim_.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->volumes_examined, 1u);
  EXPECT_EQ(report->volumes_reclaimed, 1u);
  EXPECT_EQ(report->objects_moved, 4u);
  EXPECT_EQ(report->bytes_moved, 4 * 50 * kMB);

  // Old volume is now all-dead; survivors live on a fresh volume.
  EXPECT_EQ(old_cart->dead_bytes(), old_cart->bytes_used());
  EXPECT_EQ(lib_.cartridge_count(), 2u);
  for (const auto& p : survivors) {
    const auto* row = hsm_.server(0).export_db().by_path(p);
    ASSERT_NE(row, nullptr) << p;
    EXPECT_EQ(row->cartridge_id, 2u);
  }
}

TEST_F(ReclaimTest, RecallWorksAfterReclaim) {
  const auto survivors = fragment_volume(10, 3);
  hsm_.reclaim_volumes(0.5, 0, nullptr);
  sim_.run();
  std::optional<RecallReport> rr;
  hsm_.recall(survivors, RecallOptions{},
              [&](const RecallReport& r) { rr = r; });
  sim_.run();
  EXPECT_EQ(rr->files_recalled, 3u);
  EXPECT_EQ(rr->files_failed, 0u);
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ(fs_.read_tag(survivors[i]).value(), 0x100u + i);
  }
}

TEST_F(ReclaimTest, BelowThresholdVolumesAreLeftAlone) {
  fragment_volume(20, 15);  // only 25% dead
  std::optional<ReclaimReport> report;
  hsm_.reclaim_volumes(0.5, 0, [&](const ReclaimReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->volumes_reclaimed, 0u);
  EXPECT_EQ(report->objects_moved, 0u);
  EXPECT_EQ(lib_.cartridge_count(), 1u);
}

TEST_F(ReclaimTest, NoVolumesIsCleanNoOp) {
  std::optional<ReclaimReport> report;
  hsm_.reclaim_volumes(0.5, 0, [&](const ReclaimReport& r) { report = r; });
  sim_.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->volumes_examined, 0u);
}

TEST_F(ReclaimTest, AllDeadVolumeNeedsNoMove) {
  fragment_volume(5, 0);
  std::optional<ReclaimReport> report;
  hsm_.reclaim_volumes(0.5, 0, [&](const ReclaimReport& r) { report = r; });
  sim_.run();
  // Nothing live to move: volume is scratch already, not "reclaimed".
  EXPECT_EQ(report->objects_moved, 0u);
  EXPECT_EQ(report->volumes_reclaimed, 0u);
}

TEST_F(ReclaimTest, FailedDrivesLeaveTheVictimUnreclaimed) {
  const auto survivors = fragment_volume(20, 4);
  tape::Cartridge* victim = lib_.cartridge(1);
  std::optional<ReclaimReport> report;
  hsm_.reclaim_volumes(0.5, 0, [&](const ReclaimReport& r) { report = r; });
  // Reclamation does not fail over: every read after this fails.
  sim_.after(sim::secs(1), [this] {
    for (unsigned i = 0; i < lib_.drive_count(); ++i) lib_.fail_drive(i);
  });
  sim_.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->objects_moved, 0u);
  EXPECT_EQ(report->volumes_reclaimed, 0u);
  EXPECT_EQ(victim->bytes_used() - victim->dead_bytes(), 4 * 50 * kMB);
  for (const auto& p : survivors) {
    EXPECT_EQ(hsm_.server(0).export_db().by_path(p)->cartridge_id, victim->id()) << p;
  }
}

TEST_F(ReclaimTest, SyncDeleteDuringCopyLeavesNoUnownedSegment) {
  // A dry run on the fixture's plant: when does the second survivor's
  // location update (one metadata round-trip after its copy's write
  // completes) apply?
  const auto dry = fragment_volume(20, 4);
  bool finished = false;
  hsm_.reclaim_volumes(0.5, 0, [&](const ReclaimReport&) { finished = true; });
  const sim::Tick start = sim_.now();
  sim::Tick moved = 0;  // since the reclaim started
  std::function<void()> poll = [&] {
    if (hsm_.server(0).export_db().by_path(dry[1])->cartridge_id != 1) {
      moved = sim_.now() - start;
      return;
    }
    if (!finished) sim_.after(sim::msecs(1), poll);
  };
  sim_.after(0, poll);
  sim_.run();
  ASSERT_GT(moved, 0u);

  // Sync-delete that survivor at instants spanning its copy: while it
  // streams (coarse steps), and around the write completion, where the
  // delete can also land between the write and its location update
  // (steps of a tenth of a round-trip).
  const sim::Tick txn = HsmConfig{}.server.metadata_txn_cost;
  std::vector<sim::Tick> instants;
  for (sim::Tick t = moved - sim::secs(3); t < moved - 5 * txn;
       t += sim::msecs(50)) {
    instants.push_back(t);
  }
  for (sim::Tick t = moved - 5 * txn; t <= moved; t += txn / 10) {
    instants.push_back(t);
  }
  for (const sim::Tick at : instants) {
    Plant p;
    const auto survivors = p.fragment_volume(20, 4);
    std::optional<ReclaimReport> report;
    p.hsm_.reclaim_volumes(0.5, 0,
                           [&](const ReclaimReport& r) { report = r; });
    p.sim_.after(at, [&] { p.hsm_.synchronous_delete(survivors[1], nullptr); });
    p.sim_.run();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(p.unowned_live_bytes(), 0u)
        << "delete at " << sim::to_seconds(at) << " s into the reclaim";
    EXPECT_EQ(report->volumes_reclaimed, 1u);
  }
}

}  // namespace
}  // namespace cpa::hsm
