// Copy storage pools (Sec 3.1 item 7: "multiple copies, remote copies,
// smart placement") and media-failure fallback.
#include <gtest/gtest.h>

#include <optional>

#include "hsm/hsm.hpp"
#include "simcore/units.hpp"

namespace cpa::hsm {
namespace {

pfs::FsConfig fs_config() {
  pfs::FsConfig cfg;
  cfg.pools = {pfs::PoolConfig{"fast", 0, 4, false}};
  return cfg;
}

tape::LibraryConfig lib_config() {
  tape::LibraryConfig cfg;
  cfg.drive_count = 4;
  return cfg;
}

class CopyPoolTest : public ::testing::Test {
 protected:
  explicit CopyPoolTest(unsigned copies = 2, bool aggregation = false,
                        unsigned servers = 1)
      : fs_(sim_, fs_config()), lib_(sim_, net_, lib_config()),
        hsm_(sim_, net_, fs_, lib_, Fabric::unconstrained(),
             config(copies, aggregation, servers)) {}

  static HsmConfig config(unsigned copies, bool aggregation, unsigned servers) {
    HsmConfig cfg;
    cfg.server_count = servers;
    cfg.tape_copies = copies;
    cfg.aggregation_enabled = aggregation;
    cfg.aggregate_threshold = 50 * kMB;
    cfg.aggregate_target = 200 * kMB;
    return cfg;
  }

  void make_file(const std::string& path, std::uint64_t size, std::uint64_t tag) {
    ASSERT_EQ(fs_.mkdirs(pfs::parent_path(path)), pfs::Errc::Ok);
    ASSERT_TRUE(fs_.create(path).ok());
    ASSERT_EQ(fs_.write_all(path, size, tag), pfs::Errc::Ok);
  }

  sim::Simulation sim_;
  sim::FlowNetwork net_{sim_};
  pfs::FileSystem fs_;
  tape::TapeLibrary lib_;
  HsmSystem hsm_;
};

TEST_F(CopyPoolTest, MigrationWritesTwoVolumesAndRecordsReplica) {
  make_file("/arch/f", 100 * kMB, 0xC0);
  std::optional<MigrateReport> report;
  hsm_.migrate_batch(0, {"/arch/f"}, "g",
                     [&](const MigrateReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->files_migrated, 1u);
  EXPECT_EQ(report->tape_objects_written, 2u);  // primary + copy
  EXPECT_EQ(lib_.aggregate_stats().bytes_written, 200 * kMB);
  EXPECT_EQ(lib_.cartridge_count(), 2u);
  // Cartridges belong to distinct volume families.
  EXPECT_EQ(lib_.cartridge(1)->colocation_group(), "g");
  EXPECT_EQ(lib_.cartridge(2)->colocation_group(), "g~copy1");

  const auto* row = hsm_.server(0).export_db().by_path("/arch/f");
  ASSERT_NE(row, nullptr);
  const ArchiveObject* obj = hsm_.server(0).object(row->object_id);
  ASSERT_NE(obj, nullptr);
  const auto& copies = hsm_.server(0).links(row->object_id).copies;
  ASSERT_EQ(copies.size(), 1u);
  EXPECT_NE(copies[0].cartridge_id, obj->cartridge_id);
  // The file was punched only after both copies landed.
  EXPECT_EQ(fs_.stat("/arch/f").value().dmapi, pfs::DmapiState::Migrated);
}

TEST_F(CopyPoolTest, RecallFallsBackToCopyWhenPrimaryDamaged) {
  make_file("/arch/f", 100 * kMB, 0xAB);
  hsm_.migrate_batch(0, {"/arch/f"}, "g", nullptr);
  sim_.run();
  const auto* row = hsm_.server(0).export_db().by_path("/arch/f");
  ASSERT_NE(row, nullptr);
  lib_.cartridge(row->cartridge_id)->set_damaged(true);

  std::optional<RecallReport> report;
  hsm_.recall({"/arch/f"}, RecallOptions{},
              [&](const RecallReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->files_recalled, 1u);
  EXPECT_EQ(report->files_failed, 0u);
  EXPECT_EQ(fs_.read_tag("/arch/f").value(), 0xABu);
}

TEST_F(CopyPoolTest, RecallFailsWhenAllCopiesDamaged) {
  make_file("/arch/f", 100 * kMB, 1);
  hsm_.migrate_batch(0, {"/arch/f"}, "g", nullptr);
  sim_.run();
  lib_.cartridge(1)->set_damaged(true);
  lib_.cartridge(2)->set_damaged(true);
  std::optional<RecallReport> report;
  hsm_.recall({"/arch/f"}, RecallOptions{},
              [&](const RecallReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->files_recalled, 0u);
  EXPECT_EQ(report->files_failed, 1u);
}

TEST_F(CopyPoolTest, SynchronousDeleteReclaimsAllReplicas) {
  make_file("/arch/f", 100 * kMB, 1);
  hsm_.migrate_batch(0, {"/arch/f"}, "g", nullptr);
  sim_.run();
  std::optional<pfs::Errc> result;
  hsm_.synchronous_delete("/arch/f", [&](pfs::Errc e) { result = e; });
  sim_.run();
  EXPECT_EQ(result, pfs::Errc::Ok);
  EXPECT_EQ(lib_.cartridge(1)->dead_bytes(), 100 * kMB);
  EXPECT_EQ(lib_.cartridge(2)->dead_bytes(), 100 * kMB);
  EXPECT_EQ(hsm_.server(0).object_count(), 0u);
}

struct AggregatedCopyPoolTest : CopyPoolTest {
  AggregatedCopyPoolTest() : CopyPoolTest(2, true) {}
};

TEST_F(AggregatedCopyPoolTest, AggregateReplicasServeMemberRecalls) {
  std::vector<std::string> paths;
  for (int i = 0; i < 5; ++i) {
    const std::string p = "/arch/s" + std::to_string(i);
    make_file(p, 10 * kMB, 0x50 + static_cast<std::uint64_t>(i));
    paths.push_back(p);
  }
  std::optional<MigrateReport> report;
  hsm_.migrate_batch(0, paths, "g", [&](const MigrateReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->files_migrated, 5u);
  EXPECT_EQ(report->tape_objects_written, 2u);  // one aggregate x 2 pools

  // Damage the primary volume; a member recall must use the copy.
  const auto* row = hsm_.server(0).export_db().by_path(paths[2]);
  ASSERT_NE(row, nullptr);
  lib_.cartridge(row->cartridge_id)->set_damaged(true);
  std::optional<RecallReport> rr;
  hsm_.recall({paths[2]}, RecallOptions{},
              [&](const RecallReport& r) { rr = r; });
  sim_.run();
  EXPECT_EQ(rr->files_recalled, 1u);
  EXPECT_EQ(fs_.read_tag(paths[2]).value(), 0x52u);
}

// An aggregate is cataloged on its first member's server, so with several
// servers most members live on another server than their container.
struct FederatedAggregatedCopyPoolTest : CopyPoolTest {
  FederatedAggregatedCopyPoolTest() : CopyPoolTest(2, true, 4) {}
};

TEST_F(FederatedAggregatedCopyPoolTest, DamagedPrimaryFallsBackForEveryMember) {
  std::vector<std::string> paths;
  for (int i = 0; i < 16; ++i) {
    const std::string p = "/arch/s" + std::to_string(i);
    make_file(p, kMB, 0x70 + static_cast<std::uint64_t>(i));
    paths.push_back(p);
  }
  std::optional<MigrateReport> report;
  hsm_.migrate_batch(0, paths, "g", [&](const MigrateReport& r) { report = r; });
  sim_.run();
  ASSERT_EQ(report->files_migrated, 16u);
  ASSERT_EQ(report->tape_objects_written, 2u);  // one aggregate x 2 pools

  const auto* row = hsm_.server_for(paths[0]).export_db().by_path(paths[0]);
  ASSERT_NE(row, nullptr);
  lib_.cartridge(row->cartridge_id)->set_damaged(true);
  std::optional<RecallReport> rr;
  hsm_.recall(paths, RecallOptions{}, [&](const RecallReport& r) { rr = r; });
  sim_.run();
  EXPECT_EQ(rr->files_recalled, 16u);
  EXPECT_EQ(rr->files_failed, 0u);
  for (int i = 0; i < 16; ++i) {
    const auto tag = fs_.read_tag(paths[i]);
    ASSERT_TRUE(tag.ok()) << paths[i];
    EXPECT_EQ(tag.value(), 0x70u + i) << paths[i];
  }
}

struct SingleCopyTest : CopyPoolTest {
  SingleCopyTest() : CopyPoolTest(1, false) {}
};

TEST_F(SingleCopyTest, DefaultBehaviourUnchangedWithOneCopy) {
  make_file("/arch/f", 100 * kMB, 1);
  std::optional<MigrateReport> report;
  hsm_.migrate_batch(0, {"/arch/f"}, "g",
                     [&](const MigrateReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->tape_objects_written, 1u);
  EXPECT_EQ(lib_.cartridge_count(), 1u);
  const auto* row = hsm_.server(0).export_db().by_path("/arch/f");
  ASSERT_NE(hsm_.server(0).object(row->object_id), nullptr);
  EXPECT_TRUE(hsm_.server(0).links(row->object_id).copies.empty());
}

}  // namespace
}  // namespace cpa::hsm
