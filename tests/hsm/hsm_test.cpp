#include "hsm/hsm.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "simcore/units.hpp"

namespace cpa::hsm {
namespace {

pfs::FsConfig fs_config() {
  pfs::FsConfig cfg;
  cfg.name = "archive-gpfs";
  cfg.pools = {pfs::PoolConfig{"fast", 0, 4, false}};
  return cfg;
}

tape::LibraryConfig lib_config(unsigned drives = 4) {
  tape::LibraryConfig cfg;
  cfg.drive_count = drives;
  cfg.cartridge_capacity = 800 * kGB;
  return cfg;
}

class HsmTest : public ::testing::Test {
 protected:
  explicit HsmTest(HsmConfig cfg = HsmConfig{})
      : fs_(sim_, fs_config()),
        lib_(sim_, net_, lib_config()),
        hsm_(sim_, net_, fs_, lib_, Fabric::unconstrained(), cfg) {}

  void make_file(const std::string& path, std::uint64_t size,
                 std::uint64_t tag) {
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

TEST_F(HsmTest, MigrateSingleFilePunchesAndRecords) {
  make_file("/arch/f", 500 * kMB, 0xF00D);
  std::optional<MigrateReport> report;
  hsm_.migrate_batch(0, {"/arch/f"}, "grp",
                     [&](const MigrateReport& r) { report = r; });
  sim_.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->files_migrated, 1u);
  EXPECT_EQ(report->files_failed, 0u);
  EXPECT_EQ(report->bytes, 500 * kMB);
  EXPECT_EQ(report->tape_objects_written, 1u);

  // File is now a stub.
  EXPECT_EQ(fs_.stat("/arch/f").value().dmapi, pfs::DmapiState::Migrated);
  EXPECT_EQ(fs_.pool("fast").value().used_bytes, 0u);

  // The export resolves the tape location.
  const auto* row = hsm_.server(0).export_db().by_path("/arch/f");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->tape_seq, 1u);
  tape::Cartridge* cart = lib_.cartridge(row->cartridge_id);
  ASSERT_NE(cart, nullptr);
  EXPECT_EQ(cart->bytes_used(), 500 * kMB);
  EXPECT_EQ(cart->colocation_group(), "grp");
}

TEST_F(HsmTest, MigrateSkipsMissingAndAlreadyMigratedFiles) {
  make_file("/arch/ok", kMB, 1);
  std::optional<MigrateReport> r1;
  hsm_.migrate_batch(0, {"/arch/ok", "/arch/missing"}, "g",
                     [&](const MigrateReport& r) { r1 = r; });
  sim_.run();
  EXPECT_EQ(r1->files_migrated, 1u);
  EXPECT_EQ(r1->files_failed, 1u);

  // Migrating the stub again fails (not resident).
  std::optional<MigrateReport> r2;
  hsm_.migrate_batch(0, {"/arch/ok"}, "g",
                     [&](const MigrateReport& r) { r2 = r; });
  sim_.run();
  EXPECT_EQ(r2->files_migrated, 0u);
  EXPECT_EQ(r2->files_failed, 1u);
}

TEST_F(HsmTest, EmptyBatchCompletesImmediately) {
  std::optional<MigrateReport> report;
  hsm_.migrate_batch(0, {}, "g", [&](const MigrateReport& r) { report = r; });
  sim_.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->files_migrated, 0u);
}

TEST_F(HsmTest, BatchSharesOneMountAcrossManyFiles) {
  std::vector<std::string> paths;
  for (int i = 0; i < 20; ++i) {
    const std::string p = "/arch/big" + std::to_string(i);
    make_file(p, 1 * kGB, 100 + static_cast<std::uint64_t>(i));
    paths.push_back(p);
  }
  std::optional<MigrateReport> report;
  hsm_.migrate_batch(0, paths, "g", [&](const MigrateReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->files_migrated, 20u);
  EXPECT_EQ(lib_.aggregate_stats().mounts, 1u);
  // Large files stream near the rated 100 MB/s; the single mount (~65 s)
  // and per-file stops cost ~1/3 of the 200 s streaming time here.
  EXPECT_GT(report->mean_rate_bps(), 60.0 * kMB);
}

TEST_F(HsmTest, RecallRoundTripRestoresData) {
  make_file("/arch/f", 200 * kMB, 0xBEEF);
  hsm_.migrate_batch(0, {"/arch/f"}, "g", nullptr);
  sim_.run();
  ASSERT_EQ(fs_.read_tag("/arch/f").error(), pfs::Errc::Offline);

  std::optional<RecallReport> report;
  hsm_.recall({"/arch/f"}, RecallOptions{},
              [&](const RecallReport& r) { report = r; });
  sim_.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->files_recalled, 1u);
  EXPECT_EQ(report->bytes, 200 * kMB);
  // Data is back on disk with the original content.
  EXPECT_EQ(fs_.stat("/arch/f").value().dmapi, pfs::DmapiState::Premigrated);
  EXPECT_EQ(fs_.read_tag("/arch/f").value(), 0xBEEFu);
  EXPECT_EQ(fs_.pool("fast").value().used_bytes, 200 * kMB);
}

TEST_F(HsmTest, RecallOfUnknownPathFails) {
  std::optional<RecallReport> report;
  hsm_.recall({"/nope"}, RecallOptions{},
              [&](const RecallReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->files_recalled, 0u);
  EXPECT_EQ(report->files_failed, 1u);
}

TEST_F(HsmTest, TapeOrderedRecallAvoidsSeeks) {
  std::vector<std::string> paths;
  for (int i = 0; i < 12; ++i) {
    const std::string p = "/arch/f" + std::to_string(i);
    make_file(p, 50 * kMB, static_cast<std::uint64_t>(i));
    paths.push_back(p);
  }
  hsm_.migrate_batch(0, paths, "g", nullptr);
  sim_.run();

  // Request recall in scrambled order.
  std::vector<std::string> scrambled = {paths[7], paths[2],  paths[11],
                                        paths[0], paths[5],  paths[9],
                                        paths[1], paths[10], paths[3],
                                        paths[8], paths[4],  paths[6]};
  const auto seeks_before = lib_.aggregate_stats().seeks;
  RecallOptions ordered;
  ordered.tape_ordered = true;
  std::optional<RecallReport> report;
  hsm_.recall(scrambled, ordered, [&](const RecallReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->files_recalled, 12u);
  // Ordered: at most the initial position seek.
  EXPECT_LE(lib_.aggregate_stats().seeks - seeks_before, 1u);
}

TEST_F(HsmTest, UnorderedRecallThrashesWithSeeks) {
  std::vector<std::string> paths;
  for (int i = 0; i < 12; ++i) {
    const std::string p = "/arch/f" + std::to_string(i);
    make_file(p, 50 * kMB, static_cast<std::uint64_t>(i));
    paths.push_back(p);
  }
  hsm_.migrate_batch(0, paths, "g", nullptr);
  sim_.run();

  std::vector<std::string> scrambled = {paths[7], paths[2],  paths[11],
                                        paths[0], paths[5],  paths[9],
                                        paths[1], paths[10], paths[3],
                                        paths[8], paths[4],  paths[6]};
  const auto seeks_before = lib_.aggregate_stats().seeks;
  RecallOptions unordered;
  unordered.tape_ordered = false;
  std::optional<RecallReport> report;
  hsm_.recall(scrambled, unordered, [&](const RecallReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->files_recalled, 12u);
  EXPECT_GT(lib_.aggregate_stats().seeks - seeks_before, 6u);
}

TEST_F(HsmTest, RoundRobinAssignmentCausesHandoffs) {
  std::vector<std::string> paths;
  for (int i = 0; i < 10; ++i) {
    const std::string p = "/arch/f" + std::to_string(i);
    make_file(p, 50 * kMB, static_cast<std::uint64_t>(i));
    paths.push_back(p);
  }
  hsm_.migrate_batch(0, paths, "g", nullptr);
  sim_.run();

  RecallOptions rr;
  rr.assignment = RecallOptions::Assignment::RoundRobin;
  rr.nodes = {0, 1, 2, 3};
  std::optional<RecallReport> report;
  hsm_.recall(paths, rr, [&](const RecallReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->files_recalled, 10u);
  EXPECT_GE(lib_.aggregate_stats().handoffs, 8u);

  // Affinity on the same layout: no handoffs at all.
  sim::Simulation sim2;
  // (fresh fixture state is easier: re-run within this sim by recalling
  //  again — the data is premigrated now, but handoff counting still works
  //  through a second recall of the same segments)
  const auto handoffs_before = lib_.aggregate_stats().handoffs;
  RecallOptions aff;
  aff.assignment = RecallOptions::Assignment::TapeAffinity;
  aff.nodes = {0, 1, 2, 3};
  std::optional<RecallReport> report2;
  hsm_.recall(paths, aff, [&](const RecallReport& r) { report2 = r; });
  sim_.run();
  EXPECT_EQ(report2->files_recalled, 10u);
  // One possible handoff when the affinity node differs from the previous
  // owner; never one per file.
  EXPECT_LE(lib_.aggregate_stats().handoffs - handoffs_before, 1u);
}

TEST_F(HsmTest, ParallelMigrateUsesMultipleDrives) {
  std::vector<std::string> paths;
  for (int i = 0; i < 8; ++i) {
    const std::string p = "/arch/f" + std::to_string(i);
    make_file(p, 10 * kGB, static_cast<std::uint64_t>(i));
    paths.push_back(p);
  }
  std::optional<MigrateReport> report;
  hsm_.parallel_migrate(paths, {0, 1, 2, 3}, DistributionStrategy::SizeBalanced,
                        "g", [&](const MigrateReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->files_migrated, 8u);
  EXPECT_EQ(lib_.aggregate_stats().mounts, 4u);  // one volume per node
  // Four concurrent 100 MB/s streams; the single robot arm staggers the
  // four mounts, so aggregate lands below the ideal 400 MB/s.
  EXPECT_GT(report->mean_rate_bps(), 150.0 * kMB);
  // And clearly better than any single drive could do.
  EXPECT_GT(report->mean_rate_bps(), 100.0 * kMB);
}

TEST_F(HsmTest, SynchronousDeleteRemovesObjectAndFile) {
  make_file("/arch/f", 100 * kMB, 1);
  hsm_.migrate_batch(0, {"/arch/f"}, "g", nullptr);
  sim_.run();
  const auto* row = hsm_.server(0).export_db().by_path("/arch/f");
  ASSERT_NE(row, nullptr);
  const std::uint64_t cart_id = row->cartridge_id;

  std::optional<pfs::Errc> result;
  hsm_.synchronous_delete("/arch/f", [&](pfs::Errc e) { result = e; });
  sim_.run();
  EXPECT_EQ(result, pfs::Errc::Ok);
  EXPECT_FALSE(fs_.exists("/arch/f"));
  EXPECT_EQ(hsm_.server(0).object_count(), 0u);
  EXPECT_EQ(hsm_.server(0).export_db().size(), 0u);
  EXPECT_EQ(lib_.cartridge(cart_id)->dead_bytes(), 100 * kMB);

  // Reconcile finds nothing to clean up.
  std::optional<ReconcileReport> rec;
  hsm_.reconcile(false, [&](const ReconcileReport& r) { rec = r; });
  sim_.run();
  EXPECT_EQ(rec->orphans_found, 0u);
}

TEST_F(HsmTest, SynchronousDeleteOfResidentFileJustUnlinks) {
  make_file("/arch/plain", kMB, 1);
  std::optional<pfs::Errc> result;
  hsm_.synchronous_delete("/arch/plain", [&](pfs::Errc e) { result = e; });
  sim_.run();
  EXPECT_EQ(result, pfs::Errc::Ok);
  EXPECT_FALSE(fs_.exists("/arch/plain"));
}

TEST_F(HsmTest, PlainUnlinkLeavesOrphanThatReconcileFinds) {
  make_file("/arch/f", 100 * kMB, 1);
  hsm_.migrate_batch(0, {"/arch/f"}, "g", nullptr);
  sim_.run();
  ASSERT_EQ(fs_.unlink("/arch/f"), pfs::Errc::Ok);  // user bypassed trashcan
  EXPECT_EQ(hsm_.destroy_events(), 1u);

  std::optional<ReconcileReport> rec;
  hsm_.reconcile(true, [&](const ReconcileReport& r) { rec = r; });
  sim_.run();
  EXPECT_EQ(rec->orphans_found, 1u);
  EXPECT_EQ(rec->orphans_deleted, 1u);
  EXPECT_EQ(hsm_.server(0).object_count(), 0u);
  EXPECT_GT(rec->duration, 0u);
}

// The reconcile agent deletes an orphan through the same cascade as
// synchronous delete: its copy-pool replicas die with it (and an aggregate
// goes with its last member; see AggregationTest).
struct TwoCopyHsmTest : HsmTest {
  static HsmConfig two_copies() {
    HsmConfig cfg;
    cfg.tape_copies = 2;
    return cfg;
  }
  TwoCopyHsmTest() : HsmTest(two_copies()) {}
};

TEST_F(TwoCopyHsmTest, ReconcileOrphanDeleteReclaimsReplica) {
  make_file("/arch/f", 100 * kMB, 1);
  hsm_.migrate_batch(0, {"/arch/f"}, "g", nullptr);
  sim_.run();
  ASSERT_EQ(lib_.cartridge_count(), 2u);  // primary + copy pool
  ASSERT_EQ(fs_.unlink("/arch/f"), pfs::Errc::Ok);

  std::optional<ReconcileReport> rec;
  hsm_.reconcile(true, [&](const ReconcileReport& r) { rec = r; });
  sim_.run();
  EXPECT_EQ(rec->orphans_deleted, 1u);
  EXPECT_EQ(hsm_.server(0).object_count(), 0u);
  EXPECT_EQ(lib_.cartridge(1)->dead_bytes(), 100 * kMB);
  EXPECT_EQ(lib_.cartridge(2)->dead_bytes(), 100 * kMB);
  EXPECT_EQ(hsm_.fixity_db().size(), 0u);
}

TEST_F(HsmTest, ReconcileDurationScalesWithNamespace) {
  for (int i = 0; i < 100; ++i) {
    make_file("/arch/f" + std::to_string(i), kMB, 1);
  }
  std::optional<ReconcileReport> small;
  hsm_.reconcile(false, [&](const ReconcileReport& r) { small = r; });
  sim_.run();
  for (int i = 100; i < 300; ++i) {
    make_file("/arch/f" + std::to_string(i), kMB, 1);
  }
  std::optional<ReconcileReport> large;
  hsm_.reconcile(false, [&](const ReconcileReport& r) { large = r; });
  sim_.run();
  EXPECT_GT(large->duration, small->duration);
  EXPECT_GT(large->inodes_walked, small->inodes_walked);
}

TEST_F(HsmTest, OfflineReadEventCounted) {
  make_file("/arch/f", kMB, 1);
  hsm_.migrate_batch(0, {"/arch/f"}, "g", nullptr);
  sim_.run();
  (void)fs_.read_tag("/arch/f");
  EXPECT_EQ(hsm_.offline_read_events(), 1u);
}

// --- aggregation fixtures ---------------------------------------------------

struct AggregationTest : HsmTest {
  static HsmConfig agg_config() {
    HsmConfig cfg;
    cfg.aggregation_enabled = true;
    cfg.aggregate_threshold = 50 * kMB;
    cfg.aggregate_target = 400 * kMB;
    return cfg;
  }
  AggregationTest() : HsmTest(agg_config()) {}
};

TEST_F(AggregationTest, SmallFilesShareTapeTransactions) {
  std::vector<std::string> paths;
  for (int i = 0; i < 400; ++i) {
    const std::string p = "/arch/s" + std::to_string(i);
    make_file(p, 8 * kMB, static_cast<std::uint64_t>(i));
    paths.push_back(p);
  }
  std::optional<MigrateReport> report;
  hsm_.migrate_batch(0, paths, "g", [&](const MigrateReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->files_migrated, 400u);
  // 400 * 8 MB = 3.2 GB packs into eight 400 MB aggregates.
  EXPECT_EQ(report->tape_objects_written, 8u);
  EXPECT_EQ(lib_.aggregate_stats().backhitches, 8u);
  // Dramatically better than the unaggregated ~4 MB/s (one stop per file
  // would spend 400 * 1.92 s stopped).
  EXPECT_GT(report->mean_rate_bps(), 25.0 * kMB);
}

TEST_F(AggregationTest, LargeFilesStayStandalone) {
  make_file("/arch/big", kGB, 1);
  make_file("/arch/tiny", kMB, 2);
  std::optional<MigrateReport> report;
  hsm_.migrate_batch(0, {"/arch/big", "/arch/tiny"}, "g",
                     [&](const MigrateReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->files_migrated, 2u);
  EXPECT_EQ(report->tape_objects_written, 2u);
}

TEST_F(AggregationTest, MemberRecallReadsAggregateAndRestoresFile) {
  std::vector<std::string> paths;
  for (int i = 0; i < 10; ++i) {
    const std::string p = "/arch/s" + std::to_string(i);
    make_file(p, 8 * kMB, 0x100 + static_cast<std::uint64_t>(i));
    paths.push_back(p);
  }
  hsm_.migrate_batch(0, paths, "g", nullptr);
  sim_.run();

  std::optional<RecallReport> report;
  hsm_.recall({paths[3]}, RecallOptions{},
              [&](const RecallReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->files_recalled, 1u);
  EXPECT_EQ(report->bytes, 8 * kMB);
  EXPECT_EQ(report->tape_bytes, 80 * kMB);  // whole aggregate read
  EXPECT_EQ(fs_.read_tag(paths[3]).value(), 0x103u);
}

TEST_F(AggregationTest, DeletingAllMembersReclaimsAggregateSegment) {
  std::vector<std::string> paths;
  for (int i = 0; i < 3; ++i) {
    const std::string p = "/arch/s" + std::to_string(i);
    make_file(p, 8 * kMB, static_cast<std::uint64_t>(i));
    paths.push_back(p);
  }
  hsm_.migrate_batch(0, paths, "g", nullptr);
  sim_.run();
  const auto* row = hsm_.server(0).export_db().by_path(paths[0]);
  ASSERT_NE(row, nullptr);
  const std::uint64_t cart_id = row->cartridge_id;

  for (const auto& p : paths) {
    hsm_.synchronous_delete(p, nullptr);
  }
  sim_.run();
  EXPECT_EQ(hsm_.server(0).object_count(), 0u);  // members + aggregate gone
  EXPECT_EQ(lib_.cartridge(cart_id)->dead_bytes(), 24 * kMB);
}

// The export's path index holds hashes confirmed against the catalog's
// paths.  An aggregate, which has no path, is never exported; a file
// renamed after migration is not found under its new name; a deleted
// object's path resolves to nothing, in the export and in the catalog.
TEST_F(AggregationTest, PathIndexMissesAggregatesRenamesAndDeletes) {
  std::vector<std::string> paths;
  for (int i = 0; i < 3; ++i) {
    const std::string p = "/arch/s" + std::to_string(i);
    make_file(p, 8 * kMB, static_cast<std::uint64_t>(i));
    paths.push_back(p);
  }
  make_file("/arch/big", kGB, 9);
  paths.push_back("/arch/big");
  hsm_.migrate_batch(0, paths, "g", nullptr);
  sim_.run();
  const auto& db = hsm_.server(0).export_db();
  EXPECT_EQ(db.size(), 4u);  // three members and the large file

  const ArchiveObject* obj = db.by_path(paths[0]);
  ASSERT_NE(obj, nullptr);
  ASSERT_TRUE(obj->is_member());
  const std::uint64_t agg_id = obj->aggregate_id;
  ASSERT_NE(hsm_.server(0).object(agg_id), nullptr);
  EXPECT_EQ(hsm_.server(0).links(agg_id).members.size(), 3u);
  EXPECT_EQ(db.by_object_id(agg_id), nullptr);
  EXPECT_EQ(db.by_path(""), nullptr);

  ASSERT_EQ(fs_.rename("/arch/big", "/arch/big2"), pfs::Errc::Ok);
  EXPECT_EQ(db.by_path("/arch/big2"), nullptr);

  std::optional<pfs::Errc> deleted;
  hsm_.synchronous_delete("/arch/big2", [&](pfs::Errc e) { deleted = e; });
  hsm_.synchronous_delete(paths[1], nullptr);
  sim_.run();
  EXPECT_EQ(deleted, pfs::Errc::Ok);
  EXPECT_EQ(db.by_path("/arch/big"), nullptr);
  EXPECT_EQ(db.by_path("/arch/big2"), nullptr);
  EXPECT_EQ(db.by_path(paths[1]), nullptr);
  EXPECT_NE(db.by_path(paths[2]), nullptr);
  EXPECT_EQ(hsm_.server(0).links(agg_id).members.size(), 2u);
}

TEST_F(AggregationTest, ReconcileDeletesAggregateWithItsLastOrphanedMember) {
  const std::vector<std::string> paths = {"/arch/a", "/arch/b", "/arch/c"};
  for (const auto& p : paths) make_file(p, 10 * kMB, 1);
  std::optional<MigrateReport> mig;
  hsm_.migrate_batch(0, paths, "g", [&](const MigrateReport& r) { mig = r; });
  sim_.run();
  ASSERT_EQ(mig->tape_objects_written, 1u);  // one 30 MB aggregate
  for (const auto& p : paths) ASSERT_EQ(fs_.unlink(p), pfs::Errc::Ok);

  std::optional<ReconcileReport> rec;
  hsm_.reconcile(true, [&](const ReconcileReport& r) { rec = r; });
  sim_.run();
  EXPECT_EQ(rec->orphans_found, 3u);
  EXPECT_EQ(rec->orphans_deleted, 3u);
  EXPECT_EQ(hsm_.server(0).object_count(), 0u);
  EXPECT_EQ(lib_.cartridge(1)->dead_bytes(), 30 * kMB);
  EXPECT_EQ(hsm_.fixity_db().size(), 0u);
}

// --- multi-server routing ----------------------------------------------------

struct MultiServerTest : HsmTest {
  static HsmConfig cfg() {
    HsmConfig c;
    c.server_count = 4;
    return c;
  }
  MultiServerTest() : HsmTest(cfg()) {}
};

TEST_F(MultiServerTest, ObjectsSpreadAcrossServers) {
  std::vector<std::string> paths;
  for (int i = 0; i < 32; ++i) {
    const std::string p = "/arch/f" + std::to_string(i);
    make_file(p, kMB, static_cast<std::uint64_t>(i));
    paths.push_back(p);
  }
  hsm_.migrate_batch(0, paths, "g", nullptr);
  sim_.run();
  unsigned used = 0;
  for (unsigned s = 0; s < hsm_.server_count(); ++s) {
    if (hsm_.server(s).object_count() > 0) ++used;
  }
  EXPECT_GE(used, 2u);
  // Recall still resolves every path through its owning server.
  std::optional<RecallReport> report;
  hsm_.recall(paths, RecallOptions{}, [&](const RecallReport& r) { report = r; });
  sim_.run();
  EXPECT_EQ(report->files_recalled, 32u);
}

}  // namespace
}  // namespace cpa::hsm
