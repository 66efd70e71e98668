#include "metadb/tsm_export.hpp"

#include <gtest/gtest.h>

#include <map>

namespace cpa::metadb {
namespace {

// An export and the object catalog that owns its paths, as ArchiveServer
// pairs them.
struct Catalog {
  void upsert(std::uint64_t oid, std::uint64_t fid, const std::string& path,
              std::uint64_t tape, std::uint64_t seq) {
    paths[oid] = path;
    db.upsert(TapeObjectRow{oid, fid, 0, 1024, tape, seq}, path);
  }

  std::map<std::uint64_t, std::string> paths;
  TsmExportDb db{[this](std::uint64_t id) -> const std::string* {
    const auto it = paths.find(id);
    return it == paths.end() ? nullptr : &it->second;
  }};
};

std::size_t rows_on_tape(const TsmExportDb& db, std::uint64_t tape) {
  std::size_t n = 0;
  db.for_each_on_tape(tape, [&n](const TapeObjectRow&) { ++n; });
  return n;
}

TEST(TsmExportDb, LookupByEveryIndex) {
  Catalog c;
  c.upsert(100, 1, "/arch/a", 7, 3);
  c.upsert(101, 2, "/arch/b", 7, 1);
  c.upsert(102, 3, "/arch/c", 8, 1);
  const TsmExportDb& db = c.db;

  ASSERT_NE(db.by_object_id(101), nullptr);
  EXPECT_EQ(db.by_object_id(101)->gpfs_file_id, 2u);
  EXPECT_EQ(db.by_object_id(999), nullptr);

  ASSERT_NE(db.by_gpfs_file_id(3), nullptr);
  EXPECT_EQ(db.by_gpfs_file_id(3)->object_id, 102u);
  EXPECT_EQ(db.by_gpfs_file_id(999), nullptr);

  ASSERT_NE(db.by_path("/arch/a"), nullptr);
  EXPECT_EQ(db.by_path("/arch/a")->tape_id, 7u);
  EXPECT_EQ(db.by_path("/nope"), nullptr);

  EXPECT_EQ(rows_on_tape(db, 7), 2u);
  EXPECT_EQ(rows_on_tape(db, 8), 1u);
  EXPECT_EQ(rows_on_tape(db, 9), 0u);

  // A path query is one index lookup; it scans no rows.
  c.db.reset_stats();
  ASSERT_NE(db.by_path("/arch/c"), nullptr);
  EXPECT_EQ(db.stats().rows_scanned, 0u);
  EXPECT_EQ(db.stats().index_lookups, 1u);
}

TEST(TsmExportDb, EraseObjectRemovesFromAllIndexes) {
  Catalog c;
  c.upsert(100, 1, "/arch/a", 7, 3);
  EXPECT_TRUE(c.db.erase_object(100));
  EXPECT_FALSE(c.db.erase_object(100));
  // The owner still holds the path; the export has no row for it.
  EXPECT_EQ(c.db.by_path("/arch/a"), nullptr);
  EXPECT_EQ(c.db.by_gpfs_file_id(1), nullptr);
  EXPECT_EQ(rows_on_tape(c.db, 7), 0u);
}

TEST(TsmExportDb, UpsertReplacesTapeLocation) {
  Catalog c;
  c.upsert(100, 1, "/arch/a", 7, 3);
  c.upsert(100, 1, "/arch/a", 9, 1);  // re-migrated to another tape
  EXPECT_EQ(rows_on_tape(c.db, 7), 0u);
  ASSERT_EQ(rows_on_tape(c.db, 9), 1u);
  EXPECT_EQ(c.db.size(), 1u);
  const TapeObjectRow* row = c.db.by_path("/arch/a");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->tape_id, 9u);
  EXPECT_EQ(row->tape_seq, 1u);
}

// The index holds hashes; a hit counts only when the owner holds exactly
// the path asked for.
TEST(TsmExportDb, PathHitIsConfirmedAgainstTheOwner) {
  Catalog c;
  c.upsert(100, 1, "/arch/a", 7, 3);
  c.paths[100] = "/arch/b";  // the owner's path no longer matches the row
  EXPECT_EQ(c.db.by_path("/arch/a"), nullptr);
  EXPECT_EQ(c.db.by_path("/arch/b"), nullptr);  // hashed under /arch/a
  c.paths.erase(100);  // an owner without the object
  EXPECT_EQ(c.db.by_path("/arch/a"), nullptr);
}

// Rows whose paths share a hash are all visited, in object-id order, until
// the owner confirms one.
TEST(TsmExportDb, SharedHashFindsTheOwnedPath) {
  Catalog c;
  c.upsert(100, 1, "/arch/x", 7, 1);
  c.upsert(101, 2, "/arch/x", 7, 2);
  c.paths[100] = "/arch/elsewhere";
  const TapeObjectRow* row = c.db.by_path("/arch/x");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->object_id, 101u);
}

}  // namespace
}  // namespace cpa::metadb
