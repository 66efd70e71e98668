// The indexed export of the archive server's object database.
//
// Mirrors Sec 4.2.5: "we export the necessary parts of the TSM database to
// a MySQL database, which we can then index.  PFTool queries this database
// to get tape and sequence ID for files that are migrated to tape."
//
// The export stores no rows of its own.  It is two secondary indexes on
// the object table, so each catalog fact is held once: one by GPFS file id
// (the synchronous delete join, Sec 4.2.6) and one by the FNV-1a 64 hash
// of the path (recall planning).  The path stays in the object row; a path
// lookup confirms each hash hit against it.  An aggregate (empty path) is
// not exported: it has no single file to recall or delete.
//
// Neither a path nor a file id names one object: a file overwritten after
// migration and migrated again leaves two objects on its path and file id
// (`HsmSystem::on_managed_data_destroyed` only counts the lost copy).
// Every lookup returns the lowest object id, which is then the stale one.
#pragma once

#include <cstdint>
#include <string_view>

#include "metadb/table.hpp"
#include "simcore/hash.hpp"

namespace cpa::metadb {

struct PathFnv1a64 {
  std::uint64_t operator()(std::string_view path) const { return sim::fnv1a64(path); }
};

/// The export as a view over a `Table<Row>` of objects, where `Row` has
/// `gpfs_file_id` and `path`.  `PathHash` hashes paths into the path index.
template <typename Row, typename PathHash = PathFnv1a64>
class TsmExportDb {
 public:
  /// Registers the export's indexes on `objects`, which must be empty and
  /// must outlive the view.
  explicit TsmExportDb(Table<Row>& objects)
      : objects_(&objects),
        by_file_id_(objects.add_index_u64([](const Row& r) { return r.gpfs_file_id; })),
        by_path_(objects.add_index_u64([](const Row& r) { return PathHash{}(r.path); })) {}

  [[nodiscard]] const Row* by_object_id(std::uint64_t id) const {
    const Row* r = objects_->find(id);
    return r != nullptr && exported(*r) ? r : nullptr;
  }

  /// Resolves a GPFS file id to its TSM object (Sec 4.2.6 join): the
  /// exported row with the lowest object id.  Allocation-free.
  [[nodiscard]] const Row* by_gpfs_file_id(std::uint64_t fid) const {
    return objects_->first_u64_if(by_file_id_, fid, &TsmExportDb::exported);
  }

  /// Resolves a path to its tape location (Sec 4.2.5 recall query): the
  /// lowest object id whose hash matches and whose row holds exactly
  /// `path`.  Allocation-free.
  [[nodiscard]] const Row* by_path(std::string_view path) const {
    return objects_->first_u64_if(by_path_, PathHash{}(path), [path](const Row& r) {
      return exported(r) && r.path == path;
    });
  }

  /// Exported objects: every object but the aggregates, which the path
  /// index holds under the empty path's hash.
  [[nodiscard]] std::size_t size() const {
    std::size_t aggregates = 0;
    objects_->for_each_u64(by_path_, PathHash{}(""),
                           [&](const Row& r) { aggregates += exported(r) ? 0 : 1; });
    return objects_->size() - aggregates;
  }

 private:
  static bool exported(const Row& r) { return !r.path.empty(); }

  const Table<Row>* objects_;
  typename Table<Row>::IndexId by_file_id_;
  typename Table<Row>::IndexId by_path_;
};

}  // namespace cpa::metadb
