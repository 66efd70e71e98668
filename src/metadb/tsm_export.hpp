// The indexed export of the archive server's object database.
//
// Mirrors Sec 4.2.5: "we export the necessary parts of the TSM database to
// a MySQL database, which we can then index.  PFTool queries this database
// to get tape and sequence ID for files that are migrated to tape."
//
// One row per migrated object.  Indexed by GPFS file id (synchronous
// delete join), by path (recall planning), and by tape id (tape-ordered
// recall).  The path itself stays in the object catalog that owns it: a
// row carries the path's FNV-1a 64 hash, and a path lookup confirms each
// hash hit against the owner's path, so each path is stored once.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "metadb/table.hpp"
#include "simcore/hash.hpp"

namespace cpa::metadb {

struct TapeObjectRow {
  std::uint64_t object_id = 0;   // TSM object id (primary key)
  std::uint64_t gpfs_file_id = 0;  // GPFS-unique file id
  std::uint64_t path_hash = 0;   // sim::fnv1a64 of the path; set by upsert
  std::uint64_t size_bytes = 0;
  std::uint64_t tape_id = 0;     // cartridge the data lives on
  std::uint64_t tape_seq = 0;    // sequential position on that cartridge
};

class TsmExportDb {
 public:
  /// The path the owning catalog holds for an object, or nullptr when it
  /// holds none.  The pointer must stay valid while the export reads it.
  using PathOf = std::function<const std::string*(std::uint64_t object_id)>;

  explicit TsmExportDb(PathOf path_of)
      : path_of_(std::move(path_of)),
        table_([](const TapeObjectRow& r) { return r.object_id; }) {
    by_file_id_ = table_.add_index_u64(
        [](const TapeObjectRow& r) { return r.gpfs_file_id; });
    by_tape_ = table_.add_index_u64(
        [](const TapeObjectRow& r) { return r.tape_id; });
    by_path_ = table_.add_index_u64(
        [](const TapeObjectRow& r) { return r.path_hash; });
  }

  /// Inserts or replaces the row of `row.object_id`, indexed under the
  /// hash of `path`, the path its owner holds.
  void upsert(TapeObjectRow row, std::string_view path) {
    row.path_hash = sim::fnv1a64(path);
    table_.upsert(row);
  }
  bool erase_object(std::uint64_t object_id) { return table_.erase(object_id); }

  [[nodiscard]] const TapeObjectRow* by_object_id(std::uint64_t id) const {
    return table_.find(id);
  }

  /// Resolves a GPFS file id to its TSM object (Sec 4.2.6 join).
  /// Allocation-free: file ids are unique, so the first hit is the row.
  [[nodiscard]] const TapeObjectRow* by_gpfs_file_id(std::uint64_t fid) const {
    return table_.first_u64(by_file_id_, fid);
  }

  /// Resolves a path to its tape location (Sec 4.2.5 recall query): the
  /// first row, in object-id order, whose hash matches and whose owner
  /// holds exactly `path`.  Allocation-free.
  [[nodiscard]] const TapeObjectRow* by_path(std::string_view path) const {
    return table_.first_u64_if(by_path_, sim::fnv1a64(path),
                               [&](const TapeObjectRow& r) { return owns(r, path); });
  }

  /// Allocation-free visitor over one cartridge's objects (primary-key
  /// order) — the tape-ordered recall planner's hot path.
  template <typename Fn>
  void for_each_on_tape(std::uint64_t tape_id, Fn&& fn) const {
    table_.for_each_u64(by_tape_, tape_id, std::forward<Fn>(fn));
  }

  /// Crash-recovery wipe; the export is rebuilt row-by-row from the
  /// replayed object catalog.
  void clear() { table_.clear(); }

  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] const TableStats& stats() const { return table_.stats(); }
  void reset_stats() { table_.reset_stats(); }

 private:
  [[nodiscard]] bool owns(const TapeObjectRow& r, std::string_view path) const {
    const std::string* held = path_of_(r.object_id);
    return held != nullptr && *held == path;
  }

  PathOf path_of_;
  Table<TapeObjectRow> table_;
  Table<TapeObjectRow>::IndexId by_file_id_{};
  Table<TapeObjectRow>::IndexId by_tape_{};
  Table<TapeObjectRow>::IndexId by_path_{};
};

}  // namespace cpa::metadb
