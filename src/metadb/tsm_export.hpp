// The indexed export of the archive server's object database.
//
// Mirrors Sec 4.2.5: "we export the necessary parts of the TSM database to
// a MySQL database, which we can then index.  PFTool queries this database
// to get tape and sequence ID for files that are migrated to tape."
//
// One row per migrated object.  Indexed by GPFS file id (synchronous
// delete join), by path (recall planning), and by tape id (tape-ordered
// recall).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "metadb/table.hpp"

namespace cpa::metadb {

struct TapeObjectRow {
  std::uint64_t object_id = 0;   // TSM object id (primary key)
  std::uint64_t gpfs_file_id = 0;  // GPFS-unique file id
  std::string path;              // path within the archive file system
  std::uint64_t size_bytes = 0;
  std::uint64_t tape_id = 0;     // cartridge the data lives on
  std::uint64_t tape_seq = 0;    // sequential position on that cartridge
};

class TsmExportDb {
 public:
  TsmExportDb()
      : table_([](const TapeObjectRow& r) { return r.object_id; }) {
    by_file_id_ = table_.add_index_u64(
        [](const TapeObjectRow& r) { return r.gpfs_file_id; });
    by_tape_ = table_.add_index_u64(
        [](const TapeObjectRow& r) { return r.tape_id; });
    by_path_ = table_.add_index_str(&TapeObjectRow::path);
  }

  void upsert(TapeObjectRow row) { table_.upsert(std::move(row)); }
  bool erase_object(std::uint64_t object_id) { return table_.erase(object_id); }

  [[nodiscard]] const TapeObjectRow* by_object_id(std::uint64_t id) const {
    return table_.find(id);
  }

  /// Resolves a GPFS file id to its TSM object (Sec 4.2.6 join).
  /// Allocation-free: file ids are unique, so the first hit is the row.
  [[nodiscard]] const TapeObjectRow* by_gpfs_file_id(std::uint64_t fid) const {
    return table_.first_u64(by_file_id_, fid);
  }

  /// Resolves a path to its tape location (Sec 4.2.5 recall query).
  /// Allocation-free: live paths are unique in the export.
  [[nodiscard]] const TapeObjectRow* by_path(const std::string& path) const {
    return table_.first_str(by_path_, path);
  }

  /// All objects on one cartridge (unordered; callers sort by tape_seq).
  [[nodiscard]] std::vector<const TapeObjectRow*> on_tape(std::uint64_t tape_id) const {
    return table_.lookup_u64(by_tape_, tape_id);
  }

  /// Allocation-free visitor over one cartridge's objects (primary-key
  /// order) — the tape-ordered recall planner's hot path.
  template <typename Fn>
  void for_each_on_tape(std::uint64_t tape_id, Fn&& fn) const {
    table_.for_each_u64(by_tape_, tape_id, std::forward<Fn>(fn));
  }

  /// Unindexed lookup by path — the query shape available against the raw
  /// TSM database.  Exists so benchmarks can compare it with `by_path`.
  [[nodiscard]] const TapeObjectRow* by_path_unindexed(const std::string& path) const {
    auto rows = table_.scan([&](const TapeObjectRow& r) { return r.path == path; });
    return rows.empty() ? nullptr : rows.front();
  }

  /// Crash-recovery wipe; the export is rebuilt row-by-row from the
  /// replayed object catalog.
  void clear() { table_.clear(); }

  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] const TableStats& stats() const { return table_.stats(); }
  void reset_stats() { table_.reset_stats(); }

 private:
  Table<TapeObjectRow> table_;
  Table<TapeObjectRow>::IndexId by_file_id_{};
  Table<TapeObjectRow>::IndexId by_tape_{};
  Table<TapeObjectRow>::IndexId by_path_{};
};

}  // namespace cpa::metadb
