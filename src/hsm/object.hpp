// Archive objects: the server-side record of data stored on tape.
#pragma once

#include <cstdint>
#include <vector>

#include "simcore/inline_string.hpp"

namespace cpa::hsm {

/// One managed object in the archive server's database.  A migrated file
/// is one object; with aggregation enabled, many small files share one
/// aggregate object (Sec 6.1: "bundling these small files into larger
/// aggregates better suited to getting the tape drive up to full speed").
///
/// This is the row the catalog stores for every object, so it holds only
/// what every object has.  What few objects have — an aggregate's members
/// and a file's copy-pool replicas — the server keeps beside the rows
/// (`ObjectLinks`, `ArchiveServer::links`).
struct ArchiveObject {
  std::uint64_t object_id = 0;
  /// Archive-file-system path ("" for aggregates).  Paths of up to 31
  /// bytes, nearly every one the plant makes, need no heap chunk.
  sim::InlineString<32> path;
  std::uint64_t gpfs_file_id = 0; // packed FileId for the synchronous deleter
  std::uint64_t size_bytes = 0;
  std::uint64_t content_tag = 0;  // propagated for integrity verification
  std::uint64_t cartridge_id = 0;
  std::uint64_t tape_seq = 0;

  // Aggregation linkage.
  std::uint64_t aggregate_id = 0;     // parent aggregate (0 = standalone)
  std::uint64_t aggregate_offset = 0; // byte offset within the aggregate

  /// The colocation group's name, interned by `ArchiveServer::group_id`
  /// of the server that stores the object (0 is the empty name).
  std::uint32_t group = 0;

  /// Additional tape copies (copy storage pools — Sec 3.1 item 7:
  /// "multiple copies, remote copies, smart placement").  Recall falls
  /// back to a copy when the primary volume is unreadable.
  struct Replica {
    std::uint64_t cartridge_id = 0;
    std::uint64_t tape_seq = 0;
  };

  [[nodiscard]] bool is_member() const { return aggregate_id != 0; }
};
static_assert(sizeof(ArchiveObject) == 104, "every object costs one catalog row");

/// What an object holds beside its catalog row.  Most objects hold
/// neither list, so they cost the catalog nothing.
struct ObjectLinks {
  std::vector<std::uint64_t> members;         // aggregate objects: member ids
  std::vector<ArchiveObject::Replica> copies;  // copy-pool replicas
  [[nodiscard]] bool empty() const { return members.empty() && copies.empty(); }
};

}  // namespace cpa::hsm
