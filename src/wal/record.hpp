// Redo records: the payloads the WAL frames and the lines of a checkpoint.
//
// One mutation is one line of blank-separated fields, numbers in decimal:
//
//   O srv id fid size tag cart seq agg_id agg_off path group members copies
//   D srv id                  (the object; a member also leaves its aggregate)
//   N srv next_id             (checkpoint only: the id allocator)
//   F row obj cart seq length checksum copy_index status
//   E obj                     (every fixity row of the object)
//   J op dst a b              (op: b begin, g good, x bad, f forget)
//   K dst|size|count|bitmap   (checkpoint only: one restart-journal line)
//
// Paths, group names and J destinations are percent-escaped into one
// blank-free field ("%-" is the empty string).  `members` is "-" or comma-
// separated ids; `copies` is "-" or comma-separated cart:seq pairs.  Every
// record is O(1) in bytes but an aggregate's own O, which lists its
// members; a member's delete is a D, never a new image of its aggregate.
//
// The put_* encoders append to a caller's buffer with std::to_chars.
// `decode` reads a payload in place and is strict: a record with a field
// that does not parse whole, a field too many or too few, or a value no
// encoder writes (an unknown op or status, more chunks than bytes) is
// rejected whole.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "hsm/object.hpp"
#include "integrity/fixity.hpp"
#include "pftool/core/restart_journal.hpp"

namespace cpa::wal {

/// One decoded record.  `kind` says which fields hold it; a decoder reuses
/// one Record, so its strings and lists keep their capacity.
struct Record {
  char kind = 0;                // 'O', 'D', 'N', 'F', 'E', 'J' or 'K'
  std::uint64_t server = 0;     // O, D, N
  std::uint64_t id = 0;         // D, E: the object; N: the next id
  hsm::ArchiveObject object;    // O (its `group` stays 0: `group` names it)
  std::string group;            // O
  hsm::ObjectLinks links;       // O
  integrity::FixityRow fixity;  // F
  pftool::RestartJournal::Op op = pftool::RestartJournal::Op::Begin;  // J
  std::string dst;              // J, K
  std::uint64_t a = 0;          // J: size or chunk; K: size
  std::uint64_t b = 0;          // J: chunk count or 0; K: chunk count
  std::string bitmap;           // K
};

void put_object(std::string& out, std::uint64_t server,
                const hsm::ArchiveObject& o, std::string_view group,
                const hsm::ObjectLinks& links);
void put_delete(std::string& out, std::uint64_t server, std::uint64_t id);
void put_next_id(std::string& out, std::uint64_t server, std::uint64_t next);
void put_fixity(std::string& out, const integrity::FixityRow& r);
void put_fixity_erase(std::string& out, std::uint64_t object_id);
void put_journal(std::string& out, pftool::RestartJournal::Op op,
                 std::string_view dst, std::uint64_t a, std::uint64_t b);
/// `line` is one line of RestartJournal::serialize, without its newline.
void put_journal_line(std::string& out, std::string_view line);

/// Parses one payload into `r`; false (with `r` unspecified) when the
/// payload is not a record some encoder writes.
[[nodiscard]] bool decode(std::string_view payload, Record& r);

}  // namespace cpa::wal
