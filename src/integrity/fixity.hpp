// End-to-end fixity: seeded checksums over simulated content identity.
//
// The archive never materializes file bytes, so a "checksum" here is a
// fast splitmix-style mix over what identifies the content — object id,
// length, chunk index, and a per-run salt.  The same convention the
// chunked writer and verifier already share via `chunk_tag` extends to
// tape: every migrated unit's checksum is written with the segment (the
// drive stores it as the segment fingerprint) and recorded as a fixity
// row in metadb next to the tape position, CASTOR-style.  Silent bit-rot
// flips the fingerprint a reader observes without failing the read, so
// only recall verification or the scrubber notices — exactly the failure
// mode the paper's loud fault windows cannot model.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "metadb/table.hpp"

namespace cpa::integrity {

/// splitmix64 finalizer: the canonical mix `chunk_tag` already uses.
constexpr std::uint64_t fixity_mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Folds one more identity word into a running checksum.
constexpr std::uint64_t fixity_fold(std::uint64_t h, std::uint64_t v) {
  return fixity_mix(h ^ v);
}

/// Checksum of one content unit: (id, length, chunk index) under `salt`.
constexpr std::uint64_t fixity_checksum(std::uint64_t id, std::uint64_t length,
                                        std::uint64_t chunk_index,
                                        std::uint64_t salt) {
  return fixity_fold(fixity_fold(fixity_fold(fixity_mix(salt), id), length),
                     chunk_index);
}

enum class FixityStatus : std::uint8_t {
  Ok,            // expected to verify
  Unrepairable,  // mismatch with no clean source left; reported once
};

/// One checksum record: which object, where its bits sit on tape, and
/// what they must hash to.  `copy_index` 0 is the primary pool write;
/// 1.. are the copy-pool passes (same checksum, different volume).
struct FixityRow {
  std::uint64_t row_id = 0;  // primary key, insertion-ordered
  std::uint64_t object_id = 0;
  std::uint64_t cartridge_id = 0;
  std::uint64_t tape_seq = 0;
  std::uint64_t length = 0;
  std::uint64_t checksum = 0;
  unsigned copy_index = 0;
  FixityStatus status = FixityStatus::Ok;
};

/// The fixity table: metadb rows indexed by object, the same
/// export-and-index move Sec 4.2.5 applies to tape positions.  Row ids are
/// handed out sequentially, so iterating by primary key replays archive
/// order — the naive scrub order a tape-ordered walk beats.
class FixityDb {
 public:
  FixityDb()
      : table_([](const FixityRow& r) { return r.row_id; }) {
    by_object_ = table_.add_index_u64(
        [](const FixityRow& r) { return r.object_id; });
  }

  /// Durability listeners: fired after every in-memory mutation, with the
  /// resulting row (a full-row image, so redo replay is idempotent).  The
  /// WAL layer installs these; unset hooks cost nothing.
  struct MutationHooks {
    std::function<void(const FixityRow&)> on_upsert;
    std::function<void(std::uint64_t object_id)> on_erase_object;
  };
  void set_mutation_hooks(MutationHooks hooks) { hooks_ = std::move(hooks); }

  /// Records a checksum; returns the new row id.
  std::uint64_t add(std::uint64_t object_id, std::uint64_t cartridge_id,
                    std::uint64_t tape_seq, std::uint64_t length,
                    std::uint64_t checksum, unsigned copy_index) {
    FixityRow row;
    row.row_id = next_row_id_++;
    row.object_id = object_id;
    row.cartridge_id = cartridge_id;
    row.tape_seq = tape_seq;
    row.length = length;
    row.checksum = checksum;
    row.copy_index = copy_index;
    table_.insert(row);
    if (hooks_.on_upsert) hooks_.on_upsert(row);
    return row.row_id;
  }

  /// Recovery-path insert preserving the logged row id (replaying the
  /// same record twice converges on the same row).
  void restore(const FixityRow& row) {
    table_.upsert(row);
    if (row.row_id >= next_row_id_) next_row_id_ = row.row_id + 1;
  }

  /// Crash wipe: drops every row before checkpoint-load + log replay.
  void clear() {
    table_.clear();
    next_row_id_ = 1;
  }

  [[nodiscard]] const FixityRow* find(std::uint64_t row_id) const {
    return table_.find(row_id);
  }

  /// All rows for one object (primary + copies), primary-key order.
  [[nodiscard]] std::vector<const FixityRow*> by_object(
      std::uint64_t object_id) const {
    return table_.lookup_u64(by_object_, object_id);
  }

  /// The row covering one tape location of an object, if recorded.
  /// Allocation-free: visits the object's few rows in place.
  [[nodiscard]] const FixityRow* at_location(std::uint64_t object_id,
                                             std::uint64_t cartridge_id) const {
    const FixityRow* hit = nullptr;
    table_.for_each_u64(by_object_, object_id, [&](const FixityRow& r) {
      if (hit == nullptr && r.cartridge_id == cartridge_id) hit = &r;
    });
    return hit;
  }

  /// Follows a segment move (reclamation / scrub repair): the row for
  /// `object_id` on `old_cart` now points at (new_cart, new_seq).
  bool relocate(std::uint64_t object_id, std::uint64_t old_cart,
                std::uint64_t new_cart, std::uint64_t new_seq) {
    const FixityRow* hit = nullptr;
    table_.for_each_u64(by_object_, object_id, [&](const FixityRow& r) {
      if (hit == nullptr && r.cartridge_id == old_cart) hit = &r;
    });
    if (hit == nullptr) return false;
    FixityRow updated = *hit;
    updated.cartridge_id = new_cart;
    updated.tape_seq = new_seq;
    table_.upsert(updated);
    if (hooks_.on_upsert) hooks_.on_upsert(updated);
    return true;
  }

  bool set_status(std::uint64_t row_id, FixityStatus status) {
    const FixityRow* r = table_.find(row_id);
    if (r == nullptr) return false;
    FixityRow updated = *r;
    updated.status = status;
    table_.upsert(updated);
    if (hooks_.on_upsert) hooks_.on_upsert(updated);
    return true;
  }

  bool erase_object(std::uint64_t object_id) {
    std::vector<std::uint64_t> row_ids;
    table_.for_each_u64(by_object_, object_id,
                        [&](const FixityRow& r) { row_ids.push_back(r.row_id); });
    if (row_ids.empty()) return false;
    table_.erase_bulk(row_ids);
    if (hooks_.on_erase_object) hooks_.on_erase_object(object_id);
    return true;
  }

  void for_each(const std::function<void(const FixityRow&)>& fn) const {
    table_.for_each(fn);
  }

  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] const metadb::TableStats& stats() const { return table_.stats(); }

 private:
  metadb::Table<FixityRow> table_;
  metadb::Table<FixityRow>::IndexId by_object_{};
  MutationHooks hooks_;
  std::uint64_t next_row_id_ = 1;
};

}  // namespace cpa::integrity
