// A tape cartridge: an append-only sequence of data segments.
//
// Objects land on tape in strictly increasing sequence numbers; the
// sequence number is what the object catalog records, what the TSM
// export (metadb) serves and what PFTool's tape-ordered recall sorts by (Sec 4.2.5).
// No segment ever leaves a cartridge, so a segment's sequence number is
// its position in `segments()` plus one, and the segment does not store it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cpa::tape {

using CartridgeId = std::uint64_t;

struct Segment {
  std::uint64_t object_id = 0;    // 0: deleted, a dead region
  std::uint64_t offset = 0;       // starting byte on tape
  std::uint64_t bytes = 0;
  std::uint64_t fingerprint = 0;  // fixity checksum written with the data
  bool corrupted = false;         // silent bit-rot: reads succeed, fixity fails

  /// What a verifying reader recomputes from the bits on tape.  A healthy
  /// segment yields the fingerprint that was written; a silently corrupted
  /// one yields something else (deterministically, so replays agree).
  [[nodiscard]] std::uint64_t observed_fingerprint() const {
    return corrupted ? ~fingerprint : fingerprint;
  }
};
static_assert(sizeof(Segment) == 40, "every tape object costs one segment");

class Cartridge {
 public:
  Cartridge(CartridgeId id, std::uint64_t capacity_bytes,
            std::string colocation_group = "")
      : id_(id), capacity_(capacity_bytes), group_(std::move(colocation_group)) {}

  [[nodiscard]] CartridgeId id() const { return id_; }
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t bytes_used() const { return used_; }
  [[nodiscard]] std::uint64_t bytes_free() const { return capacity_ - used_; }
  [[nodiscard]] const std::string& colocation_group() const { return group_; }
  [[nodiscard]] std::uint64_t segment_count() const { return segments_.size(); }
  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }

  [[nodiscard]] bool fits(std::uint64_t bytes) const { return used_ + bytes <= capacity_; }

  /// Appends an object; returns the new segment, whose sequence number
  /// is the new `segment_count()`.  The caller must have checked `fits`.
  const Segment& append(std::uint64_t object_id, std::uint64_t bytes);

  /// Finds a segment by sequence number (1-based).
  [[nodiscard]] const Segment* segment_by_seq(std::uint64_t seq) const;
  [[nodiscard]] const Segment* segment_by_object(std::uint64_t object_id) const;

  /// Marks a segment's object as deleted.  Tape is append-only, so the
  /// bytes are not reclaimed — the segment becomes a dead region, exactly
  /// like an orphan awaiting reclamation.
  bool mark_deleted(std::uint64_t object_id);
  [[nodiscard]] std::uint64_t dead_bytes() const { return dead_bytes_; }

  /// Media failure injection: a damaged volume cannot be read; recalls
  /// must fall back to copy-pool replicas.
  void set_damaged(bool damaged) { damaged_ = damaged; }
  [[nodiscard]] bool damaged() const { return damaged_; }

  /// Records the fixity checksum written alongside a segment's data.  The
  /// drive hands completion callbacks a *copy* of the segment, so writers
  /// attach the fingerprint through the cartridge by sequence number.
  bool set_fingerprint(std::uint64_t seq, std::uint64_t fingerprint);

  /// Silent bit-rot injection: flips up to `count` distinct live segments
  /// into the corrupted state.  Deterministic in `seed` so a fault plan
  /// replays bit-identically.  Returns how many segments were corrupted.
  std::uint64_t corrupt_random_segments(std::uint64_t count,
                                        std::uint64_t seed);

  /// Clears the corrupted flag (segment rewritten / repaired in place).
  bool clear_corruption(std::uint64_t seq);
  [[nodiscard]] std::uint64_t corrupted_segment_count() const;

 private:
  CartridgeId id_;
  std::uint64_t capacity_;
  std::string group_;
  std::uint64_t used_ = 0;
  std::uint64_t dead_bytes_ = 0;
  bool damaged_ = false;
  std::vector<Segment> segments_;
};

}  // namespace cpa::tape
