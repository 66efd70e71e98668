#include "tape/cartridge.hpp"

#include <cassert>

#include "simcore/rng.hpp"

namespace cpa::tape {

const Segment& Cartridge::append(std::uint64_t object_id, std::uint64_t bytes) {
  assert(fits(bytes));
  Segment s;
  s.object_id = object_id;
  s.offset = used_;
  s.bytes = bytes;
  used_ += bytes;
  segments_.push_back(s);
  return segments_.back();
}

const Segment* Cartridge::segment_by_seq(std::uint64_t seq) const {
  if (seq == 0 || seq > segments_.size()) return nullptr;
  const Segment& s = segments_[seq - 1];
  return s.object_id == 0 ? nullptr : &s;  // deleted
}

const Segment* Cartridge::segment_by_object(std::uint64_t object_id) const {
  for (const Segment& s : segments_) {
    if (s.object_id == object_id) return &s;
  }
  return nullptr;
}

bool Cartridge::set_fingerprint(std::uint64_t seq, std::uint64_t fingerprint) {
  if (seq == 0 || seq > segments_.size()) return false;
  segments_[seq - 1].fingerprint = fingerprint;
  return true;
}

std::uint64_t Cartridge::corrupt_random_segments(std::uint64_t count,
                                                 std::uint64_t seed) {
  // Candidates: live (not deleted), not already corrupted.  The pick is a
  // seeded partial Fisher-Yates over the candidate index list, so the same
  // (cartridge state, count, seed) always rots the same segments.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].object_id != 0 && !segments_[i].corrupted) {
      candidates.push_back(i);
    }
  }
  sim::Rng rng(seed ^ (id_ * 0x9E3779B97F4A7C15ULL) ^ 0xB17F1A7ULL);
  std::uint64_t hit = 0;
  for (std::uint64_t n = 0; n < count && !candidates.empty(); ++n) {
    const std::uint64_t pick = rng.uniform_u64(0, candidates.size() - 1);
    segments_[candidates[pick]].corrupted = true;
    candidates[pick] = candidates.back();
    candidates.pop_back();
    ++hit;
  }
  return hit;
}

bool Cartridge::clear_corruption(std::uint64_t seq) {
  if (seq == 0 || seq > segments_.size()) return false;
  segments_[seq - 1].corrupted = false;
  return true;
}

std::uint64_t Cartridge::corrupted_segment_count() const {
  std::uint64_t n = 0;
  for (const Segment& s : segments_) {
    if (s.object_id != 0 && s.corrupted) ++n;
  }
  return n;
}

bool Cartridge::mark_deleted(std::uint64_t object_id) {
  for (Segment& s : segments_) {
    if (s.object_id == object_id) {
      s.object_id = 0;
      dead_bytes_ += s.bytes;
      return true;
    }
  }
  return false;
}

}  // namespace cpa::tape
