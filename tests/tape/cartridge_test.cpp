#include "tape/cartridge.hpp"

#include <gtest/gtest.h>

#include "simcore/units.hpp"

namespace cpa::tape {
namespace {

TEST(Cartridge, AppendAssignsSequentialSeqAndOffsets) {
  Cartridge c(1, 100 * kMB);
  const Segment& s1 = c.append(101, 10 * kMB);
  EXPECT_EQ(c.segment_count(), 1u);  // the new segment's seq
  EXPECT_EQ(s1.offset, 0u);
  const Segment& s2 = c.append(102, 20 * kMB);
  EXPECT_EQ(c.segment_by_seq(2), &s2);
  EXPECT_EQ(s2.offset, 10 * kMB);
  EXPECT_EQ(c.bytes_used(), 30 * kMB);
  EXPECT_EQ(c.bytes_free(), 70 * kMB);
  EXPECT_EQ(c.segment_count(), 2u);
}

TEST(Cartridge, FitsChecksCapacity) {
  Cartridge c(1, 100 * kMB);
  EXPECT_TRUE(c.fits(100 * kMB));
  c.append(1, 60 * kMB);
  EXPECT_TRUE(c.fits(40 * kMB));
  EXPECT_FALSE(c.fits(40 * kMB + 1));
}

TEST(Cartridge, LookupBySeqAndObject) {
  Cartridge c(1, 100 * kMB);
  c.append(101, kMB);
  c.append(102, kMB);
  ASSERT_NE(c.segment_by_seq(2), nullptr);
  EXPECT_EQ(c.segment_by_seq(2)->object_id, 102u);
  EXPECT_EQ(c.segment_by_seq(0), nullptr);
  EXPECT_EQ(c.segment_by_seq(3), nullptr);
  ASSERT_NE(c.segment_by_object(101), nullptr);
  EXPECT_EQ(c.segment_by_object(101), c.segment_by_seq(1));
  EXPECT_EQ(c.segment_by_object(999), nullptr);
}

TEST(Cartridge, DeletedSegmentsBecomeDeadRegions) {
  Cartridge c(1, 100 * kMB);
  c.append(101, 10 * kMB);
  c.append(102, 5 * kMB);
  EXPECT_TRUE(c.mark_deleted(101));
  EXPECT_FALSE(c.mark_deleted(101));
  EXPECT_EQ(c.dead_bytes(), 10 * kMB);
  // Tape is append-only: space is not reclaimed.
  EXPECT_EQ(c.bytes_used(), 15 * kMB);
  EXPECT_EQ(c.segment_by_seq(1), nullptr);  // gone
  EXPECT_NE(c.segment_by_seq(2), nullptr);  // untouched
  // No segment ever leaves the list, so each one's seq is its index + 1:
  // the dead region keeps position 1 and the live segment position 2.
  ASSERT_EQ(c.segment_count(), 2u);
  EXPECT_EQ(c.segments()[0].object_id, 0u);
  EXPECT_EQ(c.segments()[0].bytes, 10 * kMB);
  EXPECT_EQ(c.segment_by_seq(2), &c.segments()[1]);
  EXPECT_EQ(c.segment_by_seq(2)->object_id, 102u);
}

TEST(Cartridge, ColocationGroupIsRecorded) {
  Cartridge c(7, kGB, "projectA");
  EXPECT_EQ(c.colocation_group(), "projectA");
  EXPECT_EQ(c.id(), 7u);
}

}  // namespace
}  // namespace cpa::tape
