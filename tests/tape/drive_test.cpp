#include "tape/drive.hpp"

#include <gtest/gtest.h>

#include "simcore/units.hpp"

namespace cpa::tape {
namespace {

class DriveTest : public ::testing::Test {
 protected:
  DriveTest() : net_(sim_), drive_(sim_, net_, "d0", timings_) {
    san_ = net_.add_pool("san", 4000.0 * static_cast<double>(kMB));
  }

  sim::Simulation sim_;
  sim::FlowNetwork net_{sim_};
  TapeTimings timings_;
  TapeDrive drive_{sim_, net_, "d0", timings_};
  sim::PoolId san_;
};

TEST_F(DriveTest, MountChargesLoadAndLabelVerify) {
  Cartridge cart(1, 800 * kGB);
  sim::Tick done_at = 0;
  drive_.mount(&cart, [&] { done_at = sim_.now(); });
  sim_.run();
  EXPECT_EQ(done_at, timings_.load + timings_.label_verify);
  EXPECT_EQ(drive_.mounted(), &cart);
  EXPECT_EQ(drive_.stats().mounts, 1u);
  EXPECT_EQ(drive_.stats().label_verifies, 1u);
}

TEST_F(DriveTest, WriteStreamsAtDriveRatePlusBackhitch) {
  Cartridge cart(1, 800 * kGB);
  drive_.mount(&cart, nullptr);
  sim::Tick t0 = 0, t1 = 0;
  const Segment* result = nullptr;
  Segment seg_copy;
  std::uint64_t seq = 0;
  drive_.write_object(0, 42, 1000 * kMB, {san_},
                      [&](const Segment* s, std::uint64_t at) {
                        ASSERT_NE(s, nullptr);
                        seg_copy = *s;
                        result = &seg_copy;
                        seq = at;
                        t1 = sim_.now();
                      });
  t0 = timings_.load + timings_.label_verify;
  sim_.run();
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(seg_copy.object_id, 42u);
  EXPECT_EQ(seq, 1u);
  // 1000 MB at 100 MB/s = 10 s, plus the backhitch.
  EXPECT_NEAR(sim::to_seconds(t1 - t0), 10.0 + sim::to_seconds(timings_.backhitch),
              1e-3);
  EXPECT_EQ(drive_.stats().bytes_written, 1000 * kMB);
  EXPECT_EQ(drive_.stats().write_txns, 1u);
  EXPECT_EQ(drive_.stats().backhitches, 1u);
}

TEST_F(DriveTest, SmallFileWritesLandNearFourMBPerSecond) {
  // The paper's Sec 6.1 calibration: migrating 8 MB files achieved
  // ~4 MB/s against the 100 MB/s rated speed.
  Cartridge cart(1, 800 * kGB);
  drive_.mount(&cart, nullptr);
  const int kFiles = 50;
  sim::Tick start = 0, end = 0;
  int done = 0;
  for (int i = 0; i < kFiles; ++i) {
    drive_.write_object(0, 100 + static_cast<std::uint64_t>(i), 8 * kMB, {san_},
                        [&](const Segment* s, std::uint64_t) {
                          ASSERT_NE(s, nullptr);
                          if (++done == kFiles) end = sim_.now();
                        });
  }
  start = timings_.load + timings_.label_verify;
  sim_.run();
  const double rate_mbs =
      kFiles * 8.0 / sim::to_seconds(end - start);
  EXPECT_GT(rate_mbs, 3.0);
  EXPECT_LT(rate_mbs, 5.0);
}

TEST_F(DriveTest, LargeFileWritesApproachRatedSpeed) {
  Cartridge cart(1, 10'000 * kGB);
  drive_.mount(&cart, nullptr);
  const int kFiles = 5;
  sim::Tick end = 0;
  int done = 0;
  for (int i = 0; i < kFiles; ++i) {
    drive_.write_object(0, 100 + static_cast<std::uint64_t>(i), 10 * kGB, {san_},
                        [&](const Segment*, std::uint64_t) {
                          if (++done == kFiles) end = sim_.now();
                        });
  }
  const sim::Tick start = timings_.load + timings_.label_verify;
  sim_.run();
  const double rate_mbs = kFiles * 10'000.0 / sim::to_seconds(end - start);
  EXPECT_GT(rate_mbs, 90.0);
  EXPECT_LE(rate_mbs, 100.0);
}

TEST_F(DriveTest, SequentialReadAvoidsSeeksAndBackhitches) {
  Cartridge cart(1, 800 * kGB);
  for (int i = 0; i < 10; ++i) {
    cart.append(100 + static_cast<std::uint64_t>(i), 100 * kMB);
  }
  drive_.mount(&cart, nullptr);
  int done = 0;
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    drive_.read_object(0, seq, {san_}, [&, seq](const Segment* s) {
      ASSERT_NE(s, nullptr);
      EXPECT_EQ(s->object_id, 99 + seq);
      ++done;
    });
  }
  sim_.run();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(drive_.stats().seeks, 0u);
  EXPECT_EQ(drive_.stats().backhitches, 0u);
  EXPECT_EQ(drive_.stats().bytes_read, 1000 * kMB);
}

TEST_F(DriveTest, ReverseOrderReadsPaySeeks) {
  Cartridge cart(1, 800 * kGB);
  for (int i = 0; i < 10; ++i) {
    cart.append(100 + static_cast<std::uint64_t>(i), 100 * kMB);
  }
  drive_.mount(&cart, nullptr);
  int done = 0;
  for (std::uint64_t seq = 10; seq >= 1; --seq) {
    drive_.read_object(0, seq, {san_}, [&](const Segment* s) {
      ASSERT_NE(s, nullptr);
      ++done;
    });
  }
  sim_.run();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(drive_.stats().seeks, 10u);  // every read repositions
  EXPECT_GT(drive_.stats().seek_time, 0u);
}

TEST_F(DriveTest, OwnershipHandoffForcesRewindAndLabelVerify) {
  Cartridge cart(1, 800 * kGB);
  for (int i = 0; i < 4; ++i) {
    cart.append(100 + static_cast<std::uint64_t>(i), 100 * kMB);
  }
  drive_.mount(&cart, nullptr);
  // Alternate reads between two nodes, in perfect tape order.  Without
  // handoffs this would be seek-free; with them every switch rewinds.
  int done = 0;
  drive_.read_object(0, 1, {san_}, [&](const Segment*) { ++done; });
  drive_.read_object(1, 2, {san_}, [&](const Segment*) { ++done; });
  drive_.read_object(0, 3, {san_}, [&](const Segment*) { ++done; });
  drive_.read_object(1, 4, {san_}, [&](const Segment*) { ++done; });
  sim_.run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(drive_.stats().handoffs, 3u);
  // Mount label verify + one per handoff.
  EXPECT_EQ(drive_.stats().label_verifies, 4u);
  // After each handoff rewind, the read must seek forward again.
  EXPECT_EQ(drive_.stats().seeks, 3u);
}

TEST_F(DriveTest, SameNodeKeepsOwnershipWithoutPenalty) {
  Cartridge cart(1, 800 * kGB);
  cart.append(1, kMB);
  cart.append(2, kMB);
  drive_.mount(&cart, nullptr);
  drive_.read_object(5, 1, {san_}, nullptr);
  drive_.read_object(5, 2, {san_}, nullptr);
  sim_.run();
  EXPECT_EQ(drive_.stats().handoffs, 0u);
}

TEST_F(DriveTest, WriteWithoutCartridgeFails) {
  bool called = false;
  drive_.write_object(0, 1, kMB, {san_}, [&](const Segment* s, std::uint64_t) {
    EXPECT_EQ(s, nullptr);
    called = true;
  });
  sim_.run();
  EXPECT_TRUE(called);
}

TEST_F(DriveTest, WriteBeyondCapacityFails) {
  Cartridge cart(1, 10 * kMB);
  drive_.mount(&cart, nullptr);
  bool ok_called = false, fail_called = false;
  drive_.write_object(
      0, 1, 8 * kMB, {san_},
      [&](const Segment* s, std::uint64_t) { ok_called = s != nullptr; });
  drive_.write_object(0, 2, 8 * kMB, {san_},
                      [&](const Segment* s, std::uint64_t seq) {
                        EXPECT_EQ(s, nullptr);
                        EXPECT_EQ(seq, 0u);
                        fail_called = true;
                      });
  sim_.run();
  EXPECT_TRUE(ok_called);
  EXPECT_TRUE(fail_called);
}

TEST_F(DriveTest, ReadMissingSeqFails) {
  Cartridge cart(1, 800 * kGB);
  drive_.mount(&cart, nullptr);
  bool called = false;
  drive_.read_object(0, 99, {san_}, [&](const Segment* s) {
    EXPECT_EQ(s, nullptr);
    called = true;
  });
  sim_.run();
  EXPECT_TRUE(called);
}

TEST_F(DriveTest, UnmountRewindsFromCurrentPosition) {
  Cartridge cart(1, 800 * kGB);
  drive_.mount(&cart, nullptr);
  drive_.write_object(0, 1, 10 * kGB, {san_}, nullptr);
  sim::Tick unmounted_at = 0;
  drive_.unmount([&] { unmounted_at = sim_.now(); });
  sim_.run();
  EXPECT_EQ(drive_.mounted(), nullptr);
  EXPECT_EQ(drive_.stats().unmounts, 1u);
  // Rewind from 10 GB position costs seek_base + 10 GB * per-GB.
  const double expect_rewind = sim::to_seconds(timings_.seek_base) +
                               10.0 * timings_.seek_secs_per_gb;
  const double total = sim::to_seconds(unmounted_at);
  const double before_unmount =
      sim::to_seconds(timings_.load + timings_.label_verify) + 100.0 +
      sim::to_seconds(timings_.backhitch);
  EXPECT_NEAR(total, before_unmount + expect_rewind +
                         sim::to_seconds(timings_.unload),
              1e-3);
}

TEST_F(DriveTest, OpsSerializeFifo) {
  Cartridge cart(1, 800 * kGB);
  drive_.mount(&cart, nullptr);
  std::vector<int> order;
  drive_.write_object(0, 1, 100 * kMB, {san_},
                      [&](const Segment*, std::uint64_t) { order.push_back(1); });
  drive_.write_object(0, 2, 100 * kMB, {san_},
                      [&](const Segment*, std::uint64_t) { order.push_back(2); });
  drive_.read_object(0, 1, {san_}, [&](const Segment*) { order.push_back(3); });
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(DriveTest, SharedSanLimitsConcurrentDrives) {
  // Two drives streaming through a SAN pool narrower than their sum.
  TapeDrive d2(sim_, net_, "d1", timings_);
  const sim::PoolId narrow =
      net_.add_pool("narrow_san", 100.0 * static_cast<double>(kMB));
  Cartridge c1(1, 800 * kGB), c2(2, 800 * kGB);
  drive_.mount(&c1, nullptr);
  d2.mount(&c2, nullptr);
  sim::Tick t1 = 0, t2 = 0;
  drive_.write_object(0, 1, 1000 * kMB, {narrow},
                      [&](const Segment*, std::uint64_t) { t1 = sim_.now(); });
  d2.write_object(1, 2, 1000 * kMB, {narrow},
                  [&](const Segment*, std::uint64_t) { t2 = sim_.now(); });
  sim_.run();
  // Each gets 50 MB/s -> 20 s of streaming instead of 10.
  const double mount_s = sim::to_seconds(timings_.load + timings_.label_verify);
  EXPECT_NEAR(sim::to_seconds(t1) - mount_s,
              20.0 + sim::to_seconds(timings_.backhitch), 0.1);
  EXPECT_NEAR(sim::to_seconds(t2) - mount_s,
              20.0 + sim::to_seconds(timings_.backhitch), 0.1);
}

}  // namespace
}  // namespace cpa::tape
