#include "tape/library.hpp"

#include <gtest/gtest.h>

#include "simcore/units.hpp"

namespace cpa::tape {
namespace {

LibraryConfig small_config() {
  LibraryConfig cfg;
  cfg.drive_count = 2;
  cfg.cartridge_capacity = 100 * kMB;
  return cfg;
}

class LibraryTest : public ::testing::Test {
 protected:
  LibraryTest() : net_(sim_), lib_(sim_, net_, small_config()) {}
  sim::Simulation sim_;
  sim::FlowNetwork net_{sim_};
  TapeLibrary lib_{sim_, net_, small_config()};
};

TEST_F(LibraryTest, AcquireGrantsUpToDriveCount) {
  std::vector<TapeDrive*> granted;
  for (int i = 0; i < 3; ++i) {
    lib_.acquire_drive([&](TapeDrive& d) { granted.push_back(&d); });
  }
  sim_.run();
  ASSERT_EQ(granted.size(), 2u);
  EXPECT_NE(granted[0], granted[1]);
  EXPECT_EQ(lib_.idle_drives(), 0u);
  lib_.release_drive(*granted[0]);
  sim_.run();
  ASSERT_EQ(granted.size(), 3u);
  EXPECT_EQ(granted[2], granted[0]);  // recycled to the waiter
}

TEST_F(LibraryTest, ReleaseWithoutWaiterFreesDrive) {
  TapeDrive* d = nullptr;
  lib_.acquire_drive([&](TapeDrive& g) { d = &g; });
  sim_.run();
  ASSERT_NE(d, nullptr);
  lib_.release_drive(*d);
  EXPECT_EQ(lib_.idle_drives(), 2u);
}

TEST_F(LibraryTest, ClearingTheArbiterRestoresFifo) {
  // Overrides only the quota and the pick; the base class supplies the
  // rest of the FIFO policy.
  struct DenyAll final : DriveArbiter {
    bool may_hold(const DriveRequest&) override { return false; }
    std::size_t pick_waiter(const std::vector<DriveRequest>&) override {
      return kNone;
    }
  } deny;
  lib_.set_arbiter(&deny);
  std::vector<int> granted;
  lib_.acquire_drive([&](TapeDrive&) { granted.push_back(1); });
  sim_.run();
  EXPECT_TRUE(granted.empty());
  EXPECT_EQ(lib_.drive_waiters(), 1u);

  lib_.set_arbiter(nullptr);
  lib_.acquire_drive([&](TapeDrive& d) {
    granted.push_back(2);
    lib_.release_drive(d);  // the queued waiter gets it
  });
  sim_.run();
  EXPECT_EQ(granted, (std::vector<int>{2, 1}));
}

TEST_F(LibraryTest, OpenCartridgePerColocationGroup) {
  Cartridge& a1 = lib_.open_cartridge_for("projA", 10 * kMB);
  Cartridge& a2 = lib_.open_cartridge_for("projA", 10 * kMB);
  Cartridge& b1 = lib_.open_cartridge_for("projB", 10 * kMB);
  EXPECT_EQ(&a1, &a2);          // same open cartridge reused
  EXPECT_NE(&a1, &b1);          // groups do not share cartridges
  EXPECT_EQ(a1.colocation_group(), "projA");
  EXPECT_EQ(lib_.cartridge_count(), 2u);
}

TEST_F(LibraryTest, OpenCartridgeRollsOverWhenFull) {
  Cartridge& c1 = lib_.open_cartridge_for("g", 80 * kMB);
  c1.append(1, 80 * kMB);
  Cartridge& c2 = lib_.open_cartridge_for("g", 30 * kMB);  // 20 MB left
  EXPECT_NE(&c1, &c2);
  EXPECT_EQ(lib_.cartridge_count(), 2u);
}

TEST_F(LibraryTest, CheckoutStaysInsideItsGroup) {
  Cartridge& a1 = lib_.new_cartridge("a");
  Cartridge& b1 = lib_.new_cartridge("b");
  Cartridge& a2 = lib_.new_cartridge("a");
  EXPECT_EQ(&lib_.checkout_cartridge("b", kMB), &b1);
  EXPECT_EQ(&lib_.checkout_cartridge("a", kMB), &a1);
  EXPECT_EQ(&lib_.checkout_cartridge("a", kMB), &a2);
  // Group "b"'s only volume is out and "a"'s are not candidates.
  Cartridge& b2 = lib_.checkout_cartridge("b", kMB);
  EXPECT_EQ(b2.colocation_group(), "b");
  EXPECT_EQ(b2.id(), 4u);
  Cartridge& c1 = lib_.checkout_cartridge("c", kMB);
  EXPECT_EQ(c1.colocation_group(), "c");
  EXPECT_EQ(lib_.cartridge_count(), 5u);
}

TEST_F(LibraryTest, CheckoutTakesTheOldestVolumeThatFits) {
  Cartridge& g1 = lib_.new_cartridge("g");
  Cartridge& g2 = lib_.new_cartridge("g");
  Cartridge& g3 = lib_.new_cartridge("g");
  g1.append(1, 95 * kMB);  // 5 MB left
  g2.append(2, 60 * kMB);  // 40 MB left
  EXPECT_EQ(&lib_.checkout_cartridge("g", 10 * kMB), &g2);
  lib_.checkin_cartridge(g2);
  // Small enough for the nearly full oldest volume: it goes first.
  EXPECT_EQ(&lib_.checkout_cartridge("g", 5 * kMB), &g1);
  // Too big for g1 and g2: the empty newest one.
  EXPECT_EQ(&lib_.checkout_cartridge("g", 50 * kMB), &g3);
  EXPECT_EQ(lib_.cartridge_count(), 3u);
}

TEST_F(LibraryTest, CheckoutSkipsCheckedOutAndExcludedVolumes) {
  Cartridge& g1 = lib_.new_cartridge("g");
  Cartridge& g2 = lib_.new_cartridge("g");
  Cartridge& g3 = lib_.new_cartridge("g");
  EXPECT_EQ(&lib_.checkout_cartridge("g", kMB), &g1);
  EXPECT_TRUE(lib_.is_checked_out(g1.id()));
  EXPECT_EQ(&lib_.checkout_cartridge("g", kMB, g2.id()), &g3);
  EXPECT_EQ(&lib_.checkout_cartridge("g", kMB), &g2);
  lib_.checkin_cartridge(g1);
  EXPECT_FALSE(lib_.is_checked_out(g1.id()));
  // g1 is back, but excluded: with g2 and g3 out, a fresh volume.
  Cartridge& fresh = lib_.checkout_cartridge("g", kMB, g1.id());
  EXPECT_EQ(fresh.id(), 4u);
  EXPECT_EQ(&lib_.checkout_cartridge("g", kMB), &g1);
}

TEST_F(LibraryTest, CheckoutAllocatesScratchWhenNoVolumeFits) {
  Cartridge& g1 = lib_.new_cartridge("g");
  g1.append(1, 100 * kMB);  // full
  Cartridge& fresh = lib_.checkout_cartridge("g", kMB);
  EXPECT_NE(&fresh, &g1);
  EXPECT_EQ(fresh.colocation_group(), "g");
  EXPECT_EQ(fresh.bytes_used(), 0u);
  EXPECT_EQ(lib_.cartridge(fresh.id()), &fresh);
  // The scratch volume joins the group: once checked in, it is found.
  lib_.checkin_cartridge(fresh);
  EXPECT_EQ(&lib_.checkout_cartridge("g", kMB), &fresh);
  EXPECT_EQ(lib_.cartridge_count(), 2u);
  EXPECT_EQ(lib_.cartridge(0), nullptr);
  EXPECT_EQ(lib_.cartridge(3), nullptr);
}

TEST_F(LibraryTest, OpenAndCheckedOutVolumesShareTheGroupRecord) {
  Cartridge& open = lib_.open_cartridge_for("g", kMB);
  EXPECT_EQ(&lib_.checkout_cartridge("g", kMB), &open);
  // A checkout does not move the open append target.
  EXPECT_EQ(&lib_.open_cartridge_for("g", kMB), &open);
  open.append(1, 100 * kMB);
  Cartridge& next = lib_.open_cartridge_for("g", kMB);
  EXPECT_NE(&next, &open);
  lib_.checkin_cartridge(open);
  EXPECT_EQ(&lib_.checkout_cartridge("g", kMB), &next);
}

TEST_F(LibraryTest, EnsureMountedSwapsCartridges) {
  Cartridge& c1 = lib_.new_cartridge();
  Cartridge& c2 = lib_.new_cartridge();
  TapeDrive& d = lib_.drive(0);
  int step = 0;
  lib_.ensure_mounted(d, c1, [&] {
    EXPECT_EQ(d.mounted(), &c1);
    ++step;
    lib_.ensure_mounted(d, c2, [&] {
      EXPECT_EQ(d.mounted(), &c2);
      ++step;
      // Already mounted: no robot work, immediate.
      lib_.ensure_mounted(d, c2, [&] { ++step; });
    });
  });
  sim_.run();
  EXPECT_EQ(step, 3);
  EXPECT_EQ(d.stats().mounts, 2u);
  EXPECT_EQ(d.stats().unmounts, 1u);
}

// Drive B pulls cartridge X out of idle drive A.  While A's unload is under
// way, A's own ensure_mounted(X) must wait until X is back in A, not call
// back at once with a volume that is leaving: a read issued from its
// callback has to find X under A's heads.
TEST_F(LibraryTest, EnsureMountedWaitsForAVolumeLeavingTheDrive) {
  Cartridge& x = lib_.new_cartridge();
  x.append(1, kMB);
  const std::uint64_t seq = x.segment_count();
  TapeDrive& a = lib_.drive(0);
  TapeDrive& b = lib_.drive(1);
  lib_.ensure_mounted(a, x, nullptr);
  sim_.run();
  ASSERT_EQ(a.mounted(), &x);

  bool b_mounted = false;
  lib_.ensure_mounted(b, x, [&] { b_mounted = true; });
  sim_.run_until(sim_.now() + sim::secs(1));
  ASSERT_EQ(a.mounted(), &x);  // still there, but being unloaded
  ASSERT_TRUE(a.busy());

  bool called_back = false;
  bool read_ok = false;
  lib_.ensure_mounted(a, x, [&] {
    called_back = true;
    EXPECT_TRUE(b_mounted);  // X went to B first, then came back
    EXPECT_EQ(a.mounted(), &x);
    EXPECT_NE(b.mounted(), &x);
    a.read_object(0, seq, {}, [&](const Segment* s) { read_ok = s != nullptr; });
  });
  sim_.run();
  EXPECT_TRUE(called_back);
  EXPECT_TRUE(read_ok);
}

TEST_F(LibraryTest, DismountIsNoOpWhenEmpty) {
  bool done = false;
  lib_.dismount(lib_.drive(0), [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(lib_.drive(0).stats().unmounts, 0u);
}

TEST_F(LibraryTest, RobotSerializesMounts) {
  Cartridge& c1 = lib_.new_cartridge();
  Cartridge& c2 = lib_.new_cartridge();
  sim::Tick t1 = 0, t2 = 0;
  lib_.ensure_mounted(lib_.drive(0), c1, [&] { t1 = sim_.now(); });
  lib_.ensure_mounted(lib_.drive(1), c2, [&] { t2 = sim_.now(); });
  sim_.run();
  // With one robot arm, the second mount cannot complete at the same time.
  EXPECT_GT(t2, t1);
}

TEST_F(LibraryTest, AggregateStatsSumAcrossDrives) {
  Cartridge& c1 = lib_.new_cartridge();
  Cartridge& c2 = lib_.new_cartridge();
  lib_.ensure_mounted(lib_.drive(0), c1, nullptr);
  lib_.ensure_mounted(lib_.drive(1), c2, nullptr);
  sim_.run();
  const DriveStats total = lib_.aggregate_stats();
  EXPECT_EQ(total.mounts, 2u);
  EXPECT_EQ(total.label_verifies, 2u);
}

}  // namespace
}  // namespace cpa::tape
