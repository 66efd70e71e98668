// Differential oracle for the tape library's drive lanes.
//
// The library queues drive waiters in one FIFO lane per (tenant, class) and
// offers the arbiter only the lane heads.  The reference below is the
// layout the lanes replaced: every waiter in one arrival-ordered queue, and
// the arbiter offered all of them on every grant.  Each seed drives both
// through the same random history — acquires by four tenants in all three
// classes, releases, drive failures and repairs, time jumps across several
// aging steps, whole-library power failures — each with its own
// AdmissionScheduler built from the same config, and requires the same
// grants (request seq and drive, in order), the same refusals and the same
// sched.drive_queue_jumps count.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "obs/observer.hpp"
#include "sched/scheduler.hpp"
#include "simcore/flow_network.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"
#include "tape/library.hpp"

namespace cpa::sched {
namespace {

constexpr unsigned kDrives = 4;
constexpr int kOps = 5000;
const std::string kTenants[] = {"", "a", "b", "c"};
constexpr QosClass kClasses[] = {QosClass::Interactive, QosClass::Bulk,
                                 QosClass::Maintenance};

/// (request seq, drive index) of one grant.
using Grant = std::pair<std::uint64_t, unsigned>;

/// Forwards to a scheduler and counts the arbiter's refusals: acquires over
/// quota and grants where every waiter was over quota.
class CountingArbiter final : public tape::DriveArbiter {
 public:
  explicit CountingArbiter(AdmissionScheduler& s) : s_(s) {}
  bool may_hold(const tape::DriveRequest& req) override {
    const bool ok = s_.may_hold(req);
    refusals += ok ? 0 : 1;
    return ok;
  }
  std::size_t pick_waiter(const std::vector<tape::DriveRequest>& waiters) override {
    const std::size_t pick = s_.pick_waiter(waiters);
    refusals += pick == kNone ? 1 : 0;
    return pick;
  }
  void drive_granted(const tape::DriveRequest& req) override {
    s_.drive_granted(req);
  }
  void drive_released(const tape::DriveRequest& req) override {
    s_.drive_released(req);
  }
  std::uint64_t refusals = 0;

 private:
  AdmissionScheduler& s_;
};

/// The single-FIFO drive allocator: TapeLibrary's drive bookkeeping before
/// the lanes, kept here only as the oracle's reference.
class FifoReference {
 public:
  FifoReference(unsigned drives, tape::DriveArbiter& arbiter)
      : busy_(drives), failed_(drives), holder_(drives), arbiter_(arbiter) {}

  void acquire(const tape::DriveRequest& req) {
    for (unsigned i = 0; i < busy_.size(); ++i) {
      if (busy_[i] || failed_[i]) continue;
      if (!arbiter_.may_hold(req)) break;
      grant(i, req);
      return;
    }
    waiters_.push_back(req);
  }
  void release(unsigned i) {
    busy_[i] = false;
    arbiter_.drive_released(holder_[i]);
    holder_[i] = tape::DriveRequest{};
    pump();
  }
  void fail(unsigned i) { failed_[i] = true; }
  void repair(unsigned i) {
    failed_[i] = false;
    pump();
  }
  void power_fail() {
    power_failed_.clear();
    for (unsigned i = 0; i < busy_.size(); ++i) {
      if (!failed_[i]) {
        failed_[i] = true;
        power_failed_.push_back(i);
      }
      if (busy_[i]) arbiter_.drive_released(holder_[i]);
      busy_[i] = false;
      holder_[i] = tape::DriveRequest{};
    }
    waiters_.clear();
  }
  void power_restore() {
    for (const unsigned i : power_failed_) failed_[i] = false;
    power_failed_.clear();
    pump();
  }
  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }

  std::vector<Grant> grants;

 private:
  void pump() {
    for (unsigned i = 0; i < busy_.size() && !waiters_.empty(); ++i) {
      if (busy_[i] || failed_[i]) continue;
      const std::vector<tape::DriveRequest> all(waiters_.begin(), waiters_.end());
      const std::size_t pick = arbiter_.pick_waiter(all);
      if (pick == tape::DriveArbiter::kNone) return;
      const tape::DriveRequest req = waiters_[pick];
      waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(pick));
      grant(i, req);
    }
  }
  void grant(unsigned i, const tape::DriveRequest& req) {
    busy_[i] = true;
    holder_[i] = req;
    arbiter_.drive_granted(req);
    grants.emplace_back(req.seq, i);
  }

  std::vector<bool> busy_;
  std::vector<bool> failed_;
  std::vector<tape::DriveRequest> holder_;
  std::deque<tape::DriveRequest> waiters_;
  std::vector<unsigned> power_failed_;
  tape::DriveArbiter& arbiter_;
};

class LaneOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LaneOracle, GrantsMatchTheSingleFifoReference) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  SchedConfig cfg = SchedConfig{}.with_enabled().with_aging_step(sim::minutes(2));
  for (const char* t : {"a", "b", "c"}) {
    cfg.with_tenant(t, TenantQuota{}.with_max_drives(
                           static_cast<unsigned>(rng.uniform_u64(1, kDrives - 1))));
  }
  const sim::Tick step = cfg.aging_step;

  sim::Simulation sim;
  sim::FlowNetwork net(sim);
  obs::Observer lane_obs{obs::ObsConfig{}};
  obs::Observer ref_obs{obs::ObsConfig{}};
  AdmissionScheduler lane_sched(sim, net, lane_obs, cfg, 0.0);
  AdmissionScheduler ref_sched(sim, net, ref_obs, cfg, 0.0);
  CountingArbiter lane_arb(lane_sched);
  CountingArbiter ref_arb(ref_sched);

  tape::LibraryConfig lcfg;
  lcfg.drive_count = kDrives;
  tape::TapeLibrary lib(sim, net, lcfg);
  lib.set_arbiter(&lane_arb);
  FifoReference ref(kDrives, ref_arb);

  std::vector<Grant> lane_grants;
  std::vector<bool> held(kDrives, false);
  std::uint64_t next_seq = 0;
  bool powered = true;
  // Grants arrive through the event queue; this delivers the ones due now.
  const auto deliver = [&] { sim.run_until(sim.now()); };

  for (int op = 0; op < kOps; ++op) {
    const double r = rng.uniform();
    std::vector<unsigned> holders;
    for (unsigned i = 0; i < kDrives; ++i) {
      if (held[i]) holders.push_back(i);
    }
    if (r < 0.38 || (r < 0.75 && holders.empty())) {
      tape::DriveRequest req{kTenants[rng.uniform_u64(0, 3)],
                             kClasses[rng.uniform_u64(0, 2)]};
      lib.acquire_drive(req, [&, seq = next_seq](tape::TapeDrive& d) {
        for (unsigned i = 0; i < kDrives; ++i) {
          if (&lib.drive(i) != &d) continue;
          held[i] = true;
          lane_grants.emplace_back(seq, i);
        }
      });
      req.enqueued = sim.now();
      req.seq = next_seq++;
      ref.acquire(req);
    } else if (r < 0.75) {
      const unsigned i = holders[rng.uniform_u64(0, holders.size() - 1)];
      held[i] = false;
      lib.release_drive(lib.drive(i));
      ref.release(i);
    } else if (r < 0.80) {
      const auto i = static_cast<unsigned>(rng.uniform_u64(0, kDrives - 1));
      lib.fail_drive(i);
      ref.fail(i);
    } else if (r < 0.85) {
      const auto i = static_cast<unsigned>(rng.uniform_u64(0, kDrives - 1));
      lib.repair_drive(i);
      ref.repair(i);
    } else if (r < 0.98) {
      // Up to four aging steps, so boosts both accrue and saturate.
      sim.run_until(sim.now() + rng.uniform_u64(0, 4 * step));
    } else if (powered) {
      lib.power_fail();
      ref.power_fail();
      held.assign(kDrives, false);
      powered = false;
    } else {
      lib.power_restore();
      ref.power_restore();
      powered = true;
    }
    deliver();
    ASSERT_EQ(lane_grants, ref.grants) << "seed " << seed << " op " << op;
    ASSERT_EQ(lib.drive_waiters(), ref.waiting()) << "seed " << seed << " op " << op;
  }

  const auto jumps = [](obs::Observer& o) {
    return o.metrics().counter("sched.drive_queue_jumps").value();
  };
  EXPECT_EQ(jumps(lane_obs), jumps(ref_obs));
  EXPECT_EQ(lane_arb.refusals, ref_arb.refusals);
  for (const std::string& t : kTenants) {
    EXPECT_EQ(lane_sched.tenant_drives(t), ref_sched.tenant_drives(t)) << t;
  }
  // A seed that never jumps the queue or hits a quota would check nothing
  // the plain FIFO does not.
  EXPECT_GT(jumps(lane_obs), 0u) << "seed " << seed;
  EXPECT_GT(lane_arb.refusals, 0u) << "seed " << seed;
  EXPECT_GT(lane_grants.size(), static_cast<std::size_t>(kOps / 4));
}

INSTANTIATE_TEST_SUITE_P(RandomOps, LaneOracle, ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace cpa::sched
