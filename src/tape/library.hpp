// The automated tape library: drives, a robot arm, and a cartridge pool.
//
// Matches the paper's plant: "twenty-four LTO-4 tape drives connected to
// the SAN" (Sec 4.3.1).  The library hands out idle drives FIFO, serializes
// robot motion for mounts/unmounts, and manages scratch cartridges with
// TSM-style co-location groups (Sec 4.1: "ILM stgpool and co-location
// features in the archive back-end") so one group's objects cluster on few
// cartridges.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sched/qos.hpp"
#include "simcore/hash.hpp"
#include "simcore/resource.hpp"
#include "tape/drive.hpp"

namespace cpa::tape {

struct LibraryConfig {
  unsigned drive_count = 24;
  std::uint64_t cartridge_capacity = 800ULL * kGB;  // LTO-4 native
  TapeTimings timings;
};

/// Who is asking for a drive, and how urgently.  The library stamps
/// `enqueued`/`seq` at acquire time; callers fill tenant and class.  The
/// default (empty tenant, Interactive) marks unmanaged internal work.
struct DriveRequest {
  std::string tenant;
  sched::QosClass qos = sched::QosClass::Interactive;
  sim::Tick enqueued = 0;   // stamped by the library at acquire time
  std::uint64_t seq = 0;    // library-wide arrival order (stamped)
};

/// Pluggable drive-grant policy.  This base class is the library's
/// default, plain FIFO: every request may hold a drive, the longest
/// waiter gets the next one, and grants and releases are not tracked.  The
/// admission scheduler overrides it to enforce per-tenant drive quotas and
/// to let Interactive recalls overtake queued Bulk batches at batch
/// boundaries.
///
/// The library queues waiters in one FIFO lane per (tenant, class) and
/// offers `pick_waiter` only the lane heads.  That loses no candidate as
/// long as an arbiter keeps this contract:
///   * `may_hold` depends only on the request's tenant;
///   * a request's effective priority is a function of its tenant, its
///     class and how long it has waited, and never falls as the wait grows.
/// A lane's head has then waited longest, so it is both the lane's best
/// and its oldest candidate, and a pick over the heads (oldest first, the
/// first best wins) is the pick a scan of every waiter in arrival order
/// would make.
class DriveArbiter {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  virtual ~DriveArbiter() = default;
  /// May this request take an idle drive right now (quota check)?
  virtual bool may_hold(const DriveRequest& /*req*/) { return true; }
  /// Which waiter gets the next free drive; kNone leaves it idle (every
  /// waiter is over its quota).  `waiters` holds each non-empty lane's
  /// head, oldest first, so index 0 is the longest-waiting request.
  virtual std::size_t pick_waiter(const std::vector<DriveRequest>& /*waiters*/) {
    return 0;
  }
  virtual void drive_granted(const DriveRequest& /*req*/) {}
  virtual void drive_released(const DriveRequest& /*req*/) {}
};

class TapeLibrary {
 public:
  TapeLibrary(sim::Simulation& sim, sim::FlowNetwork& net, LibraryConfig cfg);
  // Not copyable or movable: `arbiter_` may point at `fifo_`.
  TapeLibrary(const TapeLibrary&) = delete;
  TapeLibrary& operator=(const TapeLibrary&) = delete;

  [[nodiscard]] const LibraryConfig& config() const { return cfg_; }
  [[nodiscard]] unsigned drive_count() const { return static_cast<unsigned>(drives_.size()); }
  [[nodiscard]] TapeDrive& drive(unsigned i) { return *drives_[i]; }

  // --- drive allocation ----------------------------------------------------
  /// Grants an idle drive (FIFO, or per the arbiter); the callback
  /// receives the drive.  The unclassified overload is equivalent to an
  /// unmanaged DriveRequest.
  void acquire_drive(std::function<void(TapeDrive&)> on_grant);
  void acquire_drive(DriveRequest req, std::function<void(TapeDrive&)> on_grant);
  void release_drive(TapeDrive& drive);
  [[nodiscard]] unsigned idle_drives() const;
  [[nodiscard]] std::size_t drive_waiters() const { return waiting_; }
  /// Installs the drive-grant policy; nullptr restores plain FIFO.  The
  /// arbiter must outlive the library or be cleared before destruction.
  void set_arbiter(DriveArbiter* arbiter) {
    arbiter_ = arbiter != nullptr ? arbiter : &fifo_;
  }

  // --- fault injection -------------------------------------------------------
  /// Fails drive `i`: aborts its in-flight transfer (see
  /// TapeDrive::set_failed) and takes it out of the allocation rotation.
  /// The current holder keeps the drive until it release_drive()s.
  void fail_drive(unsigned i);
  /// Repairs drive `i`; if it is idle a queued waiter gets it at once.
  void repair_drive(unsigned i);
  [[nodiscard]] bool drive_failed(unsigned i) const {
    return drives_[i]->failed();
  }

  /// Whole-library power loss: every healthy drive drops its in-flight
  /// transfer (set_failed), queued waiters/claims/holders/checkouts are
  /// wiped (their owners died with the host), and per-holder arbiter
  /// releases keep quota accounting balanced.  Cartridge contents and
  /// mounted volumes survive — tape is physical.  power_restore() repairs
  /// exactly the drives this call failed, so a fault-plan drive failure
  /// that was already open stays failed across the crash.
  void power_fail();
  void power_restore();

  // --- cartridges ------------------------------------------------------------
  Cartridge& new_cartridge(const std::string& colocation_group = "");
  [[nodiscard]] Cartridge* cartridge(CartridgeId id);
  /// The open append-target cartridge for a co-location group with at
  /// least `bytes` free; allocates a fresh scratch cartridge if needed.
  Cartridge& open_cartridge_for(const std::string& group, std::uint64_t bytes);
  [[nodiscard]] std::size_t cartridge_count() const { return cartridges_.size(); }

  /// Visits every cartridge (ascending id), including any `fn` allocates.
  void for_each_cartridge(const std::function<void(Cartridge&)>& fn) {
    for (std::size_t i = 0; i < cartridges_.size(); ++i) fn(cartridges_[i]);
  }

  /// Checks out a cartridge of `group` with at least `bytes` free for
  /// exclusive append access (one writer per volume, as TSM enforces).
  /// Prefers partially filled volumes, oldest id first; allocates scratch
  /// when none fit.  Visits only `group`'s own volumes.  `exclude` skips
  /// one volume (reclamation must not pick its source).
  Cartridge& checkout_cartridge(const std::string& group, std::uint64_t bytes,
                                CartridgeId exclude = 0);
  void checkin_cartridge(Cartridge& cart);
  [[nodiscard]] bool is_checked_out(CartridgeId id) const {
    return checked_out_.count(id) != 0;
  }

  // --- robot-mediated mount management ---------------------------------------
  /// Ensures `drive` has `cart` mounted, unmounting any other cartridge
  /// first, and calls back once `cart` sits in `drive` to stay: a volume
  /// the library is unloading from `drive` counts as leaving, not
  /// mounted.  Robot motions serialize across the library.
  void ensure_mounted(TapeDrive& drive, Cartridge& cart, std::function<void()> done);
  /// Unmounts whatever the drive holds (no-op when empty).
  void dismount(TapeDrive& drive, std::function<void()> done);
  /// True while another *acquired* drive has claimed `cart` through
  /// ensure_mounted(): its batch still needs the volume even when the
  /// drive idles between reads.  Claims die with release_drive(), so a
  /// volume left mounted in a released drive is fair game.
  [[nodiscard]] bool volume_claimed_elsewhere(const Cartridge& cart,
                                              const TapeDrive& self) const;
  /// Drops `drive`'s claim so a waiting peer may take the volume.  Used
  /// by background scans that yield to foreground batches; the claim is
  /// re-established by the next ensure_mounted() on the drive.
  void relinquish_claim(const TapeDrive& drive);

  /// Sums stats over all drives.
  [[nodiscard]] DriveStats aggregate_stats() const;

  /// Propagates the observer to every drive.
  void set_observer(obs::Observer& obs) {
    for (auto& d : drives_) d->set_observer(obs);
  }

 private:
  sim::Simulation& sim_;
  LibraryConfig cfg_;
  /// True when `cart` may not be moved into `into` right now: it sits in
  /// a drive that is mid-operation, or an acquired drive still claims it.
  [[nodiscard]] bool mount_conflict(const Cartridge& cart,
                                    const TapeDrive& into) const;
  void set_claim(const TapeDrive& drive, CartridgeId cart);
  [[nodiscard]] std::size_t index_of(const TapeDrive& drive) const;
  /// Unmounts `drive`'s volume for a robot exchange.  The drive counts as
  /// unloading until the unmount completes.
  void unload(TapeDrive& drive, std::function<void()> done);

  struct Waiter {
    DriveRequest req;
    std::function<void(TapeDrive&)> fn;
  };
  /// The waiters of one (tenant, class), in arrival order.
  struct Lane {
    std::string tenant;
    sched::QosClass qos;
    std::deque<Waiter> waiters;
  };
  /// Marks drive `i` busy for `w` and delivers it through the event queue.
  void grant(std::size_t i, Waiter w);
  /// Hands idle drives to waiters until either runs out (or the arbiter
  /// declines every waiter).  Called after any release/repair.
  void pump_idle_drives();
  /// The lane whose head gets the next free drive, the arbiter's pick
  /// among the heads (FIFO: the oldest); lanes_.size() when the arbiter
  /// declines them all.  Needs a waiter.
  std::size_t pick_lane();

  /// A co-location group's volumes, chained oldest first from `first`
  /// through next_in_group_, and its open_cartridge_for target (0: none).
  struct Group {
    CartridgeId first = 0;
    CartridgeId open = 0;
  };
  struct GroupHash {
    std::size_t operator()(std::string_view name) const noexcept {
      return sim::fnv1a64(name);
    }
  };

  std::vector<std::unique_ptr<TapeDrive>> drives_;
  std::vector<bool> drive_busy_;
  std::vector<CartridgeId> drive_claim_;  // 0: none; parallel to drives_
  std::vector<DriveRequest> drive_holder_;  // who holds it; parallel to drives_
  std::vector<bool> drive_unloading_;       // unload() under way; parallel to drives_
  std::vector<Lane> lanes_;  // created on first use, never removed
  std::size_t waiting_ = 0;  // waiters over all lanes
  DriveArbiter fifo_;
  DriveArbiter* arbiter_ = &fifo_;
  std::uint64_t next_request_seq_ = 0;
  sim::Resource robot_;
  // Cartridge `id` is cartridges_[id - 1]: ids are dense and never reused,
  // and a deque never moves an element, so references handed out and the
  // group-name views below stay valid.
  std::deque<Cartridge> cartridges_;
  std::vector<CartridgeId> next_in_group_;  // by id - 1; 0 ends the chain
  // Keyed by a view of the name its first volume carries, so the record
  // adds no copy of the name.
  std::unordered_map<std::string_view, Group, GroupHash> groups_;
  std::set<CartridgeId> checked_out_;
  std::vector<unsigned> power_failed_drives_;  // repaired by power_restore()
};

}  // namespace cpa::tape
