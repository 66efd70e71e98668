#include "tape/library.hpp"

#include <algorithm>
#include <cassert>

namespace cpa::tape {

TapeLibrary::TapeLibrary(sim::Simulation& sim, sim::FlowNetwork& net,
                         LibraryConfig cfg)
    : sim_(sim), cfg_(cfg), robot_(sim, "robot", 1) {
  assert(cfg_.drive_count > 0);
  for (unsigned i = 0; i < cfg_.drive_count; ++i) {
    drives_.push_back(std::make_unique<TapeDrive>(
        sim, net, "drive" + std::to_string(i), cfg_.timings));
    drive_busy_.push_back(false);
    drive_claim_.push_back(0);
    drive_holder_.push_back(DriveRequest{});
    drive_unloading_.push_back(false);
  }
}

void TapeLibrary::fail_drive(unsigned i) {
  assert(i < drives_.size());
  drives_[i]->set_failed(true);
}

void TapeLibrary::repair_drive(unsigned i) {
  assert(i < drives_.size());
  drives_[i]->set_failed(false);
  // The drive is usable again: hand it to a waiter if idle.
  pump_idle_drives();
}

void TapeLibrary::power_fail() {
  power_failed_drives_.clear();
  for (unsigned i = 0; i < drives_.size(); ++i) {
    if (!drives_[i]->failed()) {
      // set_failed aborts the in-flight flow and fails queued ops fast
      // into continuations the crash has already declared dead.
      drives_[i]->set_failed(true);
      power_failed_drives_.push_back(i);
    }
    if (drive_busy_[i]) {
      // The holder died with the host and will never release_drive().
      arbiter_->drive_released(drive_holder_[i]);
      drive_busy_[i] = false;
    }
    drive_claim_[i] = 0;
    drive_holder_[i] = DriveRequest{};
  }
  for (Lane& lane : lanes_) lane.waiters.clear();
  waiting_ = 0;
  checked_out_.clear();
}

void TapeLibrary::power_restore() {
  for (const unsigned i : power_failed_drives_) drives_[i]->set_failed(false);
  power_failed_drives_.clear();
  pump_idle_drives();
}

void TapeLibrary::grant(std::size_t i, Waiter w) {
  drive_busy_[i] = true;
  drive_holder_[i] = w.req;
  arbiter_->drive_granted(w.req);
  TapeDrive* d = drives_[i].get();
  sim_.after(0, [fn = std::move(w.fn), d] { fn(*d); });
}

void TapeLibrary::pump_idle_drives() {
  for (std::size_t i = 0; i < drives_.size() && waiting_ > 0; ++i) {
    if (drive_busy_[i] || drives_[i]->failed()) continue;
    const std::size_t pick = pick_lane();
    // Every waiter is over quota: drives stay idle until a release
    // frees headroom (quotas only shrink holdings on release).
    if (pick == lanes_.size()) return;
    std::deque<Waiter>& q = lanes_[pick].waiters;
    Waiter w = std::move(q.front());
    q.pop_front();
    --waiting_;
    grant(i, std::move(w));
  }
}

std::size_t TapeLibrary::pick_lane() {
  std::vector<std::size_t> order;  // non-empty lanes, oldest head first
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    if (!lanes_[l].waiters.empty()) order.push_back(l);
  }
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return lanes_[a].waiters.front().req.seq < lanes_[b].waiters.front().req.seq;
  });
  std::vector<DriveRequest> heads;
  heads.reserve(order.size());
  for (const std::size_t l : order) heads.push_back(lanes_[l].waiters.front().req);
  const std::size_t pick = arbiter_->pick_waiter(heads);
  if (pick == DriveArbiter::kNone) return lanes_.size();
  assert(pick < order.size());
  return order[pick];
}

void TapeLibrary::acquire_drive(std::function<void(TapeDrive&)> on_grant) {
  acquire_drive(DriveRequest{}, std::move(on_grant));
}

void TapeLibrary::acquire_drive(DriveRequest req,
                                std::function<void(TapeDrive&)> on_grant) {
  req.enqueued = sim_.now();
  req.seq = next_request_seq_++;
  for (std::size_t i = 0; i < drives_.size(); ++i) {
    if (drive_busy_[i] || drives_[i]->failed()) continue;
    if (!arbiter_->may_hold(req)) break;  // over quota
    grant(i, Waiter{std::move(req), std::move(on_grant)});
    return;
  }
  auto lane = std::find_if(lanes_.begin(), lanes_.end(), [&](const Lane& l) {
    return l.qos == req.qos && l.tenant == req.tenant;
  });
  if (lane == lanes_.end()) {
    lane = lanes_.insert(lanes_.end(), Lane{req.tenant, req.qos, {}});
  }
  lane->waiters.push_back(Waiter{std::move(req), std::move(on_grant)});
  ++waiting_;
}

void TapeLibrary::release_drive(TapeDrive& drive) {
  for (std::size_t i = 0; i < drives_.size(); ++i) {
    if (drives_[i].get() == &drive) {
      assert(drive_busy_[i]);
      drive_claim_[i] = 0;  // the departing batch no longer needs a volume
      drive_busy_[i] = false;
      arbiter_->drive_released(drive_holder_[i]);
      drive_holder_[i] = DriveRequest{};
      // A failed drive must not be handed to a waiter; it re-enters the
      // rotation via repair_drive().  pump skips it.
      pump_idle_drives();
      return;
    }
  }
  assert(false && "release of a drive not in this library");
}

unsigned TapeLibrary::idle_drives() const {
  unsigned n = 0;
  for (std::size_t i = 0; i < drive_busy_.size(); ++i) {
    if (!drive_busy_[i] && !drives_[i]->failed()) ++n;
  }
  return n;
}

Cartridge& TapeLibrary::new_cartridge(const std::string& group) {
  Cartridge& cart = cartridges_.emplace_back(cartridges_.size() + 1,
                                             cfg_.cartridge_capacity, group);
  next_in_group_.push_back(0);
  const auto [g, created] =
      groups_.try_emplace(cart.colocation_group(), Group{cart.id(), 0});
  if (!created) {
    CartridgeId tail = g->second.first;
    while (next_in_group_[tail - 1] != 0) tail = next_in_group_[tail - 1];
    next_in_group_[tail - 1] = cart.id();
  }
  return cart;
}

Cartridge* TapeLibrary::cartridge(CartridgeId id) {
  if (id == 0 || id > cartridges_.size()) return nullptr;
  return &cartridges_[id - 1];
}

Cartridge& TapeLibrary::open_cartridge_for(const std::string& group,
                                           std::uint64_t bytes) {
  const auto g = groups_.find(group);
  if (g != groups_.end() && g->second.open != 0) {
    Cartridge& cart = cartridges_[g->second.open - 1];
    if (cart.fits(bytes)) return cart;
  }
  Cartridge& fresh = new_cartridge(group);
  groups_.find(group)->second.open = fresh.id();
  return fresh;
}

Cartridge& TapeLibrary::checkout_cartridge(const std::string& group,
                                           std::uint64_t bytes,
                                           CartridgeId exclude) {
  const auto g = groups_.find(group);
  for (CartridgeId id = g == groups_.end() ? 0 : g->second.first; id != 0;
       id = next_in_group_[id - 1]) {
    if (id == exclude) continue;
    if (checked_out_.count(id) != 0) continue;
    Cartridge& cart = cartridges_[id - 1];
    if (!cart.fits(bytes)) continue;
    // Oldest id first: keeps appends clustered on partially filled volumes
    // so co-location actually groups data.
    checked_out_.insert(id);
    return cart;
  }
  Cartridge& fresh = new_cartridge(group);
  checked_out_.insert(fresh.id());
  return fresh;
}

void TapeLibrary::checkin_cartridge(Cartridge& cart) {
  checked_out_.erase(cart.id());
}

bool TapeLibrary::volume_claimed_elsewhere(const Cartridge& cart,
                                           const TapeDrive& self) const {
  for (std::size_t i = 0; i < drives_.size(); ++i) {
    if (drives_[i].get() == &self) continue;
    if (drive_busy_[i] && drive_claim_[i] == cart.id()) return true;
  }
  return false;
}

void TapeLibrary::relinquish_claim(const TapeDrive& drive) {
  drive_claim_[index_of(drive)] = 0;
}

void TapeLibrary::set_claim(const TapeDrive& drive, CartridgeId cart) {
  drive_claim_[index_of(drive)] = cart;
}

std::size_t TapeLibrary::index_of(const TapeDrive& drive) const {
  for (std::size_t i = 0; i < drives_.size(); ++i) {
    if (drives_[i].get() == &drive) return i;
  }
  assert(false && "drive not in this library");
  return 0;
}

void TapeLibrary::unload(TapeDrive& drive, std::function<void()> done) {
  const std::size_t i = index_of(drive);
  drive_unloading_[i] = true;
  drive.unmount([this, i, done = std::move(done)] {
    drive_unloading_[i] = false;
    done();
  });
}

bool TapeLibrary::mount_conflict(const Cartridge& cart,
                                 const TapeDrive& into) const {
  for (std::size_t i = 0; i < drives_.size(); ++i) {
    const TapeDrive* d = drives_[i].get();
    if (d == &into || d->mounted() != &cart) continue;
    // Mid-operation: yanking the volume would corrupt the holder's stream.
    if (d->busy()) return true;
    // Idle but its batch still wants the volume (claims expire on
    // release_drive or when the holder claims a different cartridge).
    if (drive_busy_[i] && drive_claim_[i] == cart.id()) return true;
  }
  return false;
}

void TapeLibrary::ensure_mounted(TapeDrive& drive, Cartridge& cart,
                                 std::function<void()> done) {
  if (!done) done = [] {};
  // Record intent first: this drive's batch now needs `cart`, and any
  // earlier claim by the same drive is stale.
  set_claim(drive, cart.id());
  // A volume another drive's exchange is unloading from this one is
  // leaving: it has to come back through the robot like any other.
  if (drive.mounted() == &cart && !drive_unloading_[index_of(drive)]) {
    sim_.after(0, std::move(done));
    return;
  }
  // A volume is physically in one place: while its current holder is
  // working or still claims it, wait rather than steal.
  if (mount_conflict(cart, drive)) {
    sim_.after(sim::secs(5), [this, &drive, &cart, done = std::move(done)]() mutable {
      ensure_mounted(drive, cart, std::move(done));
    });
    return;
  }
  // Robot serializes the physical exchange.
  robot_.acquire([this, &drive, &cart, done = std::move(done)]() mutable {
    // The world may have changed while the robot was busy elsewhere:
    // re-check before touching the holder's drive.
    if (mount_conflict(cart, drive)) {
      robot_.release();
      sim_.after(sim::secs(5), [this, &drive, &cart, done = std::move(done)]() mutable {
        ensure_mounted(drive, cart, std::move(done));
      });
      return;
    }
    auto do_mount = [this, &drive, &cart, done = std::move(done)]() mutable {
      drive.mount(&cart, [this, done = std::move(done)] {
        robot_.release();
        done();
      });
    };
    // If the volume idles in some other drive (left mounted after a prior
    // batch), pull it from there first.
    TapeDrive* holder = nullptr;
    for (auto& d : drives_) {
      if (d->mounted() == &cart && d.get() != &drive) {
        holder = d.get();
        break;
      }
    }
    auto clear_own = [this, &drive, do_mount = std::move(do_mount)]() mutable {
      if (drive.mounted() != nullptr) {
        unload(drive, [do_mount = std::move(do_mount)]() mutable { do_mount(); });
      } else {
        do_mount();
      }
    };
    if (holder != nullptr) {
      unload(*holder, [clear_own = std::move(clear_own)]() mutable { clear_own(); });
    } else {
      clear_own();
    }
  });
}

void TapeLibrary::dismount(TapeDrive& drive, std::function<void()> done) {
  if (!done) done = [] {};
  if (drive.mounted() == nullptr) {
    sim_.after(0, std::move(done));
    return;
  }
  robot_.acquire([this, &drive, done = std::move(done)]() mutable {
    unload(drive, [this, done = std::move(done)] {
      robot_.release();
      done();
    });
  });
}

DriveStats TapeLibrary::aggregate_stats() const {
  DriveStats total;
  for (const auto& d : drives_) {
    const DriveStats& s = d->stats();
    total.mounts += s.mounts;
    total.unmounts += s.unmounts;
    total.label_verifies += s.label_verifies;
    total.handoffs += s.handoffs;
    total.seeks += s.seeks;
    total.backhitches += s.backhitches;
    total.write_txns += s.write_txns;
    total.read_txns += s.read_txns;
    total.bytes_written += s.bytes_written;
    total.bytes_read += s.bytes_read;
    total.mount_time += s.mount_time;
    total.seek_time += s.seek_time;
    total.backhitch_time += s.backhitch_time;
    total.transfer_time += s.transfer_time;
  }
  return total;
}

}  // namespace cpa::tape
