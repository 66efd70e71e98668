#include "simcore/flow_network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cpa::sim {
namespace {
// Bytes below this are considered "transferred" when deciding completion;
// integer-tick rounding can leave sub-nanosecond residues.
constexpr double kByteEps = 1e-6;
// Completion predictions beyond this many virtual seconds (> 100 years)
// are treated as "never": the flow stays attached and is re-predicted
// when a mutation changes its rate.  Keeps the seconds -> Tick cast in
// range for pathological byte/rate combinations.
constexpr double kNeverSeconds = 4.0e9;
}  // namespace

PoolId FlowNetwork::add_pool(std::string name, double capacity_bps) {
  assert(capacity_bps >= 0.0);
  pools_.push_back(Pool{std::move(name), capacity_bps, 0.0, 0, {}});
  return PoolId{static_cast<std::uint32_t>(pools_.size() - 1)};
}

void FlowNetwork::set_pool_capacity(PoolId pool, double capacity_bps) {
  assert(pool.valid() && pool.idx < pools_.size());
  pools_[pool.idx].capacity = capacity_bps;
  if (pools_[pool.idx].members.empty()) return;
  seed_pools_.clear();
  seed_pools_.push_back(pool.idx);
  recompute_components(seed_pools_, kNone);
  schedule_next_completion();
}

double FlowNetwork::pool_capacity(PoolId pool) const {
  assert(pool.valid() && pool.idx < pools_.size());
  return pools_[pool.idx].capacity;
}

const std::string& FlowNetwork::pool_name(PoolId pool) const {
  assert(pool.valid() && pool.idx < pools_.size());
  return pools_[pool.idx].name;
}

double FlowNetwork::pool_busy_seconds(PoolId pool) const {
  assert(pool.valid() && pool.idx < pools_.size());
  const Pool& p = pools_[pool.idx];
  double busy = p.busy_seconds;
  if (!p.members.empty()) busy += to_seconds(sim_.now() - p.busy_since);
  return busy;
}

double FlowNetwork::pool_allocated(PoolId pool) const {
  assert(pool.valid() && pool.idx < pools_.size());
  double sum = 0.0;
  for (const PoolMember& m : pools_[pool.idx].members) {
    const Flow& f = flows_[m.slot];
    sum += f.rate * f.legs[m.leg].weight;
  }
  return sum;
}

FlowId FlowNetwork::start_flow(std::vector<PathLeg> path, double bytes,
                               std::function<void(const FlowStats&)> on_complete,
                               double max_rate) {
  assert(bytes >= 0.0);
  assert(max_rate > 0.0);
  const std::uint64_t id = next_flow_id_++;
  const Tick now = sim_.now();

  if (probe_ != nullptr) probe_->on_flow_started(id, bytes, now);

  if (bytes <= kByteEps) {
    // Degenerate flow: complete immediately (via the event queue), but
    // keep the queued completion cancellable through abort_flow.
    FlowStats st{now, now, bytes};
    const Simulation::EventId ev =
        sim_.after(0, [this, id, cb = std::move(on_complete), st] {
          zero_flows_.erase(id);
          if (probe_ != nullptr) probe_->on_flow_completed(id, st);
          if (cb) cb(st);
        });
    zero_flows_.emplace(id, ev);
    return FlowId{id};
  }

  const std::uint32_t slot = acquire_slot(id);
  Flow& f = flows_[slot];
  for (const PathLeg& leg : path) {
    assert(leg.pool.valid() && leg.pool.idx < pools_.size());
    assert(leg.weight > 0.0);
    bool merged = false;
    for (Leg& l : f.legs) {
      if (l.pool == leg.pool.idx) {
        l.weight += leg.weight;
        merged = true;
        break;
      }
    }
    if (!merged) f.legs.push_back(Leg{leg.pool.idx, leg.weight, 0});
  }
  f.bytes_total = bytes;
  f.max_rate = max_rate;
  f.started = now;
  f.rate_epoch = now;
  f.on_complete = std::move(on_complete);

  attach_flow(slot);
  seed_pools_.clear();
  recompute_components(seed_pools_, slot);
  schedule_next_completion();
  return FlowId{id};
}

bool FlowNetwork::abort_flow(FlowId id) {
  const auto zit = zero_flows_.find(id.id);
  if (zit != zero_flows_.end()) {
    sim_.cancel(zit->second);
    zero_flows_.erase(zit);
    if (probe_ != nullptr) probe_->on_flow_aborted(id.id, sim_.now());
    return true;
  }
  const auto it = slot_of_.find(id.id);
  if (it == slot_of_.end()) return false;
  const std::uint32_t slot = it->second;
  const Flow& f = flows_[slot];
  detach_flow(f);
  heap_erase(slot);
  seed_pools_.clear();
  for (const Leg& leg : f.legs) seed_pools_.push_back(leg.pool);
  release_slot(slot);
  recompute_components(seed_pools_, kNone);
  schedule_next_completion();
  if (probe_ != nullptr) probe_->on_flow_aborted(id.id, sim_.now());
  return true;
}

double FlowNetwork::flow_rate(FlowId id) const {
  const auto it = slot_of_.find(id.id);
  return it == slot_of_.end() ? 0.0 : flows_[it->second].rate;
}

double FlowNetwork::flow_bytes_done(FlowId id) const {
  const auto it = slot_of_.find(id.id);
  if (it == slot_of_.end()) return 0.0;
  const Flow& f = flows_[it->second];
  const double dt = to_seconds(sim_.now() - f.rate_epoch);
  return std::min(f.bytes_total, f.bytes_done + f.rate * dt);
}

std::vector<FlowId> FlowNetwork::live_flow_ids() const {
  std::vector<FlowId> out;
  out.reserve(slot_of_.size());
  for (const Flow& f : flows_) {
    if (f.id != 0) out.push_back(FlowId{f.id});
  }
  std::sort(out.begin(), out.end(),
            [](FlowId a, FlowId b) { return a.id < b.id; });
  return out;
}

std::uint32_t FlowNetwork::acquire_slot(std::uint64_t id) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Flow& f = flows_[slot];
  f.id = id;
  f.legs.clear();
  f.bytes_done = 0.0;
  f.rate = 0.0;
  f.mark = 0;
  slot_of_.emplace(id, slot);
  return slot;
}

void FlowNetwork::release_slot(std::uint32_t slot) {
  Flow& f = flows_[slot];
  assert(f.heap_pos == kNone);
  slot_of_.erase(f.id);
  f.id = 0;
  f.on_complete = nullptr;
  free_slots_.push_back(slot);
}

void FlowNetwork::sync_flow(Flow& f, Tick now) {
  if (now == f.rate_epoch) return;
  const double dt = to_seconds(now - f.rate_epoch);
  f.bytes_done = std::min(f.bytes_total, f.bytes_done + f.rate * dt);
  f.rate_epoch = now;
}

void FlowNetwork::attach_flow(std::uint32_t slot) {
  const Tick now = sim_.now();
  std::vector<Leg>& legs = flows_[slot].legs;
  for (std::uint32_t i = 0; i < legs.size(); ++i) {
    Pool& p = pools_[legs[i].pool];
    if (p.members.empty()) p.busy_since = now;  // idle -> active transition
    legs[i].member_pos = static_cast<std::uint32_t>(p.members.size());
    p.members.push_back(PoolMember{slot, i});
  }
}

void FlowNetwork::detach_flow(const Flow& f) {
  const Tick now = sim_.now();
  for (const Leg& leg : f.legs) {
    Pool& p = pools_[leg.pool];
    const std::uint32_t pos = leg.member_pos;
    const PoolMember moved = p.members.back();
    p.members.pop_back();
    if (pos < p.members.size()) {
      p.members[pos] = moved;
      flows_[moved.slot].legs[moved.leg].member_pos = pos;
    }
    if (p.members.empty()) {
      p.busy_seconds += to_seconds(now - p.busy_since);  // active -> idle
    }
  }
}

void FlowNetwork::predict_completion(std::uint32_t slot, Tick now) {
  const Flow& f = flows_[slot];
  const double remaining = f.bytes_total - f.bytes_done;
  Tick at;
  if (remaining <= kByteEps) {
    at = now;
  } else if (f.rate > 0.0 && remaining / f.rate < kNeverSeconds) {
    // Round up to the next tick so the flow is certainly finished when
    // the event fires.
    const double s = remaining / f.rate;
    at = now + static_cast<Tick>(std::ceil(s * static_cast<double>(kTicksPerSec)));
  } else {
    heap_erase(slot);  // stalled: re-predicted when a mutation restores its rate
    return;
  }
  heap_place(slot, at);
}

void FlowNetwork::heap_set(std::uint32_t pos, Finish e) {
  finish_heap_[pos] = e;
  flows_[e.slot].heap_pos = pos;
}

void FlowNetwork::heap_fix(std::uint32_t pos) {
  const Finish e = finish_heap_[pos];
  while (pos > 0 && e.at < finish_heap_[(pos - 1) / 2].at) {
    heap_set(pos, finish_heap_[(pos - 1) / 2]);
    pos = (pos - 1) / 2;
  }
  const auto n = static_cast<std::uint32_t>(finish_heap_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && finish_heap_[child + 1].at < finish_heap_[child].at) {
      ++child;
    }
    if (e.at <= finish_heap_[child].at) break;
    heap_set(pos, finish_heap_[child]);
    pos = child;
  }
  heap_set(pos, e);
}

void FlowNetwork::heap_place(std::uint32_t slot, Tick at) {
  std::uint32_t pos = flows_[slot].heap_pos;
  if (pos == kNone) {
    pos = static_cast<std::uint32_t>(finish_heap_.size());
    finish_heap_.push_back(Finish{at, slot});
  } else {
    finish_heap_[pos].at = at;
  }
  heap_fix(pos);
}

void FlowNetwork::heap_erase(std::uint32_t slot) {
  const std::uint32_t pos = flows_[slot].heap_pos;
  if (pos == kNone) return;
  flows_[slot].heap_pos = kNone;
  const Finish last = finish_heap_.back();
  finish_heap_.pop_back();
  if (pos == finish_heap_.size()) return;
  finish_heap_[pos] = last;
  heap_fix(pos);
}

void FlowNetwork::solve_component(std::vector<WfFlow*>& unfixed,
                                  const std::vector<std::uint32_t>& comp_pools,
                                  std::vector<double>& residual,
                                  std::vector<double>& weight_sum) {
  // Progressive filling (water-filling) with per-flow caps and per-leg
  // weights.  All unfixed flows' rates rise together; pool p saturates at
  // rate r = residual_p / W_p, where W_p is the total weight of unfixed
  // flows through it:
  //   1. the component bottleneck share is min_p residual_p / W_p;
  //   2. any unfixed flow whose cap is below that share is fixed at its
  //      cap first (it cannot use its full fair share anywhere);
  //   3. otherwise all unfixed flows through the bottleneck pool are fixed
  //      at the bottleneck share.
  // Each round fixes at least one flow, so this is O(F * (F + P)) in the
  // *component* size.  `unfixed` arrives in ascending flow-id order, which
  // fixes the order of every floating-point sum; the bottleneck pick does
  // not depend on the order of `comp_pools`.  Together with this function
  // being shared by the incremental and reference paths, that makes both
  // produce bit-identical floating-point rates.
  while (!unfixed.empty()) {
    for (const std::uint32_t p : comp_pools) weight_sum[p] = 0.0;
    for (const WfFlow* f : unfixed) {
      for (const Leg& leg : *f->legs) weight_sum[leg.pool] += leg.weight;
    }

    // Smallest share, ties to the lowest pool index: what a scan in
    // ascending pool order with strict `<` picks.
    double share = std::numeric_limits<double>::infinity();
    std::uint32_t bottleneck = kNone;
    for (const std::uint32_t p : comp_pools) {
      if (weight_sum[p] <= 0.0) continue;
      const double s = std::max(residual[p], 0.0) / weight_sum[p];
      if (s < share || (s == share && bottleneck != kNone && p < bottleneck)) {
        share = s;
        bottleneck = p;
      }
    }

    auto fix_flow = [&](WfFlow* f, double rate) {
      f->rate = rate;
      for (const Leg& leg : *f->legs) residual[leg.pool] -= rate * leg.weight;
    };

    // Flows that traverse no pools at all are limited only by their cap.
    // (The archive always routes through at least one pool, but the model
    // stays well-defined without.)
    if (bottleneck == kNone) {
      for (WfFlow* f : unfixed) {
        f->rate = std::isinf(f->cap) ? 0.0 : f->cap;
      }
      unfixed.clear();
      break;
    }

    // Step 2: cap-limited flows first.
    bool fixed_any_capped = false;
    for (std::size_t i = 0; i < unfixed.size();) {
      WfFlow* f = unfixed[i];
      if (f->cap <= share) {
        fix_flow(f, f->cap);
        unfixed[i] = unfixed.back();
        unfixed.pop_back();
        fixed_any_capped = true;
      } else {
        ++i;
      }
    }
    if (fixed_any_capped) continue;

    // Step 3: saturate the bottleneck pool.
    for (std::size_t i = 0; i < unfixed.size();) {
      WfFlow* f = unfixed[i];
      bool through = false;
      for (const Leg& leg : *f->legs) {
        if (leg.pool == bottleneck) {
          through = true;
          break;
        }
      }
      if (through) {
        fix_flow(f, share);
        unfixed[i] = unfixed.back();
        unfixed.pop_back();
      } else {
        ++i;
      }
    }
  }
}

void FlowNetwork::recompute_components(
    const std::vector<std::uint32_t>& seed_pools, std::uint32_t seed_slot) {
  const Tick now = sim_.now();
  ++mark_epoch_;
  if (pool_mark_.size() < pools_.size()) pool_mark_.resize(pools_.size(), 0);
  if (residual_.size() < pools_.size()) {
    residual_.resize(pools_.size());
    weight_sum_.resize(pools_.size());
  }
  std::size_t touched = 0;

  // Adds the pool's not yet visited members to the component.
  const auto collect_members = [&](std::uint32_t pool) {
    for (const PoolMember& m : pools_[pool].members) {
      Flow& mf = flows_[m.slot];
      if (mf.mark != mark_epoch_) {
        mf.mark = mark_epoch_;
        comp_flows_.push_back(SlotRef{mf.id, m.slot});
      }
    }
  };

  // Expands the connected component reachable from a seed flow or pool
  // (whichever is already collected in comp_flows_/comp_pools_), then
  // re-solves it canonically: flows ascending by id.
  const auto expand_and_solve = [&] {
    for (std::size_t i = 0; i < comp_flows_.size(); ++i) {
      for (const Leg& leg : flows_[comp_flows_[i].slot].legs) {
        if (pool_mark_[leg.pool] == mark_epoch_) continue;
        pool_mark_[leg.pool] = mark_epoch_;
        comp_pools_.push_back(leg.pool);
        collect_members(leg.pool);
      }
    }
    if (comp_flows_.empty()) return;
    std::sort(comp_flows_.begin(), comp_flows_.end());

    for (const std::uint32_t p : comp_pools_) {
      residual_[p] = pools_[p].capacity;
      weight_sum_[p] = 0.0;
    }
    wf_items_.clear();
    wf_unfixed_.clear();
    for (const SlotRef& c : comp_flows_) {
      Flow& f = flows_[c.slot];
      sync_flow(f, now);  // accrue bytes at the outgoing rate
      wf_items_.push_back(WfFlow{&f.legs, f.max_rate, 0.0});
    }
    for (WfFlow& item : wf_items_) wf_unfixed_.push_back(&item);
    solve_component(wf_unfixed_, comp_pools_, residual_, weight_sum_);
    for (std::size_t i = 0; i < comp_flows_.size(); ++i) {
      const std::uint32_t slot = comp_flows_[i].slot;
      flows_[slot].rate = wf_items_[i].rate;
      predict_completion(slot, now);
    }
    touched += comp_flows_.size();
  };

  if (seed_slot != kNone) {
    comp_flows_.clear();
    comp_pools_.clear();
    Flow& f = flows_[seed_slot];
    f.mark = mark_epoch_;
    comp_flows_.push_back(SlotRef{f.id, seed_slot});
    expand_and_solve();
  }
  for (const std::uint32_t p : seed_pools) {
    if (pool_mark_[p] == mark_epoch_ || pools_[p].members.empty()) continue;
    comp_flows_.clear();
    comp_pools_.clear();
    pool_mark_[p] = mark_epoch_;
    comp_pools_.push_back(p);
    collect_members(p);
    expand_and_solve();
  }

  if (probe_ != nullptr) probe_->on_rates_recomputed(touched);
}

std::vector<std::pair<std::uint64_t, double>>
FlowNetwork::recompute_rates_reference() const {
  std::vector<std::pair<std::uint64_t, double>> out;
  out.reserve(slot_of_.size());
  if (slot_of_.empty()) return out;

  // Mirrors recompute_components() with local scratch: same component
  // discovery, same canonical flow order, same solver — so the floating
  // point sequences match the incremental path operation for operation.
  // Pools go to the solver sorted here and in discovery order there,
  // which checks that the bottleneck pick ignores their order.
  std::vector<SlotRef> by_id;
  by_id.reserve(slot_of_.size());
  for (std::uint32_t slot = 0; slot < flows_.size(); ++slot) {
    if (flows_[slot].id != 0) by_id.push_back(SlotRef{flows_[slot].id, slot});
  }
  std::sort(by_id.begin(), by_id.end());

  std::vector<char> pool_seen(pools_.size(), 0);
  std::vector<char> flow_seen(flows_.size(), 0);
  std::vector<double> residual(pools_.size(), 0.0);
  std::vector<double> weight_sum(pools_.size(), 0.0);
  std::vector<std::uint32_t> comp_pools;
  std::vector<SlotRef> comp;
  std::vector<WfFlow> items;
  std::vector<WfFlow*> unfixed;

  for (const SlotRef& first : by_id) {
    if (flow_seen[first.slot] != 0) continue;
    flow_seen[first.slot] = 1;
    comp_pools.clear();
    comp.clear();
    comp.push_back(first);
    for (std::size_t i = 0; i < comp.size(); ++i) {
      for (const Leg& leg : flows_[comp[i].slot].legs) {
        if (pool_seen[leg.pool] != 0) continue;
        pool_seen[leg.pool] = 1;
        comp_pools.push_back(leg.pool);
        for (const PoolMember& m : pools_[leg.pool].members) {
          if (flow_seen[m.slot] != 0) continue;
          flow_seen[m.slot] = 1;
          comp.push_back(SlotRef{flows_[m.slot].id, m.slot});
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    std::sort(comp_pools.begin(), comp_pools.end());

    for (const std::uint32_t p : comp_pools) {
      residual[p] = pools_[p].capacity;
      weight_sum[p] = 0.0;
    }
    items.clear();
    unfixed.clear();
    items.reserve(comp.size());
    for (const SlotRef& c : comp) {
      const Flow& cf = flows_[c.slot];
      items.push_back(WfFlow{&cf.legs, cf.max_rate, 0.0});
    }
    for (WfFlow& item : items) unfixed.push_back(&item);
    solve_component(unfixed, comp_pools, residual, weight_sum);
    for (std::size_t i = 0; i < comp.size(); ++i) {
      out.emplace_back(comp[i].id, items[i].rate);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FlowNetwork::schedule_next_completion() {
  if (completion_event_.valid()) {
    sim_.cancel(completion_event_);
    completion_event_ = {};
  }
  if (finish_heap_.empty()) return;
  completion_event_ =
      sim_.at(finish_heap_.front().at, [this] { on_completion_event(); });
}

void FlowNetwork::on_completion_event() {
  completion_event_ = {};
  const Tick now = sim_.now();

  // Collect finished flows first (callbacks may start new flows), looping
  // because freeing a finished flow's bandwidth can reveal further
  // same-tick completions in the recomputed component.
  struct Done {
    std::uint64_t id;
    FlowStats st;
    std::function<void(const FlowStats&)> cb;
  };
  std::vector<Done> done;
  for (;;) {
    due_.clear();
    while (!finish_heap_.empty() && finish_heap_.front().at <= now) {
      const std::uint32_t slot = finish_heap_.front().slot;
      due_.push_back(SlotRef{flows_[slot].id, slot});
      heap_erase(slot);
    }
    if (due_.empty()) break;
    std::sort(due_.begin(), due_.end());  // complete in ascending-id order
    seed_pools_.clear();
    bool finished_any = false;
    for (const SlotRef& d : due_) {
      Flow& f = flows_[d.slot];
      sync_flow(f, now);
      if (f.bytes_total - f.bytes_done <= kByteEps) {
        detach_flow(f);
        for (const Leg& leg : f.legs) seed_pools_.push_back(leg.pool);
        done.push_back(Done{d.id, FlowStats{f.started, now, f.bytes_total},
                            std::move(f.on_complete)});
        release_slot(d.slot);
        finished_any = true;
      } else {
        // Integer-tick rounding fired us a hair early: re-aim.
        predict_completion(d.slot, now);
      }
    }
    if (finished_any) recompute_components(seed_pools_, kNone);
  }
  schedule_next_completion();

  for (Done& d : done) {
    if (probe_ != nullptr) probe_->on_flow_completed(d.id, d.st);
    if (d.cb) d.cb(d.st);
  }
}

}  // namespace cpa::sim
