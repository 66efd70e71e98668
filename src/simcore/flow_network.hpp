// Fluid-flow bandwidth model with max-min fair sharing.
//
// Every data movement in the simulated archive (client NIC -> 10GigE trunk
// -> NSD disk server, or client HBA -> FC SAN -> tape drive) is a *flow*
// that traverses a set of bandwidth *pools*.  Active flows share each pool
// max-min fairly: rates are computed by progressive filling (repeatedly
// saturate the tightest pool), which is the standard fluid approximation
// for TCP-like fair sharing used in storage/network simulators.
//
// Scheduling is incremental.  Pools keep membership indexes of the flows
// traversing them, so a mutation (flow start/finish/abort, capacity
// change) re-solves only the connected component of pools and flows it
// touches — a flow joining an idle pool never re-solves unrelated flows.
// Progress accounting is lazy: each flow carries a rate epoch and accrues
// bytes only when its own rate changes (or when it is queried), so
// quiescent flows cost nothing per event.  Pool busy time is integrated
// from idle/active transitions.
//
// Bookkeeping is map-free on the mutation path.  Flows live in a slot
// table (a vector plus a free list); pool members, leg back-pointers and
// completion predictions all name slots, and a FlowId -> slot hash index
// serves only the by-id public calls.  Each flow with a predicted finish
// holds exactly one entry in an indexed min-heap and knows its position
// there, so a re-prediction updates the entry in place and a finish,
// abort or stall removes it: the heap never holds a dead prediction.
//
// `recompute_rates_reference()` performs the full from-scratch
// water-filling; the incremental path is required (and differentially
// tested) to produce bit-identical rates.  What keeps them, and every
// virtual-time result, identical: a component is solved with its flows
// ascending by FlowId; the bottleneck pick is order-free (smallest share,
// ties to the lowest pool index); flows finishing on one tick complete in
// ascending FlowId order; and the single completion event is cancelled
// and re-armed on every mutation, whatever the heap's top.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simcore/probe.hpp"
#include "simcore/simulation.hpp"

namespace cpa::sim {

struct PoolId {
  std::uint32_t idx = std::uint32_t(-1);
  [[nodiscard]] bool valid() const { return idx != std::uint32_t(-1); }
  friend bool operator==(PoolId a, PoolId b) { return a.idx == b.idx; }
};

struct FlowId {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const { return id != 0; }
  friend bool operator==(FlowId a, FlowId b) { return a.id == b.id; }
};

/// One hop of a flow's path.  `weight` is the fraction of the flow's rate
/// this pool carries: a serial leg (NIC, trunk, SAN, tape drive) carries
/// the full rate (weight 1); a transfer striped over N disk servers
/// charges each server only rate/N (weight 1/N), which is what lets wide
/// stripes aggregate bandwidth.
struct PathLeg {
  PoolId pool;
  double weight = 1.0;
  PathLeg(PoolId p) : pool(p) {}  // NOLINT(google-explicit-constructor)
  PathLeg(PoolId p, double w) : pool(p), weight(w) {}
};

struct FlowStats {
  Tick started = 0;
  Tick finished = 0;
  double bytes = 0.0;
  [[nodiscard]] double mean_rate() const {
    const double dt = to_seconds(finished - started);
    return dt > 0.0 ? bytes / dt : 0.0;
  }
};

class FlowNetwork {
 public:
  static constexpr double kUnlimited = std::numeric_limits<double>::infinity();

  explicit FlowNetwork(Simulation& sim) : sim_(sim) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Registers a bandwidth pool with the given capacity in bytes/second.
  PoolId add_pool(std::string name, double capacity_bps);

  /// Changes a pool's capacity; rates of the flows in the pool's connected
  /// component are recomputed.  Capacity 0 stalls the component's flows
  /// (they keep their byte progress and resume when capacity returns).
  void set_pool_capacity(PoolId pool, double capacity_bps);

  [[nodiscard]] double pool_capacity(PoolId pool) const;
  [[nodiscard]] const std::string& pool_name(PoolId pool) const;
  /// Sum of current flow rates through the pool.
  [[nodiscard]] double pool_allocated(PoolId pool) const;
  [[nodiscard]] std::size_t pool_count() const { return pools_.size(); }
  /// Virtual seconds (up to `now()`) during which at least one flow
  /// traversed the pool — the utilization numerator behind the paper's
  /// "~75% bandwidth utilization from two 10GigE trunks".  A stalled but
  /// still-attached flow counts as busy (the pool is occupied).
  [[nodiscard]] double pool_busy_seconds(PoolId pool) const;

  /// Starts a flow of `bytes` through `path` (duplicate pools have their
  /// weights summed).  `on_complete` fires through the event queue when
  /// the last byte arrives.  `max_rate` caps the flow independently of
  /// pool contention.  A zero-byte flow completes at the current time.
  FlowId start_flow(std::vector<PathLeg> path, double bytes,
                    std::function<void(const FlowStats&)> on_complete,
                    double max_rate = kUnlimited);

  /// Aborts an in-progress flow; its completion callback never fires.
  /// This includes zero-byte flows whose completion is still queued.
  /// Returns false if the flow already completed or does not exist.
  bool abort_flow(FlowId id);

  /// Current fair-share rate of a flow (0 if unknown / completed).
  [[nodiscard]] double flow_rate(FlowId id) const;

  /// Bytes transferred so far by a flow (includes progress accrued since
  /// the flow's last rate change).
  [[nodiscard]] double flow_bytes_done(FlowId id) const;

  [[nodiscard]] std::size_t active_flows() const { return slot_of_.size(); }

  /// Ids of all in-progress flows, ascending (oracle/test accessor).
  [[nodiscard]] std::vector<FlowId> live_flow_ids() const;

  /// Full from-scratch progressive-filling water-filling over every active
  /// flow, without mutating any state.  Returns (flow id, rate) pairs in
  /// ascending id order.  This is the differential-test oracle: the
  /// incrementally maintained `flow_rate()` values must equal these
  /// *exactly* (bit for bit) after every mutation.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>>
  recompute_rates_reference() const;

  /// Attaches a flow-lifecycle probe (nullptr detaches).
  void set_probe(FlowProbe* probe) { probe_ = probe; }

 private:
  static constexpr std::uint32_t kNone = std::uint32_t(-1);

  /// Membership entry: which flow slot, and which of its legs, sits in a
  /// pool.  The leg backpointer makes removal O(1) via swap-erase.
  struct PoolMember {
    std::uint32_t slot;
    std::uint32_t leg;
  };
  struct Pool {
    std::string name;
    double capacity;
    double busy_seconds = 0.0;  // integrated over active intervals
    Tick busy_since = 0;        // valid while members is non-empty
    std::vector<PoolMember> members;
  };
  struct Leg {
    std::uint32_t pool;
    double weight;
    std::uint32_t member_pos = 0;  // index into Pool::members
  };
  /// One slot of the flow table; `id == 0` marks a free slot, whose `legs`
  /// keep their capacity for the next flow.
  struct Flow {
    std::uint64_t id = 0;
    std::vector<Leg> legs;  // deduplicated (pool, weight) pairs
    double bytes_total = 0.0;
    double bytes_done = 0.0;  // as of `rate_epoch`
    double rate = 0.0;
    double max_rate = 0.0;
    Tick started = 0;
    Tick rate_epoch = 0;             // when bytes_done/rate were last synced
    std::uint32_t heap_pos = kNone;  // index into finish_heap_, if predicted
    std::uint64_t mark = 0;          // component-BFS visit stamp
    std::function<void(const FlowStats&)> on_complete;
  };
  /// A flow named both ways: `id` orders it, `slot` finds it.
  struct SlotRef {
    std::uint64_t id;
    std::uint32_t slot;
    friend bool operator<(SlotRef a, SlotRef b) { return a.id < b.id; }
  };
  /// Water-filling working item; `legs` aliases the flow's leg list.
  struct WfFlow {
    const std::vector<Leg>* legs;
    double cap;
    double rate = 0.0;
  };
  /// Completion-heap entry: a flow's predicted finish tick.
  struct Finish {
    Tick at;
    std::uint32_t slot;
  };

  /// Takes a free slot (or grows the table) for flow `id`.
  std::uint32_t acquire_slot(std::uint64_t id);
  /// Returns a detached, unpredicted flow's slot to the free list.
  void release_slot(std::uint32_t slot);
  /// Accrues the flow's bytes up to `now` and stamps its rate epoch.
  void sync_flow(Flow& f, Tick now);
  /// Inserts/removes the flow in its legs' pool membership indexes,
  /// integrating pool busy time on idle/active transitions.
  void attach_flow(std::uint32_t slot);
  void detach_flow(const Flow& f);
  /// Sets the flow's completion prediction from its bytes and rate.
  /// Stalled flows (rate 0, bytes remaining) get none.
  void predict_completion(std::uint32_t slot, Tick now);
  /// Indexed min-heap on Finish::at.  `heap_place` inserts the slot's entry
  /// or moves it to the new tick; `heap_erase` removes it if present.
  void heap_place(std::uint32_t slot, Tick at);
  void heap_erase(std::uint32_t slot);
  /// Sifts the entry at `pos` up or down to its place after it changed.
  void heap_fix(std::uint32_t pos);
  /// Stores `e` at `pos` and records the position in its flow.
  void heap_set(std::uint32_t pos, Finish e);
  /// Re-solves the connected components reachable from the seed pools
  /// (plus, for start_flow, the seed flow slot).  Flows in re-solved
  /// components have their bytes synced, rates reassigned, and completions
  /// re-predicted.
  void recompute_components(const std::vector<std::uint32_t>& seed_pools,
                            std::uint32_t seed_slot);
  /// Canonical per-component progressive filling.  `unfixed` must be in
  /// ascending flow-id order, which fixes the floating-point operation
  /// sequence shared with the reference solver; `comp_pools` may come in
  /// any order.
  static void solve_component(std::vector<WfFlow*>& unfixed,
                              const std::vector<std::uint32_t>& comp_pools,
                              std::vector<double>& residual,
                              std::vector<double>& weight_sum);
  /// Cancels and reschedules the single sim event for the earliest
  /// predicted completion.
  void schedule_next_completion();
  /// Fires from the completion event: completes every due flow, cascading
  /// through same-tick completions revealed by the recompute.
  void on_completion_event();

  Simulation& sim_;
  FlowProbe* probe_ = nullptr;
  std::vector<Pool> pools_;
  std::vector<Flow> flows_;  // slot table
  std::vector<std::uint32_t> free_slots_;
  /// FlowId -> slot, for the by-id public calls only.
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_;
  /// Zero-byte flows whose queued completion can still be aborted.
  std::map<std::uint64_t, Simulation::EventId> zero_flows_;
  std::uint64_t next_flow_id_ = 1;
  std::uint64_t mark_epoch_ = 0;
  std::vector<Finish> finish_heap_;
  Simulation::EventId completion_event_{};
  // Recompute scratch (member buffers so the steady path never allocates).
  std::vector<std::uint32_t> seed_pools_;
  std::vector<double> residual_;
  std::vector<double> weight_sum_;
  std::vector<std::uint64_t> pool_mark_;
  std::vector<std::uint32_t> comp_pools_;
  std::vector<SlotRef> comp_flows_;
  std::vector<WfFlow> wf_items_;
  std::vector<WfFlow*> wf_unfixed_;
  std::vector<SlotRef> due_;
};

}  // namespace cpa::sim
