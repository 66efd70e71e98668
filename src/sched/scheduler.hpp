// Multi-tenant fair-share admission control.
//
// The archive's submit(JobSpec) used to launch every job immediately; the
// only arbitration anywhere was the tape library's drive FIFO, so one bulk
// campaign would bury interactive recalls (the Sec 6.2 story at job
// granularity).  The AdmissionScheduler puts an admission queue in front
// of job launch and teaches the two contended resources about tenants:
//
//   * admission: a bounded queue drained by strict QoS priority with
//     aging (starvation-free), weighted fair-share between tenants inside
//     a class (per-tenant virtual time, +1/weight per admission), under a
//     global running-job cap and per-tenant running caps;
//   * tape drives: the scheduler doubles as the library's DriveArbiter —
//     idle drives go to the highest-priority waiter whose tenant is below
//     its drive quota, so Interactive recalls overtake queued Bulk batches
//     at batch boundaries (a holder is never preempted mid-stream);
//   * PFS bandwidth: tenants capped below 1.0 of the trunk capacity get a
//     per-tenant shaper pool; their data flows carry one extra PathLeg
//     through it, and the flow network's max-min water-filling does the
//     rest (no kernel changes, so the differential oracle still holds).
//
// Everything is deterministic in virtual time: ties break by arrival
// sequence number, never by wall-clock or address order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/observer.hpp"
#include "sched/qos.hpp"
#include "simcore/flow_network.hpp"
#include "simcore/simulation.hpp"
#include "tape/library.hpp"

namespace cpa::sched {

/// Per-tenant resource limits.  Zero means "unlimited" for the integer
/// caps; pfs_bw_fraction >= 1 means "unshaped".
struct TenantQuota {
  /// Fair-share weight inside a QoS class (admissions are proportional).
  double weight = 1.0;
  /// Concurrent tape drives this tenant's work may hold (0 = unlimited).
  unsigned max_drives = 0;
  /// Concurrently running jobs (0 = unlimited, the global cap still binds).
  unsigned max_running_jobs = 0;
  /// Fraction of total PFS trunk bandwidth this tenant's flows may use.
  double pfs_bw_fraction = 1.0;

  TenantQuota& with_weight(double w) {
    weight = w;
    return *this;
  }
  TenantQuota& with_max_drives(unsigned n) {
    max_drives = n;
    return *this;
  }
  TenantQuota& with_max_running_jobs(unsigned n) {
    max_running_jobs = n;
    return *this;
  }
  TenantQuota& with_pfs_bw_fraction(double f) {
    pfs_bw_fraction = f;
    return *this;
  }
};

struct SchedConfig {
  /// Off by default: submit() launches immediately and the library stays
  /// FIFO, preserving the pre-scheduler system bit-for-bit.
  bool enabled = false;
  /// Bounded admission queue: submits beyond this are Rejected outright
  /// (backpressure the caller can see, instead of unbounded latency).
  std::size_t max_queue = 256;
  /// Global concurrently-running-jobs cap (admission slots).
  unsigned max_running_jobs = 8;
  /// A queued job gains one priority level per `aging_step` of waiting,
  /// up to `aging_max_boost` levels.  Since the widest class gap is
  /// base_priority(Interactive) - base_priority(Maintenance) = 2, the
  /// default boost of 3 guarantees any job outranks every fresher submit
  /// after aging_step * 3 of queueing — the starvation bound.
  sim::Tick aging_step = sim::minutes(2);
  unsigned aging_max_boost = 3;
  /// Quota for tenants not named in `tenants`.
  TenantQuota default_quota;
  std::map<std::string, TenantQuota> tenants;

  SchedConfig& with_enabled(bool on = true) {
    enabled = on;
    return *this;
  }
  SchedConfig& with_max_queue(std::size_t n) {
    max_queue = n;
    return *this;
  }
  SchedConfig& with_max_running_jobs(unsigned n) {
    max_running_jobs = n;
    return *this;
  }
  SchedConfig& with_aging_step(sim::Tick t) {
    aging_step = t;
    return *this;
  }
  SchedConfig& with_aging_max_boost(unsigned n) {
    aging_max_boost = n;
    return *this;
  }
  SchedConfig& with_default_quota(TenantQuota q) {
    default_quota = q;
    return *this;
  }
  SchedConfig& with_tenant(const std::string& name, TenantQuota q) {
    tenants[name] = q;
    return *this;
  }
};

/// The admission scheduler.  One per CotsParallelArchive (constructed only
/// when SchedConfig::enabled); also installed as the tape library's
/// DriveArbiter and consulted for per-tenant flow shaping.
class AdmissionScheduler final : public tape::DriveArbiter {
 public:
  /// `total_pfs_bps` anchors pfs_bw_fraction (the trunks' aggregate rate).
  AdmissionScheduler(sim::Simulation& sim, sim::FlowNetwork& net,
                     obs::Observer& obs, SchedConfig cfg, double total_pfs_bps);

  [[nodiscard]] const SchedConfig& config() const { return cfg_; }

  // --- job admission -------------------------------------------------------
  enum class Offer : std::uint8_t {
    Admitted,  // left the queue already; the launcher fires at now+0
    Queued,    // waiting for a slot / quota headroom
    Rejected,  // admission queue full (bounded backpressure)
  };
  /// Offers a job; Admitted/Queued jobs are launched (later) through the
  /// launcher callback — including those admitted on the spot, so launch
  /// timing is uniform.
  Offer offer(std::uint64_t job_id, const std::string& tenant, QosClass qos);
  /// A running job reached a terminal state: frees its slot and admits
  /// whatever became eligible.
  void job_finished(std::uint64_t job_id);
  /// Removes a still-queued job; false once admitted (or unknown).
  bool cancel(std::uint64_t job_id);
  void set_launcher(std::function<void(std::uint64_t)> fn) {
    launcher_ = std::move(fn);
  }

  // --- flow shaping --------------------------------------------------------
  /// Extra path legs a tenant's data flows must traverse: the tenant's
  /// shaper pool (created lazily), or empty when the tenant is unshaped.
  std::vector<sim::PathLeg> shaper_legs(const std::string& tenant);

  // --- DriveArbiter --------------------------------------------------------
  // Keeps the lane contract: quotas are per tenant, and a waiter's
  // priority is its class plus an aging boost that only grows.
  bool may_hold(const tape::DriveRequest& req) override;
  std::size_t pick_waiter(const std::vector<tape::DriveRequest>& waiters) override;
  void drive_granted(const tape::DriveRequest& req) override;
  void drive_released(const tape::DriveRequest& req) override;

  // --- inspection ----------------------------------------------------------
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  [[nodiscard]] unsigned running() const { return running_total_; }
  [[nodiscard]] const TenantQuota& quota(const std::string& tenant) const;
  /// Job ids in admission order (for determinism tests).
  [[nodiscard]] const std::vector<std::uint64_t>& admission_log() const {
    return admission_log_;
  }
  /// Longest queue wait among jobs admitted so far.
  [[nodiscard]] sim::Tick max_queue_wait() const { return max_queue_wait_; }
  /// After this much queueing a job outranks every fresher submit; its
  /// remaining wait is bounded by slot turnover, not by other arrivals.
  [[nodiscard]] sim::Tick aging_bound() const {
    return cfg_.aging_step * static_cast<sim::Tick>(cfg_.aging_max_boost);
  }
  [[nodiscard]] unsigned tenant_running(const std::string& tenant) const;
  [[nodiscard]] unsigned tenant_drives(const std::string& tenant) const;

 private:
  struct QueuedJob {
    std::uint64_t id = 0;
    std::string tenant;
    QosClass qos = QosClass::Bulk;
    sim::Tick enqueued = 0;
    std::uint64_t seq = 0;
  };
  struct TenantState {
    double vtime = 0.0;  // weighted admissions so far (fair-share clock)
    unsigned running = 0;
    unsigned drives = 0;
    sim::PoolId shaper{};
    bool shaper_made = false;
  };

  TenantState& state(const std::string& tenant) { return tenants_[tenant]; }
  /// Priority now: class base + aging boost for waiting since `enqueued`.
  [[nodiscard]] unsigned effective_priority(QosClass qos,
                                            sim::Tick enqueued) const;
  /// Admits eligible queued jobs (best first) while slots allow.
  void dispatch();
  void admit(QueuedJob job);

  sim::Simulation& sim_;
  sim::FlowNetwork& net_;
  obs::Observer& obs_;
  SchedConfig cfg_;
  double total_pfs_bps_ = 0.0;
  std::function<void(std::uint64_t)> launcher_;

  std::deque<QueuedJob> queue_;
  std::map<std::string, TenantState> tenants_;
  std::map<std::uint64_t, std::string> running_jobs_;  // id -> tenant
  unsigned running_total_ = 0;
  std::uint64_t next_seq_ = 0;
  /// System virtual time: the fair-share clock only moves forward, so a
  /// long-idle tenant re-enters at the current clock instead of replaying
  /// banked credit and starving everyone else.
  double vnow_ = 0.0;
  std::vector<std::uint64_t> admission_log_;
  sim::Tick max_queue_wait_ = 0;
};

}  // namespace cpa::sched
