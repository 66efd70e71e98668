#include "sched/scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace cpa::sched {

AdmissionScheduler::AdmissionScheduler(sim::Simulation& sim,
                                       sim::FlowNetwork& net,
                                       obs::Observer& obs, SchedConfig cfg,
                                       double total_pfs_bps)
    : sim_(sim),
      net_(net),
      obs_(obs),
      cfg_(std::move(cfg)),
      total_pfs_bps_(total_pfs_bps) {
  if (cfg_.max_running_jobs == 0) cfg_.max_running_jobs = 1;
}

const TenantQuota& AdmissionScheduler::quota(const std::string& tenant) const {
  const auto it = cfg_.tenants.find(tenant);
  return it == cfg_.tenants.end() ? cfg_.default_quota : it->second;
}

unsigned AdmissionScheduler::effective_priority(QosClass qos,
                                                sim::Tick enqueued) const {
  const sim::Tick waited = sim_.now() > enqueued ? sim_.now() - enqueued : 0;
  const sim::Tick step = cfg_.aging_step > 0 ? cfg_.aging_step : 1;
  const auto boost = static_cast<unsigned>(
      std::min<sim::Tick>(waited / step, cfg_.aging_max_boost));
  return base_priority(qos) + boost;
}

AdmissionScheduler::Offer AdmissionScheduler::offer(std::uint64_t job_id,
                                                    const std::string& tenant,
                                                    QosClass qos) {
  obs_.metrics().counter("sched.submitted").inc();
  if (queue_.size() >= cfg_.max_queue) {
    obs_.metrics().counter("sched.rejected").inc();
    return Offer::Rejected;
  }
  QueuedJob j;
  j.id = job_id;
  j.tenant = tenant;
  j.qos = qos;
  j.enqueued = sim_.now();
  j.seq = next_seq_++;
  queue_.push_back(std::move(j));
  dispatch();
  obs_.metrics().gauge("sched.queued").set(static_cast<double>(queue_.size()));
  for (const QueuedJob& q : queue_) {
    if (q.id == job_id) return Offer::Queued;
  }
  return Offer::Admitted;
}

void AdmissionScheduler::dispatch() {
  while (running_total_ < cfg_.max_running_jobs && !queue_.empty()) {
    // Best eligible job: highest effective priority (class + aging), then
    // lowest tenant fair-share clock, then arrival order.  Tenants at
    // their running cap are skipped, never head-block.
    std::size_t best = static_cast<std::size_t>(-1);
    unsigned best_prio = 0;
    double best_vtime = 0.0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const QueuedJob& q = queue_[i];
      const TenantQuota& quo = quota(q.tenant);
      const TenantState& ts = tenants_[q.tenant];
      if (quo.max_running_jobs != 0 && ts.running >= quo.max_running_jobs) {
        continue;
      }
      const unsigned prio = effective_priority(q.qos, q.enqueued);
      const double vt = ts.vtime;
      // Queue order is arrival order, so "first seen wins ties" is the
      // seq tiebreak.
      if (best == static_cast<std::size_t>(-1) || prio > best_prio ||
          (prio == best_prio && vt < best_vtime)) {
        best = i;
        best_prio = prio;
        best_vtime = vt;
      }
    }
    if (best == static_cast<std::size_t>(-1)) return;
    QueuedJob job = std::move(queue_[best]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
    admit(std::move(job));
  }
}

void AdmissionScheduler::admit(QueuedJob job) {
  TenantState& ts = state(job.tenant);
  const TenantQuota& quo = quota(job.tenant);
  ++ts.running;
  ++running_total_;
  // Weighted fair share: each admission advances the tenant's clock by
  // 1/weight; re-entering tenants start at the system clock (no banked
  // credit from idle periods).
  ts.vtime = std::max(ts.vtime, vnow_);
  vnow_ = ts.vtime;
  ts.vtime += 1.0 / std::max(quo.weight, 1e-9);
  running_jobs_[job.id] = job.tenant;
  admission_log_.push_back(job.id);

  const sim::Tick waited = sim_.now() - job.enqueued;
  max_queue_wait_ = std::max(max_queue_wait_, waited);
  obs_.metrics().counter("sched.admitted").inc();
  obs_.metrics()
      .series("sched.queue_wait_seconds")
      .add(sim::to_seconds(waited));
  obs_.metrics().gauge("sched.queued").set(static_cast<double>(queue_.size()));
  // Launch through the event queue: admission decisions stay reentrancy-
  // free (job_finished -> dispatch -> launcher -> submit would otherwise
  // nest arbitrarily deep).
  if (launcher_) {
    sim_.after(0, [this, id = job.id] { launcher_(id); });
  }
}

void AdmissionScheduler::job_finished(std::uint64_t job_id) {
  const auto it = running_jobs_.find(job_id);
  if (it == running_jobs_.end()) return;  // never admitted (or double call)
  TenantState& ts = state(it->second);
  if (ts.running > 0) --ts.running;
  if (running_total_ > 0) --running_total_;
  running_jobs_.erase(it);
  dispatch();
}

bool AdmissionScheduler::cancel(std::uint64_t job_id) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id == job_id) {
      queue_.erase(it);
      obs_.metrics().counter("sched.cancelled").inc();
      obs_.metrics().gauge("sched.queued").set(
          static_cast<double>(queue_.size()));
      return true;
    }
  }
  return false;
}

std::vector<sim::PathLeg> AdmissionScheduler::shaper_legs(
    const std::string& tenant) {
  const TenantQuota& quo = quota(tenant);
  if (quo.pfs_bw_fraction >= 1.0 || quo.pfs_bw_fraction <= 0.0 ||
      total_pfs_bps_ <= 0.0) {
    return {};
  }
  TenantState& ts = state(tenant);
  if (!ts.shaper_made) {
    ts.shaper = net_.add_pool("sched.bw." + tenant,
                              quo.pfs_bw_fraction * total_pfs_bps_);
    ts.shaper_made = true;
  }
  return {sim::PathLeg(ts.shaper)};
}

bool AdmissionScheduler::may_hold(const tape::DriveRequest& req) {
  if (req.tenant.empty()) return true;  // unmanaged internal work
  const TenantQuota& quo = quota(req.tenant);
  if (quo.max_drives == 0) return true;
  return tenants_[req.tenant].drives < quo.max_drives;
}

std::size_t AdmissionScheduler::pick_waiter(
    const std::vector<tape::DriveRequest>& waiters) {
  std::size_t best = kNone;
  unsigned best_prio = 0;
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    const tape::DriveRequest& w = waiters[i];
    if (!may_hold(w)) continue;
    const unsigned prio = effective_priority(w.qos, w.enqueued);
    // waiters is oldest first, so the first hit at a given priority is
    // the oldest request in that priority band.
    if (best == kNone || prio > best_prio) {
      best = i;
      best_prio = prio;
    }
  }
  if (best != kNone && best != 0) {
    // An Interactive (or aged) request overtook the longest waiter — the
    // batch-boundary preemption the Sec 6.2 fix needs.
    obs_.metrics().counter("sched.drive_queue_jumps").inc();
  }
  return best;
}

void AdmissionScheduler::drive_granted(const tape::DriveRequest& req) {
  obs_.metrics().counter("sched.drive_grants").inc();
  if (!req.tenant.empty()) ++tenants_[req.tenant].drives;
}

void AdmissionScheduler::drive_released(const tape::DriveRequest& req) {
  if (req.tenant.empty()) return;
  TenantState& ts = tenants_[req.tenant];
  if (ts.drives > 0) --ts.drives;
}

unsigned AdmissionScheduler::tenant_running(const std::string& tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.running;
}

unsigned AdmissionScheduler::tenant_drives(const std::string& tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.drives;
}

}  // namespace cpa::sched
