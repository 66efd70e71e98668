#include "archive/system.hpp"

#include <algorithm>

namespace cpa::archive {

SystemConfig SystemConfig::roadrunner() {
  SystemConfig cfg;

  cfg.scratch_fs.name = "panfs";
  cfg.scratch_fs.pools = {pfs::PoolConfig{"scratch", 0, 16, false}};

  cfg.archive_fs.name = "gpfs";
  cfg.archive_fs.pools = {
      // "100 TB of fast FC4 disk" where all files land first.
      pfs::PoolConfig{"fast", 100ULL * kTB, 10, false},
      // "a 'slow' disk pool used to store small files".
      pfs::PoolConfig{"slow", 100ULL * kTB, 4, false},
      // GPFS 3.2 external pool: the tape side.
      pfs::PoolConfig{"tape-external", 0, 1, true},
  };

  cfg.cluster.fta_nodes = 10;
  cfg.cluster.trunk_count = 2;

  cfg.tape.drive_count = 24;

  cfg.hsm.lan_free = true;
  cfg.hsm.server_count = 1;

  return cfg;
}

SystemConfig SystemConfig::small() {
  SystemConfig cfg = roadrunner();
  cfg.scratch_fs.pools = {pfs::PoolConfig{"scratch", 0, 4, false}};
  cfg.archive_fs.pools = {
      pfs::PoolConfig{"fast", 10ULL * kTB, 4, false},
      pfs::PoolConfig{"slow", 10ULL * kTB, 2, false},
      pfs::PoolConfig{"tape-external", 0, 1, true},
  };
  cfg.cluster.fta_nodes = 4;
  cfg.tape.drive_count = 4;
  cfg.pftool.num_workers = 4;
  cfg.pftool.num_readdir = 1;
  cfg.pftool.num_tapeprocs = 2;
  return cfg;
}

CotsParallelArchive::CotsParallelArchive(SystemConfig cfg)
    : cfg_(std::move(cfg)), obs_(std::make_unique<obs::Observer>(cfg_.obs)) {
  sim_.set_probe(obs_.get());
  net_.set_probe(obs_.get());
  scratch_ = std::make_unique<pfs::FileSystem>(sim_, cfg_.scratch_fs);
  archive_ = std::make_unique<pfs::FileSystem>(sim_, cfg_.archive_fs);
  cluster_ = std::make_unique<cluster::Cluster>(net_, cfg_.cluster, *archive_,
                                                *scratch_);
  library_ = std::make_unique<tape::TapeLibrary>(sim_, net_, cfg_.tape);
  hsm_ = std::make_unique<hsm::HsmSystem>(sim_, net_, *archive_, *library_,
                                          cluster_->fabric(), cfg_.hsm);
  fuse_ = std::make_unique<fusefs::ArchiveFuse>(*archive_, cfg_.fuse);
  trashcan_ = std::make_unique<Trashcan>(*archive_, *hsm_);
  library_->set_observer(*obs_);
  hsm_->set_observer(*obs_);
  fuse_->set_observer(*obs_);
  policy_.set_observer(*obs_);
  if (cfg_.sched.enabled) {
    // Per-tenant PFS bandwidth fractions are carved out of the trunk
    // aggregate: the scheduler adds one shaper pool per capped tenant.
    const double total_pfs_bps = static_cast<double>(cfg_.cluster.trunk_count) *
                                 cfg_.cluster.trunk_bps;
    sched_ = std::make_unique<sched::AdmissionScheduler>(
        sim_, net_, *obs_, cfg_.sched, total_pfs_bps);
    sched_->set_launcher([this](std::uint64_t id) { launch_admitted(id); });
    library_->set_arbiter(sched_.get());
    hsm_->set_scheduler(sched_.get());
  }
  if (cfg_.wal.enabled) {
    durable_ = std::make_unique<wal::Durable>(sim_, cfg_.wal, *obs_);
    for (unsigned i = 0; i < hsm_->server_count(); ++i) {
      durable_->attach_server(i, hsm_->server(i));
    }
    durable_->attach_fixity(hsm_->fixity_db());
    durable_->attach_journal(journal_);
    hsm_->set_durability_barrier(
        [this](std::function<void()> k) { durable_->sync(std::move(k)); });
  }
  wire_fault_targets();
  injector_.arm(cfg_.fault_plan);
}

void CotsParallelArchive::power_fail(std::uint64_t seed) {
  obs_->metrics().counter("archive.power_fails").inc();
  obs_->trace().instant(obs::Component::Fault, "power", "power_fail",
                        sim_.now());
  // Frontend first: a finished pftool job no-ops on every entry point, so
  // the HSM abort closures firing next (which can call back into tape
  // procs) land harmlessly.  Jobs whose attempt already finished but
  // whose durability ack was still in flight are parked too — the sync
  // waiter died with the WAL.
  for (const std::shared_ptr<detail::JobRecord>& rec : jobs_) {
    if (rec->state != JobState::Running) continue;
    rec->crash_parked = true;
    if (rec->active != nullptr) rec->active->abort_crashed();
  }
  // Backend: abort in-flight HSM operations, then wipe volatile metadata.
  hsm_->power_fail();
  // Tape plant: drives drop transfers; waiters/claims/checkouts die with
  // their owners.
  library_->power_fail();
  // Tear the un-fsynced log tail at a seed-derived offset.
  if (durable_ != nullptr) durable_->crash(seed);
  // The in-memory restart journal dies with the host; recovery replays it
  // from the WAL.
  journal_.clear();
}

void CotsParallelArchive::recover(
    std::function<void(const RecoveryReport&)> done) {
  RecoveryReport rep;
  if (durable_ != nullptr) rep.wal = durable_->recover();
  rep.reconcile = hsm_->reconcile_crash();
  library_->power_restore();
  obs_->metrics().counter("archive.recoveries").inc();
  const obs::SpanId span = obs_->trace().complete(
      obs::Component::Fault, "power", "recover", sim_.now(),
      sim_.now() + rep.wal.duration);
  obs_->trace().arg_num(span, "replayed", rep.wal.replayed_records);
  for (const std::shared_ptr<detail::JobRecord>& rec : jobs_) {
    if (rec->crash_parked) ++rep.jobs_relaunched;
  }
  // Service resumes only after the recovery scan's virtual time.
  sim_.after(rep.wal.duration, [this, rep, done = std::move(done)] {
    for (const std::shared_ptr<detail::JobRecord>& rec : jobs_) {
      if (!rec->crash_parked) continue;
      rec->crash_parked = false;
      // A crash relaunch is the plant's fault: give the attempt back so
      // the spec's retry budget is not charged.
      --rec->attempts;
      launch_attempt(rec);
    }
    if (done) done(rep);
  });
}

void CotsParallelArchive::wire_fault_targets() {
  fault::FaultTargets t;
  t.tape_drive = [this](std::uint64_t idx, bool down) {
    if (idx >= library_->drive_count()) return;
    const auto i = static_cast<unsigned>(idx);
    if (down) {
      library_->fail_drive(i);
    } else {
      library_->repair_drive(i);
    }
  };
  t.tape_media = [this](std::uint64_t cart, bool down) {
    // Cartridges appear as data lands on tape; a fault against one that
    // does not exist (yet) is a no-op.
    if (tape::Cartridge* c = library_->cartridge(cart)) c->set_damaged(down);
  };
  t.tape_corrupt = [this](std::uint64_t cart, std::uint64_t segments,
                          std::uint64_t seed) {
    // Silent bit-rot: flips fingerprints only, so reads keep succeeding
    // and the damage is visible to fixity verification alone.
    if (tape::Cartridge* c = library_->cartridge(cart)) {
      c->corrupt_random_segments(segments, seed);
    }
  };
  t.cluster_node = [this](std::uint64_t node, bool down) {
    if (node >= cfg_.cluster.fta_nodes) return;
    cluster_->set_node_down(static_cast<cluster::NodeId>(node), down);
  };
  t.hsm_server = [this](std::uint64_t server, sim::Tick outage) {
    if (server >= hsm_->server_count()) return;
    hsm_->server(static_cast<unsigned>(server)).restart(outage);
  };
  t.server_power = [this](std::uint64_t, std::uint64_t seed, bool down) {
    // Whole-plant power loss: the index is accepted for grammar symmetry
    // but there is one host.  repair= schedules recover().
    if (down) {
      power_fail(seed);
    } else {
      recover();
    }
  };
  t.net_pool = [this](const std::string& pool, double factor, bool down) {
    for (std::size_t i = 0; i < net_.pool_count(); ++i) {
      const sim::PoolId id{static_cast<std::uint32_t>(i)};
      if (net_.pool_name(id) != pool) continue;
      if (down) {
        // Remember the healthy capacity once; overlapping windows keep
        // the first-saved value so repair restores the true baseline.
        saved_pool_caps_.emplace(pool, net_.pool_capacity(id));
        net_.set_pool_capacity(id, saved_pool_caps_[pool] * factor);
      } else if (auto it = saved_pool_caps_.find(pool);
                 it != saved_pool_caps_.end()) {
        net_.set_pool_capacity(id, it->second);
        saved_pool_caps_.erase(it);
      }
      return;
    }
  };
  injector_.set_targets(std::move(t));
}

void CotsParallelArchive::snapshot_net_metrics() {
  obs::MetricsRegistry& m = obs_->metrics();
  double trunk_busy = 0.0;
  for (std::size_t i = 0; i < net_.pool_count(); ++i) {
    const sim::PoolId id{static_cast<std::uint32_t>(i)};
    const std::string& name = net_.pool_name(id);
    const double busy = net_.pool_busy_seconds(id);
    m.gauge("net.pool_busy_seconds." + name).set(busy);
    if (name.rfind("trunk", 0) == 0) trunk_busy += busy;
  }
  m.gauge("net.trunk_busy_seconds").set(trunk_busy);
}

pftool::sim::JobEnv CotsParallelArchive::job_env(bool restore_direction) {
  pftool::sim::JobEnv env;
  env.sim = &sim_;
  env.net = &net_;
  env.cluster = cluster_.get();
  if (restore_direction) {
    env.src_fs = archive_.get();
    env.dst_fs = scratch_.get();
  } else {
    env.src_fs = scratch_.get();
    env.dst_fs = archive_.get();
  }
  env.fuse = restore_direction ? nullptr : fuse_.get();
  env.hsm = hsm_.get();
  env.journal = &journal_;
  env.obs = obs_.get();
  if (!restore_direction) {
    env.placement = [this](const std::string& dst_path) {
      return policy_.placement_pool(dst_path, sim_.now());
    };
  }
  return env;
}

JobHandle CotsParallelArchive::submit(JobSpec spec) {
  reap_finished();
  auto rec = std::make_shared<detail::JobRecord>();
  rec->id = next_job_id_++;
  rec->sim = &sim_;
  rec->cfg = spec.config.has_value() ? *spec.config : cfg_.pftool;
  if (spec.restart_override.has_value()) {
    rec->cfg.restartable = *spec.restart_override;
  }
  if (spec.verify_override.has_value()) {
    rec->cfg.verify_fixity = *spec.verify_override;
  }
  rec->spec = std::move(spec);
  rec->submitted_at = sim_.now();
  jobs_.push_back(rec);
  if (sched_ == nullptr) {
    launch_attempt(rec);
    return JobHandle(rec);
  }
  const sched::AdmissionScheduler::Offer offer =
      sched_->offer(rec->id, rec->spec.tenant, rec->spec.qos);
  switch (offer) {
    case sched::AdmissionScheduler::Offer::Rejected:
      // Backpressure: the bounded queue is full.  Terminal immediately;
      // on_done hooks registered on the handle fire right away.
      rec->state = JobState::Rejected;
      break;
    case sched::AdmissionScheduler::Offer::Queued:
    case sched::AdmissionScheduler::Offer::Admitted: {
      // Even an immediately-admitted job goes through Queued: the launch
      // itself is deferred one event so admission never reenters submit().
      rec->state = JobState::Queued;
      std::weak_ptr<detail::JobRecord> weak = rec;
      rec->cancel_hook = [this, weak] {
        auto sp = weak.lock();
        if (!sp || sp->state != JobState::Queued) return;
        if (!sched_->cancel(sp->id)) return;  // already leaving the queue
        sp->state = JobState::Cancelled;
        sp->cancel_hook = nullptr;
        auto callbacks = std::move(sp->callbacks);
        sp->callbacks.clear();
        for (auto& cb : callbacks) cb(sp->last_report);
      };
      break;
    }
  }
  return JobHandle(rec);
}

void CotsParallelArchive::launch_admitted(std::uint64_t job_id) {
  for (const std::shared_ptr<detail::JobRecord>& rec : jobs_) {
    if (rec->id != job_id) continue;
    if (rec->state != JobState::Queued) return;  // cancelled in the meantime
    rec->was_queued = true;
    rec->cancel_hook = nullptr;
    launch_attempt(rec);
    return;
  }
}

std::size_t CotsParallelArchive::reap_finished() {
  const std::size_t before = jobs_.size();
  jobs_.erase(std::remove_if(jobs_.begin(), jobs_.end(),
                             [](const std::shared_ptr<detail::JobRecord>& r) {
                               return r->done();
                             }),
              jobs_.end());
  return before - jobs_.size();
}

void CotsParallelArchive::launch_attempt(
    const std::shared_ptr<detail::JobRecord>& rec) {
  ++rec->attempts;
  rec->state = JobState::Running;
  pftool::PftoolConfig cfg = rec->cfg;
  if (rec->attempts > 1 && rec->spec.command == pftool::sim::Command::Pfcp) {
    // Relaunches always journal so already-copied chunks are skipped.
    cfg.restartable = true;
  }
  pftool::sim::JobEnv env = job_env(rec->spec.restore_direction);
  if (rec->spec.command == pftool::sim::Command::Pfls) {
    env.src_fs = scratch_->exists(rec->spec.src) ? scratch_.get()
                                                 : archive_.get();
    env.dst_fs = env.src_fs;
  }
  env.tenant = rec->spec.tenant;
  env.qos = rec->spec.qos;
  if (sched_ != nullptr) {
    env.shaper_legs = sched_->shaper_legs(rec->spec.tenant);
  }
  if (rec->attempts == 1) {
    // Only the first attempt accounts the admission wait; relaunches open
    // their span at the relaunch instant as before.
    env.was_queued = rec->was_queued;
    env.queued_since = rec->submitted_at;
  }
  // The job's completion callback holds only a weak reference: the record
  // is kept alive by jobs_ (and any handles), never by its own job.
  std::weak_ptr<detail::JobRecord> weak = rec;
  rec->active = std::make_unique<pftool::sim::PftoolJob>(
      env, cfg, rec->spec.command, rec->spec.src, rec->spec.dst,
      [this, weak](const pftool::JobReport& r) {
        if (auto sp = weak.lock()) on_attempt_done(sp, r);
      });
  rec->active->start();
}

void CotsParallelArchive::on_attempt_done(
    const std::shared_ptr<detail::JobRecord>& rec,
    const pftool::JobReport& report) {
  rec->last_report = report;
  if (rec->crash_parked) {
    // The attempt died with the host.  Park the carcass (events still in
    // flight reference it; every entry point no-ops once finished) and
    // wait for recover() to relaunch from the restart journal.
    graveyard_.push_back(std::move(rec->active));
    rec->state = JobState::Retrying;
    return;
  }
  const bool failed = report.files_failed > 0 || report.aborted_by_watchdog;
  if (report.aborted_by_watchdog) {
    // A stall abort finishes the job with work still in flight; pending
    // events (flow completions, retry backoffs) reference the job's
    // procs and would dangle if it were freed now.  Every entry point
    // no-ops once finished, so park it until system teardown instead.
    graveyard_.push_back(std::move(rec->active));
  } else {
    // This callback runs from inside the PftoolJob; defer its
    // destruction until the current event unwinds.
    auto doomed = std::make_shared<std::unique_ptr<pftool::sim::PftoolJob>>(
        std::move(rec->active));
    sim_.after(0, [doomed] { doomed->reset(); });
  }
  if (failed && rec->spec.retry.allows(rec->attempts)) {
    rec->state = JobState::Retrying;
    obs_->metrics().counter("pftool.job_relaunches").inc();
    // A relaunch is a job-level retry; fold it into the same headline
    // counter as the chunk-level ones.
    obs_->metrics().counter("pftool.retries_total").inc();
    obs_->trace().instant(obs::Component::Pftool, "job", "relaunch",
                          sim_.now());
    std::weak_ptr<detail::JobRecord> weak = rec;
    sim_.after(rec->spec.retry.delay(rec->attempts), [this, weak] {
      if (auto sp = weak.lock()) launch_attempt(sp);
    });
    return;
  }
  const JobState final_state = failed ? JobState::Failed : JobState::Succeeded;
  auto settle = [this, rec, final_state] {
    rec->state = final_state;
    // One rate sample per job, from the report its handle delivers: an
    // attempt that was relaunched or crash-parked adds none.
    if (rec->last_report.bytes_copied > 0) {
      obs_->metrics().series("pftool.job_rate_bps")
          .add(rec->last_report.rate_bps());
    }
    // Retries kept the admission slot; release it only at a terminal state.
    if (sched_ != nullptr) sched_->job_finished(rec->id);
    auto callbacks = std::move(rec->callbacks);
    rec->callbacks.clear();
    for (auto& cb : callbacks) cb(rec->last_report);
  };
  if (durable_ != nullptr) {
    // Acknowledgement barrier: the job turns terminal only once every
    // metadata record it produced is on the durable log.  A crash in
    // this window drops the sync waiter; the still-Running job is parked
    // and relaunched (the journal makes the rerun skip finished chunks).
    durable_->sync(std::move(settle));
  } else {
    settle();
  }
}

pftool::JobReport CotsParallelArchive::pfls(const std::string& root) {
  JobHandle h = submit(JobSpec::pfls(root));
  sim_.run();
  return h.report();
}

pftool::JobReport CotsParallelArchive::pfcp_archive(const std::string& src,
                                                    const std::string& dst) {
  JobHandle h = submit(JobSpec::pfcp(src, dst));
  sim_.run();
  return h.report();
}

pftool::JobReport CotsParallelArchive::pfcp_restore(const std::string& src,
                                                    const std::string& dst) {
  JobHandle h = submit(JobSpec::pfcp_restore(src, dst));
  sim_.run();
  return h.report();
}

pftool::JobReport CotsParallelArchive::pfcm(const std::string& src,
                                            const std::string& dst) {
  JobHandle h = submit(JobSpec::pfcm(src, dst));
  sim_.run();
  return h.report();
}

void CotsParallelArchive::run_migration_cycle(
    const std::string& list_rule_name, const std::string& colocation_group,
    std::function<void(const hsm::MigrateReport&)> done) {
  // "Rather than use a GPFS migration policy, we use a list policy to
  // generate lists of candidate files to migrate to tape" (Sec 4.2.4).
  const pfs::ScanReport scan =
      policy_.run_scan(*archive_, cfg_.cluster.fta_nodes);
  auto it = scan.matches.find(list_rule_name);
  std::vector<std::string> paths;
  if (it != scan.matches.end()) {
    paths.reserve(it->second.size());
    for (const pfs::PolicyMatch& m : it->second) paths.push_back(m.path);
  }
  std::vector<tape::NodeId> nodes;
  for (unsigned n = 0; n < cfg_.cluster.fta_nodes; ++n) nodes.push_back(n);
  // The scan itself takes virtual time before migration starts.
  sim_.after(scan.scan_duration, [this, paths = std::move(paths),
                                  nodes = std::move(nodes), colocation_group,
                                  done = std::move(done)]() mutable {
    hsm_->parallel_migrate(std::move(paths), std::move(nodes),
                           hsm::DistributionStrategy::SizeBalanced,
                           colocation_group, std::move(done));
  });
}

pfs::Errc CotsParallelArchive::make_file(pfs::FileSystem& fs,
                                         const std::string& path,
                                         std::uint64_t size,
                                         std::uint64_t tag) {
  return fs.make_file(path, size, tag);
}

}  // namespace cpa::archive
