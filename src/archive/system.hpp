// CotsParallelArchive: the assembled system of Figure 2 / Figure 7.
//
// One object owns and wires every substrate:
//   scratch PFS (Panasas stand-in)  <- two 10GigE trunks ->  FTA cluster
//   -> archive GPFS (fast FC pool + slow pool, ILM policy engine)
//   -> HSM (TSM stand-in, LAN-free) -> tape library (24 x LTO-4)
// plus the user-space glue: PFTool (pfls/pfcp/pfcm), ArchiveFUSE, the
// restart journal, the trashcan, and the ILM policy engine driving the
// parallel data migrator.
//
// This is the public entry point a downstream user would program against;
// examples/ and bench/ are written exclusively in terms of it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "archive/job.hpp"
#include "archive/trashcan.hpp"
#include "cluster/cluster.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fusefs/archive_fuse.hpp"
#include "hsm/hsm.hpp"
#include "obs/observer.hpp"
#include "pfs/filesystem.hpp"
#include "pfs/policy.hpp"
#include "pftool/core/restart_journal.hpp"
#include "pftool/sim/job.hpp"
#include "sched/scheduler.hpp"
#include "simcore/flow_network.hpp"
#include "simcore/simulation.hpp"
#include "tape/library.hpp"
#include "wal/durable.hpp"

namespace cpa::archive {

struct SystemConfig {
  pfs::FsConfig scratch_fs;
  pfs::FsConfig archive_fs;
  cluster::ClusterConfig cluster;
  tape::LibraryConfig tape;
  hsm::HsmConfig hsm;
  fusefs::FuseConfig fuse;
  pftool::PftoolConfig pftool;
  obs::ObsConfig obs;
  /// Scripted faults armed against the system at construction; empty by
  /// default (no faults).
  fault::FaultPlan fault_plan;
  /// Multi-tenant fair-share admission control (off by default: submit()
  /// launches immediately, drive grants stay strict FIFO, and the golden
  /// baselines are bit-identical to the unscheduled system).
  sched::SchedConfig sched;
  /// Crash-consistent metadata (off by default: no WAL, no durability
  /// barriers, bit-identical timing).  Enabled, every catalog/fixity/
  /// journal mutation is redo-logged through a virtual-time WAL and the
  /// system survives power_fail() + recover().
  wal::WalConfig wal;

  /// The paper's plant (Sec 4.3.1 / Fig. 7): 10 mover nodes, 5 disk nodes
  /// with 100 TB fast FC4 disk + slow pool, 24 LTO-4 drives, one TSM
  /// server, two 10GigE trunks, LAN-free movement.
  static SystemConfig roadrunner();
  /// A scaled-down plant for fast unit tests: 4 nodes, 4 drives.
  static SystemConfig small();

  // --- fluent refinement, e.g. SystemConfig::small().with_drives(8) -------
  SystemConfig& with_drives(unsigned n) {
    tape.drive_count = n;
    return *this;
  }
  SystemConfig& with_fta_nodes(unsigned n) {
    cluster.fta_nodes = n;
    return *this;
  }
  SystemConfig& with_trunks(unsigned n) {
    cluster.trunk_count = n;
    return *this;
  }
  SystemConfig& with_workers(unsigned n) {
    pftool.num_workers = n;
    return *this;
  }
  SystemConfig& with_tapeprocs(unsigned n) {
    pftool.num_tapeprocs = n;
    return *this;
  }
  SystemConfig& with_servers(unsigned n) {
    hsm.server_count = n;
    return *this;
  }
  SystemConfig& with_tracing(bool on = true) {
    obs.tracing = on;
    return *this;
  }
  SystemConfig& with_restartable(bool on = true) {
    pftool.restartable = on;
    return *this;
  }
  /// Chunk-level (PFTool) and unit-level (HSM) retry policy in one stroke.
  SystemConfig& with_retry(fault::RetryPolicy policy) {
    pftool.retry = policy;
    hsm.retry = policy;
    return *this;
  }
  SystemConfig& with_fault_plan(fault::FaultPlan plan) {
    fault_plan = std::move(plan);
    return *this;
  }
  /// Enables write-ahead logging of all archive metadata (and with it
  /// power_fail()/recover() support).
  SystemConfig& with_wal(wal::WalConfig w = {}) {
    wal = w;
    wal.enabled = true;
    return *this;
  }
  /// Enables (and configures) the fair-share admission scheduler.
  SystemConfig& with_sched(sched::SchedConfig cfg) {
    sched = std::move(cfg);
    sched.enabled = true;
    return *this;
  }
  /// Shorthand: enable the scheduler and set one tenant's quota.
  SystemConfig& with_tenant_quota(const std::string& tenant,
                                  sched::TenantQuota quota) {
    sched.enabled = true;
    sched.tenants[tenant] = quota;
    return *this;
  }
};

class CotsParallelArchive {
 public:
  explicit CotsParallelArchive(SystemConfig cfg = SystemConfig::roadrunner());
  CotsParallelArchive(const CotsParallelArchive&) = delete;
  CotsParallelArchive& operator=(const CotsParallelArchive&) = delete;

  // --- components ------------------------------------------------------------
  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] sim::FlowNetwork& net() { return net_; }
  [[nodiscard]] pfs::FileSystem& scratch() { return *scratch_; }
  [[nodiscard]] pfs::FileSystem& archive_fs() { return *archive_; }
  [[nodiscard]] cluster::Cluster& fta() { return *cluster_; }
  [[nodiscard]] tape::TapeLibrary& library() { return *library_; }
  [[nodiscard]] hsm::HsmSystem& hsm() { return *hsm_; }
  [[nodiscard]] fusefs::ArchiveFuse& fuse() { return *fuse_; }
  [[nodiscard]] Trashcan& trashcan() { return *trashcan_; }
  [[nodiscard]] pftool::RestartJournal& journal() { return journal_; }
  [[nodiscard]] pfs::PolicyEngine& policy() { return policy_; }
  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  /// The system-wide observability sink: every substrate's metrics land in
  /// observer().metrics(); spans record when cfg.obs.tracing is set.
  [[nodiscard]] obs::Observer& observer() { return *obs_; }
  /// The admission scheduler, or nullptr when SystemConfig::sched is
  /// disabled.
  [[nodiscard]] sched::AdmissionScheduler* scheduler() { return sched_.get(); }
  /// The WAL durability layer, or nullptr when SystemConfig::wal is
  /// disabled.
  [[nodiscard]] wal::Durable* durable() { return durable_.get(); }

  // --- power failure & recovery --------------------------------------------
  /// Whole-archive power loss at the current instant: every running
  /// pftool attempt and HSM operation aborts where it stands, drives drop
  /// their transfers, volatile metadata (catalogs, fixity, restart
  /// journal) vanishes, and the un-fsynced WAL tail is torn at a
  /// seed-derived byte offset.  Data already on tape or disk survives —
  /// it is physical.  Also reachable as a scripted fault:
  /// `server.power:fail@t=...,seed=N,repair=D`.
  void power_fail(std::uint64_t seed = 0);

  struct RecoveryReport {
    wal::Durable::RecoveryStats wal;
    hsm::HsmSystem::CrashReconcileReport reconcile;
    std::uint64_t jobs_relaunched = 0;
  };

  /// Restart after power_fail(): replays checkpoint + surviving WAL into
  /// the wiped stores, reconciles the catalog against tape/disk reality,
  /// restores power to the drives, and — after the recovery scan's
  /// virtual time has elapsed — relaunches every crash-parked job from
  /// its restart journal.  `done` (optional) fires once jobs relaunch.
  void recover(std::function<void(const RecoveryReport&)> done = nullptr);

  /// Copies the flow network's per-pool busy-seconds into net.* gauges
  /// (including the headline net.trunk_busy_seconds).  Call before dumping
  /// a metrics summary — busy time accrues inside the kernel, not the
  /// registry.
  void snapshot_net_metrics();

  /// JobEnv wired to this system, for hand-constructed PftoolJob runs.
  [[nodiscard]] pftool::sim::JobEnv job_env(bool restore_direction = false);

  // --- job submission ------------------------------------------------------
  /// Submits a PFTool job without running the simulation.  With the
  /// admission scheduler disabled the first attempt launches immediately;
  /// with it enabled the job may sit Queued behind fair-share admission
  /// (or come back Rejected when the bounded queue is full — that is the
  /// backpressure signal).  The returned handle tracks the job across
  /// queueing and retry attempts; finished jobs are reaped on the next
  /// submit() (or explicitly via reap_finished()).
  JobHandle submit(JobSpec spec);
  /// Drops bookkeeping for jobs that have reached a terminal state.
  /// Returns how many were reaped.  Outstanding JobHandles stay valid.
  std::size_t reap_finished();
  /// Job records currently owned by the system (running + not yet reaped).
  [[nodiscard]] std::size_t jobs_live() const { return jobs_.size(); }

  // --- PFTool commands (synchronous: run the simulation to completion) -----
  // Thin wrappers over submit(): submit, run, return the final report.
  pftool::JobReport pfls(const std::string& root);
  /// scratch -> archive
  pftool::JobReport pfcp_archive(const std::string& src, const std::string& dst);
  /// archive -> scratch (engages TapeProcs for migrated files)
  pftool::JobReport pfcp_restore(const std::string& src, const std::string& dst);
  /// compare scratch tree against archive tree
  pftool::JobReport pfcm(const std::string& src, const std::string& dst);

  // --- backend driving ---------------------------------------------------------
  /// One ILM cycle (Sec 4.2.4): run the policy engine's list rules, then
  /// hand each named list to the parallel data migrator, size-balanced
  /// across all FTA nodes.  `done` gets the combined migration report.
  void run_migration_cycle(const std::string& list_rule_name,
                           const std::string& colocation_group,
                           std::function<void(const hsm::MigrateReport&)> done);

  // --- helpers ------------------------------------------------------------------
  /// Creates a file with parents and synthetic content on a file system
  /// (pfs::FileSystem::make_file).
  pfs::Errc make_file(pfs::FileSystem& fs, const std::string& path,
                      std::uint64_t size, std::uint64_t tag);

 private:
  void launch_attempt(const std::shared_ptr<detail::JobRecord>& rec);
  /// Scheduler launch hook: fires when a Queued job wins admission.
  void launch_admitted(std::uint64_t job_id);
  void on_attempt_done(const std::shared_ptr<detail::JobRecord>& rec,
                       const pftool::JobReport& report);
  void wire_fault_targets();

  SystemConfig cfg_;
  // Declared before the kernel objects that hold probe pointers into it,
  // so it outlives them during destruction.
  std::unique_ptr<obs::Observer> obs_;
  sim::Simulation sim_;
  sim::FlowNetwork net_{sim_};
  std::unique_ptr<pfs::FileSystem> scratch_;
  std::unique_ptr<pfs::FileSystem> archive_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<tape::TapeLibrary> library_;
  std::unique_ptr<hsm::HsmSystem> hsm_;
  /// Constructed only when cfg_.sched.enabled; declared after the library
  /// and HSM it arbitrates so it is torn down first.
  std::unique_ptr<sched::AdmissionScheduler> sched_;
  std::unique_ptr<fusefs::ArchiveFuse> fuse_;
  std::unique_ptr<Trashcan> trashcan_;
  pftool::RestartJournal journal_;
  /// Constructed only when cfg_.wal.enabled; hooks into the HSM servers,
  /// the fixity table, and the restart journal above.
  std::unique_ptr<wal::Durable> durable_;
  pfs::PolicyEngine policy_;
  fault::FaultInjector injector_{sim_, *obs_};
  /// Saved capacities of pools currently degraded by a fault window.
  std::map<std::string, double> saved_pool_caps_;
  std::vector<std::shared_ptr<detail::JobRecord>> jobs_;
  /// Watchdog-aborted jobs parked here until teardown: they finish with
  /// events still in flight that reference them (all no-op once finished).
  std::vector<std::unique_ptr<pftool::sim::PftoolJob>> graveyard_;
  std::uint64_t next_job_id_ = 1;
};

}  // namespace cpa::archive
