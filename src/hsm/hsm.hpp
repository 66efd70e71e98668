// The hierarchical storage manager: migration, recall, reconciliation.
//
// This is the glue the paper builds between the archive parallel file
// system (pfs) and the tape back end (tape), standing in for TSM HSM:
//
//   * migration batches (one drive, one mounted volume, many objects) with
//     optional small-file aggregation (Sec 6.1's fix);
//   * the Parallel Data Migrator (Sec 4.2.4): candidate lists distributed
//     across mover nodes either naively (GPFS policy engine behaviour) or
//     size-balanced (the paper's fix);
//   * recall with pluggable node assignment: per-file round-robin (stock
//     HSM recall daemons — causes the Sec 6.2 tape handoff thrashing) or
//     tape-affinity (the paper's proposed fix), and optional tape-order
//     sorting (Sec 4.2.5);
//   * LAN-free vs server-routed data paths (Sec 4.2.2 / Figs 5-6);
//   * the reconcile agent and the synchronous deleter it obsoletes
//     (Sec 4.2.6).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "hsm/fabric.hpp"
#include "integrity/fixity.hpp"
#include "integrity/scrubber.hpp"
#include "hsm/object.hpp"
#include "hsm/server.hpp"
#include "hsm/txn_batch.hpp"
#include "obs/observer.hpp"
#include "pfs/filesystem.hpp"
#include "sched/qos.hpp"
#include "simcore/units.hpp"
#include "tape/library.hpp"

namespace cpa::sched {
class AdmissionScheduler;
}

namespace cpa::hsm {

struct HsmConfig {
  /// LAN-free: clients stream straight to drives over the SAN.  Otherwise
  /// all data squeezes through the archive server's network connection.
  bool lan_free = true;
  /// Punch files to stubs once safely on tape (space management); when
  /// false files are left premigrated (pure backup semantics).
  bool punch_after_migrate = true;
  /// Bundle files below `aggregate_threshold` into aggregates of up to
  /// `aggregate_target` bytes before writing to tape.
  bool aggregation_enabled = false;
  std::uint64_t aggregate_threshold = 50 * kMB;
  std::uint64_t aggregate_target = 4 * kGB;
  /// Total tape copies of every object (1 = primary only).  Extra copies
  /// land in per-group copy pools ("<group>~copyN") on separate volumes;
  /// recall falls back to them when the primary volume is damaged.
  unsigned tape_copies = 1;
  unsigned server_count = 1;
  ServerConfig server;
  /// Recovery from injected faults: failed tape reads/writes caused by a
  /// drive failure, damaged media, or a server restart are retried with
  /// backoff, failing over to a healthy drive.  Permanent errors (object
  /// absent, oversized unit, ...) are never retried, so fault-free runs
  /// behave exactly as before.
  fault::RetryPolicy retry = fault::RetryPolicy::standard();
  /// Reconcile tree-walk cost per inode visited (Sec 4.2.6: the agent
  /// "does a directory tree-walk and compares each file one by one").
  sim::Tick reconcile_walk_cost = sim::msecs(2);
  /// Per-run salt folded into every fixity checksum: two archives of the
  /// same content under different salts disagree, so a stale checksum
  /// can never mask corruption.
  std::uint64_t content_salt = 0x5EEDULL;
};

struct MigrateReport {
  unsigned files_migrated = 0;
  unsigned files_failed = 0;
  std::uint64_t bytes = 0;
  unsigned tape_objects_written = 0;  // < files when aggregating
  unsigned checksums_computed = 0;    // fixity rows recorded (all copies)
  unsigned retries = 0;          // drive-failover / backoff retries
  unsigned units_requeued = 0;   // interrupted by a server restart
  sim::Tick started = 0;
  sim::Tick finished = 0;
  [[nodiscard]] double mean_rate_bps() const {
    const double dt = sim::to_seconds(finished - started);
    return dt > 0 ? static_cast<double>(bytes) / dt : 0.0;
  }
};

/// Recall tuning.  The defaults — documented here, in one place, and
/// asserted by tests — are the paper's recommended configuration: recalls
/// tape-ordered (Sec 4.2.5), tape-affinity node assignment (the Sec 6.2
/// fix), all work on node 0, no cap on concurrent cartridges, no caller
/// span (the recall is its own trace root), and unmanaged tenant/QoS
/// (no admission-scheduler accounting).  Refine with the fluent `with_*`
/// builders, mirroring SystemConfig/JobSpec.
struct RecallOptions {
  /// Sort each cartridge's recalls by tape sequence (PFTool's optimization).
  bool tape_ordered = true;
  enum class Assignment {
    TapeAffinity,  // all recalls for one tape handled by one node (fix)
    RoundRobin,    // per-file round-robin over nodes (stock HSM daemons)
  };
  Assignment assignment = Assignment::TapeAffinity;
  std::vector<tape::NodeId> nodes = {0};
  /// Cap on cartridges recalled concurrently (each needs a drive).
  unsigned max_parallel_tapes = 0xFFFFFFFFu;
  /// Caller's trace span (e.g. the pftool job): the recall's span is
  /// causally linked under it so per-job attribution crosses the HSM
  /// boundary.  Invalid (default) leaves the recall a DAG root.
  obs::SpanId parent_span{};
  /// Tenant/QoS this recall's drive requests are charged to; empty tenant
  /// bypasses quota accounting entirely.
  std::string tenant;
  sched::QosClass qos = sched::QosClass::Interactive;

  RecallOptions& with_tape_ordered(bool on = true) {
    tape_ordered = on;
    return *this;
  }
  RecallOptions& with_assignment(Assignment a) {
    assignment = a;
    return *this;
  }
  RecallOptions& with_nodes(std::vector<tape::NodeId> ns) {
    nodes = std::move(ns);
    return *this;
  }
  RecallOptions& with_max_parallel_tapes(unsigned n) {
    max_parallel_tapes = n;
    return *this;
  }
  RecallOptions& with_parent_span(obs::SpanId s) {
    parent_span = s;
    return *this;
  }
  RecallOptions& with_tenant(std::string name) {
    tenant = std::move(name);
    return *this;
  }
  RecallOptions& with_qos(sched::QosClass q) {
    qos = q;
    return *this;
  }
};

struct RecallReport {
  unsigned files_recalled = 0;
  unsigned files_failed = 0;
  /// Both the primary segment and every copy-pool duplicate failed fixity:
  /// a distinct, permanent verdict (also counted in files_failed) — never
  /// retried, because the reads themselves succeed.
  unsigned files_unrepairable = 0;
  unsigned fixity_verified = 0;    // recalls whose checksum matched
  unsigned fixity_mismatches = 0;  // failed compares (incl. bad fallbacks)
  unsigned retries = 0;  // drive-failover / media backoff retries
  std::uint64_t bytes = 0;          // logical file bytes recalled
  std::uint64_t tape_bytes = 0;     // tape bytes actually read (aggregates)
  sim::Tick started = 0;
  sim::Tick finished = 0;
  [[nodiscard]] double mean_rate_bps() const {
    const double dt = sim::to_seconds(finished - started);
    return dt > 0 ? static_cast<double>(bytes) / dt : 0.0;
  }
};

struct SpaceManagementReport {
  std::uint64_t files_punched = 0;
  std::uint64_t bytes_freed = 0;
  double used_fraction_before = 0.0;
  double used_fraction_after = 0.0;
  sim::Tick duration = 0;  // policy-scan time charged
};

struct ReclaimReport {
  unsigned volumes_examined = 0;
  unsigned volumes_reclaimed = 0;
  unsigned objects_moved = 0;
  std::uint64_t bytes_moved = 0;
  sim::Tick started = 0;
  sim::Tick finished = 0;
};

struct ReconcileReport {
  std::uint64_t inodes_walked = 0;
  std::uint64_t objects_checked = 0;
  std::uint64_t orphans_found = 0;
  std::uint64_t orphans_deleted = 0;
  sim::Tick duration = 0;
};

enum class DistributionStrategy {
  NaiveRoundRobin,  // GPFS policy-engine behaviour
  SizeBalanced,     // the paper's sorted, size-even distribution
};

class HsmSystem : public pfs::DmapiListener {
 public:
  HsmSystem(sim::Simulation& sim, sim::FlowNetwork& net, pfs::FileSystem& fs,
            tape::TapeLibrary& library, Fabric fabric, HsmConfig cfg);
  ~HsmSystem() override;

  [[nodiscard]] const HsmConfig& config() const { return cfg_; }
  [[nodiscard]] pfs::FileSystem& fs() { return fs_; }
  [[nodiscard]] tape::TapeLibrary& library() { return lib_; }

  /// The server responsible for a path (hash routing when server_count>1;
  /// the paper's "tether multiple archive file systems" idea, Sec 6.4).
  [[nodiscard]] ArchiveServer& server_for(const std::string& path);
  [[nodiscard]] unsigned server_count() const { return static_cast<unsigned>(servers_.size()); }
  [[nodiscard]] ArchiveServer& server(unsigned i) { return *servers_[i]; }

  /// The session fronting `server`'s metadata path: every object-DB
  /// mutation goes through it.  Each server's session is created with the
  /// server, lives for the system's lifetime, and is abandoned (not
  /// destroyed) on power failure.
  [[nodiscard]] TxnSession& session_for(ArchiveServer& server);

  /// Migrates `paths` from node `node` on a single drive: mounts one
  /// volume of `group` and streams objects back to back.  `wc` charges the
  /// batch's drive holds and data flows to a tenant/QoS class (default:
  /// unmanaged).
  void migrate_batch(tape::NodeId node, std::vector<std::string> paths,
                     std::string group,
                     std::function<void(const MigrateReport&)> done,
                     sched::WorkClass wc = {});

  /// The Parallel Data Migrator: distributes `paths` across `nodes`
  /// (each node = one concurrent migrate_batch) per `strategy`.
  void parallel_migrate(std::vector<std::string> paths,
                        std::vector<tape::NodeId> nodes,
                        DistributionStrategy strategy, std::string group,
                        std::function<void(const MigrateReport&)> done,
                        sched::WorkClass wc = {});

  /// Recalls `paths` from tape into the archive file system.
  void recall(std::vector<std::string> paths, RecallOptions options,
              std::function<void(const RecallReport&)> done);

  /// Synchronous delete (Sec 4.2.6): joins the GPFS file id to the TSM
  /// object through the indexed export and deletes file-system entry and
  /// tape object together — no orphan, no reconcile needed.
  void synchronous_delete(const std::string& path,
                          std::function<void(pfs::Errc)> done);

  /// The classic reconcile agent: tree-walks the file system, compares
  /// every object one by one, and reports (optionally deletes, with the
  /// synchronous delete's cascade) orphans.
  void reconcile(bool delete_orphans,
                 std::function<void(const ReconcileReport&)> done);

  /// HSM space management (threshold migration): when `pool`'s usage is
  /// at or above `high_water`, punch premigrated files — least recently
  /// accessed first — until usage drops to `low_water`.  Only files whose
  /// data is already safe on tape are eligible; the run costs one policy
  /// scan of the namespace.  This is how the archive operates with
  /// punch_after_migrate=false (premigrate-then-punch-on-demand).
  void space_management(const std::string& pool, double high_water,
                        double low_water,
                        std::function<void(const SpaceManagementReport&)> done);

  /// Tape scrubbing: walks the fixity table (tape order by default,
  /// reusing the Sec 4.2.5 optimization so scrub cost is mount/seek
  /// realistic), reads every segment back, verifies its checksum, and
  /// repairs mismatches — from a clean copy-pool duplicate, else by
  /// re-migrating still-resident/premigrated disk data, else reporting
  /// the object unrepairable exactly once.  Holds a single drive for the
  /// whole pass and paces itself to `rate_limit_bps`, so foreground
  /// recalls keep the remaining drives.
  void scrub(integrity::ScrubConfig scfg,
             std::function<void(const integrity::ScrubReport&)> done);

  /// The fixity table (checksums keyed by tape location).
  [[nodiscard]] integrity::FixityDb& fixity_db() { return fixity_; }
  [[nodiscard]] const integrity::FixityDb& fixity_db() const { return fixity_; }

  /// Space reclamation: volumes whose dead fraction is at least
  /// `dead_fraction` have their live segments copied tape-to-tape (two
  /// drives: source + destination in the same volume family) and every
  /// owning object's location updated; the drained volume becomes
  /// all-dead scratch.  Runs volumes sequentially on `node`, without drive
  /// failover: a segment whose read or write fails stays put, and only a
  /// victim left with nothing live counts as reclaimed.
  void reclaim_volumes(double dead_fraction, tape::NodeId node,
                       std::function<void(const ReclaimReport&)> done);

  // --- DmapiListener (events observed from the file system) ---------------
  void on_read_offline(const std::string& path, pfs::FileId fid) override;
  void on_managed_data_destroyed(const std::string& path, pfs::FileId fid) override;

  [[nodiscard]] std::uint64_t offline_read_events() const { return offline_reads_; }
  [[nodiscard]] std::uint64_t destroy_events() const { return destroys_; }

  /// Routes hsm.* metrics and migrate/recall/reclaim spans to `obs`.
  void set_observer(obs::Observer& obs) { obs_ = &obs; }

  /// Durability barrier (WAL group-commit fsync): the continuation runs
  /// once every metadata record logged so far is durable.  Every session
  /// runs it once per applied batch, so `applied` implies durable, and
  /// the punch paths run it again before freeing disk data.  Unset (the
  /// default) the barrier is a synchronous passthrough — zero cost.
  void set_durability_barrier(std::function<void(std::function<void()>)> b) {
    barrier_ = std::move(b);
  }

  /// Whole-archive power loss: every in-flight migrate/recall/reclaim/
  /// scrub/delete aborts (its `done` fires with the partial report, spans
  /// close), then volatile metadata — object catalogs with their indexes,
  /// fixity rows — is wiped.  The tape library and the WAL are crashed
  /// separately by the caller, which owns the ordering.
  void power_fail();

  /// What crash reconciliation found and repaired (see reconcile_crash).
  struct CrashReconcileReport {
    /// Live tape segments no recovered catalog row points at: marked dead
    /// (reclamation fodder).  These were written after the last fsync.
    std::uint64_t orphan_segments = 0;
    /// Live segments whose object's recorded location is itself dead or
    /// missing (crash mid-relocation after the source was invalidated):
    /// the catalog is rolled forward to the surviving segment.
    std::uint64_t adopted_segments = 0;
    /// Fixity rows whose object vanished from the catalog: dropped.
    std::uint64_t orphan_fixity_rows = 0;
    /// Live catalog locations whose fixity row was torn away: rebuilt
    /// from the checksum the tape segment header carries.
    std::uint64_t fixity_rebuilt = 0;
    /// Objects resurrected by the tear whose file is provably gone (the
    /// unlink and tape reclaim are physical): the delete is rolled
    /// forward to completion.
    std::uint64_t deletes_completed = 0;
    /// Recorded tape locations whose segment is dead (crash mid-
    /// relocation): dropped, with a surviving copy promoted to primary.
    std::uint64_t locations_dropped = 0;
    /// Premigrated inodes with no catalog object: the migration never
    /// became durable, so the on-disk copy is authoritative again.
    std::uint64_t premigrated_remarked = 0;
    /// Migrated stubs with no catalog object: unreachable data.  The
    /// pre-punch durability barrier makes this impossible; nonzero here
    /// means the barrier was violated (chaos oracles assert zero).
    std::uint64_t stub_violations = 0;
  };

  /// Reconciles recovered metadata against physical reality (tape
  /// segments, disk residency states) after power_fail + WAL replay.
  /// Mutations go through the hooked store APIs, so they are themselves
  /// redo-logged for a repeat crash.
  CrashReconcileReport reconcile_crash();

  /// Hooks up the admission scheduler: migrate/recall data flows of a
  /// capped tenant pick up its bandwidth-shaper legs.  Drive-grant
  /// arbitration is wired separately (TapeLibrary::set_arbiter).
  void set_scheduler(sched::AdmissionScheduler* sched) { sched_ = sched; }

 private:
  /// What every tape job shares (see open_job/close_job); MigrateJob,
  /// RecallJob, ReclaimJob and ScrubJob extend it.
  template <class Report>
  struct Job;
  struct MigrateJob;
  struct RecallJob;
  struct ReclaimJob;
  struct ScrubJob;
  /// A recorded tape location: (cartridge id, tape sequence number).
  using Location = std::pair<std::uint64_t, std::uint64_t>;
  using Locations = std::shared_ptr<const std::vector<Location>>;

  /// Runs `k` behind the durability barrier (or synchronously when none).
  void barrier(std::function<void()> k) {
    if (barrier_) {
      barrier_(std::move(k));
    } else {
      k();
    }
  }

  /// Live-operation registry: every public entry point registers an abort
  /// closure; power_fail() fires them all.  Closures mark the job dead
  /// (every continuation re-entry checks the flag) and deliver the
  /// partial report so callers never hang on a crashed operation.
  std::uint64_t register_abort(std::function<void()> fn);
  void unregister_abort(std::uint64_t id);

  // --- the job skeleton ----------------------------------------------------
  /// Starts `job`: stamps `report.started`, opens its trace lane and
  /// registers its abort, which marks it dead, accounts it and delivers
  /// the partial report synchronously.
  template <class J>
  void open_job(const std::shared_ptr<J>& job, obs::Component comp,
                const char* lane, const char* name);
  /// Ends `job`: unregisters its abort, stamps `report.finished`, accounts
  /// it and delivers the report, synchronously or, when `deferred`, one
  /// event later.
  template <class J>
  void close_job(const std::shared_ptr<J>& job, bool deferred);
  /// The traced drive step.  `acquire` asks for a drive on the job's
  /// request and runs `k(drive)` once granted, unless the job died;
  /// `mount` runs `k()` once `cart` sits in `drive`; `acquire_mounted`
  /// chains the two.  Each wait is a span under the job's.
  template <class J, class K>
  void acquire(const std::shared_ptr<J>& job, K k);
  template <class J, class K>
  void mount(const std::shared_ptr<J>& job, tape::TapeDrive& drive,
             tape::Cartridge& cart, K k);
  template <class J, class K>
  void acquire_mounted(const std::shared_ptr<J>& job, tape::Cartridge& cart,
                       K k);
  /// Drive failover: gives the failed `drive` back, backs off `delay`,
  /// then re-acquires a drive with `cart` mounted and runs `k(drive)`.
  template <class J, class K>
  void fail_over(const std::shared_ptr<J>& job, tape::TapeDrive& drive,
                 sim::Tick delay, tape::Cartridge& cart, K k);
  /// Folds a finished (or aborted) job's report into the hsm.* and
  /// integrity.* counters and closes its span.  Accounting happens per
  /// batch/job, so registry totals match the (combined) reports exactly.
  void account(const MigrateJob& job);
  void account(const RecallJob& job);
  void account(const ReclaimJob& job);
  void account(const ScrubJob& job);

  /// Submits one mutation to `server`'s session and flushes it, so a
  /// chain that continues on `applied` never waits for the flush timer.
  void submit_now(ArchiveServer& server, std::function<void()> op,
                  std::function<void()> applied);
  /// The per-batch hook: feeds the hsm.md_* instruments.
  void count_md_batch(std::size_t n);

  /// Erases one object from the catalog with full media/fixity cascade
  /// (aggregate-member aware).  Shared by synchronous_delete, the
  /// reconcile agent and the crash-recovery roll-forward of deletes that
  /// lost their ack.
  void delete_object_cascade(ArchiveServer& server, std::uint64_t object_id);

  /// Finds the server holding `object_id` (ids are globally unique because
  /// each server hands out ids from its own counter but lookups scan all).
  ArchiveServer* find_object_server(std::uint64_t object_id);
  /// Every recorded location of `object_id` (primary first, then its
  /// copy-pool replicas) not on `exclude_cart`, on whichever server holds
  /// the object: the candidates of every replica fallback.
  Locations other_locations(std::uint64_t object_id, std::uint64_t exclude_cart);
  /// Moves the owner's recorded location from `old_cart` to (new_cart,
  /// new_seq), with its members' locations and the location's fixity
  /// row.  False when the object is gone.
  bool relocate_object(std::uint64_t object_id, std::uint64_t old_cart,
                       std::uint64_t new_cart, std::uint64_t new_seq);

  /// Records a retroactive wait span [since, now) linked under `parent` —
  /// used for drive-queue, mount and metadata-transaction waits.  No event
  /// when the wait was zero ticks (or tracing is off).
  void trace_wait(obs::Component comp, const char* name, obs::SpanId parent,
                  sim::Tick since);
  /// Records the upcoming retry-backoff window [now, now+delay) under
  /// `parent` so the profiler can attribute fault-handling latency.
  void trace_backoff(obs::SpanId parent, sim::Tick delay);

  /// Runs a migrate batch whose intake is done: `job` holds the files its
  /// stats accepted and counts the rest as failed.
  void start_migrate(std::shared_ptr<MigrateJob> job, tape::NodeId node,
                     std::string group,
                     std::function<void(const MigrateReport&)> done,
                     sched::WorkClass wc);
  void run_migrate_unit(std::shared_ptr<MigrateJob> job);
  /// Catalogs the just-written unit at (cart_id, seq): builds every
  /// member object (and the aggregate) up front and submits them in
  /// order; the file state transition joins on the whole unit being
  /// applied and durable.
  void record_unit_objects(std::shared_ptr<MigrateJob> job,
                           std::uint64_t unit_oid, std::uint64_t cart_id,
                           std::uint64_t seq);
  void finish_migrate(std::shared_ptr<MigrateJob> job);

  void run_recall_cart(std::shared_ptr<RecallJob> job, std::size_t work_idx);
  void run_recall_entry(std::shared_ptr<RecallJob> job, std::size_t work_idx,
                        std::size_t entry_idx, tape::TapeDrive& drive);
  /// Recall-verify fallback: re-reads the object from each location in
  /// `alts` until one passes fixity; exhausted -> files_unrepairable.
  void recall_fallback(std::shared_ptr<RecallJob> job, std::size_t work_idx,
                       std::size_t entry_idx, tape::TapeDrive& drive,
                       Locations alts, std::size_t alt_idx);
  /// Completes a verified read of an entry, from the batch's cartridge or
  /// (`from_replica`) a fallback location: counts it, marks the file
  /// recalled and, once its bookkeeping mutation applied, moves on.
  void recall_entry_done(std::shared_ptr<RecallJob> job, std::size_t work_idx,
                         std::size_t entry_idx, tape::TapeDrive& drive,
                         bool from_replica);
  /// Remounts the batch's cartridge after a replica chase and streams the
  /// entry after `entry_idx`.
  void resume_recall_batch(std::shared_ptr<RecallJob> job,
                           std::size_t work_idx, std::size_t entry_idx,
                           tape::TapeDrive& drive);

  void run_reclaim_volume(std::shared_ptr<ReclaimJob> job);
  void run_reclaim_segment(std::shared_ptr<ReclaimJob> job, std::size_t seg_idx);

  void run_scrub_row(std::shared_ptr<ScrubJob> job);
  /// Tries repair sources in lattice order: each alternate tape location
  /// in `alts` (read + verify), then the disk-resident original, then
  /// declares the row unrepairable.
  void run_scrub_repair(std::shared_ptr<ScrubJob> job,
                        const integrity::FixityRow& row, Locations alts,
                        std::size_t alt_idx);
  /// Rewrites a corrupted segment from `pools` into a fresh volume of the
  /// bad cartridge's family and rebinds object + fixity rows to it.
  void write_scrub_repair(std::shared_ptr<ScrubJob> job,
                          const integrity::FixityRow& row,
                          std::uint64_t source_cartridge,
                          std::vector<sim::PathLeg> pools,
                          integrity::ScrubRepair::Action action);
  void scrub_unrepairable(std::shared_ptr<ScrubJob> job,
                          const integrity::FixityRow& row);
  /// Advances to the next fixity row, pausing to honor the scan-rate
  /// ceiling when `scanned_bytes` were just read.
  void scrub_pace(std::shared_ptr<ScrubJob> job, std::uint64_t scanned_bytes);
  void finish_scrub(std::shared_ptr<ScrubJob> job);

  /// Network-side legs only (SAN or LAN+server), no disk.
  [[nodiscard]] std::vector<sim::PathLeg> net_legs(tape::NodeId node,
                                                   const std::string& fs_path) const;
  /// The object owning a path's tape segment (the aggregate for members),
  /// or 0 when the path is not on tape.
  std::uint64_t owner_object_id(const std::string& path);
  [[nodiscard]] std::vector<sim::PathLeg> data_path(tape::NodeId node,
                                                   const std::string& fs_path,
                                                   std::uint64_t bytes) const;

  sim::Simulation& sim_;
  sim::FlowNetwork& net_;
  pfs::FileSystem& fs_;
  tape::TapeLibrary& lib_;
  Fabric fabric_;
  HsmConfig cfg_;
  std::vector<std::unique_ptr<ArchiveServer>> servers_;
  std::vector<std::unique_ptr<TxnSession>> sessions_;  // [i] fronts servers_[i]
  /// The hsm.md_* instruments, resolved once per metrics registry.
  struct MdMetrics {
    obs::MetricsRegistry* registry = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* ops = nullptr;
    obs::Counter* saved = nullptr;
    sim::OnlineStats* size = nullptr;
  };
  MdMetrics md_metrics_;
  integrity::FixityDb fixity_;
  obs::Observer* obs_ = &obs::Observer::nil();
  sched::AdmissionScheduler* sched_ = nullptr;
  std::function<void(std::function<void()>)> barrier_;
  std::map<std::uint64_t, std::function<void()>> live_aborts_;
  std::uint64_t next_abort_id_ = 1;
  std::uint64_t offline_reads_ = 0;
  std::uint64_t destroys_ = 0;
};

}  // namespace cpa::hsm
