// PFTool, the paper's frontend contribution, as simulated MPI processes.
//
// Figure 3's process set is reproduced one-to-one:
//   Manager    — "the conductor": parallel tree walk, queue management,
//                job assignment, completion detection, final report;
//   ReadDir    — expose directories, return entries to the Manager;
//   Worker     — stat batches, file/chunk copies, comparisons;
//   TapeProc   — restore one cartridge's ordered file list (restore only);
//   WatchDog   — periodic progress record + stall termination;
//   OutPutProc — output/status sink.
//
// Messages are latency-stamped events (the MPI fabric); data movement is
// flows through the cluster's bandwidth pools; time is virtual throughout.
//
// The three user commands (Sec 4.1.3):
//   pfls — parallel tree walk + list;
//   pfcp — parallel tree walk + copy (archive or restore direction; the
//          restore direction engages TapeProcs for migrated files);
//   pfcm — parallel tree walk + byte-content comparison.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "fusefs/archive_fuse.hpp"
#include "hsm/hsm.hpp"
#include "obs/observer.hpp"
#include "pfs/filesystem.hpp"
#include "pftool/core/options.hpp"
#include "pftool/core/planner.hpp"
#include "pftool/core/queues.hpp"
#include "pftool/core/report.hpp"
#include "pftool/core/restart_journal.hpp"
#include "sched/qos.hpp"
#include "simcore/actor.hpp"
#include "simcore/flow_network.hpp"
#include "simcore/stats.hpp"

namespace cpa::pftool::sim {

enum class Command : std::uint8_t { Pfls, Pfcp, Pfcm };

/// Everything a PFTool run operates on.  `dst_fs` may equal `src_fs`
/// (pfls/pfcm within one file system).  `fuse` (mounted over dst_fs)
/// enables very-large-file N-to-N; `hsm` enables restore of migrated
/// source files; `journal` enables restartable transfers.
struct JobEnv {
  cpa::sim::Simulation* sim = nullptr;
  cpa::sim::FlowNetwork* net = nullptr;
  cluster::Cluster* cluster = nullptr;
  pfs::FileSystem* src_fs = nullptr;
  pfs::FileSystem* dst_fs = nullptr;
  fusefs::ArchiveFuse* fuse = nullptr;
  hsm::HsmSystem* hsm = nullptr;
  RestartJournal* journal = nullptr;
  /// Observability sink (metrics + trace); nullptr falls back to the
  /// disabled Observer::nil().
  obs::Observer* obs = nullptr;
  /// Placement policy for new destination files (GPFS placement rules —
  /// e.g. small-file paths to the "slow" pool).  Returns a pool name or
  /// "" for the file-system default.  Overridden by cfg.dest_pool_hint.
  std::function<std::string(const std::string& dst_path)> placement;
  /// Tenant/QoS the job's backend work (recalls, drive requests) is
  /// charged to.  Empty tenant = unmanaged (no quota accounting).
  std::string tenant;
  sched::QosClass qos = sched::QosClass::Interactive;
  /// Extra per-tenant bandwidth-shaper legs appended to every data flow
  /// this job starts (empty when the tenant is uncapped).
  std::vector<cpa::sim::PathLeg> shaper_legs;
  /// Set when the job waited in the admission queue: the root span opens
  /// at `queued_since` with an explicit admission_wait child covering the
  /// queued stretch, so pfprof's conservation invariant still holds.
  bool was_queued = false;
  cpa::sim::Tick queued_since = 0;
};

class ReadDirProc;
class WorkerProc;
class TapeRestoreProc;
class WatchDogProc;
class OutPutProc;

/// One PFTool invocation.  Construct, then `start()`; the completion
/// callback fires (through the event queue) once the job finishes or the
/// WatchDog kills it.  The object must outlive the simulation run.
class PftoolJob {
 public:
  PftoolJob(JobEnv env, PftoolConfig cfg, Command cmd, std::string src_root,
            std::string dst_root, std::function<void(const JobReport&)> done);
  ~PftoolJob();
  PftoolJob(const PftoolJob&) = delete;
  PftoolJob& operator=(const PftoolJob&) = delete;

  void start();

  [[nodiscard]] const JobReport& report() const { return report_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const PftoolConfig& config() const { return cfg_; }
  /// WatchDog samples collected over the run.
  [[nodiscard]] const std::vector<WatchdogSample>& watchdog_samples() const;
  /// Lines the OutPutProc received (pfls listings, status).
  [[nodiscard]] std::uint64_t output_lines() const;

  // --- internal protocol (used by the process classes) ---------------------
  struct FileMeta {
    std::string path;
    /// The id the worker's stat returned: the copy stripes by it.
    pfs::FileId fid;
    std::uint64_t size = 0;
    std::uint64_t tag = 0;
    pfs::DmapiState dmapi = pfs::DmapiState::Resident;
  };
  struct WorkItem {
    enum class Kind : std::uint8_t { Copy, Compare } kind = Kind::Copy;
    std::string src;
    std::string dst;
    /// The files behind `src` and `dst`; a FUSE N-to-N destination names no
    /// regular file of dst_fs, so its id stays invalid.
    pfs::FileId src_fid;
    pfs::FileId dst_fid;
    std::uint64_t file_tag = 0;
    std::uint64_t file_size = 0;
    CopyMode mode = CopyMode::Whole;
    ChunkSpec chunk;
    /// N-to-1 write contention pool shared by all chunks of one dst file.
    cpa::sim::PoolId shared_dst_pool{};
    /// Failed attempts so far (chunk retry bookkeeping).
    unsigned attempt = 0;
    /// Trace span covering assignment through completion, causally linked
    /// under the job's root span.  Invalid when tracing is off.
    obs::SpanId span{};
  };

  void on_dir_listed(ReadDirProc* rd, const std::string& dir,
                     std::vector<pfs::DirEntry> entries);
  void on_stated(WorkerProc* w, std::vector<FileMeta> metas);
  void on_chunk_done(WorkerProc* w, const WorkItem& item, bool ok);
  void on_compared(WorkerProc* w, const WorkItem& item, bool comparable,
                   bool match);
  /// Fixity outcome of one tape-restore batch (forwarded from the HSM's
  /// RecallReport).  `unrepairable` files are a subset of `failed`.
  struct RestoreStats {
    unsigned failed = 0;
    unsigned unrepairable = 0;
    unsigned fixity_verified = 0;
    unsigned fixity_mismatches = 0;
  };
  void on_restored(TapeRestoreProc* tp, std::vector<FileMeta> metas,
                   RestoreStats stats);
  void watchdog_tick();
  void abort_stalled();
  /// Whole-host power failure: the attempt dies where it stands.  Like a
  /// watchdog abort, events still in flight reference the job afterwards
  /// (every entry point no-ops once finished), so the owner must keep the
  /// carcass alive until teardown.
  void abort_crashed();
  /// FTA node crash: workers/tapeprocs pinned there are killed and
  /// respawned on healthy nodes; their in-flight copies abort and route
  /// through on_chunk_done(..., false) for the usual retry treatment.
  void on_node_down(cluster::NodeId node);

 private:
  friend class ReadDirProc;
  friend class WorkerProc;
  friend class TapeRestoreProc;
  friend class WatchDogProc;
  friend class OutPutProc;

  void pump();
  void enqueue_file(const FileMeta& meta);
  void plan_copy(const FileMeta& meta);
  void finalize_file(const std::string& dst);
  void maybe_finish();
  void finish();
  [[nodiscard]] std::string dst_path_for(const std::string& src_path) const;

  JobEnv env_;
  PftoolConfig cfg_;
  ChunkPlanner planner_;
  Command cmd_;
  std::string src_root_;
  std::string dst_root_;
  std::function<void(const JobReport&)> done_;

  // Queues (Figure 3).
  WorkQueue<std::string> dirq_;
  WorkQueue<std::string> nameq_;
  WorkQueue<WorkItem> copyq_;
  TapeCopyQueues<FileMeta> tapecq_;

  // Processes.
  std::vector<std::unique_ptr<ReadDirProc>> readdirs_;
  std::vector<std::unique_ptr<WorkerProc>> workers_;
  std::vector<std::unique_ptr<TapeRestoreProc>> tapeprocs_;
  std::unique_ptr<WatchDogProc> watchdog_;
  std::unique_ptr<OutPutProc> output_;
  std::deque<ReadDirProc*> idle_readdirs_;
  std::deque<WorkerProc*> idle_workers_;
  std::deque<TapeRestoreProc*> idle_tapeprocs_;

  // Per-destination multi-chunk tracking.
  struct PendingFile {
    pfs::FileId dst_fid;  // invalid for FUSE N-to-N
    std::uint64_t remaining = 0;
    std::uint64_t size = 0;
    std::uint64_t tag = 0;
    CopyMode mode = CopyMode::Whole;
    bool failed = false;
  };
  std::map<std::string, PendingFile> pending_files_;

  JobReport report_;
  cpa::sim::RateMeter meter_;
  std::uint64_t outstanding_stats_ = 0;
  /// Chunks sitting in a backoff delay before requeueing; completion
  /// detection must wait for them.
  std::uint64_t pending_retries_ = 0;
  bool started_ = false;
  bool finished_ = false;
  std::uint64_t node_listener_ = 0;
  bool node_listener_registered_ = false;

  obs::SpanId span_;
  // Cached so the per-chunk hot path never looks a metric name up; the
  // file-level totals are folded in once, at finish().
  obs::Counter* c_chunks_copied_ = nullptr;
  obs::Counter* c_chunks_failed_ = nullptr;
  obs::Counter* c_bytes_copied_ = nullptr;
};

/// Convenience wrappers: construct a job, run the simulation to
/// completion, and return the report.  Suitable for tests and benches
/// where nothing else shares the simulation.
JobReport run_pfls(JobEnv env, PftoolConfig cfg, const std::string& root);
JobReport run_pfcp(JobEnv env, PftoolConfig cfg, const std::string& src_root,
                   const std::string& dst_root);
JobReport run_pfcm(JobEnv env, PftoolConfig cfg, const std::string& src_root,
                   const std::string& dst_root);

}  // namespace cpa::pftool::sim
