#include "pftool/sim/job.hpp"

#include <algorithm>
#include <cassert>

namespace cpa::pftool::sim {

using cpa::sim::Tick;

// ---------------------------------------------------------------------------
// Process classes.  Every inter-process interaction goes through the event
// queue with the configured message latency — the simulated MPI fabric.
// ---------------------------------------------------------------------------

/// "The ReadDir (a) receives requests from the Manager, (b) exposes
/// directory information, ... (d) sends collected file/sub-directory
/// information back to the Manager."
class ReadDirProc {
 public:
  ReadDirProc(PftoolJob& job, unsigned id) : job_(job), id_(id) {}

  void assign(std::string dir) {
    auto* sim = job_.env_.sim;
    obs::TraceRecorder& tr = job_.env_.obs->trace();
    const obs::SpanId sp = tr.begin_lane(obs::Component::Pftool, "readdir",
                                         "readdir", sim->now());
    tr.link(job_.span_, sp);
    sim->after(job_.cfg_.msg_latency, [this, sp, dir = std::move(dir)] {
      auto entries = job_.env_.src_fs->readdir(dir);
      std::vector<pfs::DirEntry> list =
          entries.ok() ? std::move(entries.value()) : std::vector<pfs::DirEntry>{};
      const Tick cost =
          job_.cfg_.readdir_per_entry * std::max<std::size_t>(1, list.size());
      job_.env_.sim->after(cost + job_.cfg_.msg_latency,
                           [this, sp, dir, list = std::move(list)]() mutable {
                             job_.env_.obs->trace().end(sp,
                                                        job_.env_.sim->now());
                             job_.on_dir_listed(this, dir, std::move(list));
                           });
    });
  }

  [[nodiscard]] unsigned id() const { return id_; }

 private:
  PftoolJob& job_;
  unsigned id_;
};

/// "Workers — file stat, file copy" (and pfcm comparison).  Each worker is
/// pinned to an FTA node; its copies traverse that node's NIC/HBA.
class WorkerProc {
 public:
  WorkerProc(PftoolJob& job, unsigned id, cluster::NodeId node)
      : job_(job), id_(id), node_(node) {}

  void assign_stat(std::vector<std::string> paths) {
    auto* sim = job_.env_.sim;
    obs::TraceRecorder& tr = job_.env_.obs->trace();
    const obs::SpanId sp =
        tr.begin_lane(obs::Component::Pftool, "stat", "stat", sim->now());
    tr.link(job_.span_, sp);
    const Tick cost = job_.cfg_.msg_latency +
                      job_.cfg_.stat_cost * std::max<std::size_t>(1, paths.size());
    sim->after(cost, [this, sp, paths = std::move(paths)] {
      std::vector<PftoolJob::FileMeta> metas;
      metas.reserve(paths.size());
      for (const std::string& p : paths) {
        const auto st = job_.env_.src_fs->stat(p);
        if (!st.ok()) continue;  // raced with deletion: drop
        PftoolJob::FileMeta m;
        m.path = p;
        m.fid = st.value().fid;
        m.size = st.value().size;
        m.tag = st.value().content_tag;
        m.dmapi = st.value().dmapi;
        metas.push_back(std::move(m));
      }
      job_.env_.sim->after(job_.cfg_.msg_latency,
                           [this, sp, metas = std::move(metas)]() mutable {
                             job_.env_.obs->trace().end(sp,
                                                        job_.env_.sim->now());
                             job_.on_stated(this, std::move(metas));
                           });
    });
  }

  void assign_work(PftoolJob::WorkItem item) {
    auto* sim = job_.env_.sim;
    obs::TraceRecorder& tr = job_.env_.obs->trace();
    item.span = tr.begin_lane(
        obs::Component::Pftool, "chunk",
        item.kind == PftoolJob::WorkItem::Kind::Compare ? "compare" : "chunk",
        sim->now());
    tr.link(job_.span_, item.span);
    sim->after(job_.cfg_.msg_latency, [this, item = std::move(item)] {
      if (item.kind == PftoolJob::WorkItem::Kind::Compare) {
        run_compare(item);
      } else {
        run_copy(item);
      }
    });
  }

  [[nodiscard]] cluster::NodeId node() const { return node_; }
  [[nodiscard]] unsigned id() const { return id_; }

  /// Respawn the (killed) worker process on a healthy node.  Copies whose
  /// flow has not started yet pick up the new pinning automatically.
  void set_node(cluster::NodeId node) { node_ = node; }

  /// Kills the worker's in-flight copy flow (FTA node crash).  Returns
  /// false when nothing was actually on the wire — e.g. the worker is in a
  /// message/setup delay, or the flow just completed and its callback is
  /// queued; those paths run to completion on their own.  On success the
  /// aborted chunk is routed through on_chunk_done(..., false) so it gets
  /// the standard retry treatment.
  bool abort_inflight() {
    if (!has_flow_) return false;
    if (!job_.env_.net->abort_flow(flow_)) return false;
    has_flow_ = false;
    job_.env_.cluster->remove_load(flow_node_);
    job_.env_.sim->after(job_.cfg_.msg_latency,
                         [this, item = inflight_]() mutable {
                           job_.on_chunk_done(this, item, false);
                         });
    return true;
  }

 private:
  void run_copy(const PftoolJob::WorkItem& item) {
    // Per-file metadata overhead (open/create/close) on the first chunk.
    const Tick setup = item.chunk.index == 0 ? job_.cfg_.per_file_cost : 0;
    job_.env_.sim->after(setup, [this, item] { run_copy_flow(item); });
  }

  void run_copy_flow(const PftoolJob::WorkItem& item) {
    job_.env_.cluster->add_load(node_);
    flow_node_ = node_;  // the node whose load/pinning this flow uses
    std::vector<cpa::sim::PathLeg> path = job_.env_.cluster->copy_path(
        node_, *job_.env_.src_fs, item.src_fid, *job_.env_.dst_fs, item.dst_fid,
        item.chunk.offset, item.chunk.bytes);
    if (item.shared_dst_pool.valid()) path.emplace_back(item.shared_dst_pool);
    // Per-tenant bandwidth cap: every data flow of a capped tenant shares
    // its shaper pool, so the tenant's aggregate PFS rate is bounded.
    path.insert(path.end(), job_.env_.shaper_legs.begin(),
                job_.env_.shaper_legs.end());
    const double cap = job_.cfg_.per_stream_max_bps > 0
                           ? job_.cfg_.per_stream_max_bps
                           : cpa::sim::FlowNetwork::kUnlimited;
    inflight_ = item;
    // The flow probe records the transfer span; parent context links it
    // under this chunk so the profiler sees job -> chunk -> flow.
    obs::TraceRecorder& tr = job_.env_.obs->trace();
    tr.push_parent(item.span);
    flow_ = job_.env_.net->start_flow(
        std::move(path), static_cast<double>(item.chunk.bytes),
        [this, item](const cpa::sim::FlowStats&) {
          has_flow_ = false;
          job_.env_.cluster->remove_load(flow_node_);
          bool ok = true;
          if (item.mode == CopyMode::FuseNtoN && job_.env_.fuse != nullptr) {
            ok = job_.env_.fuse->write_chunk(
                     item.dst, item.chunk.index,
                     chunk_tag(item.file_tag, item.chunk.index)) ==
                 pfs::Errc::Ok;
          }
          job_.env_.sim->after(job_.cfg_.msg_latency, [this, item, ok] {
            job_.on_chunk_done(this, item, ok);
          });
        },
        cap);
    tr.pop_parent();
    has_flow_ = true;
  }

  void run_compare(const PftoolJob::WorkItem& item) {
    // Byte-content comparison is modeled as a metadata-side check of the
    // content tags plus sizes; the cost charged is two stats.
    const Tick cost = 2 * job_.cfg_.stat_cost;
    job_.env_.sim->after(cost, [this, item] {
      bool comparable = true;
      bool match = false;
      const auto src_tag = job_.env_.src_fs->read_tag(item.src);
      std::uint64_t dst_tag = 0;
      std::uint64_t dst_size = 0;
      if (job_.env_.fuse != nullptr && job_.env_.fuse->is_chunked(item.dst)) {
        const auto st = job_.env_.fuse->stat(item.dst);
        const auto tag = job_.env_.fuse->origin_tag(item.dst);
        if (!st.ok() || !tag.ok() || !st.value().complete) {
          comparable = false;
        } else {
          dst_size = st.value().size;
          dst_tag = tag.value();
        }
      } else {
        const auto st = job_.env_.dst_fs->stat(item.dst);
        const auto tag = job_.env_.dst_fs->read_tag(item.dst);
        if (!st.ok() || !tag.ok()) {
          comparable = false;
        } else {
          dst_size = st.value().size;
          dst_tag = tag.value();
        }
      }
      if (!src_tag.ok()) comparable = false;
      if (comparable) {
        match = dst_size == item.file_size && dst_tag == src_tag.value();
      }
      job_.env_.sim->after(job_.cfg_.msg_latency, [this, item, comparable, match] {
        job_.on_compared(this, item, comparable, match);
      });
    });
  }

  PftoolJob& job_;
  unsigned id_;
  cluster::NodeId node_;
  // In-flight copy flow, retained so a node crash can abort it.
  cpa::sim::FlowId flow_{};
  cluster::NodeId flow_node_ = 0;
  bool has_flow_ = false;
  PftoolJob::WorkItem inflight_;
};

/// "The TapeProc (a) receives requests from the Manager, (b) restores
/// migrated files from tapes to the archival GPFS parallel file system,
/// and (c) sends additional restored tape file copy request to the
/// Manager."
class TapeRestoreProc {
 public:
  TapeRestoreProc(PftoolJob& job, unsigned id, cluster::NodeId node)
      : job_(job), id_(id), node_(node) {}

  void assign(std::uint64_t cartridge, std::vector<PftoolJob::FileMeta> metas) {
    (void)cartridge;
    auto* sim = job_.env_.sim;
    sim->after(job_.cfg_.msg_latency, [this, metas = std::move(metas)] {
      std::vector<std::string> paths;
      paths.reserve(metas.size());
      for (const auto& m : metas) paths.push_back(m.path);
      hsm::RecallOptions opts =
          hsm::RecallOptions{}
              .with_tape_ordered(job_.cfg_.tape_optimization)
              .with_assignment(hsm::RecallOptions::Assignment::TapeAffinity)
              .with_nodes({node_})
              .with_max_parallel_tapes(1)
              .with_parent_span(job_.span_)
              .with_tenant(job_.env_.tenant)
              .with_qos(job_.env_.qos);
      job_.env_.hsm->recall(
          std::move(paths), opts,
          [this, metas = std::move(metas)](const hsm::RecallReport& r) mutable {
            PftoolJob::RestoreStats stats;
            stats.failed = r.files_failed;
            stats.unrepairable = r.files_unrepairable;
            stats.fixity_verified = r.fixity_verified;
            stats.fixity_mismatches = r.fixity_mismatches;
            job_.env_.sim->after(job_.cfg_.msg_latency,
                                 [this, metas = std::move(metas),
                                  stats]() mutable {
                                   job_.on_restored(this, std::move(metas),
                                                    stats);
                                 });
          });
    });
  }

  [[nodiscard]] cluster::NodeId node() const { return node_; }
  [[nodiscard]] unsigned id() const { return id_; }
  void set_node(cluster::NodeId node) { node_ = node; }

 private:
  PftoolJob& job_;
  unsigned id_;
  cluster::NodeId node_;
};

/// "The WatchDog is a run-time PFTool progress indicator that runs
/// periodically."
class WatchDogProc {
 public:
  explicit WatchDogProc(PftoolJob& job) : job_(job) {}

  void start() {
    armed_ = true;
    schedule();
  }
  void stop() {
    armed_ = false;
    if (event_.valid()) {
      job_.env_.sim->cancel(event_);
      event_ = {};
    }
  }

  [[nodiscard]] const std::vector<WatchdogSample>& samples() const {
    return samples_;
  }
  void record_sample(WatchdogSample s) { samples_.push_back(s); }

 private:
  void schedule() {
    event_ = job_.env_.sim->after(job_.cfg_.watchdog_period, [this] {
      event_ = {};
      if (!armed_) return;
      job_.watchdog_tick();
      if (armed_) schedule();
    });
  }

  PftoolJob& job_;
  bool armed_ = false;
  cpa::sim::Simulation::EventId event_{};
  std::vector<WatchdogSample> samples_;
};

/// "The OutPutProc handles the output of PFTool operation status and
/// results."
class OutPutProc {
 public:
  explicit OutPutProc(PftoolJob& job)
      : job_(job), state_(std::make_shared<State>()) {}

  void line(std::string text) {
    // Delivery is deferred by msg_latency and may outlive the job (the
    // system destroys finished jobs as soon as their done callback ran),
    // so the event shares ownership of the sink instead of capturing it.
    job_.env_.sim->after(job_.cfg_.msg_latency,
                         [s = state_, text = std::move(text)] {
                           ++s->lines;
                           s->last = std::move(text);
                         });
  }

  [[nodiscard]] std::uint64_t lines() const { return state_->lines; }
  [[nodiscard]] const std::string& last_line() const { return state_->last; }

 private:
  struct State {
    std::uint64_t lines = 0;
    std::string last;
  };
  PftoolJob& job_;
  std::shared_ptr<State> state_;
};

// ---------------------------------------------------------------------------
// PftoolJob (the Manager)
// ---------------------------------------------------------------------------

PftoolJob::PftoolJob(JobEnv env, PftoolConfig cfg, Command cmd,
                     std::string src_root, std::string dst_root,
                     std::function<void(const JobReport&)> done)
    : env_(env),
      cfg_(cfg),
      planner_(cfg.planner),
      cmd_(cmd),
      src_root_(std::move(src_root)),
      dst_root_(std::move(dst_root)),
      done_(std::move(done)),
      meter_(cfg.watchdog_period) {
  assert(env_.sim != nullptr && env_.net != nullptr && env_.cluster != nullptr);
  assert(env_.src_fs != nullptr);
  if (env_.dst_fs == nullptr) env_.dst_fs = env_.src_fs;
  if (env_.obs == nullptr) env_.obs = &obs::Observer::nil();
  obs::MetricsRegistry& m = env_.obs->metrics();
  c_chunks_copied_ = &m.counter("pftool.chunks_copied");
  c_chunks_failed_ = &m.counter("pftool.chunks_failed");
  c_bytes_copied_ = &m.counter("pftool.bytes_copied");
  report_.command = cmd_ == Command::Pfls   ? "pfls"
                    : cmd_ == Command::Pfcp ? "pfcp"
                                            : "pfcm";
  report_.src_root = src_root_;
  report_.dst_root = cmd_ == Command::Pfls ? "" : dst_root_;
}

PftoolJob::~PftoolJob() {
  if (node_listener_registered_) {
    env_.cluster->remove_node_listener(node_listener_);
    node_listener_registered_ = false;
  }
}

const std::vector<WatchdogSample>& PftoolJob::watchdog_samples() const {
  static const std::vector<WatchdogSample> kEmpty;
  return watchdog_ != nullptr ? watchdog_->samples() : kEmpty;
}

std::uint64_t PftoolJob::output_lines() const {
  return output_ != nullptr ? output_->lines() : 0;
}

std::string PftoolJob::dst_path_for(const std::string& src_path) const {
  if (src_path == src_root_) return dst_root_;
  assert(src_path.size() > src_root_.size());
  const std::string suffix = src_root_ == "/"
                                 ? src_path.substr(1)
                                 : src_path.substr(src_root_.size() + 1);
  return pfs::join_path(dst_root_, suffix);
}

void PftoolJob::start() {
  assert(!started_);
  started_ = true;
  report_.started = env_.sim->now();
  // A job that waited behind admission opens its root span back at submit
  // time, with an explicit admission_wait child covering the queued
  // stretch — pfprof then attributes the wait without breaking the
  // sum(buckets) == wall-clock invariant.
  const Tick span_begin = env_.was_queued && env_.queued_since < report_.started
                              ? env_.queued_since
                              : report_.started;
  obs::TraceRecorder& tr = env_.obs->trace();
  span_ = tr.begin_lane(obs::Component::Pftool, "job", report_.command,
                        span_begin);
  tr.arg(span_, "src", src_root_);
  if (!env_.tenant.empty()) {
    tr.arg(span_, "tenant", env_.tenant);
    tr.arg(span_, "qos", cpa::sched::to_string(env_.qos));
  }
  if (span_begin < report_.started) {
    tr.link(span_, tr.complete(obs::Component::Sched, "admission",
                               "admission_wait", span_begin, report_.started));
  }

  // Spawn the process set, pinning workers/tapeprocs to FTA nodes from the
  // LoadManager's current least-loaded machine list (Sec 4.1.2 item 1).
  const std::vector<cluster::NodeId> machines = env_.cluster->machine_list();
  for (unsigned i = 0; i < cfg_.num_readdir; ++i) {
    readdirs_.push_back(std::make_unique<ReadDirProc>(*this, i));
    idle_readdirs_.push_back(readdirs_.back().get());
  }
  for (unsigned i = 0; i < cfg_.num_workers; ++i) {
    workers_.push_back(std::make_unique<WorkerProc>(
        *this, i, machines[i % machines.size()]));
    idle_workers_.push_back(workers_.back().get());
  }
  const bool restore_possible = env_.hsm != nullptr && cmd_ == Command::Pfcp;
  if (restore_possible) {
    for (unsigned i = 0; i < cfg_.num_tapeprocs; ++i) {
      tapeprocs_.push_back(std::make_unique<TapeRestoreProc>(
          *this, i, machines[(cfg_.num_workers + i) % machines.size()]));
      idle_tapeprocs_.push_back(tapeprocs_.back().get());
    }
  }
  watchdog_ = std::make_unique<WatchDogProc>(*this);
  output_ = std::make_unique<OutPutProc>(*this);
  watchdog_->start();
  node_listener_ = env_.cluster->add_node_listener(
      [this](cluster::NodeId n, bool down) {
        if (down) on_node_down(n);
      });
  node_listener_registered_ = true;

  // Seed the tree walk.
  const auto st = env_.src_fs->stat(src_root_);
  if (!st.ok()) {
    ++report_.files_failed;
    finish();
    return;
  }
  if (cmd_ != Command::Pfls) {
    env_.dst_fs->mkdirs(st.value().kind == pfs::FileKind::Directory
                            ? dst_root_
                            : pfs::parent_path(dst_root_));
  }
  if (st.value().kind == pfs::FileKind::Directory) {
    dirq_.push(src_root_);
  } else {
    FileMeta m;
    m.path = src_root_;
    m.fid = st.value().fid;
    m.size = st.value().size;
    m.tag = st.value().content_tag;
    m.dmapi = st.value().dmapi;
    ++report_.files_stated;
    enqueue_file(m);
  }
  pump();
}

void PftoolJob::pump() {
  if (finished_) return;
  // Directories to ReadDir processes.
  while (!idle_readdirs_.empty() && !dirq_.empty()) {
    ReadDirProc* rd = idle_readdirs_.front();
    idle_readdirs_.pop_front();
    rd->assign(dirq_.pop());
  }
  // Cartridge restore batches to TapeProcs — only once the tree walk has
  // fully "lined up the tape restore file information into TapeCQs"
  // (Sec 4.1.1g): handing out a cartridge early would split its files
  // across TapeProcs and reintroduce the very thrashing the queues avoid.
  const bool walk_complete = dirq_.empty() && nameq_.empty() &&
                             outstanding_stats_ == 0 &&
                             idle_readdirs_.size() == readdirs_.size();
  while (walk_complete && !idle_tapeprocs_.empty() && !tapecq_.empty()) {
    TapeRestoreProc* tp = idle_tapeprocs_.front();
    idle_tapeprocs_.pop_front();
    std::uint64_t cart = 0;
    std::vector<FileMeta> metas;
    tapecq_.pop_cartridge(&cart, &metas);
    tp->assign(cart, std::move(metas));
  }
  // Stats, then copies/compares, to Workers.
  while (!idle_workers_.empty() && (!nameq_.empty() || !copyq_.empty())) {
    WorkerProc* w = idle_workers_.front();
    idle_workers_.pop_front();
    if (!nameq_.empty()) {
      std::vector<std::string> batch;
      while (!nameq_.empty() && batch.size() < cfg_.stat_batch) {
        batch.push_back(nameq_.pop());
      }
      ++outstanding_stats_;
      w->assign_stat(std::move(batch));
    } else {
      w->assign_work(copyq_.pop());
    }
  }
  maybe_finish();
}

void PftoolJob::on_dir_listed(ReadDirProc* rd, const std::string& dir,
                              std::vector<pfs::DirEntry> entries) {
  if (finished_) return;
  ++report_.dirs_walked;
  for (const pfs::DirEntry& e : entries) {
    const std::string child = pfs::join_path(dir, e.name);
    if (e.kind == pfs::FileKind::Directory) {
      if (cmd_ != Command::Pfls) {
        env_.dst_fs->mkdirs(dst_path_for(child));
      }
      dirq_.push(child);
    } else {
      nameq_.push(child);
    }
  }
  idle_readdirs_.push_back(rd);
  pump();
}

void PftoolJob::on_stated(WorkerProc* w, std::vector<FileMeta> metas) {
  if (finished_) return;
  --outstanding_stats_;
  report_.files_stated += metas.size();
  for (const FileMeta& m : metas) enqueue_file(m);
  idle_workers_.push_back(w);
  pump();
}

void PftoolJob::enqueue_file(const FileMeta& meta) {
  switch (cmd_) {
    case Command::Pfls:
      output_->line(meta.path + " " + std::to_string(meta.size));
      return;
    case Command::Pfcm: {
      WorkItem item;
      item.kind = WorkItem::Kind::Compare;
      item.src = meta.path;
      item.dst = dst_path_for(meta.path);
      item.file_size = meta.size;
      item.file_tag = meta.tag;
      copyq_.push(std::move(item));
      return;
    }
    case Command::Pfcp:
      break;
  }
  // pfcp: migrated sources must come back from tape first (Sec 4.2.5 — the
  // export DB gives tape id and sequence, building the TapeCQs).
  if (meta.dmapi == pfs::DmapiState::Migrated) {
    if (env_.hsm == nullptr || tapeprocs_.empty()) {
      ++report_.files_failed;
      return;
    }
    const hsm::ArchiveObject* row =
        env_.hsm->server_for(meta.path).export_db().by_path(meta.path);
    if (row == nullptr) {
      ++report_.files_failed;
      return;
    }
    tapecq_.add(row->cartridge_id, row->tape_seq, meta);
    return;
  }
  plan_copy(meta);
}

void PftoolJob::plan_copy(const FileMeta& meta) {
  const std::string dst = dst_path_for(meta.path);
  CopyPlan plan = planner_.plan(meta.size);
  if (plan.mode == CopyMode::FuseNtoN && env_.fuse == nullptr) {
    plan.mode = CopyMode::ChunkedNto1;  // no FUSE mount: degrade gracefully
  }

  const bool journaled = cfg_.restartable && env_.journal != nullptr;
  pfs::FileId dst_fid;  // the destination's file, once found or created
  if (journaled && !env_.journal->known(dst)) {
    // No journal entry means either a fresh file or one a previous attempt
    // finished (and forgot).  If the destination already verifies against
    // the source, skip it — a relaunched job then re-sends only real work.
    bool done_already = false;
    if (env_.fuse != nullptr && env_.fuse->is_chunked(dst)) {
      const auto st = env_.fuse->stat(dst);
      const auto tag = env_.fuse->origin_tag(dst);
      done_already = st.ok() && st.value().complete &&
                     st.value().size == meta.size && tag.ok() &&
                     tag.value() == meta.tag;
    } else if (const auto st = env_.dst_fs->stat(dst); st.ok()) {
      dst_fid = st.value().fid;
      const auto tag = env_.dst_fs->read_tag(dst);
      done_already = st.value().size == meta.size && tag.ok() &&
                     tag.value() == meta.tag;
    }
    if (done_already) {
      report_.chunks_skipped_restart += plan.chunks.size();
      return;
    }
  }
  std::vector<std::uint64_t> pending;
  if (journaled) {
    env_.journal->begin(dst, meta.size, plan.chunks.size());
    pending = env_.journal->pending(dst);
  } else {
    pending.resize(plan.chunks.size());
    for (std::uint64_t i = 0; i < plan.chunks.size(); ++i) pending[i] = i;
  }
  report_.chunks_skipped_restart += plan.chunks.size() - pending.size();

  if (plan.mode == CopyMode::FuseNtoN) {
    dst_fid = {};  // the chunks live beside dst, not at it
    ++report_.fuse_files;
    const bool reuse = journaled && env_.fuse->is_chunked(dst) &&
                       env_.fuse->stat(dst).ok() &&
                       env_.fuse->stat(dst).value().size == meta.size;
    if (!reuse) {
      if (env_.fuse->create(dst, meta.size) != pfs::Errc::Ok) {
        ++report_.files_failed;
        return;
      }
    }
  } else if (!dst_fid.valid()) {
    std::string pool = cfg_.dest_pool_hint;
    if (pool.empty() && env_.placement) pool = env_.placement(dst);
    const auto created = env_.dst_fs->create(dst, pool);
    if (created.ok()) {
      dst_fid = created.value();
    } else if (created.error() == pfs::Errc::Exists) {
      // A restarted copy (or a directory in the way, which the final
      // write refuses): go on with what is there.
      const auto st = env_.dst_fs->stat(dst);
      if (st.ok()) dst_fid = st.value().fid;
    } else {
      ++report_.files_failed;
      return;
    }
  }

  PendingFile pf;
  pf.dst_fid = dst_fid;
  pf.remaining = pending.size();
  pf.size = meta.size;
  pf.tag = meta.tag;
  pf.mode = plan.mode;
  pending_files_[dst] = pf;
  if (pending.empty()) {
    finalize_file(dst);
    return;
  }
  // N writers into one destination file contend on its write locks; the
  // shared pool caps their aggregate (FUSE chunk files each stand alone).
  cpa::sim::PoolId shared_pool{};
  if (plan.mode == CopyMode::ChunkedNto1 && pending.size() > 1 &&
      cfg_.nto1_shared_file_bps > 0) {
    shared_pool = env_.net->add_pool("nto1:" + dst, cfg_.nto1_shared_file_bps);
  }
  for (const std::uint64_t idx : pending) {
    WorkItem item;
    item.kind = WorkItem::Kind::Copy;
    item.src = meta.path;
    item.dst = dst;
    item.src_fid = meta.fid;
    item.dst_fid = dst_fid;
    item.file_tag = meta.tag;
    item.file_size = meta.size;
    item.mode = plan.mode;
    item.chunk = plan.chunks[idx];
    item.shared_dst_pool = shared_pool;
    copyq_.push(std::move(item));
  }
}

void PftoolJob::on_chunk_done(WorkerProc* w, const WorkItem& item, bool ok) {
  if (finished_) return;
  env_.obs->trace().end(item.span, env_.sim->now());
  idle_workers_.push_back(w);
  auto it = pending_files_.find(item.dst);
  if (it == pending_files_.end()) {
    pump();
    return;
  }
  if (!ok) {
    c_chunks_failed_->inc();
    if (cfg_.restartable && env_.journal != nullptr) {
      env_.journal->mark_bad(item.dst, item.chunk.index);
    }
    if (cfg_.retry.allows(item.attempt + 1)) {
      // Transient failure with budget left: requeue after backoff instead
      // of failing the file.  The file's remaining count is untouched.
      ++report_.chunk_retries;
      ++pending_retries_;
      WorkItem again = item;
      ++again.attempt;
      const Tick delay = cfg_.retry.delay(again.attempt);
      // The backoff window itself is a cause of job latency: record it so
      // the profiler can attribute it (RetryBackoff bucket).
      obs::TraceRecorder& tr = env_.obs->trace();
      tr.link(span_, tr.complete(obs::Component::Pftool, "retry",
                                 "retry_backoff", env_.sim->now(),
                                 env_.sim->now() + delay));
      env_.sim->after(delay,
                      [this, again = std::move(again)]() mutable {
                        --pending_retries_;
                        if (finished_) return;
                        copyq_.push(std::move(again));
                        pump();
                      });
      pump();
      return;
    }
    it->second.failed = true;
  } else {
    ++report_.chunks_copied;
    report_.bytes_copied += item.chunk.bytes;
    c_chunks_copied_->inc();
    c_bytes_copied_->add(item.chunk.bytes);
    if (cfg_.verify_fixity) ++report_.chunks_verified;
    meter_.record(env_.sim->now(), item.chunk.bytes, 0);
    if (cfg_.restartable && env_.journal != nullptr) {
      env_.journal->mark_good(item.dst, item.chunk.index);
    }
  }
  if (--it->second.remaining == 0) {
    finalize_file(item.dst);
  }
  pump();
}

void PftoolJob::finalize_file(const std::string& dst) {
  auto it = pending_files_.find(dst);
  assert(it != pending_files_.end());
  const PendingFile pf = it->second;
  pending_files_.erase(it);
  if (pf.failed) {
    ++report_.files_failed;
    return;
  }
  bool ok = true;
  if (pf.mode == CopyMode::FuseNtoN) {
    ok = env_.fuse->set_origin_tag(dst, pf.tag) == pfs::Errc::Ok;
  } else {
    ok = env_.dst_fs->write_all(pf.dst_fid, pf.size, pf.tag) == pfs::Errc::Ok;
  }
  if (!ok) {
    ++report_.files_failed;
    return;
  }
  if (cfg_.verify_fixity) {
    // --verify: read the destination's content tag back and compare it
    // against the source's.  This is the pfcm comparison inlined into the
    // copy job, so a corrupted write surfaces before the job reports done.
    bool match = false;
    if (pf.mode == CopyMode::FuseNtoN) {
      const auto tag = env_.fuse->origin_tag(dst);
      match = tag.ok() && tag.value() == pf.tag;
    } else {
      const auto tag = env_.dst_fs->read_tag(dst);
      match = tag.ok() && tag.value() == pf.tag;
    }
    if (!match) {
      ++report_.fixity_mismatches;
      ++report_.files_failed;
      return;
    }
  }
  ++report_.files_copied;
  meter_.record(env_.sim->now(), 0, 1);
  if (cfg_.restartable && env_.journal != nullptr) {
    env_.journal->forget(dst);
  }
}

void PftoolJob::on_compared(WorkerProc* w, const WorkItem& item,
                            bool comparable, bool match) {
  if (finished_) return;
  env_.obs->trace().end(item.span, env_.sim->now());
  idle_workers_.push_back(w);
  if (!comparable) {
    ++report_.files_failed;
  } else {
    ++report_.files_compared;
    if (match) {
      ++report_.files_matched;
    } else {
      ++report_.files_mismatched;
    }
  }
  meter_.record(env_.sim->now(), 0, 1);
  pump();
}

void PftoolJob::on_restored(TapeRestoreProc* tp, std::vector<FileMeta> metas,
                            RestoreStats stats) {
  if (finished_) return;
  idle_tapeprocs_.push_back(tp);
  ++report_.tapes_touched;
  const unsigned failed = stats.failed;
  report_.files_restored += metas.size() - std::min<std::size_t>(failed, metas.size());
  report_.files_failed += failed;
  report_.files_unrepairable += stats.unrepairable;
  report_.fixity_verified += stats.fixity_verified;
  report_.fixity_mismatches += stats.fixity_mismatches;
  // "receives additional restored tape file copy request from TapeProc
  // processes and assigns them to Workers for further copying" — every
  // successfully restored file becomes a normal copy job.
  // (When a batch partially fails we conservatively re-plan only the
  // files the recall reported as resolved; failures are rare in the sim.)
  std::size_t to_plan = metas.size() - std::min<std::size_t>(failed, metas.size());
  for (std::size_t i = 0; i < metas.size() && to_plan > 0; ++i, --to_plan) {
    meter_.record(env_.sim->now(), 0, 0);
    plan_copy(metas[i]);
  }
  pump();
}

void PftoolJob::watchdog_tick() {
  if (finished_) return;
  WatchdogSample s;
  s.at = env_.sim->now();
  s.total_files = meter_.total_files();
  s.total_bytes = meter_.total_bytes();
  s.window_files = meter_.files_in_window(s.at);
  s.window_bytes = meter_.bytes_in_window(s.at);
  watchdog_->record_sample(s);
  env_.obs->trace().instant(obs::Component::Pftool, "watchdog", "tick", s.at);
  const Tick last = std::max(meter_.last_progress(), report_.started);
  if (s.at > last && s.at - last >= cfg_.stall_timeout) {
    abort_stalled();
  }
}

void PftoolJob::abort_stalled() {
  if (finished_) return;
  report_.aborted_by_watchdog = true;
  env_.obs->metrics().counter("pftool.watchdog_aborts").inc();
  env_.obs->trace().instant(obs::Component::Pftool, "watchdog", "stall_abort",
                            env_.sim->now());
  finish();
}

void PftoolJob::abort_crashed() {
  if (finished_) return;
  report_.aborted_by_crash = true;
  env_.obs->metrics().counter("pftool.crash_aborts").inc();
  env_.obs->trace().instant(obs::Component::Pftool, "fault", "power_fail",
                            env_.sim->now());
  finish();
}

void PftoolJob::maybe_finish() {
  if (finished_ || !started_) return;
  const bool queues_empty =
      dirq_.empty() && nameq_.empty() && copyq_.empty() && tapecq_.empty();
  const bool procs_idle = idle_readdirs_.size() == readdirs_.size() &&
                          idle_workers_.size() == workers_.size() &&
                          idle_tapeprocs_.size() == tapeprocs_.size();
  if (queues_empty && procs_idle && pending_files_.empty() &&
      pending_retries_ == 0) {
    finish();
  }
}

void PftoolJob::on_node_down(cluster::NodeId node) {
  if (finished_ || !started_) return;
  // Healthy nodes to respawn on (falls back to all nodes in a total
  // outage — the respawned workers then fail and retry until repair).
  const std::vector<cluster::NodeId> machines = env_.cluster->machine_list();
  std::size_t next = 0;
  for (auto& w : workers_) {
    if (w->node() != node) continue;
    ++report_.worker_crashes;
    w->set_node(machines[next++ % machines.size()]);
    if (w->abort_inflight()) {
      env_.obs->trace().instant(obs::Component::Pftool, "fault",
                                "worker_killed", env_.sim->now());
    }
  }
  for (auto& tp : tapeprocs_) {
    if (tp->node() != node) continue;
    tp->set_node(machines[next++ % machines.size()]);
  }
}

void PftoolJob::finish() {
  if (finished_) return;
  finished_ = true;
  if (watchdog_ != nullptr) watchdog_->stop();
  if (node_listener_registered_) {
    env_.cluster->remove_node_listener(node_listener_);
    node_listener_registered_ = false;
  }
  report_.finished = env_.sim->now();
  report_.dirq_max_depth = dirq_.max_depth();
  report_.nameq_max_depth = nameq_.max_depth();
  report_.copyq_max_depth = copyq_.max_depth();
  report_.tapecq_cartridges = tapecq_.total_enqueued() == 0
                                  ? 0
                                  : report_.tapes_touched;
  // File-level totals fold in once per job, so the registry always agrees
  // with the sum of finished JobReports.
  obs::MetricsRegistry& m = env_.obs->metrics();
  m.counter("pftool.jobs").inc();
  m.counter("pftool.files_copied").add(report_.files_copied);
  m.counter("pftool.files_failed").add(report_.files_failed);
  m.counter("pftool.files_restored").add(report_.files_restored);
  m.counter("pftool.files_compared").add(report_.files_compared);
  m.counter("pftool.chunks_skipped_restart").add(report_.chunks_skipped_restart);
  m.counter("pftool.tapes_touched").add(report_.tapes_touched);
  m.counter("pftool.fuse_files").add(report_.fuse_files);
  m.counter("pftool.retries_total").add(report_.chunk_retries);
  m.counter("pftool.worker_crashes").add(report_.worker_crashes);
  // Fixity counters appear only when verification ran or tape damage was
  // seen, so fault-free runs keep an unchanged registry.
  if (report_.chunks_verified > 0) {
    m.counter("pftool.chunks_verified").add(report_.chunks_verified);
  }
  if (report_.fixity_mismatches > 0) {
    m.counter("pftool.fixity_mismatches").add(report_.fixity_mismatches);
  }
  if (report_.files_unrepairable > 0) {
    m.counter("pftool.files_unrepairable").add(report_.files_unrepairable);
  }
  env_.obs->trace().arg_num(span_, "files", report_.files_copied);
  env_.obs->trace().arg_num(span_, "bytes", report_.bytes_copied);
  env_.obs->trace().end(span_, report_.finished);
  if (done_) {
    env_.sim->after(0, [this] { done_(report_); });
  }
}

// ---------------------------------------------------------------------------
// Synchronous wrappers
// ---------------------------------------------------------------------------

namespace {

JobReport run_command(JobEnv env, PftoolConfig cfg, Command cmd,
                      const std::string& src, const std::string& dst) {
  JobReport out;
  PftoolJob job(env, cfg, cmd, src, dst, [&](const JobReport& r) { out = r; });
  job.start();
  env.sim->run();
  return out;
}

}  // namespace

JobReport run_pfls(JobEnv env, PftoolConfig cfg, const std::string& root) {
  return run_command(env, cfg, Command::Pfls, root, "");
}

JobReport run_pfcp(JobEnv env, PftoolConfig cfg, const std::string& src_root,
                   const std::string& dst_root) {
  return run_command(env, cfg, Command::Pfcp, src_root, dst_root);
}

JobReport run_pfcm(JobEnv env, PftoolConfig cfg, const std::string& src_root,
                   const std::string& dst_root) {
  return run_command(env, cfg, Command::Pfcm, src_root, dst_root);
}

}  // namespace cpa::pftool::sim
