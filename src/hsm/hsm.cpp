#include "hsm/hsm.hpp"

#include <algorithm>
#include <cassert>
#include <set>

#include "hsm/balance.hpp"
#include "sched/scheduler.hpp"
#include "simcore/hash.hpp"

namespace cpa::hsm {
namespace {

// A live segment with its sequence number, snapshotted before a loop that
// mutates the cartridge.
struct LiveSegment {
  std::uint64_t seq = 0;
  tape::Segment seg;
};

std::vector<LiveSegment> live_segments(const tape::Cartridge& cart) {
  std::vector<LiveSegment> live;
  const std::vector<tape::Segment>& segs = cart.segments();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (segs[i].object_id != 0) live.push_back(LiveSegment{i + 1, segs[i]});
  }
  return live;
}

}  // namespace

// ---------------------------------------------------------------------------
// Job state
// ---------------------------------------------------------------------------

template <class Report>
struct HsmSystem::Job {
  Report report;
  obs::SpanId span;
  /// Set by power_fail: every continuation re-entry bails out, leaving
  /// drive/cartridge bookkeeping to the library's own crash path.
  bool dead = false;
  std::uint64_t abort_id = 0;
  std::function<void(const Report&)> done;
};

struct HsmSystem::MigrateJob : Job<MigrateReport> {
  /// A file as the batch's intake stat found it.  The disk legs and the
  /// premigrate/punch transition go by `fid`; `path` names the catalog
  /// row and routes to the owning server.
  struct Item {
    std::string path;
    std::uint64_t size = 0;
    std::uint64_t tag = 0;
    pfs::FileId fid;
  };
  struct WriteUnit {
    std::vector<std::size_t> items;  // indices into `items`
    std::uint64_t bytes = 0;
    bool aggregate = false;
  };

  tape::NodeId node = 0;
  std::string group;
  std::vector<Item> items;
  std::vector<WriteUnit> units;
  std::size_t next_unit = 0;
  /// Failed attempts on the current unit (reset when the unit advances).
  unsigned unit_attempts = 0;
  /// 0 = primary pool; 1..tape_copies-1 = copy-pool passes over the same
  /// units (run before files are punched, while data is still on disk).
  unsigned copy_phase = 0;
  tape::TapeDrive* drive = nullptr;
  tape::Cartridge* cart = nullptr;
  /// Tenant/QoS the batch's drive holds are charged to (empty: unmanaged).
  sched::WorkClass wc;
  /// Per-tenant bandwidth-shaper legs appended to every data flow.
  std::vector<sim::PathLeg> shaper;

  [[nodiscard]] tape::DriveRequest drive_request() const {
    return tape::DriveRequest{wc.tenant, wc.qos};
  }
  [[nodiscard]] std::string phase_group() const {
    return copy_phase == 0 ? group
                           : group + "~copy" + std::to_string(copy_phase);
  }
  [[nodiscard]] const Item& lead_item(const WriteUnit& unit) const {
    return items[unit.items.front()];
  }
  /// Moves on to the next unit.
  void advance() {
    ++next_unit;
    unit_attempts = 0;
  }
  /// Gives up on the current unit: its files fail on the primary pass (a
  /// copy pass leaves them migrated) and the batch moves on.
  void drop_unit() {
    if (copy_phase == 0) {
      report.files_failed += static_cast<unsigned>(units[next_unit].items.size());
    }
    advance();
  }

  /// Takes `path` as its intake stat `st` found it: a resident regular
  /// file becomes an item, anything else a failed file.
  void take(std::string path, const pfs::Result<pfs::InodeAttrs>& st) {
    if (!st.ok() || st.value().kind != pfs::FileKind::Regular ||
        st.value().dmapi != pfs::DmapiState::Resident) {
      ++report.files_failed;
      return;
    }
    const pfs::InodeAttrs& a = st.value();
    items.push_back(Item{std::move(path), a.size, a.content_tag, a.fid});
  }
};

struct HsmSystem::RecallJob : Job<RecallReport> {
  struct Entry {
    std::string path;
    std::uint64_t size = 0;
    std::uint64_t seq = 0;
    std::uint64_t oid = 0;  // owning tape object (aggregate for members)
    tape::NodeId node = 0;
    unsigned attempts = 0;  // failed read attempts so far
  };
  struct CartWork {
    tape::Cartridge* cart = nullptr;
    std::vector<Entry> entries;
  };

  RecallOptions options;
  std::vector<CartWork> work;
  std::size_t next_work = 0;   // next cartridge job to launch
  unsigned active = 0;
  /// Per-tenant bandwidth-shaper legs appended to every data flow.
  std::vector<sim::PathLeg> shaper;

  [[nodiscard]] tape::DriveRequest drive_request() const {
    return tape::DriveRequest{options.tenant, options.qos};
  }
};

struct HsmSystem::ReclaimJob : Job<ReclaimReport> {
  tape::NodeId node = 0;
  std::vector<tape::CartridgeId> victims;
  std::size_t next_victim = 0;
  // Per-victim state.
  tape::Cartridge* src = nullptr;
  tape::Cartridge* dst = nullptr;
  std::vector<LiveSegment> live;  // snapshot of live segments, seq order
  tape::TapeDrive* src_drive = nullptr;
  tape::TapeDrive* dst_drive = nullptr;

  /// Reclaim is background plant maintenance: Maintenance QoS lets any
  /// tenant's foreground work jump its drive requests.
  [[nodiscard]] tape::DriveRequest drive_request() const {
    return tape::DriveRequest{"", sched::QosClass::Maintenance};
  }
};

struct HsmSystem::ScrubJob : Job<integrity::ScrubReport> {
  integrity::ScrubConfig cfg;
  std::vector<integrity::FixityRow> rows;  // snapshot, in visit order
  std::size_t next = 0;
  tape::TapeDrive* drive = nullptr;
  std::uint64_t last_cart = 0;

  [[nodiscard]] tape::DriveRequest drive_request() const {
    return tape::DriveRequest{cfg.tenant, sched::QosClass::Maintenance};
  }
};

// ---------------------------------------------------------------------------
// The job skeleton
// ---------------------------------------------------------------------------

template <class J>
void HsmSystem::open_job(const std::shared_ptr<J>& job, obs::Component comp,
                         const char* lane, const char* name) {
  job->report.started = sim_.now();
  job->span = obs_->trace().begin_lane(comp, lane, name, sim_.now());
  job->abort_id = register_abort([this, job] {
    job->dead = true;
    job->report.finished = sim_.now();
    account(*job);
    if (job->done) job->done(job->report);
  });
}

template <class J>
void HsmSystem::close_job(const std::shared_ptr<J>& job, bool deferred) {
  unregister_abort(job->abort_id);
  job->report.finished = sim_.now();
  account(*job);
  if (!job->done) return;
  if (!deferred) {
    job->done(job->report);
    return;
  }
  sim_.after(0, [done = std::move(job->done), report = job->report] {
    done(report);
  });
}

template <class J, class K>
void HsmSystem::acquire(const std::shared_ptr<J>& job, K k) {
  const sim::Tick t_req = sim_.now();
  lib_.acquire_drive(job->drive_request(),
                     [this, job, t_req, k = std::move(k)](
                         tape::TapeDrive& drive) mutable {
                       if (job->dead) return;
                       trace_wait(obs::Component::Tape, "drive_wait",
                                  job->span, t_req);
                       k(drive);
                     });
}

template <class J, class K>
void HsmSystem::mount(const std::shared_ptr<J>& job, tape::TapeDrive& drive,
                      tape::Cartridge& cart, K k) {
  const sim::Tick t_m = sim_.now();
  lib_.ensure_mounted(drive, cart, [this, job, t_m, k = std::move(k)]() mutable {
    trace_wait(obs::Component::Tape, "mount_wait", job->span, t_m);
    k();
  });
}

template <class J, class K>
void HsmSystem::acquire_mounted(const std::shared_ptr<J>& job,
                                tape::Cartridge& cart, K k) {
  acquire(job, [this, job, &cart, k = std::move(k)](tape::TapeDrive& drive) {
    mount(job, drive, cart, [&drive, k]() mutable { k(drive); });
  });
}

template <class J, class K>
void HsmSystem::fail_over(const std::shared_ptr<J>& job, tape::TapeDrive& drive,
                          sim::Tick delay, tape::Cartridge& cart, K k) {
  // The library parks the dead drive; the retry runs on a healthy one.
  lib_.release_drive(drive);
  trace_backoff(job->span, delay);
  sim_.after(delay, [this, job, &cart, k = std::move(k)] {
    if (job->dead) return;
    acquire_mounted(job, cart, k);
  });
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

HsmSystem::HsmSystem(sim::Simulation& sim, sim::FlowNetwork& net,
                     pfs::FileSystem& fs, tape::TapeLibrary& library,
                     Fabric fabric, HsmConfig cfg)
    : sim_(sim),
      net_(net),
      fs_(fs),
      lib_(library),
      fabric_(std::move(fabric)),
      cfg_(cfg) {
  assert(cfg_.server_count >= 1);
  for (unsigned i = 0; i < cfg_.server_count; ++i) {
    ServerConfig sc = cfg_.server;
    // Disjoint id ranges keep object ids globally unique across servers.
    sc.object_id_base = 1 + static_cast<std::uint64_t>(i) * (1ULL << 44);
    servers_.push_back(std::make_unique<ArchiveServer>(
        sim_, net_, "tsm" + std::to_string(i), sc));
    TxnSession::Hooks hooks;
    // One group-commit fsync per applied batch (not per mutation): applied
    // implies durable whenever a WAL is attached.
    hooks.barrier = [this](std::function<void()> done) {
      barrier(std::move(done));
    };
    hooks.on_batch = [this](std::size_t n) { count_md_batch(n); };
    sessions_.push_back(std::make_unique<TxnSession>(
        sim_, *servers_.back(), sc.md_batch_size, std::move(hooks)));
  }
  fs_.set_dmapi_listener(this);
}

HsmSystem::~HsmSystem() { fs_.set_dmapi_listener(nullptr); }

std::uint64_t HsmSystem::register_abort(std::function<void()> fn) {
  const std::uint64_t id = next_abort_id_++;
  live_aborts_.emplace(id, std::move(fn));
  return id;
}

void HsmSystem::unregister_abort(std::uint64_t id) { live_aborts_.erase(id); }

void HsmSystem::power_fail() {
  // Abort first, wipe second: abort closures read their partial reports
  // and close spans, which must happen against a coherent registry.
  std::map<std::uint64_t, std::function<void()>> aborts;
  aborts.swap(live_aborts_);
  for (auto& [id, abort] : aborts) abort();
  // Sessions die with the plant: forming ops vanish and none of their
  // callbacks leak to the aborted jobs.  The server-side power generation
  // guard tears away the round-trip already in service.
  for (auto& session : sessions_) session->abandon();
  for (auto& server : servers_) server->power_fail();
  fixity_.clear();
  obs_->metrics().counter("hsm.power_fails").inc();
}

HsmSystem::CrashReconcileReport HsmSystem::reconcile_crash() {
  CrashReconcileReport rep;
  // Pass 0: deletes that lost their ack.  synchronous_delete unlinks the
  // inode and kills the tape segments physically; only the catalog and
  // fixity erasures ride the WAL.  A tear can therefore resurrect the
  // object of a file that is provably gone — roll the delete forward.  An
  // aggregate (no path) is gone once its member list is empty: the tear
  // fell after its last member's delete and before its own.
  for (auto& server : servers_) {
    std::vector<std::uint64_t> lost;
    server->for_each_object([&](const ArchiveObject& o) {
      const bool gone = o.path.empty()
                            ? server->links(o.object_id).members.empty()
                            : !fs_.exists(std::string(o.path));
      if (gone) lost.push_back(o.object_id);
    });
    for (const std::uint64_t id : lost) {
      delete_object_cascade(*server, id);
      ++rep.deletes_completed;
    }
  }
  // Pass 1: tape reality vs catalog.  Tape is physical truth for data;
  // the catalog (checkpoint + replayed WAL prefix) is truth for what was
  // promised durable.
  lib_.for_each_cartridge([&](tape::Cartridge& cart) {
    for (const auto& [seq, s] : live_segments(cart)) {
      ArchiveServer* srv = find_object_server(s.object_id);
      const ArchiveObject* obj =
          srv != nullptr ? srv->object(s.object_id) : nullptr;
      if (obj == nullptr) {
        // Written after the last fsync: no row survived, nothing can ever
        // reference it.  Dead bytes feed the next reclamation pass.
        cart.mark_deleted(s.object_id);
        ++rep.orphan_segments;
        continue;
      }
      const std::vector<ArchiveObject::Replica>& copies =
          srv->links(s.object_id).copies;
      const bool recorded_here =
          (obj->cartridge_id == cart.id() && obj->tape_seq == seq) ||
          std::any_of(copies.begin(), copies.end(),
                      [&](const ArchiveObject::Replica& r) {
                        return r.cartridge_id == cart.id() && r.tape_seq == seq;
                      });
      if (recorded_here) continue;
      // The catalog knows the object but records it elsewhere.  If the
      // recorded primary is gone — a crash mid-relocation after the
      // source segment was already invalidated — roll the catalog
      // forward to the surviving copy; otherwise this is a dead
      // duplicate from an un-fsynced relocation.
      tape::Cartridge* rec_cart = lib_.cartridge(obj->cartridge_id);
      const tape::Segment* rec_seg =
          rec_cart != nullptr ? rec_cart->segment_by_seq(obj->tape_seq)
                              : nullptr;
      if (rec_seg == nullptr || rec_seg->object_id != obj->object_id) {
        relocate_object(obj->object_id, obj->cartridge_id, cart.id(), seq);
        ++rep.adopted_segments;
      } else {
        cart.mark_deleted(s.object_id);
        ++rep.orphan_segments;
      }
    }
  });
  // Pass 2: fixity rows whose object vanished with the torn tail.
  std::set<std::uint64_t> dead_objects;
  fixity_.for_each([&](const integrity::FixityRow& r) {
    if (find_object_server(r.object_id) == nullptr) {
      dead_objects.insert(r.object_id);
    }
  });
  for (const std::uint64_t id : dead_objects) {
    fixity_.erase_object(id);
    ++rep.orphan_fixity_rows;
  }
  // Pass 2b: per-object location + fixity reconciliation.  A relocation
  // (reclaim, scrub repair) is several WAL records — object image, fixity
  // update — and the tear can land between any two of them.  For every
  // live object: drop recorded locations whose segment is dead (promote a
  // surviving copy to primary if the primary died), then demand the
  // fixity rows cover the live locations *exactly*, rebuilding them from
  // the checksums the tape segment headers carry when they don't — the
  // same media audit a real archive runs after a dirty stop.
  for (auto& server : servers_) {
    const auto seg_of = [this](std::uint64_t cart_id, std::uint64_t seq,
                               std::uint64_t object_id)
        -> const tape::Segment* {
      tape::Cartridge* cart = lib_.cartridge(cart_id);
      const tape::Segment* seg =
          cart != nullptr ? cart->segment_by_seq(seq) : nullptr;
      return seg != nullptr && seg->object_id == object_id ? seg : nullptr;
    };
    // Location fix-ups first (collected: the walk must not mutate the
    // table under itself).
    struct Fixup {
      ArchiveObject obj;
      ObjectLinks links;
    };
    std::vector<Fixup> fixups;
    server->for_each_object([&](const ArchiveObject& o) {
      if (o.is_member() || o.cartridge_id == 0) return;
      Fixup upd{o, server->links(o.object_id)};
      std::vector<ArchiveObject::Replica>& copies = upd.links.copies;
      const std::size_t before = copies.size();
      copies.erase(std::remove_if(copies.begin(), copies.end(),
                                  [&](const ArchiveObject::Replica& r) {
                                    return seg_of(r.cartridge_id, r.tape_seq,
                                                  o.object_id) == nullptr;
                                  }),
                   copies.end());
      bool changed = copies.size() != before;
      if (seg_of(o.cartridge_id, o.tape_seq, o.object_id) == nullptr &&
          !copies.empty()) {
        upd.obj.cartridge_id = copies.front().cartridge_id;
        upd.obj.tape_seq = copies.front().tape_seq;
        copies.erase(copies.begin());
        changed = true;
      }
      if (changed) fixups.push_back(std::move(upd));
    });
    for (Fixup& upd : fixups) {
      ++rep.locations_dropped;
      server->record_object(std::move(upd.obj), std::move(upd.links));
    }
    // Now the fixity rows, against the repaired locations.
    server->for_each_object([&](const ArchiveObject& o) {
      if (o.is_member() || o.cartridge_id == 0) return;
      struct Live {
        std::uint64_t cart, seq, bytes, checksum;
        unsigned ci;
      };
      std::vector<Live> live;
      auto note = [&](std::uint64_t cart_id, std::uint64_t seq, unsigned ci) {
        if (const tape::Segment* seg = seg_of(cart_id, seq, o.object_id)) {
          live.push_back({cart_id, seq, seg->bytes, seg->fingerprint, ci});
        }
      };
      note(o.cartridge_id, o.tape_seq, 0);
      unsigned ci = 1;
      for (const auto& cp : server->links(o.object_id).copies) {
        note(cp.cartridge_id, cp.tape_seq, ci++);
      }
      const auto rows = fixity_.by_object(o.object_id);
      bool exact = rows.size() == live.size();
      for (const integrity::FixityRow* r : rows) {
        if (!exact) break;
        exact = std::any_of(live.begin(), live.end(), [&](const Live& L) {
          return L.cart == r->cartridge_id && L.seq == r->tape_seq &&
                 L.bytes == r->length && L.checksum == r->checksum;
        });
      }
      if (exact) return;
      fixity_.erase_object(o.object_id);
      for (const Live& L : live) {
        fixity_.add(o.object_id, L.cart, L.seq, L.bytes, L.checksum, L.ci);
        ++rep.fixity_rebuilt;
      }
    });
  }
  // Pass 3: disk residency states vs catalog.  A premigrated inode whose
  // migration never became durable reverts to plain resident (the disk
  // copy is complete); a migrated stub without an object is data loss —
  // the pre-punch durability barrier exists to make that impossible.
  const auto cataloged = [this](const std::string& path) {
    return std::any_of(servers_.begin(), servers_.end(), [&](const auto& server) {
      return server->export_db().by_path(path) != nullptr;
    });
  };
  std::vector<std::string> remark;
  fs_.for_each_inode([&](const pfs::InodeView& v) {
    // Resident data needs no catalog object: skip it before the path.
    if (v.kind() != pfs::FileKind::Regular ||
        v.dmapi() == pfs::DmapiState::Resident) {
      return;
    }
    if (cataloged(v.path())) return;
    if (v.dmapi() == pfs::DmapiState::Premigrated) {
      remark.push_back(v.path());
    } else {
      ++rep.stub_violations;
    }
  });
  for (const std::string& path : remark) {
    fs_.make_resident(path);
    ++rep.premigrated_remarked;
  }
  obs::MetricsRegistry& m = obs_->metrics();
  if (rep.orphan_segments > 0) {
    m.counter("recovery.orphan_segments").add(rep.orphan_segments);
  }
  if (rep.adopted_segments > 0) {
    m.counter("recovery.adopted_segments").add(rep.adopted_segments);
  }
  if (rep.orphan_fixity_rows > 0) {
    m.counter("recovery.orphan_fixity_rows").add(rep.orphan_fixity_rows);
  }
  if (rep.fixity_rebuilt > 0) {
    m.counter("recovery.fixity_rebuilt").add(rep.fixity_rebuilt);
  }
  if (rep.deletes_completed > 0) {
    m.counter("recovery.deletes_completed").add(rep.deletes_completed);
  }
  if (rep.locations_dropped > 0) {
    m.counter("recovery.locations_dropped").add(rep.locations_dropped);
  }
  if (rep.premigrated_remarked > 0) {
    m.counter("recovery.premigrated_remarked").add(rep.premigrated_remarked);
  }
  if (rep.stub_violations > 0) {
    m.counter("recovery.stub_violations").add(rep.stub_violations);
  }
  return rep;
}

ArchiveServer& HsmSystem::server_for(const std::string& path) {
  if (servers_.size() == 1) return *servers_[0];
  return *servers_[sim::fnv1a64(path, sim::kFnv1a64ShortBasis) %
                   servers_.size()];
}

TxnSession& HsmSystem::session_for(ArchiveServer& server) {
  for (auto& session : sessions_) {
    if (&session->server() == &server) return *session;
  }
  assert(false && "server does not belong to this HsmSystem");
  return *sessions_.front();
}

void HsmSystem::submit_now(ArchiveServer& server, std::function<void()> op,
                           std::function<void()> applied) {
  TxnSession& session = session_for(server);
  session.submit(std::move(op), std::move(applied));
  session.flush();
}

void HsmSystem::count_md_batch(std::size_t n) {
  obs::MetricsRegistry& m = obs_->metrics();
  if (md_metrics_.registry != &m) {
    md_metrics_ = MdMetrics{&m, &m.counter("hsm.md_batches"),
                            &m.counter("hsm.md_batch_ops"),
                            &m.counter("hsm.md_txn_saved"),
                            &m.stats("hsm.md_batch_size")};
  }
  md_metrics_.batches->inc();
  md_metrics_.ops->add(n);
  md_metrics_.saved->add(n - 1);
  md_metrics_.size->add(static_cast<double>(n));
}

std::vector<sim::PathLeg> HsmSystem::net_legs(tape::NodeId node,
                                              const std::string& fs_path) const {
  std::vector<sim::PathLeg> pools;
  if (cfg_.lan_free) {
    for (const sim::PathLeg& p : fabric_.san_path(node)) pools.push_back(p);
  } else {
    for (const sim::PathLeg& p : fabric_.lan_path(node)) pools.push_back(p);
    // All server-routed data squeezes through the server's connection.
    pools.push_back(
        const_cast<HsmSystem*>(this)->server_for(fs_path).data_pool());
  }
  return pools;
}

std::vector<sim::PathLeg> HsmSystem::data_path(tape::NodeId node,
                                               const std::string& fs_path,
                                               std::uint64_t bytes) const {
  const auto st = fs_.stat(fs_path);
  std::vector<sim::PathLeg> pools =
      fabric_.disk_path(st.ok() ? st.value().fid : pfs::FileId{}, 0, bytes);
  for (const sim::PathLeg& p : net_legs(node, fs_path)) pools.push_back(p);
  return pools;
}

void HsmSystem::trace_wait(obs::Component comp, const char* name,
                           obs::SpanId parent, sim::Tick since) {
  if (sim_.now() <= since) return;
  obs::TraceRecorder& tr = obs_->trace();
  tr.link(parent, tr.complete(comp, name, name, since, sim_.now()));
}

void HsmSystem::trace_backoff(obs::SpanId parent, sim::Tick delay) {
  obs::TraceRecorder& tr = obs_->trace();
  tr.link(parent, tr.complete(obs::Component::Hsm, "retry", "retry_backoff",
                              sim_.now(), sim_.now() + delay));
}

// ---------------------------------------------------------------------------
// Migration
// ---------------------------------------------------------------------------

void HsmSystem::migrate_batch(tape::NodeId node, std::vector<std::string> paths,
                              std::string group,
                              std::function<void(const MigrateReport&)> done,
                              sched::WorkClass wc) {
  auto job = std::make_shared<MigrateJob>();
  for (std::string& path : paths) {
    const auto st = fs_.stat(path);
    job->take(std::move(path), st);
  }
  start_migrate(std::move(job), node, std::move(group), std::move(done),
                std::move(wc));
}

void HsmSystem::start_migrate(std::shared_ptr<MigrateJob> job,
                              tape::NodeId node, std::string group,
                              std::function<void(const MigrateReport&)> done,
                              sched::WorkClass wc) {
  job->node = node;
  job->group = std::move(group);
  job->done = std::move(done);
  job->wc = std::move(wc);
  if (sched_ != nullptr && !job->wc.tenant.empty()) {
    job->shaper = sched_->shaper_legs(job->wc.tenant);
  }
  open_job(job, obs::Component::Hsm, "migrate", "migrate_batch");
  obs_->trace().arg_num(
      job->span, "paths",
      static_cast<std::uint64_t>(job->items.size() + job->report.files_failed));

  // Build write units: optional aggregation of small files.
  if (cfg_.aggregation_enabled) {
    MigrateJob::WriteUnit agg;
    agg.aggregate = true;
    for (std::size_t i = 0; i < job->items.size(); ++i) {
      const auto& item = job->items[i];
      if (item.size < cfg_.aggregate_threshold) {
        if (agg.bytes + item.size > cfg_.aggregate_target && !agg.items.empty()) {
          job->units.push_back(std::move(agg));
          agg = MigrateJob::WriteUnit{};
          agg.aggregate = true;
        }
        agg.items.push_back(i);
        agg.bytes += item.size;
      } else {
        job->units.push_back(MigrateJob::WriteUnit{{i}, item.size, false});
      }
    }
    if (!agg.items.empty()) job->units.push_back(std::move(agg));
    // An "aggregate" of one file is just a file.
    for (auto& u : job->units) {
      if (u.items.size() == 1) u.aggregate = false;
    }
  } else {
    for (std::size_t i = 0; i < job->items.size(); ++i) {
      job->units.push_back(
          MigrateJob::WriteUnit{{i}, job->items[i].size, false});
    }
  }

  if (job->units.empty()) {
    sim_.after(0, [this, job] {
      if (!job->dead) close_job(job, /*deferred=*/false);
    });
    return;
  }
  acquire(job, [this, job](tape::TapeDrive& drive) {
    job->drive = &drive;
    run_migrate_unit(job);
  });
}

void HsmSystem::run_migrate_unit(std::shared_ptr<MigrateJob> job) {
  if (job->dead) return;
  if (job->next_unit >= job->units.size()) {
    // Copy-pool passes re-write every unit to a separate volume family
    // while the data is still on disk; files punch only after the last.
    if (job->copy_phase + 1 < cfg_.tape_copies) {
      ++job->copy_phase;
      job->next_unit = 0;
      if (job->cart != nullptr) {
        lib_.checkin_cartridge(*job->cart);
        job->cart = nullptr;
      }
      run_migrate_unit(job);
      return;
    }
    if (cfg_.tape_copies > 1) {
      // All copies exist; space management may now punch the disk data
      // (only for files that actually made it to tape).  The punch frees
      // the disk original, so the catalog rows must be durable first.
      // Every row this job wrote has applied, and applied implies
      // durable; the barrier stays as a guard.
      barrier([this, job] {
        if (job->dead) return;
        for (const auto& item : job->items) {
          if (owner_object_id(item.path) == 0) continue;
          if (fs_.premigrate(item.fid) == pfs::Errc::Ok &&
              cfg_.punch_after_migrate) {
            fs_.punch(item.fid);
          }
        }
        finish_migrate(job);
      });
      return;
    }
    finish_migrate(job);
    return;
  }
  const auto& unit = job->units[job->next_unit];

  // An object larger than a whole volume cannot be stored at all — the
  // paper's issue list item 2: "No way to get immense file from HSM disk
  // to parallel tapes and back (single stream of tapes)".  ArchiveFUSE
  // chunking exists precisely to keep objects below this limit.
  if (unit.bytes > lib_.config().cartridge_capacity) {
    job->report.files_failed += static_cast<unsigned>(unit.items.size());
    job->advance();
    run_migrate_unit(job);
    return;
  }

  // Volume management: roll to a new cartridge when the current one cannot
  // hold the unit.
  if (job->cart == nullptr || !job->cart->fits(unit.bytes)) {
    if (job->cart != nullptr) lib_.checkin_cartridge(*job->cart);
    job->cart = &lib_.checkout_cartridge(job->phase_group(), unit.bytes);
    mount(job, *job->drive, *job->cart, [this, job] { run_migrate_unit(job); });
    return;
  }

  // Disk-side pools: the union of the unit's members' stripe servers.
  // Members stream back to back into one tape object, so the load spreads
  // across the distinct servers — normalize weights to 1/N rather than
  // summing per-member weights.
  std::vector<sim::PathLeg> pools;
  for (const std::size_t idx : unit.items) {
    const auto& item = job->items[idx];
    for (const sim::PathLeg& leg : fabric_.disk_path(item.fid, 0, item.size)) {
      bool seen = false;
      for (const sim::PathLeg& have : pools) {
        if (have.pool == leg.pool) {
          seen = true;
          break;
        }
      }
      if (!seen) pools.push_back(leg);
    }
  }
  if (!pools.empty()) {
    const double w = 1.0 / static_cast<double>(pools.size());
    for (sim::PathLeg& leg : pools) leg.weight = w;
  }
  const std::string& lead_path = job->lead_item(unit).path;
  for (const sim::PathLeg& leg : net_legs(job->node, lead_path)) {
    pools.push_back(leg);
  }
  pools.insert(pools.end(), job->shaper.begin(), job->shaper.end());

  ArchiveServer& server = server_for(lead_path);
  std::uint64_t unit_oid = 0;
  if (job->copy_phase == 0) {
    unit_oid = server.allocate_object_id();
  } else {
    // Copy pass: the tape segment carries the owner object's id so media
    // reclamation (mark_deleted) works uniformly across copies.
    unit_oid = owner_object_id(lead_path);
    if (unit_oid == 0) {  // primary never landed; skip the copy
      job->advance();
      run_migrate_unit(job);
      return;
    }
  }

  const std::uint64_t epoch0 = server.epoch();
  job->drive->write_object(
      job->node, unit_oid, unit.bytes, std::move(pools),
      [this, job, unit_oid, &server, epoch0](const tape::Segment* seg,
                                             std::uint64_t seq) {
        if (job->dead) return;
        const auto& unit = job->units[job->next_unit];
        if (seg == nullptr) {
          // A write fails transiently when the drive died (mid-transfer
          // or before it started); everything else — oversized object,
          // unmounted cartridge in a fault-free run — is permanent.
          if (job->drive->failed() &&
              cfg_.retry.allows(++job->unit_attempts)) {
            ++job->report.retries;
            tape::TapeDrive& failed = *job->drive;
            job->drive = nullptr;
            fail_over(job, failed, cfg_.retry.delay(job->unit_attempts),
                      *job->cart, [this, job](tape::TapeDrive& drive) {
                        job->drive = &drive;
                        run_migrate_unit(job);
                      });
            return;
          }
          job->drop_unit();
          run_migrate_unit(job);
          return;
        }
        if (server.epoch() != epoch0) {
          // The archive server restarted while the unit streamed: the
          // session died with it, so the just-written object was never
          // committed.  Reclaim the dead segment and requeue the unit.
          job->cart->mark_deleted(unit_oid);
          ++job->report.units_requeued;
          if (cfg_.retry.allows(++job->unit_attempts)) {
            ++job->report.retries;
            const sim::Tick delay = cfg_.retry.delay(job->unit_attempts);
            trace_backoff(job->span, delay);
            sim_.after(delay, [this, job] { run_migrate_unit(job); });
          } else {
            job->drop_unit();
            run_migrate_unit(job);
          }
          return;
        }
        ++job->report.tape_objects_written;
        // Fixity: checksum the unit's content identity, stamp it on the
        // just-written segment, and record the row next to the tape
        // position.  Rides the write completion — zero virtual time, and
        // primary + copy passes produce the same checksum so copy-pool
        // repair can compare like for like.
        {
          std::uint64_t sum = integrity::fixity_checksum(
              unit_oid, unit.bytes, 0, cfg_.content_salt);
          for (const std::size_t idx : unit.items) {
            sum = integrity::fixity_fold(sum, job->items[idx].tag);
            sum = integrity::fixity_fold(sum, job->items[idx].size);
          }
          job->cart->set_fingerprint(seq, sum);
          fixity_.add(unit_oid, job->cart->id(), seq, unit.bytes, sum,
                      job->copy_phase);
          ++job->report.checksums_computed;
        }
        if (job->copy_phase > 0) {
          // One mutation registers the replica on the owner object; the
          // next unit's tape write starts once it has applied.
          ArchiveServer& owner = server_for(job->lead_item(unit).path);
          const std::uint64_t cart_id = job->cart->id();
          const sim::Tick t_md = sim_.now();
          submit_now(
              owner,
              [&owner, unit_oid, cart_id, seq] {
                if (const ArchiveObject* obj = owner.object(unit_oid)) {
                  ObjectLinks links = owner.links(unit_oid);
                  links.copies.push_back(ArchiveObject::Replica{cart_id, seq});
                  owner.record_object(*obj, std::move(links));
                }
              },
              [this, job, t_md] {
                if (job->dead) return;
                trace_wait(obs::Component::Hsm, "md_txn", job->span, t_md);
                job->advance();
                run_migrate_unit(job);
              });
          return;
        }
        record_unit_objects(job, unit_oid, job->cart->id(), seq);
      },
      job->span);
}

std::uint64_t HsmSystem::owner_object_id(const std::string& path) {
  const ArchiveObject* obj = server_for(path).export_db().by_path(path);
  if (obj == nullptr) return 0;
  return obj->is_member() ? obj->aggregate_id : obj->object_id;
}

void HsmSystem::record_unit_objects(std::shared_ptr<MigrateJob> job,
                                    std::uint64_t unit_oid,
                                    std::uint64_t cart_id, std::uint64_t seq) {
  const auto& unit = job->units[job->next_unit];
  // The state transition (premigrate + punch) joins on every row of the
  // unit being applied — and so durable: the punch frees the disk
  // original, so no row covering it may still be in flight.  With copy
  // pools the punch waits until the last copy pass — the disk data is
  // its source.
  const sim::Tick t_md = sim_.now();
  auto remaining = std::make_shared<std::size_t>(unit.items.size() +
                                                 (unit.aggregate ? 1 : 0));
  auto arrive = [this, job, remaining, t_md] {
    if (job->dead) return;
    if (--*remaining > 0) return;
    trace_wait(obs::Component::Hsm, "md_txn", job->span, t_md);
    const auto& unit = job->units[job->next_unit];
    for (const std::size_t idx : unit.items) {
      const auto& item = job->items[idx];
      if (cfg_.tape_copies == 1) {
        if (fs_.premigrate(item.fid) == pfs::Errc::Ok &&
            cfg_.punch_after_migrate) {
          fs_.punch(item.fid);
        }
      }
      ++job->report.files_migrated;
      job->report.bytes += item.size;
    }
    job->advance();
    run_migrate_unit(job);
  };
  std::vector<ArchiveServer*> touched;
  auto record = [&](ArchiveServer& owner, ArchiveObject obj, ObjectLinks links) {
    if (std::find(touched.begin(), touched.end(), &owner) == touched.end()) {
      touched.push_back(&owner);
    }
    obj.group = owner.group_id(job->group);
    session_for(owner).submit(
        [&owner, obj = std::move(obj), links = std::move(links)]() mutable {
          owner.record_object(std::move(obj), std::move(links));
        },
        arrive);
  };
  // One row per member (ids drawn from each owning server's counter in
  // member order), then the aggregate container that lists them.
  std::uint64_t agg_offset = 0;
  std::vector<std::uint64_t> member_ids;
  for (const std::size_t idx : unit.items) {
    const auto& item = job->items[idx];
    ArchiveServer& owner = server_for(item.path);
    ArchiveObject obj;
    obj.object_id = unit.aggregate ? owner.allocate_object_id() : unit_oid;
    obj.path = item.path;
    obj.gpfs_file_id = item.fid.packed();
    obj.size_bytes = item.size;
    obj.content_tag = item.tag;
    obj.cartridge_id = cart_id;
    obj.tape_seq = seq;
    if (unit.aggregate) {
      obj.aggregate_id = unit_oid;
      obj.aggregate_offset = agg_offset;
      agg_offset += item.size;
      member_ids.push_back(obj.object_id);
    }
    record(owner, std::move(obj), {});
  }
  if (unit.aggregate) {
    ArchiveObject agg;
    agg.object_id = unit_oid;
    agg.size_bytes = unit.bytes;
    agg.cartridge_id = cart_id;
    agg.tape_seq = seq;
    record(server_for(job->lead_item(unit).path), std::move(agg),
           ObjectLinks{std::move(member_ids), {}});
  }
  // The unit is complete: push its tail batch out now rather than waiting
  // for the flush timer.
  for (ArchiveServer* owner : touched) session_for(*owner).flush();
}

void HsmSystem::finish_migrate(std::shared_ptr<MigrateJob> job) {
  if (job->dead) return;
  if (job->cart != nullptr) {
    lib_.checkin_cartridge(*job->cart);
    job->cart = nullptr;
  }
  if (job->drive != nullptr) {
    // Leave the volume mounted: the library migrates it lazily when some
    // other job needs the drive or the volume.
    lib_.release_drive(*job->drive);
    job->drive = nullptr;
  }
  close_job(job, /*deferred=*/false);
}

void HsmSystem::account(const MigrateJob& job) {
  obs::MetricsRegistry& m = obs_->metrics();
  m.counter("hsm.migrate_batches").inc();
  m.counter("hsm.migrated_files").add(job.report.files_migrated);
  m.counter("hsm.migrate_failed_files").add(job.report.files_failed);
  m.counter("hsm.migrated_bytes").add(job.report.bytes);
  m.counter("hsm.tape_objects_written").add(job.report.tape_objects_written);
  if (job.report.checksums_computed > 0) {
    m.counter("integrity.checksums_computed").add(job.report.checksums_computed);
  }
  m.counter("hsm.migrate_retries").add(job.report.retries);
  m.counter("hsm.migrate_units_requeued").add(job.report.units_requeued);
  obs_->trace().arg_num(job.span, "files",
                        static_cast<std::uint64_t>(job.report.files_migrated));
  obs_->trace().arg_num(job.span, "bytes", job.report.bytes);
  obs_->trace().end(job.span, sim_.now());
}

void HsmSystem::parallel_migrate(std::vector<std::string> paths,
                                 std::vector<tape::NodeId> nodes,
                                 DistributionStrategy strategy, std::string group,
                                 std::function<void(const MigrateReport&)> done,
                                 sched::WorkClass wc) {
  assert(!nodes.empty());
  // One stat per path: its size weighs the path for distribution, and the
  // batch that gets the path keeps the result as its intake.
  std::vector<pfs::Result<pfs::InodeAttrs>> stats;
  std::vector<std::uint64_t> weights;
  stats.reserve(paths.size());
  weights.reserve(paths.size());
  for (const auto& p : paths) {
    stats.push_back(fs_.stat(p));
    weights.push_back(stats.back().ok() ? stats.back().value().size : 0);
  }
  const Distribution dist =
      strategy == DistributionStrategy::SizeBalanced
          ? size_balanced_distribute(weights, static_cast<unsigned>(nodes.size()))
          : naive_distribute(weights, static_cast<unsigned>(nodes.size()));

  struct Combined {
    MigrateReport report;
    std::size_t outstanding = 0;
    std::function<void(const MigrateReport&)> done;
  };
  auto combined = std::make_shared<Combined>();
  combined->report.started = sim_.now();
  combined->done = std::move(done);

  std::vector<std::pair<tape::NodeId, std::shared_ptr<MigrateJob>>> batches;
  for (std::size_t b = 0; b < dist.size(); ++b) {
    if (dist[b].empty()) continue;
    auto job = std::make_shared<MigrateJob>();
    for (const WorkItem& w : dist[b]) {
      job->take(std::move(paths[w.index]), stats[w.index]);
    }
    batches.emplace_back(nodes[b], std::move(job));
  }
  combined->outstanding = batches.size();
  if (batches.empty()) {
    sim_.after(0, [combined] {
      combined->report.finished = combined->report.started;
      if (combined->done) combined->done(combined->report);
    });
    return;
  }
  for (auto& [node, job] : batches) {
    start_migrate(std::move(job), node, group,
                  [this, combined](const MigrateReport& r) {
                    combined->report.files_migrated += r.files_migrated;
                    combined->report.files_failed += r.files_failed;
                    combined->report.bytes += r.bytes;
                    combined->report.tape_objects_written +=
                        r.tape_objects_written;
                    combined->report.checksums_computed += r.checksums_computed;
                    combined->report.retries += r.retries;
                    combined->report.units_requeued += r.units_requeued;
                    if (--combined->outstanding == 0) {
                      combined->report.finished = sim_.now();
                      if (combined->done) combined->done(combined->report);
                    }
                  },
                  wc);
  }
}

// ---------------------------------------------------------------------------
// Recall
// ---------------------------------------------------------------------------

void HsmSystem::recall(std::vector<std::string> paths, RecallOptions options,
                       std::function<void(const RecallReport&)> done) {
  assert(!options.nodes.empty());
  auto job = std::make_shared<RecallJob>();
  job->options = options;
  job->done = std::move(done);
  if (sched_ != nullptr && !options.tenant.empty()) {
    job->shaper = sched_->shaper_legs(options.tenant);
  }
  open_job(job, obs::Component::Hsm, "recall", "recall");
  // Cross the pftool→HSM boundary: the recall batch hangs off the caller's
  // job span so the profiler can attribute tape time to that job.
  obs_->trace().link(options.parent_span, job->span);
  obs_->trace().arg_num(job->span, "paths",
                        static_cast<std::uint64_t>(paths.size()));

  // Resolve every path through the indexed export (Sec 4.2.5).  Per-file
  // round-robin assignment happens in arrival order, before any grouping —
  // this is what the stock recall daemons do and is the root of the Sec
  // 6.2 thrashing.
  std::map<std::uint64_t, std::vector<RecallJob::Entry>> by_cart;
  std::size_t file_rr = 0;
  for (const std::string& path : paths) {
    const ArchiveObject* row = server_for(path).export_db().by_path(path);
    if (row == nullptr) {
      ++job->report.files_failed;
      continue;
    }
    std::uint64_t cart = row->cartridge_id;
    std::uint64_t seq = row->tape_seq;
    const std::uint64_t owner = owner_object_id(path);
    // Media fallback: if the primary volume is damaged, recall from the
    // first healthy copy-pool replica.
    tape::Cartridge* primary = lib_.cartridge(cart);
    if (primary != nullptr && primary->damaged()) {
      const Locations alts = other_locations(owner, cart);
      const auto healthy =
          std::find_if(alts->begin(), alts->end(), [this](const Location& l) {
            const tape::Cartridge* copy = lib_.cartridge(l.first);
            return copy != nullptr && !copy->damaged();
          });
      if (healthy == alts->end()) {
        ++job->report.files_failed;
        continue;
      }
      std::tie(cart, seq) = *healthy;
    }
    RecallJob::Entry e;
    e.path = path;
    e.size = row->size_bytes;
    e.seq = seq;
    e.oid = owner;
    if (options.assignment == RecallOptions::Assignment::RoundRobin) {
      e.node = options.nodes[file_rr++ % options.nodes.size()];
    }
    by_cart[cart].push_back(std::move(e));
  }
  std::size_t cart_rr = 0;
  for (auto& [cart_id, entries] : by_cart) {
    if (options.assignment == RecallOptions::Assignment::TapeAffinity) {
      const tape::NodeId node = options.nodes[cart_rr % options.nodes.size()];
      for (auto& e : entries) e.node = node;
    }
    ++cart_rr;
    if (options.tape_ordered) {
      std::stable_sort(entries.begin(), entries.end(),
                       [](const RecallJob::Entry& a, const RecallJob::Entry& b) {
                         return a.seq < b.seq;
                       });
    }
    RecallJob::CartWork w;
    w.cart = lib_.cartridge(cart_id);
    w.entries = std::move(entries);
    if (w.cart == nullptr) {
      job->report.files_failed += static_cast<unsigned>(w.entries.size());
      continue;
    }
    job->work.push_back(std::move(w));
  }

  if (job->work.empty()) {
    sim_.after(0, [this, job] {
      if (!job->dead) close_job(job, /*deferred=*/false);
    });
    return;
  }

  // Launch up to max_parallel_tapes cartridge jobs; the rest start as
  // earlier ones finish (and drive contention throttles further).
  const unsigned launch = static_cast<unsigned>(std::min<std::size_t>(
      job->work.size(), job->options.max_parallel_tapes));
  for (unsigned i = 0; i < launch; ++i) {
    ++job->active;
    ++job->next_work;
    run_recall_cart(job, i);
  }
}

void HsmSystem::run_recall_cart(std::shared_ptr<RecallJob> job,
                                std::size_t work_idx) {
  if (job->dead) return;
  acquire_mounted(job, *job->work[work_idx].cart,
                  [this, job, work_idx](tape::TapeDrive& drive) {
                    run_recall_entry(job, work_idx, 0, drive);
                  });
}

void HsmSystem::run_recall_entry(std::shared_ptr<RecallJob> job,
                                 std::size_t work_idx, std::size_t entry_idx,
                                 tape::TapeDrive& drive) {
  if (job->dead) return;
  auto& work = job->work[work_idx];
  if (entry_idx >= work.entries.size()) {
    lib_.release_drive(drive);
    if (job->next_work < job->work.size()) {
      run_recall_cart(job, job->next_work++);
      return;
    }
    if (--job->active == 0) close_job(job, /*deferred=*/false);
    return;
  }
  const auto& entry = work.entries[entry_idx];
  std::vector<sim::PathLeg> pools = data_path(entry.node, entry.path, entry.size);
  pools.insert(pools.end(), job->shaper.begin(), job->shaper.end());
  drive.read_object(
      entry.node, entry.seq, std::move(pools),
      [this, job, work_idx, entry_idx, &drive](const tape::Segment* seg) {
        if (job->dead) return;
        auto& work = job->work[work_idx];
        auto& entry = work.entries[entry_idx];
        if (seg == nullptr) {
          // Transient causes: the drive died (fail over to a healthy one)
          // or the media went bad (back off and re-read — the fault
          // window or the copy-pool fallback may clear it).  A missing
          // sequence number stays a permanent failure.
          const bool drive_dead = drive.failed();
          const bool media_bad = work.cart->damaged();
          if ((drive_dead || media_bad) && cfg_.retry.allows(++entry.attempts)) {
            ++job->report.retries;
            const sim::Tick delay = cfg_.retry.delay(entry.attempts);
            if (drive_dead) {
              fail_over(job, drive, delay, *work.cart,
                        [this, job, work_idx, entry_idx](tape::TapeDrive& nd) {
                          run_recall_entry(job, work_idx, entry_idx, nd);
                        });
            } else {
              trace_backoff(job->span, delay);
              sim_.after(delay, [this, job, work_idx, entry_idx, &drive] {
                run_recall_entry(job, work_idx, entry_idx, drive);
              });
            }
            return;
          }
          ++job->report.files_failed;
          run_recall_entry(job, work_idx, entry_idx + 1, drive);
          return;
        }
        job->report.tape_bytes += seg->bytes;
        // Fixity verification on every recall: recompute-and-compare is a
        // zero-virtual-time check against the metadb row for this exact
        // tape location.  A mismatch is *not* a read failure — the bits
        // arrived, they are just wrong — so the loud-fault retry loop
        // above never sees it; we fall back to untried copy locations
        // instead, and exhaustion is a distinct unrepairable verdict.
        if (entry.oid != 0) {
          const integrity::FixityRow* frow =
              fixity_.at_location(entry.oid, work.cart->id());
          if (frow != nullptr &&
              seg->observed_fingerprint() != frow->checksum) {
            ++job->report.fixity_mismatches;
            recall_fallback(job, work_idx, entry_idx, drive,
                            other_locations(entry.oid, work.cart->id()), 0);
            return;
          }
          if (frow != nullptr) ++job->report.fixity_verified;
        }
        recall_entry_done(job, work_idx, entry_idx, drive,
                          /*from_replica=*/false);
      },
      job->span);
}

void HsmSystem::recall_entry_done(std::shared_ptr<RecallJob> job,
                                  std::size_t work_idx, std::size_t entry_idx,
                                  tape::TapeDrive& drive, bool from_replica) {
  const auto& entry = job->work[work_idx].entries[entry_idx];
  job->report.bytes += entry.size;
  ++job->report.files_recalled;
  fs_.mark_recalled(entry.path);  // no-op if not punched
  // The entry's recall bookkeeping is one mutation; the drive streams the
  // next entry once it has applied.
  const sim::Tick t_md = sim_.now();
  submit_now(server_for(entry.path), [] {},
             [this, job, work_idx, entry_idx, &drive, t_md, from_replica] {
               if (job->dead) return;
               trace_wait(obs::Component::Hsm, "md_txn", job->span, t_md);
               if (from_replica) {
                 resume_recall_batch(job, work_idx, entry_idx, drive);
               } else {
                 run_recall_entry(job, work_idx, entry_idx + 1, drive);
               }
             });
}

void HsmSystem::resume_recall_batch(std::shared_ptr<RecallJob> job,
                                    std::size_t work_idx, std::size_t entry_idx,
                                    tape::TapeDrive& drive) {
  // Extra mounts are the honest price of chasing replicas mid-batch.
  mount(job, drive, *job->work[work_idx].cart,
        [this, job, work_idx, entry_idx, &drive] {
          run_recall_entry(job, work_idx, entry_idx + 1, drive);
        });
}

void HsmSystem::recall_fallback(std::shared_ptr<RecallJob> job,
                                std::size_t work_idx, std::size_t entry_idx,
                                tape::TapeDrive& drive, Locations alts,
                                std::size_t alt_idx) {
  if (job->dead) return;
  if (alt_idx >= alts->size()) {
    // Primary and every duplicate failed fixity: permanently bad, and
    // deliberately not retried — re-reading rotten bits cannot help.
    ++job->report.files_unrepairable;
    ++job->report.files_failed;
    resume_recall_batch(job, work_idx, entry_idx, drive);
    return;
  }
  const auto [alt_cart_id, alt_seq] = (*alts)[alt_idx];
  tape::Cartridge* alt_cart = lib_.cartridge(alt_cart_id);
  if (alt_cart == nullptr || alt_cart->damaged()) {
    recall_fallback(job, work_idx, entry_idx, drive, alts, alt_idx + 1);
    return;
  }
  mount(job, drive, *alt_cart, [this, job, work_idx, entry_idx, &drive, alts,
                                alt_idx, alt_cart, alt_seq = alt_seq] {
    auto& entry = job->work[work_idx].entries[entry_idx];
    std::vector<sim::PathLeg> pools =
        data_path(entry.node, entry.path, entry.size);
    pools.insert(pools.end(), job->shaper.begin(), job->shaper.end());
    drive.read_object(
        entry.node, alt_seq, std::move(pools),
        [this, job, work_idx, entry_idx, &drive, alts, alt_idx,
         alt_cart](const tape::Segment* seg) {
          if (job->dead) return;
          auto& entry = job->work[work_idx].entries[entry_idx];
          if (seg == nullptr) {
            recall_fallback(job, work_idx, entry_idx, drive, alts, alt_idx + 1);
            return;
          }
          job->report.tape_bytes += seg->bytes;
          const integrity::FixityRow* frow =
              fixity_.at_location(entry.oid, alt_cart->id());
          if (frow == nullptr || seg->observed_fingerprint() != frow->checksum) {
            ++job->report.fixity_mismatches;
            recall_fallback(job, work_idx, entry_idx, drive, alts, alt_idx + 1);
            return;
          }
          ++job->report.fixity_verified;
          recall_entry_done(job, work_idx, entry_idx, drive,
                            /*from_replica=*/true);
        },
        job->span);
  });
}

void HsmSystem::account(const RecallJob& job) {
  obs::MetricsRegistry& m = obs_->metrics();
  m.counter("hsm.recalls").inc();
  m.counter("hsm.recalled_files").add(job.report.files_recalled);
  m.counter("hsm.recall_failed_files").add(job.report.files_failed);
  m.counter("hsm.recalled_bytes").add(job.report.bytes);
  m.counter("hsm.recalled_tape_bytes").add(job.report.tape_bytes);
  m.counter("hsm.recall_retries").add(job.report.retries);
  // Integrity counters materialize only once a checksum was actually
  // compared, so fault-free metric sets predating the fixity layer stay
  // byte-identical (pay-as-you-go).
  if (job.report.fixity_verified > 0) {
    m.counter("integrity.checksums_verified").add(job.report.fixity_verified);
  }
  if (job.report.fixity_mismatches > 0) {
    m.counter("integrity.checksums_mismatches")
        .add(job.report.fixity_mismatches);
  }
  if (job.report.files_unrepairable > 0) {
    m.counter("hsm.recall_unrepairable_files")
        .add(job.report.files_unrepairable);
  }
  obs_->trace().arg_num(job.span, "files",
                        static_cast<std::uint64_t>(job.report.files_recalled));
  obs_->trace().arg_num(job.span, "bytes", job.report.bytes);
  obs_->trace().end(job.span, sim_.now());
}

// ---------------------------------------------------------------------------
// Synchronous delete & reconcile
// ---------------------------------------------------------------------------

void HsmSystem::delete_object_cascade(ArchiveServer& server,
                                      std::uint64_t object_id) {
  const ArchiveObject* obj = server.object(object_id);
  if (obj == nullptr) return;
  // Reclaims the owner's segment on the primary volume and every
  // copy-pool replica.
  auto reclaim_media = [this, &server](const ArchiveObject& owner) {
    if (tape::Cartridge* cart = lib_.cartridge(owner.cartridge_id)) {
      cart->mark_deleted(owner.object_id);
    }
    for (const auto& replica : server.links(owner.object_id).copies) {
      if (tape::Cartridge* cart = lib_.cartridge(replica.cartridge_id)) {
        cart->mark_deleted(owner.object_id);
      }
    }
    fixity_.erase_object(owner.object_id);
  };
  if (obj->is_member()) {
    const std::uint64_t agg_id = obj->aggregate_id;
    // Also drops the member from its aggregate's list on this server.
    server.delete_object(object_id);
    // Reclaim the aggregate's tape segment once every member died.
    const ArchiveObject* agg = server.object(agg_id);
    if (agg != nullptr && server.links(agg_id).members.empty()) {
      reclaim_media(*agg);
      server.delete_object(agg_id);
    }
  } else {
    reclaim_media(*obj);
    server.delete_object(object_id);
  }
}

void HsmSystem::synchronous_delete(const std::string& path,
                                   std::function<void(pfs::Errc)> done) {
  if (!done) done = [](pfs::Errc) {};
  const auto st = fs_.stat(path);
  if (!st.ok()) {
    sim_.after(0, [done, e = st.error()] { done(e); });
    return;
  }
  if (st.value().dmapi == pfs::DmapiState::Resident) {
    const pfs::Errc e = fs_.unlink(path);
    sim_.after(0, [done, e] { done(e); });
    return;
  }
  const std::uint64_t fid = st.value().fid.packed();
  ArchiveServer& server = server_for(path);
  // The txn chain can die with the server on a power failure; the abort
  // registry guarantees the caller still hears back (Stale: retry later).
  struct DeleteState {
    bool dead = false;
    std::uint64_t abort_id = 0;
  };
  auto ds = std::make_shared<DeleteState>();
  auto finish = [this, ds, done](pfs::Errc e) {
    unregister_abort(ds->abort_id);
    done(e);
  };
  ds->abort_id = register_abort([ds, done] {
    ds->dead = true;
    done(pfs::Errc::Stale);
  });
  // Two round-trips: the GPFS-fid -> TSM-object join through the indexed
  // export, then the cascade that deletes file-system entry and tape
  // object together.  `applied` sits behind the session's group-commit
  // barrier, so the Ok ack needs no extra fsync — a crash after the ack
  // can never resurrect an object the caller believes gone.  A crash
  // *during* the wait already answered Stale through the abort registry.
  ArchiveServer* srv = &server;
  TxnSession& session = session_for(server);
  auto object_id = std::make_shared<std::uint64_t>(0);
  auto found = std::make_shared<bool>(false);
  session.submit(
      [srv, fid, object_id, found] {
        const ArchiveObject* row = srv->export_db().by_gpfs_file_id(fid);
        if (row != nullptr) {
          *object_id = row->object_id;
          *found = true;
        }
      },
      [this, path, srv, &session, object_id, found, finish, ds] {
        if (ds->dead) return;
        if (!*found) {
          fs_.unlink(path);
          finish(pfs::Errc::Ok);
          return;
        }
        session.submit(
            [this, path, srv, object_id] {
              delete_object_cascade(*srv, *object_id);
              fs_.unlink(path);
            },
            [finish, ds] {
              if (ds->dead) return;
              finish(pfs::Errc::Ok);
            });
      });
}

void HsmSystem::reconcile(bool delete_orphans,
                          std::function<void(const ReconcileReport&)> done) {
  ReconcileReport report;
  // Phase 1: tree-walk the file system, noting every live managed file id.
  std::set<std::uint64_t> live_fids;
  fs_.for_each_inode([&](const pfs::InodeView& v) {
    ++report.inodes_walked;
    if (v.kind() == pfs::FileKind::Regular && v.dmapi() != pfs::DmapiState::Resident) {
      live_fids.insert(v.fid().packed());
    }
  });
  // Phase 2: compare every object one by one.
  struct Orphan {
    ArchiveServer* server;
    std::uint64_t object_id;
  };
  std::vector<Orphan> orphans;
  for (auto& server : servers_) {
    server->for_each_object([&](const ArchiveObject& obj) {
      // Containers are checked via their members.
      if (!server->links(obj.object_id).members.empty()) return;
      ++report.objects_checked;
      if (live_fids.count(obj.gpfs_file_id) == 0) {
        ++report.orphans_found;
        orphans.push_back(Orphan{server.get(), obj.object_id});
      }
    });
  }
  if (delete_orphans) {
    // The same cascade as synchronous delete: replicas die with the
    // primary, and an aggregate goes with its last member.
    for (const Orphan& o : orphans) {
      delete_object_cascade(*o.server, o.object_id);
      ++report.orphans_deleted;
    }
  }
  // Cost model: the agent is a serial tree walk plus one metadata
  // transaction per object compared (Sec 4.2.6: "the overhead is
  // unacceptable" at tens of millions of files).
  report.duration =
      report.inodes_walked * cfg_.reconcile_walk_cost +
      report.objects_checked * cfg_.server.metadata_txn_cost;
  {
    obs::MetricsRegistry& m = obs_->metrics();
    m.counter("hsm.reconcile_runs").inc();
    m.counter("hsm.reconcile_inodes_walked").add(report.inodes_walked);
    m.counter("hsm.reconcile_orphans_found").add(report.orphans_found);
    m.counter("hsm.reconcile_orphans_deleted").add(report.orphans_deleted);
    const obs::SpanId sp =
        obs_->trace().complete(obs::Component::Hsm, "reconcile", "reconcile",
                               sim_.now(), sim_.now() + report.duration);
    obs_->trace().arg_num(sp, "orphans", report.orphans_found);
  }
  sim_.after(report.duration, [report, done] {
    if (done) done(report);
  });
}

// ---------------------------------------------------------------------------
// Space management (threshold migration)
// ---------------------------------------------------------------------------

void HsmSystem::space_management(
    const std::string& pool, double high_water, double low_water,
    std::function<void(const SpaceManagementReport&)> done) {
  SpaceManagementReport report;
  const auto pool_info = fs_.pool(pool);
  if (!pool_info.ok() || pool_info.value().config.capacity_bytes == 0) {
    sim_.after(0, [done = std::move(done), report] {
      if (done) done(report);
    });
    return;
  }
  const double capacity =
      static_cast<double>(pool_info.value().config.capacity_bytes);
  report.used_fraction_before =
      static_cast<double>(pool_info.value().used_bytes) / capacity;

  struct SmState {
    bool dead = false;
    std::uint64_t abort_id = 0;
  };
  auto ss = std::make_shared<SmState>();
  auto tail = [this, pool, capacity, done, ss](SpaceManagementReport report,
                                               std::uint64_t inodes) {
    unregister_abort(ss->abort_id);
    report.used_fraction_after =
        static_cast<double>(fs_.pool(pool).value().used_bytes) / capacity;
    report.duration = fs_.scan_duration(inodes, 1);
    {
      obs::MetricsRegistry& m = obs_->metrics();
      m.counter("hsm.space_mgmt_runs").inc();
      m.counter("hsm.punched_files").add(report.files_punched);
      m.counter("hsm.punched_bytes").add(report.bytes_freed);
      const obs::SpanId sp =
          obs_->trace().complete(obs::Component::Hsm, "space_mgmt",
                                 "space_mgmt", sim_.now(),
                                 sim_.now() + report.duration);
      obs_->trace().arg_num(sp, "punched", report.files_punched);
    }
    sim_.after(report.duration, [done, report] {
      if (done) done(report);
    });
  };
  ss->abort_id = register_abort([ss, done, report] {
    ss->dead = true;
    if (done) done(report);
  });

  // Either branch costs one policy scan over every inode.
  const std::uint64_t inodes = fs_.total_inodes();
  struct Candidate {
    sim::Tick atime;
    std::string path;
    std::uint64_t size;
  };
  std::vector<Candidate> candidates;
  if (report.used_fraction_before >= high_water) {
    fs_.for_each_inode([&](const pfs::InodeView& v) {
      if (v.kind() == pfs::FileKind::Regular &&
          v.dmapi() == pfs::DmapiState::Premigrated && v.pool() == pool) {
        candidates.push_back(Candidate{v.atime(), v.path(), v.size()});
      }
    });
    // Least recently used data leaves disk first.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.atime != b.atime ? a.atime < b.atime
                                          : a.path < b.path;
              });
    // Punching frees premigrated disk data.  A file is premigrated only
    // once its catalog rows applied, and applied implies durable; the
    // barrier stays as a guard.
    barrier([this, ss, tail, report, inodes,
             candidates = std::move(candidates),
             used0 = pool_info.value().used_bytes,
             target = static_cast<std::uint64_t>(low_water * capacity)]() mutable {
      if (ss->dead) return;
      std::uint64_t used = used0;
      for (const Candidate& c : candidates) {
        if (used <= target) break;
        if (fs_.punch(c.path) != pfs::Errc::Ok) continue;
        ++report.files_punched;
        report.bytes_freed += c.size;
        used = used > c.size ? used - c.size : 0;
      }
      tail(report, inodes);
    });
    return;
  }
  tail(report, inodes);
}

// ---------------------------------------------------------------------------
// Space reclamation
// ---------------------------------------------------------------------------

void HsmSystem::reclaim_volumes(double dead_fraction, tape::NodeId node,
                                std::function<void(const ReclaimReport&)> done) {
  auto job = std::make_shared<ReclaimJob>();
  job->node = node;
  job->done = std::move(done);
  open_job(job, obs::Component::Hsm, "reclaim", "reclaim");
  lib_.for_each_cartridge([&](tape::Cartridge& cart) {
    ++job->report.volumes_examined;
    if (cart.bytes_used() == 0 || lib_.is_checked_out(cart.id())) return;
    const double frac = static_cast<double>(cart.dead_bytes()) /
                        static_cast<double>(cart.bytes_used());
    const bool has_live = cart.dead_bytes() < cart.bytes_used();
    if (frac >= dead_fraction && has_live) job->victims.push_back(cart.id());
  });
  run_reclaim_volume(job);
}

void HsmSystem::run_reclaim_volume(std::shared_ptr<ReclaimJob> job) {
  if (job->dead) return;
  // Release the previous victim's drives.
  if (job->src_drive != nullptr) {
    lib_.release_drive(*job->src_drive);
    job->src_drive = nullptr;
  }
  if (job->dst_drive != nullptr) {
    lib_.checkin_cartridge(*job->dst);
    lib_.release_drive(*job->dst_drive);
    job->dst_drive = nullptr;
  }
  if (job->next_victim >= job->victims.size()) {
    close_job(job, /*deferred=*/true);
    return;
  }
  job->src = lib_.cartridge(job->victims[job->next_victim++]);
  if (job->src == nullptr) {
    run_reclaim_volume(job);
    return;
  }
  job->live = live_segments(*job->src);
  std::uint64_t live_bytes = 0;
  for (const LiveSegment& l : job->live) live_bytes += l.seg.bytes;
  job->dst = &lib_.checkout_cartridge(job->src->colocation_group(), live_bytes,
                                      job->src->id());
  // Two drives: source and destination, mounted once per victim.
  acquire(job, [this, job](tape::TapeDrive& src_drive) {
    job->src_drive = &src_drive;
    acquire(job, [this, job](tape::TapeDrive& dst_drive) {
      job->dst_drive = &dst_drive;
      mount(job, *job->src_drive, *job->src, [this, job] {
        if (job->dead) return;
        mount(job, *job->dst_drive, *job->dst,
              [this, job] { run_reclaim_segment(job, 0); });
      });
    });
  });
}

void HsmSystem::run_reclaim_segment(std::shared_ptr<ReclaimJob> job,
                                    std::size_t seg_idx) {
  if (job->dead) return;
  if (seg_idx >= job->live.size()) {
    // Reclamation does not fail over: a segment whose read or write
    // failed stays behind, and a victim counts only once nothing live is
    // left on it.
    if (job->src->dead_bytes() == job->src->bytes_used()) {
      ++job->report.volumes_reclaimed;
    }
    run_reclaim_volume(job);
    return;
  }
  const tape::Segment seg = job->live[seg_idx].seg;
  // Tape-to-tape through the mover node's SAN legs; the two drive rate
  // pools are added by the drives themselves.
  job->src_drive->read_object(
      job->node, job->live[seg_idx].seq, net_legs(job->node, ""),
      [this, job, seg, seg_idx](const tape::Segment* read) {
        if (job->dead) return;
        if (read == nullptr) {  // damaged or vanished: skip
          run_reclaim_segment(job, seg_idx + 1);
          return;
        }
        // Reclamation copies bits, not truth: the destination inherits
        // whatever fingerprint the source actually reads back, so silent
        // corruption travels with the segment and scrub still flags it at
        // the new location.
        const std::uint64_t moved_fp = read->observed_fingerprint();
        job->dst_drive->write_object(
            job->node, seg.object_id, seg.bytes, net_legs(job->node, ""),
            [this, job, seg, seg_idx, moved_fp](const tape::Segment* written,
                                                std::uint64_t new_seq) {
              if (job->dead) return;
              if (written == nullptr) {
                run_reclaim_segment(job, seg_idx + 1);
                return;
              }
              job->dst->set_fingerprint(new_seq, moved_fp);
              ArchiveServer* server = find_object_server(seg.object_id);
              if (server == nullptr) {
                // The owner was deleted while its segment streamed: no
                // row will ever own the fresh copy.
                job->dst->mark_deleted(seg.object_id);
                run_reclaim_segment(job, seg_idx + 1);
                return;
              }
              // The location update is one mutation; the drives copy the
              // next segment once it has applied.
              const std::uint64_t src_id = job->src->id();
              const std::uint64_t dst_id = job->dst->id();
              submit_now(
                  *server,
                  [this, job, seg, src_id, dst_id, new_seq] {
                    if (!relocate_object(seg.object_id, src_id, dst_id,
                                         new_seq)) {
                      // Deleted during the round-trip: same as above.
                      lib_.cartridge(dst_id)->mark_deleted(seg.object_id);
                      return;
                    }
                    lib_.cartridge(src_id)->mark_deleted(seg.object_id);
                    ++job->report.objects_moved;
                    job->report.bytes_moved += seg.bytes;
                  },
                  [this, job, seg_idx] {
                    if (job->dead) return;
                    run_reclaim_segment(job, seg_idx + 1);
                  });
            });
      });
}

void HsmSystem::account(const ReclaimJob& job) {
  obs::MetricsRegistry& m = obs_->metrics();
  m.counter("hsm.reclaim_runs").inc();
  m.counter("hsm.reclaimed_volumes").add(job.report.volumes_reclaimed);
  m.counter("hsm.reclaim_objects_moved").add(job.report.objects_moved);
  m.counter("hsm.reclaim_bytes_moved").add(job.report.bytes_moved);
  obs_->trace().arg_num(job.span, "volumes",
                        static_cast<std::uint64_t>(job.report.volumes_reclaimed));
  obs_->trace().end(job.span, sim_.now());
}

// ---------------------------------------------------------------------------
// Scrubbing
// ---------------------------------------------------------------------------

void HsmSystem::scrub(integrity::ScrubConfig scfg,
                      std::function<void(const integrity::ScrubReport&)> done) {
  auto job = std::make_shared<ScrubJob>();
  job->cfg = scfg;
  job->rows = integrity::plan_scrub_order(fixity_, scfg.tape_ordered);
  job->done = std::move(done);
  open_job(job, obs::Component::Integrity, "scrub", "scrub");
  obs_->trace().arg_num(job->span, "rows",
                        static_cast<std::uint64_t>(job->rows.size()));
  if (job->rows.empty()) {
    sim_.after(0, [this, job] { finish_scrub(job); });
    return;
  }
  // The first row takes one drive for the whole pass: foreground recalls
  // keep the others.
  run_scrub_row(job);
}

void HsmSystem::run_scrub_row(std::shared_ptr<ScrubJob> job) {
  if (job->dead) return;
  if (job->next >= job->rows.size()) {
    finish_scrub(job);
    return;
  }
  if (job->drive == nullptr || job->drive->failed()) {
    // The pass's drive: taken at the start, and again on a loud drive
    // failure mid-scrub (fail over and carry on).
    if (job->drive != nullptr) {
      lib_.release_drive(*job->drive);
      job->drive = nullptr;
    }
    acquire(job, [this, job](tape::TapeDrive& drive) {
      job->drive = &drive;
      run_scrub_row(job);
    });
    return;
  }
  const integrity::FixityRow row = job->rows[job->next];
  tape::Cartridge* cart = lib_.cartridge(row.cartridge_id);
  const tape::Segment* live =
      cart != nullptr ? cart->segment_by_seq(row.tape_seq) : nullptr;
  if (cart == nullptr || live == nullptr || live->object_id != row.object_id) {
    // Stale snapshot entry: the segment moved or died since planning.
    ++job->next;
    run_scrub_row(job);
    return;
  }
  if (lib_.volume_claimed_elsewhere(*cart, *job->drive)) {
    // A foreground batch (recall, migrate) wants this volume; drop the
    // scrub's claim so the contender can take it and re-check the row
    // once it has moved on.
    lib_.relinquish_claim(*job->drive);
    sim_.after(sim::secs(5), [this, job] { run_scrub_row(job); });
    return;
  }
  if (cart->id() != job->last_cart) {
    job->last_cart = cart->id();
    ++job->report.cartridges_visited;
  }
  mount(job, *job->drive, *cart, [this, job, row] {
    if (job->dead) return;
    job->drive->read_object(
        job->cfg.node, row.tape_seq, net_legs(job->cfg.node, ""),
        [this, job, row](const tape::Segment* seg) {
          if (job->dead) return;
          if (seg == nullptr) {
            ++job->report.read_errors;
            ++job->next;
            run_scrub_row(job);
            return;
          }
          ++job->report.segments_scanned;
          job->report.bytes_scanned += seg->bytes;
          if (seg->observed_fingerprint() == row.checksum) {
            scrub_pace(job, seg->bytes);
            return;
          }
          ++job->report.mismatches;
          // Repair lattice: clean tape duplicate -> disk re-migration ->
          // unrepairable.  Candidates are the object's other recorded
          // locations, each read back and verified before it is trusted.
          run_scrub_repair(job, row,
                           other_locations(row.object_id, row.cartridge_id), 0);
        },
        job->span);
  });
}

void HsmSystem::run_scrub_repair(std::shared_ptr<ScrubJob> job,
                                 const integrity::FixityRow& row,
                                 Locations alts, std::size_t alt_idx) {
  if (job->dead) return;
  if (alt_idx < alts->size()) {
    const auto [cand_cart_id, cand_seq] = (*alts)[alt_idx];
    tape::Cartridge* cand = lib_.cartridge(cand_cart_id);
    const tape::Segment* live =
        cand != nullptr ? cand->segment_by_seq(cand_seq) : nullptr;
    if (cand == nullptr || cand->damaged() || live == nullptr ||
        live->object_id != row.object_id) {
      run_scrub_repair(job, row, alts, alt_idx + 1);
      return;
    }
    if (lib_.volume_claimed_elsewhere(*cand, *job->drive)) {
      lib_.relinquish_claim(*job->drive);
      sim_.after(sim::secs(5), [this, job, row, alts, alt_idx] {
        run_scrub_repair(job, row, alts, alt_idx);
      });
      return;
    }
    mount(job, *job->drive, *cand, [this, job, row, alts, alt_idx, cand,
                                    cand_seq = cand_seq] {
      if (job->dead) return;
      job->drive->read_object(
          job->cfg.node, cand_seq, net_legs(job->cfg.node, ""),
          [this, job, row, alts, alt_idx, cand](const tape::Segment* seg) {
            if (job->dead) return;
            if (seg == nullptr ||
                seg->observed_fingerprint() != row.checksum) {
              // This duplicate is rotten (or unreadable) too.
              run_scrub_repair(job, row, alts, alt_idx + 1);
              return;
            }
            write_scrub_repair(job, row, cand->id(),
                               net_legs(job->cfg.node, ""),
                               integrity::ScrubRepair::Action::RepairedFromCopy);
          });
    });
    return;
  }
  // No clean duplicate anywhere on tape: re-migrate from the original
  // disk data if it is still resident or premigrated.
  ArchiveServer* server = find_object_server(row.object_id);
  const ArchiveObject* obj =
      server != nullptr ? server->object(row.object_id) : nullptr;
  if (obj != nullptr && !obj->path.empty()) {
    const std::string path(obj->path);
    const auto st = fs_.stat(path);
    if (st.ok() && st.value().kind == pfs::FileKind::Regular &&
        st.value().dmapi != pfs::DmapiState::Migrated) {
      write_scrub_repair(job, row, 0, data_path(job->cfg.node, path, row.length),
                         integrity::ScrubRepair::Action::Remigrated);
      return;
    }
  }
  scrub_unrepairable(job, row);
}

void HsmSystem::write_scrub_repair(std::shared_ptr<ScrubJob> job,
                                   const integrity::FixityRow& row,
                                   std::uint64_t source_cartridge,
                                   std::vector<sim::PathLeg> pools,
                                   integrity::ScrubRepair::Action action) {
  if (job->dead) return;
  tape::Cartridge* bad = lib_.cartridge(row.cartridge_id);
  if (bad == nullptr) {
    scrub_unrepairable(job, row);
    return;
  }
  tape::Cartridge* dst = &lib_.checkout_cartridge(bad->colocation_group(),
                                                  row.length, row.cartridge_id);
  mount(job, *job->drive, *dst, [this, job, row, source_cartridge,
                                 pools = std::move(pools), action,
                                 dst]() mutable {
    if (job->dead) return;
    job->drive->write_object(
        job->cfg.node, row.object_id, row.length, std::move(pools),
        [this, job, row, source_cartridge, action,
         dst](const tape::Segment* written, std::uint64_t new_seq) {
          if (job->dead) return;
          if (written == nullptr) {
            lib_.checkin_cartridge(*dst);
            scrub_unrepairable(job, row);
            return;
          }
          // The rewrite carries verified-clean bits: stamp the recorded
          // checksum on the fresh segment.
          dst->set_fingerprint(new_seq, row.checksum);
          ArchiveServer* server = find_object_server(row.object_id);
          if (server == nullptr) {
            lib_.checkin_cartridge(*dst);
            scrub_unrepairable(job, row);
            return;
          }
          // The rebind is one mutation; the scrub moves on to its next
          // row once it has applied.
          submit_now(
              *server,
              [this, job, row, source_cartridge, action, dst, new_seq] {
                relocate_object(row.object_id, row.cartridge_id, dst->id(),
                                new_seq);
                if (tape::Cartridge* bad = lib_.cartridge(row.cartridge_id)) {
                  bad->mark_deleted(row.object_id);
                }
                lib_.checkin_cartridge(*dst);
                integrity::ScrubRepair entry;
                entry.object_id = row.object_id;
                entry.bad_cartridge = row.cartridge_id;
                entry.bad_seq = row.tape_seq;
                entry.source_cartridge = source_cartridge;
                entry.new_cartridge = dst->id();
                entry.new_seq = new_seq;
                entry.action = action;
                job->report.repair_log.push_back(entry);
                if (action == integrity::ScrubRepair::Action::RepairedFromCopy) {
                  ++job->report.repaired_from_copy;
                } else {
                  ++job->report.remigrated;
                }
              },
              [this, job] {
                if (job->dead) return;
                scrub_pace(job, 0);
              });
        });
  });
}

void HsmSystem::scrub_unrepairable(std::shared_ptr<ScrubJob> job,
                                   const integrity::FixityRow& row) {
  if (job->dead) return;
  // Reported exactly once: the row's status flips, so the next scrub's
  // plan (status == Ok only) never revisits it.
  fixity_.set_status(row.row_id, integrity::FixityStatus::Unrepairable);
  ++job->report.unrepairable;
  integrity::ScrubRepair entry;
  entry.object_id = row.object_id;
  entry.bad_cartridge = row.cartridge_id;
  entry.bad_seq = row.tape_seq;
  entry.action = integrity::ScrubRepair::Action::Unrepairable;
  job->report.repair_log.push_back(entry);
  scrub_pace(job, 0);
}

void HsmSystem::scrub_pace(std::shared_ptr<ScrubJob> job,
                           std::uint64_t scanned_bytes) {
  ++job->next;
  if (job->cfg.rate_limit_bps > 0 && scanned_bytes > 0) {
    // Pause long enough that scanned bytes over (read time + pause) can
    // never exceed the ceiling; the drive is held but the robot and the
    // other drives service foreground recalls meanwhile.
    const sim::Tick pause = sim::secs(static_cast<double>(scanned_bytes) /
                                      job->cfg.rate_limit_bps);
    sim_.after(pause, [this, job] { run_scrub_row(job); });
    return;
  }
  run_scrub_row(job);
}

void HsmSystem::finish_scrub(std::shared_ptr<ScrubJob> job) {
  if (job->dead) return;
  if (job->drive != nullptr) {
    lib_.release_drive(*job->drive);
    job->drive = nullptr;
  }
  close_job(job, /*deferred=*/true);
}

void HsmSystem::account(const ScrubJob& job) {
  // All scrub counters live under the integrity.* namespace, matching the
  // Component::Integrity tag on the scrub span.
  obs::MetricsRegistry& m = obs_->metrics();
  m.counter("integrity.scrub_runs").inc();
  m.counter("integrity.scrub_segments_scanned").add(job.report.segments_scanned);
  m.counter("integrity.scrub_bytes_scanned").add(job.report.bytes_scanned);
  if (job.report.segments_scanned > 0) {
    m.counter("integrity.checksums_verified").add(job.report.segments_scanned);
  }
  if (job.report.mismatches > 0) {
    m.counter("integrity.scrub_mismatches").add(job.report.mismatches);
    m.counter("integrity.checksums_mismatches").add(job.report.mismatches);
  }
  if (job.report.repaired() > 0) {
    m.counter("integrity.scrub_repaired").add(job.report.repaired());
  }
  if (job.report.unrepairable > 0) {
    m.counter("integrity.scrub_unrepairable").add(job.report.unrepairable);
  }
  obs_->trace().arg_num(job.span, "scanned", job.report.segments_scanned);
  obs_->trace().arg_num(job.span, "mismatches", job.report.mismatches);
  obs_->trace().end(job.span, sim_.now());
}

ArchiveServer* HsmSystem::find_object_server(std::uint64_t object_id) {
  for (auto& server : servers_) {
    if (server->object(object_id) != nullptr) return server.get();
  }
  return nullptr;
}

HsmSystem::Locations HsmSystem::other_locations(std::uint64_t object_id,
                                               std::uint64_t exclude_cart) {
  auto alts = std::make_shared<std::vector<Location>>();
  const ArchiveServer* server = find_object_server(object_id);
  const ArchiveObject* obj = server != nullptr ? server->object(object_id) : nullptr;
  if (obj == nullptr) return alts;
  if (obj->cartridge_id != exclude_cart) {
    alts->emplace_back(obj->cartridge_id, obj->tape_seq);
  }
  for (const auto& replica : server->links(object_id).copies) {
    if (replica.cartridge_id != exclude_cart) {
      alts->emplace_back(replica.cartridge_id, replica.tape_seq);
    }
  }
  return alts;
}

bool HsmSystem::relocate_object(std::uint64_t object_id, std::uint64_t old_cart,
                                std::uint64_t new_cart, std::uint64_t new_seq) {
  ArchiveServer* server = find_object_server(object_id);
  if (server == nullptr) return false;
  ArchiveObject updated = *server->object(object_id);
  ObjectLinks links = server->links(object_id);
  if (updated.cartridge_id == old_cart) {
    updated.cartridge_id = new_cart;
    updated.tape_seq = new_seq;
  } else {
    for (auto& replica : links.copies) {
      if (replica.cartridge_id == old_cart) {
        replica.cartridge_id = new_cart;
        replica.tape_seq = new_seq;
        break;
      }
    }
  }
  const std::vector<std::uint64_t> members = links.members;
  server->record_object(std::move(updated), std::move(links));
  // Aggregate members carry their own (exported) copy of the primary
  // location; refresh them when the primary segment moved.
  for (const std::uint64_t member_id : members) {
    ArchiveServer* ms = find_object_server(member_id);
    if (ms == nullptr) continue;
    const ArchiveObject* member = ms->object(member_id);
    if (member == nullptr) continue;
    ArchiveObject mu = *member;
    if (mu.cartridge_id == old_cart) {
      mu.cartridge_id = new_cart;
      mu.tape_seq = new_seq;
      ms->record_object(std::move(mu));
    }
  }
  fixity_.relocate(object_id, old_cart, new_cart, new_seq);
  return true;
}

// ---------------------------------------------------------------------------
// DMAPI events
// ---------------------------------------------------------------------------

void HsmSystem::on_read_offline(const std::string&, pfs::FileId) {
  ++offline_reads_;
  obs_->metrics().counter("hsm.dmapi_offline_reads").inc();
}

void HsmSystem::on_managed_data_destroyed(const std::string&, pfs::FileId) {
  ++destroys_;
  obs_->metrics().counter("hsm.dmapi_destroys").inc();
}

}  // namespace cpa::hsm
