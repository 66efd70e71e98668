#include "check/runner.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>

#include "integrity/scrubber.hpp"
#include "simcore/hash.hpp"
#include "simcore/units.hpp"

namespace cpa::check {

std::string ChaosResult::render_violations() const {
  std::string out;
  for (const Violation& v : violations) {
    out += v.render();
    out += '\n';
  }
  return out;
}

std::string repro_line(const ChaosConfig& cfg) {
  std::string line = "cpa_check --seed=" + std::to_string(cfg.seed) +
                     " --ops=" + std::to_string(cfg.ops);
  if (!cfg.faults) line += " --no-faults";
  if (!cfg.corruptions) line += " --no-corruptions";
  if (!cfg.cancels) line += " --no-cancels";
  if (cfg.crashes) line += " --crashes";
  if (cfg.quiescent_crash) line += " --quiescent-crash";
  if (cfg.md_batch != 1) line += " --md-batch=" + std::to_string(cfg.md_batch);
  // The CLI vocabulary (--doctor=scrub|fixity), not the long enum names:
  // the whole point of this line is that it pastes back into a shell.
  if (cfg.doctor == Doctor::BreakScrubRepair) line += " --doctor=scrub";
  if (cfg.doctor == Doctor::DropFixityRow) line += " --doctor=fixity";
  line += " --shrink";
  return line;
}

std::vector<CorpusEntry> load_corpus(const std::string& path,
                                     unsigned default_ops) {
  std::vector<CorpusEntry> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    CorpusEntry e;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      e.comment = line.substr(hash + 1);
      line.resize(hash);
    }
    std::istringstream ls(line);
    if (!(ls >> e.seed)) continue;  // blank or comment-only line
    if (!(ls >> e.ops)) e.ops = default_ops;
    std::string tag;
    e.crashes = ls >> tag && tag == "crash";
    out.push_back(std::move(e));
  }
  return out;
}

namespace {

/// SplitMix64-style mixer: deterministic per-file content tags.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x =
      a * 0x9E3779B97F4A7C15ULL + b * 0xBF58476D1CE4E5B9ULL + c + 1;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

enum class Restored : std::uint8_t { None, Ok, Lost };

struct FileModel {
  std::uint64_t size = 0;
  std::uint64_t tag = 0;
  bool deleted = false;
  Restored restored = Restored::None;
};

struct Lane {
  std::string src;  // scratch tree root
  std::string dst;  // archive tree root
  std::vector<FileModel> files;
  std::vector<const ChaosOp*> ops;  // this lane's slice, in order
  std::size_t next = 0;
  bool made = false;
  bool archived = false;
  unsigned restores = 0;
};

class Runner {
 public:
  Runner(const ChaosCampaign& c, const RunOptions& opt)
      : c_(c), opt_(opt), sys_(plant_for(c)) {}

  ChaosResult run();

 private:
  // --- plumbing -----------------------------------------------------------
  void logf(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  [[nodiscard]] sim::Tick now() { return sys_.sim().now(); }
  void setup();
  /// Schedules lane `l`'s next op after its gap; no-op once exhausted.
  void advance(unsigned l);
  void exec(unsigned l, const ChaosOp& op, std::size_t idx);

  // --- op handlers --------------------------------------------------------
  void op_make_tree(unsigned l, const ChaosOp& op);
  void op_archive(unsigned l, const ChaosOp& op, std::int64_t cancel_after,
                  unsigned tries_left);
  void op_migrate(unsigned l);
  void op_restore(unsigned l, const ChaosOp& op);
  void submit_restore(unsigned l, const std::string& stage,
                      std::int64_t cancel_after);
  void op_delete(unsigned l, const ChaosOp& op);
  void op_scrub();
  void op_reconcile();
  void op_crash(const ChaosOp& op);
  /// power_fail + recover; `tail` runs once recovery completes.
  void crash_and_recover(std::uint64_t tear_seed, std::function<void()> tail);

  // --- end-of-run oracles -------------------------------------------------
  void verify_restore(unsigned l, const std::string& stage,
                      const pftool::JobReport& rep, bool final_sweep);
  void final_sweep();
  void apply_doctor();
  void build_state(ChaosResult& out);
  void note_service(const pftool::JobReport& rep);

  const ChaosCampaign& c_;
  RunOptions opt_;
  archive::CotsParallelArchive sys_;
  InvariantRegistry reg_;
  std::unique_ptr<CheckProbe> probe_;
  std::vector<Lane> lanes_;  // job lanes + maintenance lane at the back
  bool scrub_running_ = false;
  std::string log_;
  unsigned executed_ = 0;
  unsigned skipped_ = 0;
  unsigned submitted_ = 0;
  unsigned cancels_landed_ = 0;
  sim::Tick max_service_ = 0;
  bool fully_recovered_ = true;
};

void Runner::logf(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  char head[48];
  std::snprintf(head, sizeof(head), "t=%llu ",
                static_cast<unsigned long long>(now()));
  log_ += head;
  log_ += buf;
  log_ += '\n';
}

void Runner::note_service(const pftool::JobReport& rep) {
  if (rep.finished > rep.started) {
    max_service_ = std::max(max_service_, rep.finished - rep.started);
  }
}

void Runner::setup() {
  const unsigned n = c_.lane_count();
  lanes_.resize(n + 1);  // [n] = maintenance lane
  for (unsigned l = 0; l < n; ++l) {
    lanes_[l].src = "/chaos/lane" + std::to_string(l);
    lanes_[l].dst = "/arch/lane" + std::to_string(l);
    pfs::Rule rule;
    rule.name = "lane" + std::to_string(l);
    rule.action = pfs::Rule::Action::List;
    rule.where = {pfs::Condition::path_glob(lanes_[l].dst + "/*"),
                  pfs::Condition::dmapi_is(pfs::DmapiState::Resident)};
    sys_.policy().add_rule(rule);
  }
  for (const ChaosOp& op : c_.ops) {
    const unsigned l = std::min(op.lane, n);  // clamp strays to maintenance
    lanes_[l].ops.push_back(&op);
  }

  OracleInputs in;
  for (const fault::FaultEvent& ev : c_.fault_plan.events) {
    if (ev.kind == fault::FaultKind::Corrupt) {
      in.corrupt_cartridges.push_back(ev.index);
    }
  }
  in.max_service = &max_service_;
  in.jobs_submitted = &submitted_;
  register_standard_oracles(reg_, sys_, in);
  // Wrap the observer the system installed, so metrics/traces keep
  // flowing while the continuous oracles watch from inside the loop.
  probe_ = std::make_unique<CheckProbe>(&sys_.observer(), reg_,
                                        opt_.check_every);
  sys_.sim().set_probe(probe_.get());
}

void Runner::advance(unsigned l) {
  Lane& L = lanes_[l];
  if (L.next >= L.ops.size()) return;
  const ChaosOp& op = *L.ops[L.next];
  const std::size_t idx = L.next++;
  sys_.sim().after(op.gap, [this, l, &op, idx] { exec(l, op, idx); });
}

void Runner::exec(unsigned l, const ChaosOp& op, std::size_t idx) {
  logf("lane%u op%zu %s", l, idx, to_string(op.kind));
  switch (op.kind) {
    case OpKind::MakeTree: op_make_tree(l, op); return;
    case OpKind::Archive: op_archive(l, op, op.cancel_after, 5); return;
    case OpKind::Migrate: op_migrate(l); return;
    case OpKind::Restore: op_restore(l, op); return;
    case OpKind::DeleteOne: op_delete(l, op); return;
    case OpKind::Scrub: op_scrub(); return;
    case OpKind::Reconcile: op_reconcile(); return;
    case OpKind::CrashRestart: op_crash(op); return;
  }
}

void Runner::op_make_tree(unsigned l, const ChaosOp& op) {
  Lane& L = lanes_[l];
  if (L.made) {
    logf("lane%u make-tree skipped (already made)", l);
    ++skipped_;
    advance(l);
    return;
  }
  for (std::uint64_t k = 0; k < op.a; ++k) {
    const std::uint64_t tag = mix(c_.cfg.seed, l, k);
    const pfs::Errc e = sys_.make_file(
        sys_.scratch(), L.src + "/f" + std::to_string(k), op.b, tag);
    if (e != pfs::Errc::Ok) {
      logf("lane%u make-tree f%llu: %s", l,
           static_cast<unsigned long long>(k), pfs::to_string(e));
    }
    L.files.push_back({op.b, tag, false, Restored::None});
  }
  L.made = true;
  ++executed_;
  logf("lane%u made %zu files x %llu B", l, L.files.size(),
       static_cast<unsigned long long>(op.b));
  advance(l);
}

void Runner::op_archive(unsigned l, const ChaosOp& op,
                        std::int64_t cancel_after, unsigned tries_left) {
  Lane& L = lanes_[l];
  if (!L.made || L.archived) {
    logf("lane%u archive skipped (%s)", l, L.made ? "already archived"
                                                  : "no tree");
    ++skipped_;
    advance(l);
    return;
  }
  archive::JobSpec spec =
      archive::JobSpec::pfcp(L.src, L.dst)
          .with_tenant(c_.lane_tenant[l])
          .with_qos(c_.lane_qos[l])
          .with_restartable(true)
          .with_verified(true)
          .with_retry(sys_.config().pftool.retry);
  archive::JobHandle h = sys_.submit(std::move(spec));
  ++submitted_;
  const ChaosOp* opp = &op;
  h.on_done([this, l, opp, h, tries_left](const pftool::JobReport& rep) mutable {
    note_service(rep);
    switch (h.state()) {
      case archive::JobState::Cancelled:
        // Cancel-once-then-go: the race landed, so resubmit without it —
        // the lane's final state is the same whichever way the race went.
        ++cancels_landed_;
        logf("lane%u archive cancelled in queue; resubmitting", l);
        op_archive(l, *opp, /*cancel_after=*/-1, tries_left);
        return;
      case archive::JobState::Rejected:
        logf("lane%u archive rejected (queue full)", l);
        if (tries_left > 0) {
          sys_.sim().after(sim::minutes(1), [this, l, opp, tries_left] {
            op_archive(l, *opp, /*cancel_after=*/-1, tries_left - 1);
          });
          return;
        }
        fully_recovered_ = false;
        advance(l);
        return;
      case archive::JobState::Succeeded:
        lanes_[l].archived = true;
        ++executed_;
        logf("lane%u archived files=%llu bytes=%llu attempts=%u", l,
             static_cast<unsigned long long>(rep.files_copied),
             static_cast<unsigned long long>(rep.bytes_copied),
             h.attempts());
        advance(l);
        return;
      default:  // Failed
        fully_recovered_ = false;
        ++executed_;
        logf("lane%u archive failed (failed=%llu attempts=%u)", l,
             static_cast<unsigned long long>(rep.files_failed),
             h.attempts());
        advance(l);
        return;
    }
  });
  if (cancel_after >= 0 && !h.done()) {
    sys_.sim().after(static_cast<sim::Tick>(cancel_after), [this, h]() mutable {
      if (!h.cancel()) {
        logf("cancel race lost: job %llu already launched or done",
             static_cast<unsigned long long>(h.id()));
      }
    });
  }
}

void Runner::op_migrate(unsigned l) {
  Lane& L = lanes_[l];
  if (!L.archived) {
    logf("lane%u migrate skipped (not archived)", l);
    ++skipped_;
    advance(l);
    return;
  }
  ++executed_;
  sys_.run_migration_cycle(
      "lane" + std::to_string(l), "g" + std::to_string(l % 2),
      [this, l](const hsm::MigrateReport& r) {
        logf("lane%u migrated files=%u failed=%u retries=%u", l,
             r.files_migrated, r.files_failed, r.retries);
        advance(l);
      });
}

void Runner::op_restore(unsigned l, const ChaosOp& op) {
  Lane& L = lanes_[l];
  if (!L.archived) {
    logf("lane%u restore skipped (not archived)", l);
    ++skipped_;
    advance(l);
    return;
  }
  const std::string stage =
      "/restage/lane" + std::to_string(l) + "_" + std::to_string(L.restores++);
  ++executed_;
  submit_restore(l, stage, op.cancel_after);
}

void Runner::submit_restore(unsigned l, const std::string& stage,
                            std::int64_t cancel_after) {
  archive::JobSpec spec =
      archive::JobSpec::pfcp_restore(lanes_[l].dst, stage)
          .with_tenant(c_.lane_tenant[l])
          .with_qos(c_.lane_qos[l])
          .with_verified(true)
          .with_retry(sys_.config().pftool.retry);
  archive::JobHandle h = sys_.submit(std::move(spec));
  ++submitted_;
  h.on_done([this, l, stage, h](const pftool::JobReport& rep) mutable {
    note_service(rep);
    const archive::JobState s = h.state();
    if (s == archive::JobState::Cancelled) {
      // Cancel-once-then-go, same as archives: the lane still gets its
      // restore, so the final model state is timing-independent.
      ++cancels_landed_;
      logf("lane%u restore cancelled in queue; resubmitting", l);
      submit_restore(l, stage, /*cancel_after=*/-1);
      return;
    }
    if (s == archive::JobState::Rejected) {
      logf("lane%u restore rejected (queue full)", l);
      fully_recovered_ = false;
      advance(l);
      return;
    }
    logf("lane%u restore %s -> %s copied=%llu failed=%llu unrepairable=%llu",
         l, stage.c_str(), archive::to_string(s),
         static_cast<unsigned long long>(rep.files_copied),
         static_cast<unsigned long long>(rep.files_failed),
         static_cast<unsigned long long>(rep.files_unrepairable));
    if (s == archive::JobState::Failed) fully_recovered_ = false;
    verify_restore(l, stage, rep, /*final_sweep=*/false);
    advance(l);
  });
  if (cancel_after >= 0 && !h.done()) {
    sys_.sim().after(static_cast<sim::Tick>(cancel_after), [this, h]() mutable {
      if (!h.cancel()) {
        logf("cancel race lost: job %llu already launched or done",
             static_cast<unsigned long long>(h.id()));
      }
    });
  }
}

void Runner::op_delete(unsigned l, const ChaosOp& op) {
  Lane& L = lanes_[l];
  if (!L.archived || L.files.empty()) {
    logf("lane%u delete skipped (not archived)", l);
    ++skipped_;
    advance(l);
    return;
  }
  // op.a picks a starting index; scan for a still-live file.
  std::size_t idx = static_cast<std::size_t>(op.a % L.files.size());
  bool found = false;
  for (std::size_t probe = 0; probe < L.files.size(); ++probe) {
    const std::size_t i = (idx + probe) % L.files.size();
    if (!L.files[i].deleted) {
      idx = i;
      found = true;
      break;
    }
  }
  if (!found) {
    logf("lane%u delete skipped (no live files)", l);
    ++skipped_;
    advance(l);
    return;
  }
  ++executed_;
  const std::string path = L.dst + "/f" + std::to_string(idx);
  sys_.hsm().synchronous_delete(path, [this, l, idx,
                                       path](pfs::Errc e) {
    if (e == pfs::Errc::Ok) {
      lanes_[l].files[idx].deleted = true;
      logf("lane%u deleted %s", l, path.c_str());
    } else {
      logf("lane%u delete %s failed: %s", l, path.c_str(), pfs::to_string(e));
      // A power failure mid-delete answers Stale with the outcome unknown
      // (the unlink may have landed just before the crash).  Resolve the
      // ambiguity the way a real operator would: probe the namespace.
      if (e == pfs::Errc::Stale && !sys_.archive_fs().exists(path)) {
        lanes_[l].files[idx].deleted = true;
        logf("lane%u delete %s had landed before the crash", l, path.c_str());
      }
    }
    advance(l);
  });
}

void Runner::op_scrub() {
  const unsigned m = c_.lane_count();  // maintenance lane index
  if (scrub_running_) {
    logf("scrub skipped (one already running)");
    ++skipped_;
    advance(m);
    return;
  }
  scrub_running_ = true;
  ++executed_;
  ++submitted_;  // holds drives like a job; count it for the bound
  sys_.hsm().scrub(
      integrity::ScrubConfig().with_tenant("maint"),
      [this, m](const integrity::ScrubReport& r) {
        scrub_running_ = false;
        logf("scrub scanned=%llu mismatches=%llu repaired=%llu "
             "unrepairable=%llu read_errors=%llu",
             static_cast<unsigned long long>(r.segments_scanned),
             static_cast<unsigned long long>(r.mismatches),
             static_cast<unsigned long long>(r.repaired()),
             static_cast<unsigned long long>(r.unrepairable),
             static_cast<unsigned long long>(r.read_errors));
        if (!c_.cfg.corruptions && r.mismatches > 0) {
          reg_.report("no-lost-files",
                      "scrub found " + std::to_string(r.mismatches) +
                          " rotten segment(s) but no corruption was injected",
                      now());
        }
        advance(m);
      });
}

void Runner::op_reconcile() {
  const unsigned m = c_.lane_count();
  ++executed_;
  sys_.hsm().reconcile(false, [this, m](const hsm::ReconcileReport& r) {
    logf("reconcile walked=%llu orphans=%llu",
         static_cast<unsigned long long>(r.inodes_walked),
         static_cast<unsigned long long>(r.orphans_found));
    advance(m);
  });
}

void Runner::op_crash(const ChaosOp& op) {
  const unsigned m = c_.lane_count();
  if (sys_.durable() == nullptr) {
    // Shrunk/edited configs can carry crash ops into a WAL-less plant;
    // treat them like any other precondition miss.
    logf("crash-restart skipped (WAL disabled)");
    ++skipped_;
    advance(m);
    return;
  }
  ++executed_;
  crash_and_recover(op.a, [this, m] { advance(m); });
}

void Runner::crash_and_recover(std::uint64_t tear_seed,
                               std::function<void()> tail) {
  logf("power-fail tear_seed=%016llx",
       static_cast<unsigned long long>(tear_seed));
  sys_.power_fail(tear_seed);
  sys_.recover([this, tail = std::move(tail)](
                   const archive::CotsParallelArchive::RecoveryReport& r) {
    logf("recovered replayed=%llu orphan_segs=%llu adopted=%llu "
         "orphan_fixity=%llu remarked=%llu relaunched=%llu",
         static_cast<unsigned long long>(r.wal.replayed_records),
         static_cast<unsigned long long>(r.reconcile.orphan_segments),
         static_cast<unsigned long long>(r.reconcile.adopted_segments),
         static_cast<unsigned long long>(r.reconcile.orphan_fixity_rows),
         static_cast<unsigned long long>(r.reconcile.premigrated_remarked),
         static_cast<unsigned long long>(r.jobs_relaunched));
    // A migrated stub whose catalog object vanished is an unrestorable
    // file the plant acked as durable — exactly what the WAL barrier
    // (fsync before punch) exists to make impossible.
    if (r.reconcile.stub_violations > 0) {
      reg_.report("no-lost-files",
                  std::to_string(r.reconcile.stub_violations) +
                      " migrated stub(s) lost their catalog object across "
                      "the crash (durability barrier breached)",
                  now());
    }
    tail();
  });
}

void Runner::verify_restore(unsigned l, const std::string& stage,
                            const pftool::JobReport& rep, bool final_sweep) {
  Lane& L = lanes_[l];
  std::uint64_t missing = 0;
  std::uint64_t mismatched = 0;
  for (std::size_t k = 0; k < L.files.size(); ++k) {
    FileModel& f = L.files[k];
    if (f.deleted) continue;
    const auto got =
        sys_.scratch().read_tag(stage + "/f" + std::to_string(k));
    if (!got.ok()) {
      ++missing;
      if (final_sweep) f.restored = Restored::Lost;
      continue;
    }
    if (got.value() != f.tag) {
      ++mismatched;
      if (final_sweep) f.restored = Restored::Lost;
      continue;
    }
    if (final_sweep) f.restored = Restored::Ok;
  }
  if (rep.files_failed > 0 || rep.files_unrepairable > 0) {
    fully_recovered_ = false;
  }
  // Loud loss (the job reported the failure) is adversity; *silent* loss
  // — fewer verified files than the report owns up to — is the bug this
  // oracle exists for.
  if (missing > rep.files_failed) {
    reg_.report("no-lost-files",
                "lane " + std::to_string(l) + " restore " + stage + ": " +
                    std::to_string(missing) + " file(s) missing but only " +
                    std::to_string(rep.files_failed) + " reported failed",
                now());
  }
  if (mismatched > 0) {
    reg_.report("no-lost-files",
                "lane " + std::to_string(l) + " restore " + stage + ": " +
                    std::to_string(mismatched) +
                    " file(s) restored with wrong content past verification",
                now());
  }
  if (!c_.cfg.corruptions && rep.files_unrepairable > 0) {
    reg_.report("no-lost-files",
                "lane " + std::to_string(l) + " restore " + stage + ": " +
                    std::to_string(rep.files_unrepairable) +
                    " unrepairable file(s) but no corruption was injected",
                now());
  }
}

void Runner::final_sweep() {
  for (unsigned l = 0; l < c_.lane_count(); ++l) {
    Lane& L = lanes_[l];
    if (!L.archived) continue;
    const bool any_live = std::any_of(L.files.begin(), L.files.end(),
                                      [](const FileModel& f) {
                                        return !f.deleted;
                                      });
    const bool any_deleted = std::any_of(L.files.begin(), L.files.end(),
                                         [](const FileModel& f) {
                                           return f.deleted;
                                         });
    if (any_live) {
      const std::string stage = "/final/lane" + std::to_string(l);
      archive::JobSpec spec =
          archive::JobSpec::pfcp_restore(L.dst, stage)
              .with_tenant(c_.lane_tenant[l])
              .with_qos(c_.lane_qos[l])
              .with_verified(true)
              .with_retry(sys_.config().pftool.retry);
      archive::JobHandle h = sys_.submit(std::move(spec));
      ++submitted_;
      h.on_done([this, l, stage, h](const pftool::JobReport& rep) mutable {
        note_service(rep);
        if (h.state() == archive::JobState::Failed) fully_recovered_ = false;
        logf("lane%u final restore %s failed=%llu unrepairable=%llu", l,
             archive::to_string(h.state()),
             static_cast<unsigned long long>(rep.files_failed),
             static_cast<unsigned long long>(rep.files_unrepairable));
        verify_restore(l, stage, rep, /*final_sweep=*/true);
      });
    }
    if (!any_deleted && !L.files.empty()) {
      // Clean lane: the archived tree must still be byte-identical to the
      // source, across every crash, retry and journal resume the campaign
      // threw at it.
      archive::JobSpec spec = archive::JobSpec::pfcm(L.src, L.dst)
                                  .with_tenant(c_.lane_tenant[l])
                                  .with_qos(c_.lane_qos[l]);
      archive::JobHandle h = sys_.submit(std::move(spec));
      ++submitted_;
      h.on_done([this, l, h](const pftool::JobReport& rep) mutable {
        note_service(rep);
        logf("lane%u pfcm compared=%llu mismatched=%llu", l,
             static_cast<unsigned long long>(rep.files_compared),
             static_cast<unsigned long long>(rep.files_mismatched));
        if (rep.files_mismatched > 0) {
          reg_.report("byte-exact-archive",
                      "lane " + std::to_string(l) + ": pfcm found " +
                          std::to_string(rep.files_mismatched) +
                          " mismatched file(s) after a clean campaign",
                      now());
        }
      });
    }
    // Deleted files must be gone from the archive namespace.
    for (std::size_t k = 0; k < L.files.size(); ++k) {
      if (!L.files[k].deleted) continue;
      const std::string path = L.dst + "/f" + std::to_string(k);
      if (sys_.archive_fs().exists(path)) {
        reg_.report("no-lost-files",
                    "lane " + std::to_string(l) + ": deleted file " + path +
                        " still present in the archive",
                    now());
      }
    }
  }
}

void Runner::apply_doctor() {
  switch (c_.cfg.doctor) {
    case Doctor::None:
      return;
    case Doctor::BreakScrubRepair: {
      std::set<std::uint64_t> rot;
      for (const fault::FaultEvent& ev : c_.fault_plan.events) {
        if (ev.kind == fault::FaultKind::Corrupt) rot.insert(ev.index);
      }
      tape::Cartridge* victim = nullptr;
      sys_.library().for_each_cartridge([&](tape::Cartridge& cart) {
        if (victim != nullptr || rot.count(cart.id()) != 0) return;
        for (const tape::Segment& s : cart.segments()) {
          if (s.object_id != 0 && !s.corrupted) {
            victim = &cart;
            return;
          }
        }
      });
      if (victim == nullptr) {
        logf("doctor: no live segment to rot");
        return;
      }
      const std::uint64_t n = victim->corrupt_random_segments(1, 0xD0C7);
      logf("doctor: silently rotted %llu segment(s) on cartridge %llu",
           static_cast<unsigned long long>(n),
           static_cast<unsigned long long>(victim->id()));
      return;
    }
    case Doctor::DropFixityRow: {
      std::uint64_t obj = 0;
      for (unsigned si = 0; si < sys_.hsm().server_count() && obj == 0;
           ++si) {
        sys_.hsm().server(si).for_each_object(
            [&](const hsm::ArchiveObject& o) {
              if (obj == 0 && !o.is_member() && o.cartridge_id != 0) {
                obj = o.object_id;
              }
            });
      }
      if (obj == 0) {
        logf("doctor: no archived object to strip");
        return;
      }
      sys_.hsm().fixity_db().erase_object(obj);
      logf("doctor: erased fixity rows of object %llu",
           static_cast<unsigned long long>(obj));
      return;
    }
  }
}

void Runner::build_state(ChaosResult& out) {
  std::string s;
  for (unsigned l = 0; l < c_.lane_count(); ++l) {
    const Lane& L = lanes_[l];
    s += "lane " + std::to_string(l) + " tenant=" + c_.lane_tenant[l] +
         " archived=" + (L.archived ? "1" : "0") + "\n";
    for (std::size_t k = 0; k < L.files.size(); ++k) {
      const FileModel& f = L.files[k];
      const char* r = f.restored == Restored::Ok     ? "ok"
                      : f.restored == Restored::Lost ? "lost"
                                                     : "none";
      char line[128];
      std::snprintf(line, sizeof(line),
                    "  f%zu size=%llu tag=%016llx %s restored=%s\n", k,
                    static_cast<unsigned long long>(f.size),
                    static_cast<unsigned long long>(f.tag),
                    f.deleted ? "deleted" : "live", r);
      s += line;
    }
  }
  s += std::string("recovered=") + (fully_recovered_ ? "1" : "0") + "\n";
  out.state = std::move(s);
  out.state_digest = sim::fnv1a64(out.state);
}

ChaosResult Runner::run() {
  setup();
  for (unsigned l = 0; l <= c_.lane_count(); ++l) advance(l);
  sys_.sim().run();
  const sim::Tick drained = now();
  if (c_.cfg.quiescent_crash && sys_.durable() != nullptr) {
    // Metamorphic gate: a power failure at quiescence followed by WAL
    // recovery must leave a state digest equal to the same campaign's
    // digest without the crash.
    logf("campaign drained; quiescent crash");
    crash_and_recover(c_.cfg.seed ^ 0x0E5CULL, [this] { final_sweep(); });
  } else {
    logf("campaign drained; final sweep");
    final_sweep();
  }
  sys_.sim().run();
  apply_doctor();
  reg_.run_final(now());
  sys_.snapshot_net_metrics();
  if (!opt_.save_trace.empty() && sys_.observer().tracing()) {
    sys_.observer().trace().save(opt_.save_trace);
  }

  ChaosResult out;
  out.drained_at = drained;
  out.violations = reg_.violations();
  out.fully_recovered = fully_recovered_;
  out.ops_executed = executed_;
  out.ops_skipped = skipped_;
  out.jobs_submitted = submitted_;
  out.cancels_landed = cancels_landed_;
  build_state(out);
  log_ += out.state;
  for (const Violation& v : out.violations) {
    log_ += v.render();
    log_ += '\n';
  }
  out.log = std::move(log_);
  out.digest = sim::fnv1a64(c_.render() + out.log);
  return out;
}

}  // namespace

ChaosResult run_campaign(const ChaosCampaign& campaign,
                         const RunOptions& opt) {
  Runner r(campaign, opt);
  return r.run();
}

ChaosResult run_chaos(const ChaosConfig& cfg, const RunOptions& opt) {
  const ChaosCampaign campaign = ChaosCampaign::generate(cfg);
  return run_campaign(campaign, opt);
}

}  // namespace cpa::check
