#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "archive/system.hpp"
#include "obs/profile.hpp"

namespace cpa::check {

std::string Violation::render() const {
  char head[96];
  std::snprintf(head, sizeof(head), "VIOLATION %s @t=%llu: ",
                invariant.c_str(), static_cast<unsigned long long>(at));
  return head + detail;
}

void InvariantRegistry::add_continuous(std::string name, Check fn) {
  continuous_.push_back({std::move(name), std::move(fn)});
}

void InvariantRegistry::add_final(std::string name, Check fn) {
  final_.push_back({std::move(name), std::move(fn)});
}

void InvariantRegistry::run_list(const std::vector<Named>& list,
                                 sim::Tick now) {
  for (const Named& n : list) {
    if (auto diag = n.fn()) {
      violations_.push_back({n.name, std::move(*diag), now});
    }
  }
}

void InvariantRegistry::run_continuous(sim::Tick now) {
  run_list(continuous_, now);
}

void InvariantRegistry::run_final(sim::Tick now) {
  run_list(continuous_, now);
  run_list(final_, now);
}

void InvariantRegistry::report(std::string invariant, std::string detail,
                               sim::Tick at) {
  violations_.push_back({std::move(invariant), std::move(detail), at});
}

std::string InvariantRegistry::render_violations() const {
  std::string out;
  for (const Violation& v : violations_) {
    out += v.render();
    out += '\n';
  }
  return out;
}

namespace {

/// One tape location of an object, for the bidirectional fixity walk.
struct Loc {
  std::uint64_t object_id;
  std::uint64_t cartridge;
  std::uint64_t seq;
};

std::optional<std::string> check_flow_conservation(
    archive::CotsParallelArchive& sys) {
  sim::FlowNetwork& net = sys.net();
  // Incremental rates must match the from-scratch water-filling solve
  // bit-for-bit (both run the same canonical component solver).
  for (const auto& [id, ref_rate] : net.recompute_rates_reference()) {
    const double live = net.flow_rate(sim::FlowId{id});
    if (live != ref_rate) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "flow %llu rate %.17g != reference %.17g",
                    static_cast<unsigned long long>(id), live, ref_rate);
      return std::string(buf);
    }
  }
  // No pool may hand out more than its capacity.
  for (std::size_t i = 0; i < net.pool_count(); ++i) {
    const sim::PoolId id{static_cast<std::uint32_t>(i)};
    const double cap = net.pool_capacity(id);
    if (!std::isfinite(cap)) continue;
    const double alloc = net.pool_allocated(id);
    if (alloc > cap * (1.0 + 1e-9) + 1e-6) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "pool %s allocated %.17g over capacity %.17g",
                    net.pool_name(id).c_str(), alloc, cap);
      return std::string(buf);
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_fs_capacity(pfs::FileSystem& fs) {
  for (const pfs::PoolInfo& p : fs.pools()) {
    if (p.config.capacity_bytes == 0) continue;  // unbounded
    if (p.used_bytes > p.config.capacity_bytes) {
      return fs.name() + " pool " + p.config.name + " used " +
             std::to_string(p.used_bytes) + " > capacity " +
             std::to_string(p.config.capacity_bytes);
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_fixity_consistency(
    archive::CotsParallelArchive& sys,
    const std::vector<std::uint64_t>& corrupt_cartridges) {
  hsm::HsmSystem& hsm = sys.hsm();
  tape::TapeLibrary& lib = sys.library();
  const integrity::FixityDb& db = hsm.fixity_db();
  const std::set<std::uint64_t> rot_ok(corrupt_cartridges.begin(),
                                       corrupt_cartridges.end());

  // Objects -> segments -> rows: every recorded tape location of a live
  // object must exist on tape, carry the recorded checksum, and have a
  // fixity row.  Members store through their aggregate, so only objects
  // that own a segment are walked.
  std::vector<Loc> locs;
  std::string err;
  for (unsigned si = 0; si < hsm.server_count() && err.empty(); ++si) {
    const hsm::ArchiveServer& server = hsm.server(si);
    server.for_each_object([&](const hsm::ArchiveObject& obj) {
      if (!err.empty() || obj.is_member() || obj.cartridge_id == 0) return;
      locs.clear();
      locs.push_back({obj.object_id, obj.cartridge_id, obj.tape_seq});
      for (const auto& cp : server.links(obj.object_id).copies) {
        locs.push_back({obj.object_id, cp.cartridge_id, cp.tape_seq});
      }
      for (const Loc& L : locs) {
        const std::string where = "object " + std::to_string(L.object_id) +
                                  " cart " + std::to_string(L.cartridge) +
                                  " seq " + std::to_string(L.seq);
        tape::Cartridge* cart = lib.cartridge(L.cartridge);
        if (cart == nullptr) {
          err = where + ": cartridge missing";
          return;
        }
        const tape::Segment* seg = cart->segment_by_seq(L.seq);
        if (seg == nullptr || seg->object_id != L.object_id) {
          err = where + ": tape segment missing or owned by another object";
          return;
        }
        const integrity::FixityRow* row =
            db.at_location(L.object_id, L.cartridge);
        if (row == nullptr) {
          err = where + ": no fixity row covers this location";
          return;
        }
        if (row->tape_seq != L.seq || row->length != seg->bytes) {
          err = where + ": fixity row disagrees with the segment";
          return;
        }
        if (row->checksum != seg->fingerprint) {
          err = where + ": recorded checksum != written fingerprint";
          return;
        }
        // Silent rot is only legitimate where the fault plan injected it
        // (and is then either still awaiting detection or already
        // condemned); anywhere else a mismatching fingerprint means the
        // plant corrupted data behind the fixity layer's back.
        if (seg->observed_fingerprint() != row->checksum &&
            row->status == integrity::FixityStatus::Ok &&
            rot_ok.count(L.cartridge) == 0) {
          err = where + ": undetected corruption outside the fault plan";
          return;
        }
      }
    });
  }
  if (!err.empty()) return err;

  // Rows -> objects: every Ok fixity row must describe a live object's
  // current location.  (Delete and reclamation erase/relocate rows
  // transactionally; a stale row is a lost-update bug.)
  db.for_each([&](const integrity::FixityRow& row) {
    if (!err.empty()) return;
    const hsm::ArchiveObject* obj = nullptr;
    const hsm::ArchiveServer* server = nullptr;
    for (unsigned si = 0; si < hsm.server_count() && obj == nullptr; ++si) {
      server = &hsm.server(si);
      obj = server->object(row.object_id);
    }
    const std::string where = "fixity row " + std::to_string(row.row_id) +
                              " (object " + std::to_string(row.object_id) +
                              ")";
    if (obj == nullptr) {
      err = where + ": object no longer exists";
      return;
    }
    const bool at_primary = obj->cartridge_id == row.cartridge_id &&
                            obj->tape_seq == row.tape_seq;
    const std::vector<hsm::ArchiveObject::Replica>& copies =
        server->links(row.object_id).copies;
    const bool at_copy =
        std::any_of(copies.begin(), copies.end(),
                    [&](const hsm::ArchiveObject::Replica& r) {
                      return r.cartridge_id == row.cartridge_id &&
                             r.tape_seq == row.tape_seq;
                    });
    if (!at_primary && !at_copy) {
      err = where + ": names a location the object does not occupy";
      return;
    }
    if (row.status == integrity::FixityStatus::Unrepairable &&
        rot_ok.empty()) {
      err = where + ": unrepairable verdict without any injected corruption";
    }
  });
  if (!err.empty()) return err;
  return std::nullopt;
}

std::optional<std::string> check_profiler_conservation(
    archive::CotsParallelArchive& sys) {
  if (!sys.observer().tracing()) return std::nullopt;
  const obs::Profiler prof(sys.observer().trace());
  if (!prof.conservation_ok()) {
    return std::to_string(prof.violations()) + " of " +
           std::to_string(prof.jobs().size()) +
           " job(s) lost ticks in the bucket decomposition";
  }
  return std::nullopt;
}

std::optional<std::string> check_starvation(archive::CotsParallelArchive& sys,
                                            const OracleInputs& in) {
  sched::AdmissionScheduler* sched = sys.scheduler();
  if (sched == nullptr) return std::nullopt;
  const sim::Tick max_service =
      in.max_service != nullptr ? *in.max_service : 0;
  const unsigned jobs = in.jobs_submitted != nullptr ? *in.jobs_submitted : 0;
  // Once a job's aging boost saturates it outranks any fresh arrival, so
  // its residual wait is at most one service time per job that can still
  // be ahead of it (the bound the fairshare.starvation ledger row checks).
  const sim::Tick bound = sched->aging_bound() + max_service * jobs;
  if (sched->max_queue_wait() > bound) {
    return "max queue wait " +
           std::to_string(sim::to_seconds(sched->max_queue_wait())) +
           " s exceeds the starvation bound " +
           std::to_string(sim::to_seconds(bound)) + " s";
  }
  return std::nullopt;
}

}  // namespace

void register_standard_oracles(InvariantRegistry& reg,
                               archive::CotsParallelArchive& sys,
                               const OracleInputs& inputs) {
  reg.add_continuous("flow-conservation",
                     [&sys] { return check_flow_conservation(sys); });
  reg.add_continuous("fs-capacity", [&sys]() -> std::optional<std::string> {
    if (auto d = check_fs_capacity(sys.archive_fs())) return d;
    return check_fs_capacity(sys.scratch());
  });
  const std::vector<std::uint64_t> rot = inputs.corrupt_cartridges;
  reg.add_final("fixity-consistency", [&sys, rot] {
    return check_fixity_consistency(sys, rot);
  });
  reg.add_final("profiler-conservation",
                [&sys] { return check_profiler_conservation(sys); });
  reg.add_final("sched-starvation",
                [&sys, inputs] { return check_starvation(sys, inputs); });
}

}  // namespace cpa::check
