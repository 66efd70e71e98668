#include "check/campaign.hpp"

#include <algorithm>
#include <cstdio>

#include "simcore/rng.hpp"
#include "simcore/units.hpp"

namespace cpa::check {

const char* to_string(Doctor d) {
  switch (d) {
    case Doctor::None: return "none";
    case Doctor::BreakScrubRepair: return "break-scrub-repair";
    case Doctor::DropFixityRow: return "drop-fixity-row";
  }
  return "?";
}

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::MakeTree: return "make-tree";
    case OpKind::Archive: return "archive";
    case OpKind::Migrate: return "migrate";
    case OpKind::Restore: return "restore";
    case OpKind::DeleteOne: return "delete";
    case OpKind::Scrub: return "scrub";
    case OpKind::Reconcile: return "reconcile";
    case OpKind::CrashRestart: return "crash-restart";
  }
  return "?";
}

std::string ChaosOp::render() const {
  char line[160];
  std::snprintf(line, sizeof(line),
                "%s lane=%u gap=%llu a=%llu b=%llu cancel=%lld",
                to_string(kind), lane,
                static_cast<unsigned long long>(gap),
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b),
                static_cast<long long>(cancel_after));
  return line;
}

std::string ChaosCampaign::render() const {
  std::string out;
  char head[160];
  std::snprintf(head, sizeof(head),
                "# chaos campaign seed=%llu ops=%zu lanes=%u\n",
                static_cast<unsigned long long>(cfg.seed), ops.size(),
                lane_count());
  out += head;
  for (unsigned l = 0; l < lane_count(); ++l) {
    out += "lane " + std::to_string(l) + " tenant=" + lane_tenant[l] +
           " qos=" + sched::to_string(lane_qos[l]) + "\n";
  }
  for (const ChaosOp& op : ops) {
    out += op.render();
    out += '\n';
  }
  if (!fault_plan.empty()) {
    out += "faults: " + fault_plan.render() + "\n";
  }
  return out;
}

namespace {

/// Per-lane generation state: what the op chain has established so far.
/// The runner re-checks every precondition at execution time (a cancel
/// race or a dropped op during shrinking may invalidate it), so this is
/// only used to keep generated sequences mostly-sensible.
struct LaneState {
  bool made = false;
  bool archived = false;
  bool migrated = false;
  std::uint64_t files = 0;
  std::uint64_t deletes = 0;
};

}  // namespace

ChaosCampaign ChaosCampaign::generate(const ChaosConfig& cfg) {
  ChaosCampaign c;
  c.cfg = cfg;
  sim::Rng rng(cfg.seed ^ 0xC0A5C0A5C0A5ULL);

  const unsigned lanes =
      cfg.lanes != 0
          ? cfg.lanes
          : std::clamp(cfg.ops / 12u, 2u, 8u);
  const unsigned tenants = std::max(1u, cfg.tenants);
  for (unsigned l = 0; l < lanes; ++l) {
    c.lane_tenant.push_back("t" + std::to_string(l % tenants));
    c.lane_qos.push_back(rng.chance(0.5) ? sched::QosClass::Interactive
                                         : sched::QosClass::Bulk);
  }

  std::vector<LaneState> st(lanes);
  // The maintenance lane (index == lanes) runs scrubs and reconciles.
  const unsigned kMaint = lanes;
  unsigned emitted = 0;
  while (emitted < cfg.ops) {
    ChaosOp op;
    // Bursty gaps: a quarter of the ops fire nearly back-to-back, which
    // is what piles lanes onto the admission queue at once (and gives
    // cancel races and the starvation bound something to chew on).
    op.gap = rng.chance(0.25) ? sim::secs(rng.uniform_u64(0, 2))
                              : sim::secs(rng.uniform_u64(1, 90));
    // One op in eight is plant maintenance; the rest advance a job lane.
    if (rng.chance(0.125)) {
      op.lane = kMaint;
      // The && short-circuit keeps the rng stream (and hence every
      // existing golden digest) untouched when crashes are off.
      if (cfg.crashes && rng.chance(0.25)) {
        op.kind = OpKind::CrashRestart;
        op.a = rng.uniform_u64(1, 1ULL << 32);  // torn-tail seed
      } else {
        op.kind = rng.chance(0.75) ? OpKind::Scrub : OpKind::Reconcile;
      }
      c.ops.push_back(op);
      ++emitted;
      continue;
    }
    const unsigned lane = static_cast<unsigned>(rng.uniform_u64(0, lanes - 1));
    LaneState& s = st[lane];
    op.lane = lane;
    if (!s.made) {
      op.kind = OpKind::MakeTree;
      op.a = rng.uniform_u64(2, 6);                    // files
      op.b = (1ULL << rng.uniform_u64(22, 26));        // 4..64 MB each
      s.made = true;
      s.files = op.a;
    } else if (!s.archived) {
      op.kind = OpKind::Archive;
      if (cfg.cancels && rng.chance(0.3)) {
        // Race a cancel against the submit: half the races land in the
        // deferred-launch window (0..3 ticks after submit), half strike
        // seconds later, against a job still queued behind admission.
        op.cancel_after =
            rng.chance(0.5)
                ? static_cast<std::int64_t>(rng.uniform_u64(0, 3))
                : static_cast<std::int64_t>(
                      sim::secs(rng.uniform_u64(1, 30)));
      }
      s.archived = true;
    } else if (!s.migrated && rng.chance(0.7)) {
      op.kind = OpKind::Migrate;
      s.migrated = true;
    } else {
      // Steady state: recalls, deletes, and the occasional re-migrate of
      // files a delete left behind.
      const double roll = rng.uniform();
      if (roll < 0.55) {
        op.kind = OpKind::Restore;
        if (cfg.cancels && rng.chance(0.2)) {
          // Restores queue behind three admission slots when lanes burst,
          // so a cancel seconds later frequently finds the job genuinely
          // Queued — the landing half of the cancel contract.
          op.cancel_after = static_cast<std::int64_t>(
              sim::secs(rng.uniform_u64(1, 20)));
        }
      } else if (roll < 0.85 && s.deletes + 1 < s.files) {
        op.kind = OpKind::DeleteOne;
        op.a = rng.uniform_u64(0, s.files - 1);
        ++s.deletes;
      } else {
        op.kind = OpKind::Migrate;
      }
    }
    c.ops.push_back(op);
    ++emitted;
  }

  if (cfg.faults) {
    fault::RandomFaultConfig fcfg;
    fcfg.drives = 4;
    fcfg.nodes = 4;
    fcfg.cartridges = 6;
    fcfg.servers = 1;
    fcfg.drive_failures = 1 + cfg.ops / 100;
    fcfg.node_crashes = 1 + cfg.ops / 150;
    fcfg.media_errors = cfg.ops / 150;
    fcfg.media_corruptions = cfg.corruptions ? 1 + cfg.ops / 120 : 0;
    fcfg.server_restarts = cfg.ops / 200;
    // Ops are spaced by up to 90 s gaps per lane; spread the adversity
    // across the same stretch of virtual time the campaign occupies.
    fcfg.horizon = sim::minutes(10) + sim::secs(45) * cfg.ops;
    fcfg.min_repair = sim::minutes(1);
    fcfg.max_repair = sim::minutes(5);
    c.fault_plan = fault::FaultPlan::random(fcfg, cfg.seed ^ 0xFA17ULL);
  }
  return c;
}

archive::SystemConfig plant_for(const ChaosCampaign& campaign) {
  const ChaosConfig& cfg = campaign.cfg;
  archive::SystemConfig sys = archive::SystemConfig::small();
  sys.hsm.tape_copies = cfg.tape_copies;
  sys.hsm.server.md_batch_size = cfg.md_batch;
  sys.obs.tracing = cfg.tracing;
  sys.pftool.restartable = true;
  sys.fault_plan = campaign.fault_plan;
  // Job- and unit-level recovery generous enough to ride out every
  // repairable fault window the generator emits.
  fault::RetryPolicy retry;
  retry.max_attempts = 6;
  retry.backoff = sim::secs(5);
  retry.max_backoff = sim::minutes(2);
  if (cfg.crashes || cfg.quiescent_crash) {
    // Crash campaigns run durably: every metadata mutation rides the WAL
    // so power_fail/recover round-trips.  Jitter desynchronizes the herd
    // of relaunches a whole-archive crash creates.
    sys.with_wal();
    retry.jitter = 0.5;
    retry.jitter_seed = cfg.seed ^ 0x1A77ULL;
  }
  sys.with_retry(retry);
  if (cfg.use_sched) {
    sched::SchedConfig sc;
    sc.enabled = true;
    // Tight enough that concurrent lanes actually queue (which is what
    // gives the cancel races and the starvation oracle something to bite).
    sc.max_running_jobs = 3;
    for (unsigned t = 0; t < std::max(1u, cfg.tenants); ++t) {
      sched::TenantQuota q;
      q.weight = 1.0 + static_cast<double>(t % 3);
      // The first tenant is drive-throttled, so recall storms from it
      // contend with maintenance scrubs under quota pressure.
      if (t == 0) q.max_drives = 2;
      sc.tenants["t" + std::to_string(t)] = q;
    }
    sys.sched = sc;
    sys.sched.enabled = true;
  }
  return sys;
}

}  // namespace cpa::check
