// Fair share: multi-tenant QoS isolation under a bulk recall storm.
//
// The paper's archive is a shared facility: one user's bulk restore
// campaign and another's interactive "give me that one checkpoint" hit
// the same FTA nodes, trunks, and tape drives.  This experiment measures
// what the admission scheduler buys the interactive user.  Two identical
// plants run the identical workload — a batch tenant fires a storm of
// multi-file tape restores at t=0 while an analysis tenant submits small
// staggered single-directory restores — first with admission disabled
// (FIFO: every job launches immediately and drive queues serve in
// arrival order), then with the fair-share scheduler on (batch capped to
// drives-1 drives, a running-job quota that keeps one admission slot
// free, a PFS bandwidth shaper, and Interactive outranking Bulk at every
// drive grant).
//
// Headline: the ratio of interactive p99 latency FIFO/sched, which must
// reach 5x (the isolation target set before the scheduler was first
// measured).  The fairshare.* rows also check:
//   - every staging migration finished and every job in both runs ends
//     Succeeded (no rejects, no starvation),
//   - the scheduler run's max queue wait respects the aging starvation
//     bound (aging_bound + one service time per queued job),
//   - with tracing on, the profiler's conservation invariant holds and
//     the admission wait shows up in the AdmissionWait bucket.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "archive/system.hpp"
#include "bench/ledger.hpp"
#include "obs/profile.hpp"
#include "simcore/units.hpp"

namespace cpa::bench::fairshare {
namespace {

using Op = Claim::Op;

// Bulk restores are deliberately transfer-dominated (one long cart run
// per job, ~640 s of streaming per 64 GB file): isolation then hinges on
// who *holds* the drives, which the scheduler controls, rather than on
// the single FIFO robot arm, which it cannot reorder.
struct Workload {
  unsigned bulk_jobs = 10;
  unsigned bulk_files_per_job = 1;
  std::uint64_t bulk_file_bytes = 128ULL * kGB;
  unsigned interactive_jobs = 12;
  std::uint64_t interactive_file_bytes = 64 * kMB;
  /// Past the storm's initial mount burst (the single robot arm serves
  /// FIFO; no scheduler can reorder it) but deep inside the ~1300 s cart
  /// runs, where drive possession is what decides interactive latency.
  sim::Tick first_interactive = sim::secs(450);
  sim::Tick stagger = sim::secs(120);
};

struct RunResult {
  std::vector<double> interactive_lat;  // submit -> done, virtual seconds
  std::vector<double> bulk_lat;
  double makespan_s = 0;
  double max_service_s = 0;     // longest launch -> finish of any job
  double max_queue_wait_s = 0;  // scheduler-observed (sched mode only)
  double aging_bound_s = 0;
  unsigned staged = 0;  // staging migrations that finished
  std::uint64_t rejected = 0;
  std::uint64_t drive_queue_jumps = 0;
  std::uint64_t not_succeeded = 0;
  bool conservation_ok = true;
  std::uint64_t admission_wait_ticks = 0;  // profiler AdmissionWait total
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size()))) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// The scheduler policy under test: batch is capped to drives-1 drives,
/// one global admission slot is kept free of batch jobs, and batch's PFS
/// share is shaped to half the trunks.
sched::SchedConfig sched_policy(unsigned drive_count) {
  return sched::SchedConfig{}
      .with_max_running_jobs(6)
      .with_max_queue(256)
      .with_aging_step(sim::minutes(2))
      .with_aging_max_boost(3)
      .with_tenant("batch", sched::TenantQuota{}
                                .with_weight(1.0)
                                .with_max_drives(drive_count - 1)
                                .with_max_running_jobs(3)
                                .with_pfs_bw_fraction(0.5))
      .with_tenant("ana", sched::TenantQuota{}.with_weight(4.0));
}

/// Runs the storm on a fresh plant.  `use_sched` toggles admission
/// control; everything else — files, groups, submit times — is identical.
RunResult run_mode(const Workload& w, bool use_sched) {
  archive::SystemConfig cfg = archive::SystemConfig::small();
  cfg.hsm.punch_after_migrate = true;  // restores must recall from tape
  // A bulk job at the back of the FIFO storm legitimately sees no first
  // byte for ~45 virtual minutes; that is the congestion under test, not
  // a stall the watchdog should abort.
  cfg.pftool.stall_timeout = sim::hours(2);
  if (use_sched) {
    cfg.with_sched(sched_policy(cfg.tape.drive_count));
    cfg.obs.tracing = true;  // conservation + AdmissionWait checks
  }
  archive::CotsParallelArchive sys(cfg);

  // Stage: bulk trees and interactive directories, migrated to tape with
  // per-job colocation groups so recalls can parallelize across drives.
  RunResult r;
  for (unsigned j = 0; j < w.bulk_jobs; ++j) {
    std::vector<std::string> paths;
    for (unsigned f = 0; f < w.bulk_files_per_job; ++f) {
      const std::string p =
          "/proj/bulk/j" + std::to_string(j) + "/f" + std::to_string(f);
      sys.make_file(sys.archive_fs(), p, w.bulk_file_bytes, 0xB000 + j);
      paths.push_back(p);
    }
    sys.hsm().migrate_batch(0, paths, "bulk" + std::to_string(j),
                            [&r](const hsm::MigrateReport&) { ++r.staged; });
  }
  for (unsigned k = 0; k < w.interactive_jobs; ++k) {
    const std::string p = "/proj/ana/d" + std::to_string(k) + "/f";
    sys.make_file(sys.archive_fs(), p, w.interactive_file_bytes, 0xA000 + k);
    // One colocation group per interactive directory: the staggered
    // restores must not serialize on a shared cartridge, or the experiment
    // would measure volume conflicts instead of scheduling.
    sys.hsm().migrate_batch(0, {p}, "ana" + std::to_string(k),
                            [&r](const hsm::MigrateReport&) { ++r.staged; });
  }
  sys.sim().run();

  // Storm.  The virtual clock is already past the staging phase; measure
  // latencies from each job's own submit tick.
  std::vector<archive::JobHandle> jobs;
  jobs.reserve(w.bulk_jobs + w.interactive_jobs);
  const sim::Tick t0 = sys.sim().now();
  const auto track = [&](archive::JobHandle h, std::vector<double>* lat) {
    const sim::Tick submitted = sys.sim().now();
    h.on_done([&sys, submitted, lat](const pftool::JobReport&) {
      lat->push_back(sim::to_seconds(sys.sim().now() - submitted));
    });
    jobs.push_back(std::move(h));
  };
  for (unsigned j = 0; j < w.bulk_jobs; ++j) {
    const std::string root = "/proj/bulk/j" + std::to_string(j);
    track(sys.submit(archive::JobSpec::pfcp_restore(root, "/restage" + root)
                         .with_tenant("batch")
                         .with_qos(sched::QosClass::Bulk)),
          &r.bulk_lat);
  }
  for (unsigned k = 0; k < w.interactive_jobs; ++k) {
    sys.sim().at(t0 + w.first_interactive + k * w.stagger, [&, k] {
      const std::string root = "/proj/ana/d" + std::to_string(k);
      track(sys.submit(archive::JobSpec::pfcp_restore(root, "/restage" + root)
                           .with_tenant("ana")
                           .with_qos(sched::QosClass::Interactive)),
            &r.interactive_lat);
    });
  }
  sys.sim().run();

  r.makespan_s = sim::to_seconds(sys.sim().now() - t0);
  for (const archive::JobHandle& h : jobs) {
    if (h.state() != archive::JobState::Succeeded) ++r.not_succeeded;
    r.max_service_s = std::max(
        r.max_service_s,
        sim::to_seconds(h.report().finished - h.report().started));
  }
  r.rejected = sys.observer().metrics().counter_value("sched.rejected");
  r.drive_queue_jumps =
      sys.observer().metrics().counter_value("sched.drive_queue_jumps");
  if (sched::AdmissionScheduler* s = sys.scheduler()) {
    r.max_queue_wait_s = sim::to_seconds(s->max_queue_wait());
    r.aging_bound_s = sim::to_seconds(s->aging_bound());
  }
  if (cfg.obs.tracing) {
    const obs::Profiler prof(sys.observer().trace());
    r.conservation_ok = prof.conservation_ok();
    for (const obs::JobProfile& jp : prof.jobs()) {
      r.conservation_ok = r.conservation_ok && jp.conserved();
      r.admission_wait_ticks +=
          jp.buckets[static_cast<std::size_t>(obs::Bucket::AdmissionWait)];
    }
  }
  return r;
}

void print_mode(const char* name, const RunResult& r) {
  std::printf("  %-5s | %11.1f | %11.1f | %11.1f | %11.1f | %8.0f\n", name,
              percentile(r.interactive_lat, 0.50),
              percentile(r.interactive_lat, 0.99),
              percentile(r.bulk_lat, 0.50), percentile(r.bulk_lat, 0.99),
              r.makespan_s);
}

}  // namespace

void run(Ledger& L) {
  const Workload w;

  L.experiment("Fair share",
               "multi-tenant QoS isolation: interactive p99 under a bulk "
               "recall storm");
  std::printf("  %u bulk restore jobs (tenant batch, Bulk) vs %u staggered "
              "interactive restores (tenant ana)\n",
              w.bulk_jobs, w.interactive_jobs);

  const RunResult fifo = run_mode(w, /*use_sched=*/false);
  const RunResult fair = run_mode(w, /*use_sched=*/true);

  bench::section("latency, virtual seconds (submit -> done)");
  std::printf("  mode  | inter. p50  | inter. p99  | bulk p50    | bulk p99  "
              "  | makespan\n");
  std::printf("  ------+-------------+-------------+-------------+-----------"
              "--+---------\n");
  print_mode("fifo", fifo);
  print_mode("sched", fair);

  const double p99_fifo = percentile(fifo.interactive_lat, 0.99);
  const double p99_fair = percentile(fair.interactive_lat, 0.99);
  const double ratio = p99_fair > 0 ? p99_fifo / p99_fair : 0;
  std::printf("\n  interactive p99 isolation: %.1fx (target >= 5x)\n", ratio);
  std::printf("  scheduler max queue wait %.0f s (aging bound %.0f s, drive "
              "queue jumps %" PRIu64 ")\n",
              fair.max_queue_wait_s, fair.aging_bound_s,
              fair.drive_queue_jumps);

  // Starvation bound: once a job's aging boost saturates it outranks any
  // fresh arrival, so its residual wait is at most one service time per
  // job that can still be ahead of it.
  const unsigned jobs = w.bulk_jobs + w.interactive_jobs;
  const double wait_bound = fair.aging_bound_s + jobs * fair.max_service_s;
  const double admission_wait_s = sim::to_seconds(fair.admission_wait_ticks);

  bench::section("paper vs measured");
  L.row("fairshare.fifo_p99", "shared-facility interference",
        "minutes-long stalls", fmt("p99 %.0f s FIFO", p99_fifo),
        Claim::report(p99_fifo));
  L.row("fairshare.isolation", "interactive isolation (sched)", ">= 5x",
        fmt("%.2fx", ratio) + " (" + fmt("%.1f s", p99_fifo) + " vs " +
            fmt("%.1f s", p99_fair) + ")",
        Claim::bound(ratio, Op::Ge, 5.0));
  L.row("fairshare.staged", "staging migrations finished", "all",
        of(fifo.staged + fair.staged, 2 * jobs),
        Claim::bound(fifo.staged + fair.staged, Op::Eq, 2 * jobs));
  const std::uint64_t not_succeeded = fifo.not_succeeded + fair.not_succeeded;
  L.row("fairshare.succeeded", "jobs ended Succeeded", "all",
        of(2 * jobs - not_succeeded, 2 * jobs),
        Claim::bound(2 * jobs - not_succeeded, Op::Eq, 2 * jobs));
  L.row("fairshare.rejects", "admission rejects", "none",
        std::to_string(fair.rejected), Claim::bound(fair.rejected, Op::Eq, 0));
  L.row("fairshare.starvation", "aging bound vs max queue wait",
        "no starvation",
        fmt("%.0f s", wait_bound) + " >= " + fmt("%.0f s", fair.max_queue_wait_s),
        Claim::order(wait_bound, Op::Ge, fair.max_queue_wait_s));
  L.row("fairshare.conservation", "profiler conservation (sched)",
        "buckets sum to wall", fair.conservation_ok ? "ok" : "VIOLATED",
        Claim::bound(fair.conservation_ok ? 1 : 0, Op::Eq, 1));
  L.row("fairshare.admission_wait", "AdmissionWait bucket (sched)",
        "the queue is visible", fmt("%.0f s", admission_wait_s),
        Claim::bound(admission_wait_s, Op::Gt, 0));
}

}  // namespace cpa::bench::fairshare
