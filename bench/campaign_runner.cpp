#include "bench/campaign_runner.hpp"

#include <cstdio>

#include "archive/system.hpp"
#include "obs/profile.hpp"
#include "simcore/rng.hpp"
#include "workload/tree.hpp"

namespace cpa::bench {
namespace {

// Ethernet/TCP/NFS goodput: the paper's own ceiling is "~75% bandwidth
// utilization from two 10Gigabit Ethernet trunk", so the usable fraction
// of nominal line rate is modeled explicitly.
constexpr double kGoodput = 0.75;

/// "Machine sharing among multiple users": other site traffic occupies a
/// varying fraction of each trunk in alternating busy/quiet intervals over
/// the 18 operation days.
void schedule_background_load(archive::CotsParallelArchive& sys,
                              sim::Rng& rng, double days) {
  for (unsigned t = 0; t < sys.config().cluster.trunk_count; ++t) {
    const sim::PoolId trunk = sys.fta().trunk_for(t);
    double at_hours = rng.uniform(0.0, 2.0);
    while (at_hours < days * 24.0) {
      const double busy_hours = rng.uniform(0.5, 4.0);
      const double fraction = rng.uniform(0.15, 0.6);
      const double rate =
          sys.net().pool_capacity(trunk) * fraction;
      const double bytes = rate * busy_hours * 3600.0;
      sys.sim().at(sim::hours(at_hours), [&sys, trunk, bytes, rate] {
        sys.net().start_flow({sim::PathLeg(trunk)}, bytes, nullptr, rate);
      });
      at_hours += busy_hours + rng.uniform(0.5, 4.0);
    }
  }
}

/// The production archive migrates to tape continuously — without it the
/// 100 TB fast pool cannot absorb a ~150 TB campaign.  Cycles chain (a new
/// scan starts only after the previous migration finished) to avoid
/// double-migrating files still in flight.
/// Returns the shared state keeping the cycle chain alive: queued lambdas
/// hold only weak references (a self-referencing strong capture would leak
/// the closure — LeakSanitizer vetoes it), so the caller must keep the
/// returned pointer alive until the simulation finishes running.
[[nodiscard]] std::shared_ptr<std::function<void()>> schedule_migration_cycles(
    archive::CotsParallelArchive& sys, double horizon_days) {
  pfs::Rule rule;
  rule.name = "campaign-mig";
  rule.action = pfs::Rule::Action::List;
  rule.where = {pfs::Condition::path_glob("/proj/*"),
                pfs::Condition::dmapi_is(pfs::DmapiState::Resident),
                pfs::Condition::age_ge(1800)};
  sys.policy().add_rule(rule);

  auto cycle = std::make_shared<std::function<void()>>();
  const std::weak_ptr<std::function<void()>> weak = cycle;
  *cycle = [&sys, weak, horizon_days] {
    if (sim::to_seconds(sys.sim().now()) > horizon_days * 86400.0) return;
    sys.run_migration_cycle("campaign-mig", "opensci",
                            [&sys, weak](const hsm::MigrateReport&) {
                              sys.sim().after(sim::hours(4), [weak] {
                                if (const auto c = weak.lock()) (*c)();
                              });
                            });
  };
  sys.sim().at(sim::hours(2), [weak] {
    if (const auto c = weak.lock()) (*c)();
  });
  return cycle;
}

}  // namespace

bool read_fault_flag(const std::string& value, CampaignOptions& opts,
                     std::string* error) {
  opts.auto_faults = value == "auto";
  if (value.empty() || opts.auto_faults) return true;
  auto plan = fault::FaultPlan::parse(value, error);
  if (!plan) return false;
  opts.fault_plan = std::move(*plan);
  return true;
}

CampaignResult run_campaign(const CampaignOptions& opts) {
  using archive::CotsParallelArchive;
  using archive::SystemConfig;

  workload::CampaignConfig wl;
  wl.file_count_scale = opts.file_count_scale;
  wl.max_materialized_files = 4000;
  wl.preserve_total_bytes = true;  // realistic durations -> realistic overlap
  wl.seed = opts.seed;
  const auto specs = workload::CampaignGenerator(wl).generate();

  SystemConfig cfg = SystemConfig::roadrunner();
  cfg.cluster.trunk_bps *= kGoodput;
  cfg.cluster.node_nic_bps *= kGoodput;
  const bool profiling = !opts.profile_path.empty();
  cfg.obs.tracing = !opts.trace_path.empty() ||
                    !opts.raw_trace_path.empty() || profiling;
  const bool faulty = opts.faulty();
  std::size_t widened_job = specs.size();  // index of the 16-worker job
  if (opts.auto_faults) {
    // Campaign-aligned plan: crash a node mid-way through the largest of
    // the first ten jobs, and fail two drives while the early migration
    // cycles hold them.
    std::size_t big = 0;
    for (std::size_t i = 1; i < std::min<std::size_t>(10, specs.size()); ++i) {
      if (specs[i].total_bytes > specs[big].total_bytes) big = i;
    }
    widened_job = big;
    fault::FaultPlan plan;
    plan.node_crash(1, specs[big].submit_time + sim::minutes(5),
                    sim::minutes(10));
    plan.drive_failure(0, sim::hours(2) + sim::minutes(30), sim::minutes(15));
    plan.drive_failure(1, sim::hours(6) + sim::minutes(30), sim::minutes(15));
    cfg.with_fault_plan(std::move(plan));
  } else {
    cfg.with_fault_plan(opts.fault_plan);
  }
  CotsParallelArchive sys(cfg);

  sim::Rng rng(opts.seed ^ 0xBADCAFE);
  schedule_background_load(sys, rng, wl.operation_days);
  const auto migration_keeper =
      schedule_migration_cycles(sys, wl.operation_days + 2.0);

  CampaignResult result;
  result.jobs.resize(specs.size());
  std::vector<archive::JobHandle> handles(specs.size());

  // Materialize all trees up front (namespace ops are free in virtual
  // time), then schedule each pfcp at its submit time.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    workload::TreeSpec tree;
    tree.root = "/scratch/job" + std::to_string(spec.job_id);
    tree.file_sizes = spec.file_sizes;
    tree.tag_seed = 0xC0FFEE + spec.job_id;
    workload::build_tree(sys.scratch(), tree);
    result.jobs[i].spec = spec;
  }

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = result.jobs[i].spec;

    // Users launched jobs with varying process counts (NumProcs is a
    // runtime tunable).  Most ran with a handful of movers (each mover is
    // HBA-bound near 400 MB/s); a few cranked NumProcs wide enough to
    // saturate the trunks — those produce the paper's ~1868 MB/s peak.
    static constexpr unsigned kWorkerChoices[] = {1, 2, 2, 3, 3, 4, 4, 6, 8, 12, 16};
    pftool::PftoolConfig job_cfg = sys.config().pftool;
    job_cfg.num_workers =
        kWorkerChoices[rng.uniform_u64(0, std::size(kWorkerChoices) - 1)];
    if (i == widened_job) job_cfg.num_workers = 16;  // one worker per node
    job_cfg.num_readdir = 2;
    job_cfg.num_tapeprocs = 0;
    job_cfg.per_file_cost = sim::msecs(4);
    // Single-stream ceiling of one mover process (TCP window + GPFS client
    // on 2008-era FTA nodes).
    job_cfg.per_stream_max_bps = 200.0 * static_cast<double>(kMB);
    // Per-file overhead must reflect the UNSCALED file count: each
    // materialized file stands for (count/materialized) real files' worth
    // of create/open/close work.
    const double expansion = static_cast<double>(spec.file_count) /
                             static_cast<double>(spec.file_sizes.size());
    job_cfg.per_file_cost = static_cast<sim::Tick>(
        static_cast<double>(job_cfg.per_file_cost) * std::max(1.0, expansion));

    sys.sim().at(spec.submit_time, [&sys, &result, &handles, i, job_cfg,
                                    faulty] {
      const auto& spec = result.jobs[i].spec;
      const std::string src = "/scratch/job" + std::to_string(spec.job_id);
      const std::string dst = "/proj/job" + std::to_string(spec.job_id);
      archive::JobSpec js =
          archive::JobSpec::pfcp(src, dst).with_config(job_cfg);
      if (faulty) {
        // Ride faults out: journal the transfer and relaunch failed jobs.
        js.with_restartable().with_retry(fault::RetryPolicy::standard());
      }
      handles[i] = sys.submit(std::move(js));
      handles[i].on_done([&result, i](const pftool::JobReport& r) {
        result.jobs[i].measured_rate_bps = r.rate_bps();
        result.jobs[i].elapsed_seconds = r.elapsed_seconds();
        result.jobs[i].files_copied = r.files_copied;
        result.jobs[i].files_failed = r.files_failed;
        result.jobs[i].chunks_resumed = r.chunks_skipped_restart;
      });
    });
  }
  sys.sim().run();
  sys.reap_finished();
  result.jobs_live_after_reap = sys.jobs_live();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    result.jobs[i].attempts = handles[i].attempts();
    result.files_failed_total += result.jobs[i].files_failed;
  }

  sys.snapshot_net_metrics();
  obs::Observer& ob = sys.observer();
  result.metrics_summary = ob.metrics().summary();
  if (const sim::Samples* s = ob.metrics().find_series("pftool.job_rate_bps")) {
    result.metric_rates_bps = s->values();
  }
  if (const obs::Gauge* g = ob.metrics().find_gauge("net.trunk_busy_seconds")) {
    result.trunk_busy_seconds = g->value();
  }
  result.trace_events = ob.trace().event_count();
  if (!opts.trace_path.empty()) {
    result.trace_written = ob.trace().write_chrome_json(opts.trace_path);
  }
  if (!opts.raw_trace_path.empty()) {
    result.trace_written =
        ob.trace().save(opts.raw_trace_path) && result.trace_written;
  }
  if (!opts.metrics_path.empty()) {
    result.metrics_written = ob.metrics().write_summary(opts.metrics_path);
  }
  if (profiling) {
    const obs::Profiler prof(ob.trace());
    result.profile_report = prof.report(opts.profile_topk);
    result.profile_conservation_ok = prof.conservation_ok();
    result.profiled_jobs = prof.jobs().size();
    if (opts.profile_path == "-") {
      std::fputs(result.profile_report.c_str(), stdout);
    } else if (std::FILE* f = std::fopen(opts.profile_path.c_str(), "w")) {
      std::fputs(result.profile_report.c_str(), f);
      std::fclose(f);
    } else {
      result.profile_written = false;
    }
  }
  result.faults_injected = ob.metrics().counter_value("fault.injected_total");
  result.faults_repaired = ob.metrics().counter_value("fault.repaired_total");
  result.pftool_retries = ob.metrics().counter_value("pftool.retries_total");
  result.worker_crashes = ob.metrics().counter_value("pftool.worker_crashes");
  result.job_relaunches = ob.metrics().counter_value("pftool.job_relaunches");
  return result;
}

}  // namespace cpa::bench
