// Shared campaign executor for Figures 8-11 (`paper_check`) and
// `pfprof --campaign`.
//
// Generates the 62-job Open Science campaign (workload::CampaignGenerator,
// calibrated to the paper's marginals), materializes each job's tree on
// the scratch file system, and submits one pfcp per job at its submit time
// against the full Roadrunner-scale plant.  Jobs overlap exactly as their
// submit times dictate, so they contend for trunks, NICs, HBAs and disk
// servers — the "bandwidth sharing and machine sharing among multiple
// users" the paper cites as the source of rate variance.
//
// File counts are materialized at 1/100 scale (with per-job byte volume
// scaled identically) to keep host-side simulation cost sane; per-job
// rates are preserved to first order because per-file costs are small
// against transfer time at the sizes involved.  The unscaled per-job
// numbers (what Figs 8/9/11 plot) come straight from the generator.
#pragma once

#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "workload/campaign.hpp"

namespace cpa::bench {

struct CampaignJobResult {
  workload::JobSpec spec;          // unscaled numbers for Figs 8/9/11
  double measured_rate_bps = 0.0;  // Fig 10 (from the scaled run)
  double elapsed_seconds = 0.0;
  std::uint64_t files_copied = 0;
  std::uint64_t files_failed = 0;
  std::uint64_t chunks_resumed = 0;  // journal-skipped chunks on relaunch
  unsigned attempts = 0;  // job launches (1 unless faults forced relaunch)
};

struct CampaignOptions {
  double file_count_scale = 0.01;
  std::uint64_t seed = 2009;
  /// When set, spans are recorded and written here as Chrome trace JSON.
  std::string trace_path;
  /// When set, the metrics summary is written here after the run.
  std::string metrics_path;
  /// Faults armed against the plant (set by read_fault_flag).  A
  /// non-empty plan also turns on restartable transfers and job-level
  /// retry so the campaign rides the faults out.
  fault::FaultPlan fault_plan;
  /// Arms, instead, a plan aligned to the generated campaign (--fault=auto):
  /// two drive failures during the early migration cycles plus an FTA node
  /// crash five minutes into the largest early job (which is widened to 16
  /// workers so every node hosts one — the crash is guaranteed to kill
  /// in-flight copies).
  bool auto_faults = false;
  /// When set, the causal critical-path profiler runs over the recorded
  /// trace, fills CampaignResult::profile_report and writes it here ("-" =
  /// stdout).  Implies tracing.
  std::string profile_path;
  /// When set, the raw span log (TraceRecorder::save format, reloadable by
  /// `pfprof --trace=`) is written here.  Implies tracing.
  std::string raw_trace_path;
  /// Top-k critical-path spans to include in the report.
  std::size_t profile_topk = 10;

  [[nodiscard]] bool faulty() const { return auto_faults || !fault_plan.empty(); }
};

/// Reads a --fault= value into `opts`: "auto", or a spec in the
/// fault/plan.hpp grammar, parsed here once; empty arms nothing.  False,
/// with FaultPlan::parse's diagnostic in `error`, when the spec does not
/// parse.
bool read_fault_flag(const std::string& value, CampaignOptions& opts,
                     std::string* error);

struct CampaignResult {
  std::vector<CampaignJobResult> jobs;
  /// Full metrics-registry dump, taken after snapshot_net_metrics().
  std::string metrics_summary;
  /// Per-job rates as the metrics layer recorded them (the
  /// "pftool.job_rate_bps" series, one sample per finished job).
  std::vector<double> metric_rates_bps;
  double trunk_busy_seconds = 0.0;  // net.trunk_busy_seconds gauge
  std::uint64_t trace_events = 0;
  // False when the corresponding path was requested but not writable.
  bool trace_written = true;
  bool metrics_written = true;
  bool profile_written = true;
  // Fault/recovery aggregates (all zero on fault-free runs).
  std::uint64_t faults_injected = 0;   // fault.injected_total
  std::uint64_t faults_repaired = 0;   // fault.repaired_total
  std::uint64_t pftool_retries = 0;    // pftool.retries_total
  std::uint64_t worker_crashes = 0;    // pftool.worker_crashes
  std::uint64_t job_relaunches = 0;    // pftool.job_relaunches
  std::uint64_t files_failed_total = 0;
  /// Job records still held by the system after the final reap; bounded
  /// regardless of campaign length (the jobs_ vector no longer grows
  /// forever).
  std::size_t jobs_live_after_reap = 0;
  /// Attribution report text (empty without CampaignOptions::profile_path).
  std::string profile_report;
  /// True when every profiled job's buckets summed to its wall-clock.
  bool profile_conservation_ok = true;
  std::size_t profiled_jobs = 0;
};

/// Runs the campaign once.  `opts.file_count_scale` trades fidelity for
/// host time; the defaults reproduce the shipped EXPERIMENTS.md numbers.
CampaignResult run_campaign(const CampaignOptions& opts);

}  // namespace cpa::bench
