// paper_check: the paper ledger.  Runs every figure and section
// experiment of the reproduction, and every other result measured in
// simulated time, in one process; each prints its series and its
// paper-vs-measured rows, and each row carries the claim it makes
// (bench/ledger.hpp).  The Figure 8-11 campaign runs once, and --seed,
// --fault, --trace, --metrics and --profile apply to it.  --json writes one
// record per row, which `ci.sh` gates exactly with `bench_regress --key=id`.
// Exit status: 0 when every claim holds; 1, after every row is printed,
// when a claim fails or a requested output cannot be written; 2 on a
// malformed command line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "archive/system.hpp"
#include "bench/campaign_runner.hpp"
#include "bench/common.hpp"
#include "bench/ledger.hpp"
#include "fusefs/archive_fuse.hpp"
#include "hsm/balance.hpp"
#include "simcore/rng.hpp"
#include "simcore/stats.hpp"
#include "simcore/units.hpp"
#include "workload/tree.hpp"

namespace {

using namespace cpa;
using bench::Claim;
using bench::Ledger;
using Op = Claim::Op;

/// Makes `/arch/f0 .. /arch/f{n-1}` of `size` bytes, file i tagged i.
std::vector<std::string> arch_files(archive::CotsParallelArchive& sys,
                                    unsigned n, std::uint64_t size) {
  std::vector<std::string> paths;
  for (unsigned i = 0; i < n; ++i) {
    const std::string p = "/arch/f" + std::to_string(i);
    sys.make_file(sys.archive_fs(), p, size, i);
    paths.push_back(p);
  }
  return paths;
}

/// Nodes 0 .. movers-1, wrapping over the ten FTA nodes.
std::vector<tape::NodeId> mover_nodes(unsigned movers) {
  std::vector<tape::NodeId> nodes;
  for (unsigned n = 0; n < movers; ++n) nodes.push_back(n % 10);
  return nodes;
}

double mbs(double bps) { return bps / static_cast<double>(kMB); }

/// Reports a requested output: `done` if it was written, else an error.
bool output_ok(const std::string& path, bool written, const char* what,
               const std::string& done) {
  if (path.empty()) return true;
  if (written) {
    std::printf("  %s -> %s%s\n", what, path.c_str(), done.c_str());
  } else {
    std::fprintf(stderr, "  error: could not write %s to %s\n", what,
                 path.c_str());
  }
  return written;
}

// Figures 8-11 plot four per-job quantities of one 62-job campaign over 18
// operation days (bench/campaign_runner.hpp): files archived and MB copied
// (log10), the data rate, and the average file size.  Figs 8, 9 and 11 read
// the generator's unscaled job specs; Fig 10 is measured through the full
// plant (10 FTA nodes, two 10GigE trunks, FC4 HBAs, SAN, NSD servers) with
// jobs overlapping per their submit times — "bandwidth sharing and machine
// sharing among multiple users".  Returns false when a requested output
// was not written, the profile broke conservation, or a fault run left
// files unrecovered.
bool campaign(Ledger& L, const bench::CampaignResult& result,
              const bench::CampaignOptions& opts) {
  bench::header("Figures 8-11", "Open Science campaign per job (62 jobs, 18 days)");
  bench::section("series (per job; Figs 8-9 plot log10 files and log10 MB)");
  std::printf("  job %2s  %9s  %5s  %10s  %5s  %10s  %8s  %6s  %5s\n", "id",
              "files", "log10", "GB", "log10", "MB/file", "MB/s", "copied", "s");
  sim::Samples files, gb, avg, rate;
  sim::Log10Histogram files_hist, mb_hist;
  for (const auto& job : result.jobs) {
    const auto n = static_cast<double>(job.spec.file_count);
    const double g = static_cast<double>(job.spec.total_bytes) /
                     static_cast<double>(kGB);
    const double mb = static_cast<double>(job.spec.avg_file_size) /
                      static_cast<double>(kMB);
    const double r = mbs(job.measured_rate_bps);
    files.add(n);
    files_hist.add(n);
    gb.add(g);
    mb_hist.add(g * 1000.0);  // MB, as the paper plots
    avg.add(mb);
    rate.add(r);
    std::printf("  job %2u  %9llu  %5.2f  %10.1f  %5.2f  %10.3f  %8.1f  %6llu  "
                "%5.0f\n",
                job.spec.job_id,
                static_cast<unsigned long long>(job.spec.file_count),
                std::log10(n), g, std::log10(g * 1000.0), mb, r,
                static_cast<unsigned long long>(job.files_copied),
                job.elapsed_seconds);
  }

  L.experiment("Figure 8", "Number of files archived per job (62 jobs, 18 days)");
  bench::section("distribution");
  std::printf("%s", files_hist.render("files/job by decade").c_str());
  bench::section("paper vs measured");
  L.row("fig8.jobs", "jobs", "62", std::to_string(result.jobs.size()),
        Claim::bound(result.jobs.size(), Op::Eq, 62));
  L.row("fig8.min_files", "min files/job", "1", bench::fmt("%.0f", files.min()),
        Claim::report(files.min()));
  L.row("fig8.max_files", "max files/job", "2,920,088",
        bench::fmt("%.0f", files.max()), Claim::report(files.max()));
  L.row("fig8.mean_files", "mean files/job", "167,491",
        bench::fmt("%.0f", files.mean()), Claim::report(files.mean()));

  L.experiment("Figure 9", "Data archived per job (62 jobs, 18 days)");
  bench::section("distribution");
  std::printf("%s", mb_hist.render("MB/job by decade").c_str());
  bench::section("paper vs measured");
  L.row("fig9.min_gb", "min data/job", "4 GB", bench::fmt("%.1f GB", gb.min()),
        Claim::report(gb.min()));
  L.row("fig9.max_gb", "max data/job", "32,593 GB",
        bench::fmt("%.0f GB", gb.max()), Claim::report(gb.max()));
  L.row("fig9.mean_gb", "mean data/job", "2,442 GB",
        bench::fmt("%.0f GB", gb.mean()), Claim::report(gb.mean()));

  L.experiment("Figure 11", "Average file size per job (62 jobs, 18 days)");
  bench::section("paper vs measured");
  L.row("fig11.min_avg", "min avg file size", "4 KB (0.004 MB)",
        bench::fmt("%.3f MB", avg.min()), Claim::report(avg.min()));
  L.row("fig11.max_avg", "max avg file size", "4,220 MB",
        bench::fmt("%.0f MB", avg.max()), Claim::report(avg.max()));
  L.row("fig11.mean_avg", "mean avg file size", "596 MB",
        bench::fmt("%.0f MB", avg.mean()), Claim::report(avg.mean()));

  // Figure 10 goes last: the output and fault reports follow its rows.
  L.experiment("Figure 10", "Archived data rate per job (62 jobs, 18 days)");
  const double trunk_peak_mbs = 2.0 * 1250.0;
  bench::section("paper vs measured");
  L.row("fig10.min_rate", "min rate", "73 MB/s",
        bench::fmt("%.0f MB/s", rate.min()), Claim::report(rate.min()));
  L.row("fig10.max_rate", "max rate", "1868 MB/s",
        bench::fmt("%.0f MB/s", rate.max()), Claim::report(rate.max()));
  L.row("fig10.mean_rate", "mean rate", "~575 MB/s",
        bench::fmt("%.0f MB/s", rate.mean()), Claim::report(rate.mean()));
  L.row("fig10.peak_share", "peak / two-trunk aggregate", "~75%",
        bench::fmt("%.0f%%", 100.0 * rate.max() / trunk_peak_mbs),
        Claim::report(rate.max() / trunk_peak_mbs));
  // "a very good performance number compared to non-parallel archive
  // storage systems with about 70 MB/sec": the mean beats 70 MB/s.
  L.row("fig10.vs_serial", "mean vs 70 MB/s serial archive", "~8x",
        bench::fmt("%.1fx", rate.mean() / 70.0),
        Claim::bound(rate.mean() / 70.0, Op::Gt, 1.0));

  // The same rates, rebuilt from the observability layer: every finished
  // job added its rate to the "pftool.job_rate_bps" metrics series, so the
  // distribution must match the directly-measured one exactly.
  bench::section("metrics cross-check (pftool.job_rate_bps series)");
  sim::Samples metric_rate;
  for (const double bps : result.metric_rates_bps) metric_rate.add(mbs(bps));
  L.row("fig10.metrics_jobs", "jobs recorded",
        bench::fmt("%.0f", result.jobs.size()),
        bench::fmt("%.0f", metric_rate.count()),
        Claim::equal(metric_rate.count(), result.jobs.size()));
  L.row("fig10.metrics_min", "min rate (metrics)",
        bench::fmt("%.1f MB/s", rate.min()),
        bench::fmt("%.1f MB/s", metric_rate.min()),
        Claim::equal(metric_rate.min(), rate.min()));
  L.row("fig10.metrics_max", "max rate (metrics)",
        bench::fmt("%.1f MB/s", rate.max()),
        bench::fmt("%.1f MB/s", metric_rate.max()),
        Claim::equal(metric_rate.max(), rate.max()));
  // The series is in completion order and the table in job order; sum
  // both sorted so the order cannot move the last bit.
  const auto sorted_mean = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
  };
  L.row("fig10.metrics_mean", "mean rate (metrics)",
        bench::fmt("%.1f MB/s", rate.mean()),
        bench::fmt("%.1f MB/s", metric_rate.mean()),
        Claim::equal(sorted_mean(metric_rate.values()),
                     sorted_mean(rate.values())));
  std::printf("  trunk busy time: %.0f s over the campaign\n",
              result.trunk_busy_seconds);

  const std::string events = std::to_string(result.trace_events);
  const std::string jobs = std::to_string(result.profiled_jobs);
  bool ok = output_ok(opts.trace_path, result.trace_written, "trace",
                      " (" + events + " events; chrome://tracing / Perfetto)");
  ok &= output_ok(opts.metrics_path, result.metrics_written, "metrics", "");
  ok &= output_ok(opts.profile_path, result.profile_written, "profile",
                  " (" + jobs + " jobs)  conservation: " +
                      (result.profile_conservation_ok ? "ok" : "VIOLATED"));
  if (!opts.profile_path.empty() && !result.profile_conservation_ok) {
    std::fprintf(stderr, "  error: bucket sums diverged from job wall-clock\n");
    ok = false;
  }

  // Fault/recovery report: deterministic per seed, so two runs with the
  // same --seed/--fault must print this section byte-for-byte identical.
  if (opts.faulty()) {
    bench::section("fault injection & recovery");
    std::printf("  plan: %s (seed %llu)\n",
                opts.auto_faults ? "auto" : opts.fault_plan.render().c_str(),
                static_cast<unsigned long long>(opts.seed));
    std::printf("  faults injected: %llu   repaired: %llu\n",
                static_cast<unsigned long long>(result.faults_injected),
                static_cast<unsigned long long>(result.faults_repaired));
    std::printf("  pftool retries: %llu   worker crashes: %llu   "
                "job relaunches: %llu\n",
                static_cast<unsigned long long>(result.pftool_retries),
                static_cast<unsigned long long>(result.worker_crashes),
                static_cast<unsigned long long>(result.job_relaunches));
    for (const auto& job : result.jobs) {
      if (job.attempts <= 1 && job.chunks_resumed == 0 &&
          job.files_failed == 0) {
        continue;
      }
      std::printf("  job %2u: %u attempts, %llu chunks journal-resumed, "
                  "%llu files unrecovered\n",
                  job.spec.job_id, job.attempts,
                  static_cast<unsigned long long>(job.chunks_resumed),
                  static_cast<unsigned long long>(job.files_failed));
    }
    std::printf("  job records live after reap: %zu\n",
                result.jobs_live_after_reap);
    std::printf("  unrecovered files: %llu\n",
                static_cast<unsigned long long>(result.files_failed_total));
    if (result.files_failed_total != 0) {
      std::fprintf(stderr, "  error: campaign left unrecovered files\n");
      ok = false;
    }
  }
  return ok;
}

// Figure 1: the ASCI Kiviat observation — "parallel file systems scaling
// performance at an order of magnitude faster than parallel archives."
// Sweep the mover count 1..16 and measure (a) the parallel-file-system
// copy path (PFTool scratch -> archive GPFS, LAN-free, striped NSDs) and
// (b) the classic single-server archive path (all data through one
// archive server's network connection, Fig 5's topology).  The file
// system path scales with movers; the archive path flatlines at the
// server NIC — the gap the paper's whole design attacks.
namespace fig1 {
void run(Ledger& L) {
  using archive::CotsParallelArchive;
  using archive::SystemConfig;
  L.experiment("Figure 1",
               "Scaling gap: parallel file system vs single-server archive");
  std::printf("\n  movers |  PFS copy path (MB/s) | 1-server archive (MB/s)\n");
  std::printf("  -------+-----------------------+------------------------\n");

  double pfs_1 = 0, pfs_16 = 0, srv_1 = 0, srv_16 = 0;
  for (const unsigned movers : {1u, 2u, 4u, 8u, 16u}) {
    // (a) PFS-to-PFS parallel copy through `movers` workers.
    double pfs_mbs = 0;
    {
      CotsParallelArchive sys(SystemConfig::roadrunner());
      workload::TreeSpec tree;
      tree.root = "/scratch/data";
      for (int i = 0; i < 64; ++i) tree.file_sizes.push_back(2 * kGB);
      workload::build_tree(sys.scratch(), tree);
      pftool::PftoolConfig cfg = sys.config().pftool;
      cfg.num_workers = movers;
      const auto r = pftool::sim::run_pfcp(sys.job_env(false), cfg,
                                           "/scratch/data", "/proj/data");
      pfs_mbs = mbs(r.rate_bps());
    }
    // (b) archive writes forced through a single server (no LAN-free).
    double srv_mbs = 0;
    {
      SystemConfig cfg = SystemConfig::roadrunner();
      cfg.hsm.lan_free = false;
      CotsParallelArchive sys(cfg);
      double rate = 0;
      sys.hsm().parallel_migrate(arch_files(sys, 64, 2 * kGB),
                                 mover_nodes(movers),
                                 hsm::DistributionStrategy::SizeBalanced, "g",
                                 [&](const hsm::MigrateReport& r) {
                                   rate = r.mean_rate_bps();
                                 });
      sys.sim().run();
      srv_mbs = mbs(rate);
    }
    std::printf("  %6u | %21.0f | %22.0f\n", movers, pfs_mbs, srv_mbs);
    if (movers == 1) {
      pfs_1 = pfs_mbs;
      srv_1 = srv_mbs;
    }
    if (movers == 16) {
      pfs_16 = pfs_mbs;
      srv_16 = srv_mbs;
    }
  }

  bench::section("paper vs measured");
  L.row("fig1.pfs_speedup", "PFS speedup 1->16 movers", "scales ~linearly",
        bench::fmt("%.1fx", pfs_16 / pfs_1),
        Claim::order(pfs_16, Op::Gt, pfs_1));
  L.row("fig1.archive_speedup", "1-server archive speedup 1->16",
        "~flat (bottleneck)", bench::fmt("%.1fx", srv_16 / srv_1),
        Claim::order(srv_16 / srv_1, Op::Lt, pfs_16 / pfs_1));
  L.row("fig1.gap_at_16", "PFS vs archive at 16 movers",
        ">= order of magnitude", bench::fmt("%.0fx", pfs_16 / srv_16),
        Claim::bound(pfs_16 / srv_16, Op::Ge, 10.0));
}
}  // namespace fig1

// Sec 4.1.2 item 2, "Tape optimization":
//   "we try to arrange tape files based on their tape sequential numbers
//    and unique Tape-IDs ... so we can drastically reduce tape drive
//    thrashing overhead and enforce sequential tape read when we are
//    restoring many midsize files."
// Recall N midsize files requested in scrambled order, with and without
// PFTool's tape-order sort, and count seeks/seek time.
namespace tape_order {
struct Outcome {
  double rate_mbs = 0;
  std::uint64_t seeks = 0;
  double seek_seconds = 0;
  double seconds = 0;
  // Whole-run totals from the two independent accounting paths: the tape
  // library's DriveStats and the observability layer's tape.* counters.
  std::uint64_t stats_total_seeks = 0;
  std::uint64_t metric_seeks = 0;
  std::uint64_t metric_mounts = 0;
  std::uint64_t metric_read_txns = 0;
};

Outcome recall(bool ordered, unsigned files, std::uint64_t file_size) {
  archive::CotsParallelArchive sys(archive::SystemConfig::roadrunner());
  std::vector<std::string> paths = arch_files(sys, files, file_size);
  sys.hsm().migrate_batch(0, paths, "g", nullptr);
  sys.sim().run();

  // The user's recall request arrives in arbitrary order.
  sim::Rng rng(7);
  rng.shuffle(paths);

  const auto before = sys.library().aggregate_stats();
  hsm::RecallOptions opts;
  opts.tape_ordered = ordered;
  opts.assignment = hsm::RecallOptions::Assignment::TapeAffinity;
  Outcome out;
  sys.hsm().recall(paths, opts, [&](const hsm::RecallReport& r) {
    out.rate_mbs = mbs(r.mean_rate_bps());
    out.seconds = sim::to_seconds(r.finished - r.started);
  });
  sys.sim().run();
  const auto after = sys.library().aggregate_stats();
  out.seeks = after.seeks - before.seeks;
  out.seek_seconds = sim::to_seconds(after.seek_time - before.seek_time);

  sys.snapshot_net_metrics();
  const obs::MetricsRegistry& m = sys.observer().metrics();
  out.stats_total_seeks = after.seeks;
  out.metric_seeks = m.counter_value("tape.seeks");
  out.metric_mounts = m.counter_value("tape.mounts");
  out.metric_read_txns = m.counter_value("tape.read_txns");
  return out;
}

void run(Ledger& L) {
  L.experiment("Sec 4.1.2(2)", "Tape-ordered recall vs request-order recall");
  std::printf("\n  files | ordering      | MB/s   | seeks | seek time (s) | total (s)\n");
  std::printf("  ------+---------------+--------+-------+---------------+----------\n");
  Outcome last_ord{}, last_unord{};
  for (const unsigned files : {32u, 128u, 512u}) {
    const Outcome ord = recall(true, files, 100 * kMB);
    const Outcome unord = recall(false, files, 100 * kMB);
    std::printf("  %5u | tape-ordered  | %6.1f | %5llu | %13.0f | %9.0f\n", files,
                ord.rate_mbs, static_cast<unsigned long long>(ord.seeks),
                ord.seek_seconds, ord.seconds);
    std::printf("  %5u | request-order | %6.1f | %5llu | %13.0f | %9.0f\n", files,
                unord.rate_mbs, static_cast<unsigned long long>(unord.seeks),
                unord.seek_seconds, unord.seconds);
    last_ord = ord;
    last_unord = unord;
  }

  bench::section("paper vs measured (512 midsize files)");
  L.row("tape_order.ordered_seeks", "ordered recall seeks",
        "~0 (front-to-back read)", std::to_string(last_ord.seeks),
        Claim::order(last_ord.seeks, Op::Lt, last_unord.seeks));
  L.row("tape_order.unordered_seeks", "unordered recall seeks", "~1 per file",
        std::to_string(last_unord.seeks), Claim::report(last_unord.seeks));
  L.row("tape_order.penalty", "thrashing penalty", "\"dominant factor\"",
        bench::fmt("%.1fx slower", last_ord.rate_mbs / last_unord.rate_mbs),
        Claim::order(last_ord.rate_mbs, Op::Gt, last_unord.rate_mbs));

  // tape.* counters accrue in lockstep with the library's DriveStats, so
  // the two whole-run totals must agree exactly.
  bench::section("observability cross-check (512-file request-order run)");
  L.row("tape_order.metrics_seeks", "tape.seeks vs DriveStats.seeks",
        std::to_string(last_unord.stats_total_seeks),
        std::to_string(last_unord.metric_seeks),
        Claim::equal(last_unord.metric_seeks, last_unord.stats_total_seeks));
  std::printf("  tape.mounts=%llu  tape.read_txns=%llu\n",
              static_cast<unsigned long long>(last_unord.metric_mounts),
              static_cast<unsigned long long>(last_unord.metric_read_txns));
}
}  // namespace tape_order

// Sec 4.1.2 item 3, "A single large file parallel copy":
//   "The size of a single large file is in the range of 10GBs to 100 GBs.
//    We divide a single large file into N equal-size sub-chunks and assign
//    them to available Workers ... N workers copy data in parallel."
// Copy one large file through 1..16 workers and report the speedup of the
// chunked N-to-1 copy.
namespace nto1 {
double copy_rate_mbs(std::uint64_t file_size, unsigned workers) {
  archive::CotsParallelArchive sys(archive::SystemConfig::roadrunner());
  sys.make_file(sys.scratch(), "/scratch/big", file_size, 0xB16);
  pftool::PftoolConfig cfg = sys.config().pftool;
  cfg.num_workers = workers;
  const auto r = pftool::sim::run_pfcp(sys.job_env(false), cfg, "/scratch/big",
                                       "/proj/big");
  return mbs(r.rate_bps());
}

void run(Ledger& L) {
  L.experiment("Sec 4.1.2(3)", "Single large file N-to-1 chunked parallel copy");
  std::printf("\n  file size | workers | rate (MB/s)\n");
  std::printf("  ----------+---------+------------\n");
  double r1 = 0, r8 = 0;
  for (const std::uint64_t size : {10 * kGB, 40 * kGB, 100 * kGB}) {
    for (const unsigned workers : {1u, 2u, 4u, 8u, 16u}) {
      const double rate = copy_rate_mbs(size, workers);
      std::printf("  %6.0f GB | %7u | %10.1f\n",
                  static_cast<double>(size) / static_cast<double>(kGB), workers,
                  rate);
      if (size == 40 * kGB && workers == 1) r1 = rate;
      if (size == 40 * kGB && workers == 8) r8 = rate;
    }
  }

  bench::section("paper vs measured (40 GB file)");
  L.row("nto1.speedup", "chunked copy speedup 1->8 workers",
        "~N-fold until fabric", bench::fmt("%.1fx", r8 / r1),
        Claim::order(r8, Op::Gt, r1));
}
}  // namespace nto1

// Sec 4.1.2 item 4, "Very large file parallel copies":
//   "When archiving very large files in parallel on many tapes, we
//    encounter problems of (a) N-to-1 parallel I/O overhead and
//    (b) performance impact from tape sequential write operation.  To
//    overcome these problems, we built an ArchiveFUSE file system ...
//    We have successfully converted an N-to-1 parallel I/O operation into
//    an N-to-N parallel I/O operation."
// Phase 1: copy a very large file to the archive file system as plain
// N-to-1 vs FUSE N-to-N (escapes the shared-file write ceiling).
// Phase 2: migrate to tape — one huge object streams to ONE drive, while
// the FUSE chunk files fan out over many drives in parallel.
namespace fuse {
struct Outcome {
  double copy_mbs = 0;
  double migrate_mbs = 0;
};

Outcome run(bool use_fuse, std::uint64_t size, unsigned workers) {
  archive::CotsParallelArchive sys(archive::SystemConfig::roadrunner());
  sys.make_file(sys.scratch(), "/scratch/huge", size, 0xF00D);

  pftool::PftoolConfig cfg = sys.config().pftool;
  cfg.num_workers = workers;
  if (!use_fuse) {
    // Push the very-large threshold out of reach: plain chunked N-to-1.
    cfg.planner.very_large_threshold = size * 2;
  }
  pftool::sim::JobEnv env = sys.job_env(false);
  const auto copy =
      pftool::sim::run_pfcp(env, cfg, "/scratch/huge", "/proj/huge");

  Outcome out;
  out.copy_mbs = mbs(copy.rate_bps());

  // Phase 2: migration.  FUSE chunks are independent files spread over
  // the movers; the monolith is a single tape object on a single drive.
  std::vector<std::string> paths;
  if (use_fuse) {
    for (const auto& ci : sys.fuse().chunks("/proj/huge").value()) {
      paths.push_back(ci.chunk_path);
    }
  } else {
    paths.push_back("/proj/huge");
  }
  double rate = 0;
  sys.hsm().parallel_migrate(paths, mover_nodes(10),
                             hsm::DistributionStrategy::SizeBalanced, "huge",
                             [&](const hsm::MigrateReport& r) {
                               rate = r.mean_rate_bps();
                             });
  sys.sim().run();
  out.migrate_mbs = mbs(rate);
  return out;
}

void run(Ledger& L) {
  L.experiment("Sec 4.1.2(4)",
               "Very large files: N-to-1 vs ArchiveFUSE N-to-N");
  std::printf("\n  file size | mode          | fs copy (MB/s) | tape migrate (MB/s)\n");
  std::printf("  ----------+---------------+----------------+--------------------\n");
  Outcome n1{}, nn{};
  for (const std::uint64_t size : {200 * kGB, 400 * kGB, 1000 * kGB}) {
    n1 = run(false, size, 16);
    nn = run(true, size, 16);
    const double gb = static_cast<double>(size) / static_cast<double>(kGB);
    if (n1.migrate_mbs > 0) {
      std::printf("  %7.0f GB | N-to-1        | %14.1f | %19.1f\n", gb,
                  n1.copy_mbs, n1.migrate_mbs);
    } else {
      std::printf("  %7.0f GB | N-to-1        | %14.1f |  IMPOSSIBLE (> one volume)\n",
                  gb, n1.copy_mbs);
    }
    std::printf("  %7.0f GB | FUSE N-to-N   | %14.1f | %19.1f\n", gb, nn.copy_mbs,
                nn.migrate_mbs);
  }

  bench::section("paper vs measured (1 TB file, 16 workers)");
  L.row("fuse.fs_copy", "fs copy: N-to-N vs N-to-1",
        "overcomes N-to-1 overhead", bench::fmt("%.1fx", nn.copy_mbs / n1.copy_mbs),
        Claim::order(nn.copy_mbs, Op::Gt, n1.copy_mbs));
  // One 1 TB object exceeds an 800 GB LTO-4 volume: it migrates at 0 MB/s.
  L.row("fuse.tape", "tape: 1 TB as a single object",
        "impossible (single stream of tapes)",
        "impossible — FUSE chunks at " + bench::fmt("%.0f MB/s", nn.migrate_mbs),
        Claim::bound(n1.migrate_mbs, Op::Eq, 0.0));
}
}  // namespace fuse

// Sec 4.2.4 "Parallel Data Migrator":
//   "One process may be responsible for all of the large files in the
//    list while another has nothing but small files ... We combine, sort,
//    and distribute the candidate files by file size evenly across
//    machines.  This allows the migrations to tape to complete at the
//    same time across machines and can greatly speed up the process."
// Migrate a skewed candidate list with the naive GPFS policy distribution
// vs the paper's size-balanced distribution and compare makespans.
namespace migrator {
double migrate_seconds(hsm::DistributionStrategy strategy, unsigned movers) {
  archive::CotsParallelArchive sys(archive::SystemConfig::roadrunner());
  // Skewed candidate list: a few huge checkpoint files among many small
  // ones, in the interleaved order a policy scan would emit.
  // The pathological alignment the paper describes: the policy scan emits
  // the big checkpoint files at a stride that round-robin maps onto ONE
  // mover ("One process may be responsible for all of the large files").
  std::vector<std::string> paths;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t size = (i % 8 == 0) ? 40 * kGB : 100 * kMB;
    const std::string p = "/arch/f" + std::to_string(i);
    sys.make_file(sys.archive_fs(), p, size, static_cast<std::uint64_t>(i));
    paths.push_back(p);
  }
  double seconds = 0;
  sys.hsm().parallel_migrate(paths, mover_nodes(movers), strategy, "g",
                             [&](const hsm::MigrateReport& r) {
                               seconds = sim::to_seconds(r.finished - r.started);
                             });
  sys.sim().run();
  return seconds;
}

void run(Ledger& L) {
  L.experiment("Sec 4.2.4", "Parallel Data Migrator: naive vs size-balanced");
  std::printf("\n  movers | naive round-robin (s) | size-balanced (s) | speedup\n");
  std::printf("  -------+-----------------------+-------------------+--------\n");
  double naive8 = 0, balanced8 = 0;
  for (const unsigned movers : {2u, 4u, 8u}) {
    const double naive =
        migrate_seconds(hsm::DistributionStrategy::NaiveRoundRobin, movers);
    const double balanced =
        migrate_seconds(hsm::DistributionStrategy::SizeBalanced, movers);
    std::printf("  %6u | %21.0f | %17.0f | %6.2fx\n", movers, naive, balanced,
                naive / balanced);
    if (movers == 8) {
      naive8 = naive;
      balanced8 = balanced;
    }
  }

  // The distribution quality itself (no tape noise): LPT vs round-robin.
  std::vector<std::uint64_t> weights;
  for (int i = 0; i < 200; ++i) weights.push_back(i % 8 == 0 ? 40 * kGB : 100 * kMB);
  const double naive_load =
      hsm::max_bin_load(hsm::naive_distribute(weights, 8));
  const double lpt_load =
      hsm::max_bin_load(hsm::size_balanced_distribute(weights, 8));

  bench::section("paper vs measured");
  L.row("migrator.makespan", "makespan speedup at 8 movers",
        "\"greatly speed up\"", bench::fmt("%.2fx", naive8 / balanced8),
        Claim::order(balanced8, Op::Lt, naive8));
  L.row("migrator.bin_load", "max bin load, naive vs balanced",
        "imbalanced vs even",
        bench::fmt("%.2fx heavier", naive_load / lpt_load),
        Claim::order(naive_load, Op::Gt, lpt_load));
}
}  // namespace migrator

// Sec 4.2.6 "Synchronous Delete":
//   "the reconcile agent does a directory tree-walk and compares each
//    file one by one ... For an archive with tens to hundreds of millions
//    of files, the overhead is unacceptable.  To avoid reconciliation, we
//    can synchronously delete the file from disk and tape."
// Delete d files out of an N-file archive both ways and compare the cost:
// reconciliation scales with the whole namespace; synchronous delete
// scales with the number of deletes.
namespace sync_delete {
/// Builds an archive of `total` migrated files and deletes `deletes` of
/// them; returns the seconds to clean tape-side state either via reconcile
/// (after plain unlinks) or via the synchronous deleter.
double clean_cost(bool synchronous, unsigned total, unsigned deletes) {
  archive::CotsParallelArchive sys(archive::SystemConfig::small());
  std::vector<std::string> paths;
  workload::TreeSpec tree;
  tree.root = "/proj/data";
  for (unsigned i = 0; i < total; ++i) tree.file_sizes.push_back(10 * kMB);
  workload::build_tree(sys.archive_fs(), tree);
  for (unsigned i = 0; i < total; ++i) {
    paths.push_back(workload::tree_file_path(tree, i));
  }
  // Migrate everything (metadata only matters here; do it in one batch).
  sys.hsm().parallel_migrate(paths, {0, 1, 2, 3},
                             hsm::DistributionStrategy::SizeBalanced, "g",
                             nullptr);
  sys.sim().run();

  double seconds = 0;
  const sim::Tick t0 = sys.sim().now();
  if (synchronous) {
    for (unsigned i = 0; i < deletes; ++i) {
      sys.hsm().synchronous_delete(paths[i], nullptr);
    }
    sys.sim().run();
    seconds = sim::to_seconds(sys.sim().now() - t0);
  } else {
    for (unsigned i = 0; i < deletes; ++i) {
      sys.archive_fs().unlink(paths[i]);  // orphans the tape objects
    }
    sys.hsm().reconcile(true, [&](const hsm::ReconcileReport& r) {
      seconds = sim::to_seconds(r.duration);
    });
    sys.sim().run();
  }
  return seconds;
}

void run(Ledger& L) {
  L.experiment("Sec 4.2.6", "Synchronous delete vs reconciliation");
  std::printf("\n  archive files | deletes | reconcile (s) | sync delete (s)\n");
  std::printf("  --------------+---------+---------------+----------------\n");
  double rec_large = 0, sync_large = 0;
  for (const unsigned total : {1'000u, 5'000u, 20'000u}) {
    const unsigned deletes = total / 100;
    const double rec = clean_cost(false, total, deletes);
    const double syn = clean_cost(true, total, deletes);
    std::printf("  %13u | %7u | %13.1f | %15.2f\n", total, deletes, rec, syn);
    if (total == 20'000u) {
      rec_large = rec;
      sync_large = syn;
    }
  }

  bench::section("paper vs measured (20k files, 1% deleted)");
  L.row("sync_delete.reconcile", "reconcile cost scaling",
        "whole-namespace walk", bench::fmt("%.0f s", rec_large),
        Claim::report(rec_large));
  L.row("sync_delete.sync", "sync delete cost scaling", "per-delete only",
        bench::fmt("%.2f s", sync_large), Claim::report(sync_large));
  L.row("sync_delete.advantage", "advantage", "\"unacceptable\" vs cheap",
        bench::fmt("%.0fx", rec_large / sync_large),
        Claim::order(sync_large, Op::Lt, rec_large));
  std::printf("\n  (At the paper's 'tens to hundreds of millions of files' the\n"
              "   reconcile walk extrapolates to days, the sync delete stays\n"
              "   proportional to deletions only.)\n");
}
}  // namespace sync_delete

// Sec 5.2: "The average data rate is about 575 MB/sec which is a very
// good performance number compared to non-parallel archive storage
// systems with about 70 MB/sec archival bandwidth."
// Push the same representative job through (a) the full COTS parallel
// archive and (b) a classic non-parallel archive (one mover process, all
// data through the single archive server's network connection).
namespace sec52 {
double parallel_rate_mbs() {
  archive::SystemConfig cfg = archive::SystemConfig::roadrunner();
  cfg.cluster.trunk_bps *= 0.75;  // goodput, as in the campaign
  cfg.cluster.node_nic_bps *= 0.75;
  archive::CotsParallelArchive sys(cfg);
  workload::TreeSpec tree;
  tree.root = "/scratch/job";
  for (int i = 0; i < 256; ++i) tree.file_sizes.push_back(600 * kMB);
  workload::build_tree(sys.scratch(), tree);
  // A typical job (the campaign mean), not the widest one: a handful of
  // mover processes at single-stream client speed.
  pftool::PftoolConfig pc = sys.config().pftool;
  pc.num_workers = 3;
  pc.per_stream_max_bps = 200.0 * static_cast<double>(kMB);
  const auto r =
      pftool::sim::run_pfcp(sys.job_env(false), pc, "/scratch/job", "/proj/job");
  return mbs(r.rate_bps());
}

double serial_rate_mbs() {
  // Classic archive: one data mover, server-routed movement, data lands on
  // tape through the server's ~GbE-class connection (ServerConfig default
  // 80 MB/s).
  archive::SystemConfig cfg = archive::SystemConfig::roadrunner();
  cfg.hsm.lan_free = false;
  archive::CotsParallelArchive sys(cfg);
  double rate = 0;
  sys.hsm().migrate_batch(0, arch_files(sys, 64, 600 * kMB), "g",
                          [&](const hsm::MigrateReport& r) {
                            rate = r.mean_rate_bps();
                          });
  sys.sim().run();
  return mbs(rate);
}

void run(Ledger& L) {
  L.experiment("Sec 5.2", "COTS parallel archive vs non-parallel archive");
  const double par = parallel_rate_mbs();
  const double ser = serial_rate_mbs();
  std::printf("\n  COTS parallel archive job : %8.1f MB/s\n", par);
  std::printf("  non-parallel archive      : %8.1f MB/s\n", ser);

  bench::section("paper vs measured");
  L.row("sec52.parallel", "parallel archive job rate", "~575 MB/s (mean)",
        bench::fmt("%.0f MB/s", par), Claim::report(par));
  L.row("sec52.serial", "non-parallel archive rate", "~70 MB/s",
        bench::fmt("%.0f MB/s", ser), Claim::report(ser));
  L.row("sec52.advantage", "advantage", "~8x", bench::fmt("%.1fx", par / ser),
        Claim::order(par, Op::Gt, ser));
}
}  // namespace sec52

// Sec 6.1 "Small File Tape Performance":
//   "a user copied millions of 8 MB files to GPFS disk.  Migrating these
//    files to tape was an order of magnitude slower than migrating large
//    files at a rate of 4 MB/s instead of 100 MB/s, the rated performance
//    of LTO-4 tapes ... One solution to this problem is aggregation."
// Sweep file size, migrating a fixed byte volume per point on one drive,
// with and without small-file aggregation.
namespace sec61 {
double migrate_rate_mbs(bool aggregation, std::uint64_t file_size,
                        std::uint64_t total_bytes) {
  archive::SystemConfig cfg = archive::SystemConfig::roadrunner();
  cfg.hsm.aggregation_enabled = aggregation;
  cfg.hsm.aggregate_threshold = 256 * kMB;
  cfg.hsm.aggregate_target = 4 * kGB;
  archive::CotsParallelArchive sys(cfg);

  const auto n = static_cast<unsigned>(total_bytes / file_size);
  double rate = 0;
  sys.hsm().migrate_batch(0, arch_files(sys, n, file_size), "g",
                          [&](const hsm::MigrateReport& r) {
    // Exclude the one-off mount from the steady-state rate, as a weekend
    // long migration would.
    const double mount_s = 65.0;
    const double secs = sim::to_seconds(r.finished - r.started) - mount_s;
    rate = static_cast<double>(r.bytes) / secs;
  });
  sys.sim().run();
  return mbs(rate);
}

void run(Ledger& L) {
  L.experiment("Sec 6.1", "Small-file tape migration rate, with/without aggregation");
  std::printf("\n  file size | no aggregation (MB/s) | aggregation (MB/s)\n");
  std::printf("  ----------+-----------------------+-------------------\n");
  double rate_8mb_plain = 0, rate_8mb_agg = 0, rate_1gb_plain = 0;
  for (const std::uint64_t size :
       {1 * kMB, 8 * kMB, 64 * kMB, 256 * kMB, 1 * kGB}) {
    const std::uint64_t volume = std::max<std::uint64_t>(4 * kGB, 64 * size);
    const double plain = migrate_rate_mbs(false, size, volume);
    const double agg = migrate_rate_mbs(true, size, volume);
    std::printf("  %6.0f MB | %21.1f | %18.1f\n",
                static_cast<double>(size) / static_cast<double>(kMB), plain, agg);
    if (size == 8 * kMB) {
      rate_8mb_plain = plain;
      rate_8mb_agg = agg;
    }
    if (size == 1 * kGB) rate_1gb_plain = plain;
  }

  bench::section("paper vs measured");
  L.row("sec61.small_rate", "8 MB files, HSM migration", "~4 MB/s",
        bench::fmt("%.1f MB/s", rate_8mb_plain), Claim::report(rate_8mb_plain));
  L.row("sec61.large_rate", "large files", "~100 MB/s (rated)",
        bench::fmt("%.1f MB/s", rate_1gb_plain), Claim::report(rate_1gb_plain));
  L.row("sec61.slowdown", "slowdown for 8 MB files", "order of magnitude",
        bench::fmt("%.0fx", rate_1gb_plain / rate_8mb_plain),
        Claim::bound(rate_1gb_plain / rate_8mb_plain, Op::Ge, 10.0));
  L.row("sec61.aggregated", "8 MB files with aggregation", "near rated speed",
        bench::fmt("%.1f MB/s", rate_8mb_agg),
        Claim::order(rate_8mb_agg, Op::Gt, rate_8mb_plain));
}
}  // namespace sec61

// Sec 6.2 "Tape Optimization/Smart Recall":
//   "HSM will send the recalls to different machines in the cluster that
//    then causes the tape to rewind and verify its label every time the
//    tape is passed between machines.  This causes a massive performance
//    hit even though the tape is not physically dismounted.  A way to
//    ensure that all files in a recall request are handled by the same
//    machine ... would correct this issue."
// Recall a tape-ordered file list with (a) the stock per-file round-robin
// daemon assignment and (b) tape-affinity assignment, and count handoffs.
namespace sec62 {
struct RecallOutcome {
  double rate_mbs = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t label_verifies = 0;
  double seconds = 0;
};

RecallOutcome recall_with(hsm::RecallOptions::Assignment assignment,
                          unsigned files, std::uint64_t file_size) {
  archive::CotsParallelArchive sys(archive::SystemConfig::roadrunner());
  const std::vector<std::string> paths = arch_files(sys, files, file_size);
  sys.hsm().migrate_batch(0, paths, "g", nullptr);
  sys.sim().run();

  const auto before = sys.library().aggregate_stats();
  hsm::RecallOptions opts;
  opts.tape_ordered = true;  // the list itself is perfectly ordered
  opts.assignment = assignment;
  opts.nodes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  RecallOutcome out;
  sys.hsm().recall(paths, opts, [&](const hsm::RecallReport& r) {
    out.rate_mbs = mbs(r.mean_rate_bps());
    out.seconds = sim::to_seconds(r.finished - r.started);
  });
  sys.sim().run();
  const auto after = sys.library().aggregate_stats();
  out.handoffs = after.handoffs - before.handoffs;
  out.label_verifies = after.label_verifies - before.label_verifies;
  return out;
}

void run(Ledger& L) {
  L.experiment("Sec 6.2", "LAN-free recall: per-file round-robin vs tape affinity");
  constexpr unsigned kFiles = 64;
  constexpr std::uint64_t kSize = 512 * kMB;

  const RecallOutcome rr =
      recall_with(hsm::RecallOptions::Assignment::RoundRobin, kFiles, kSize);
  const RecallOutcome aff =
      recall_with(hsm::RecallOptions::Assignment::TapeAffinity, kFiles, kSize);

  std::printf("\n  assignment    | recall MB/s | handoffs | label verifies | seconds\n");
  std::printf("  --------------+-------------+----------+----------------+--------\n");
  std::printf("  round-robin   | %11.1f | %8llu | %14llu | %7.0f\n", rr.rate_mbs,
              static_cast<unsigned long long>(rr.handoffs),
              static_cast<unsigned long long>(rr.label_verifies), rr.seconds);
  std::printf("  tape-affinity | %11.1f | %8llu | %14llu | %7.0f\n", aff.rate_mbs,
              static_cast<unsigned long long>(aff.handoffs),
              static_cast<unsigned long long>(aff.label_verifies), aff.seconds);

  bench::section("paper vs measured");
  L.row("sec62.rr_handoffs", "round-robin handoffs", "one per machine switch",
        std::to_string(rr.handoffs),
        Claim::order(rr.handoffs, Op::Gt, aff.handoffs));
  L.row("sec62.affinity_handoffs", "affinity handoffs", "none",
        std::to_string(aff.handoffs),
        Claim::bound(aff.handoffs, Op::Eq, 0.0));
  L.row("sec62.penalty", "performance hit", "\"massive\"",
        bench::fmt("%.1fx slower", aff.rate_mbs / rr.rate_mbs),
        Claim::order(aff.rate_mbs, Op::Gt, rr.rate_mbs));
}
}  // namespace sec62

// Sec 3.1 issue 1 ("Due to NFS access you have 'the grep from &*&(*&'")
// and Sec 4.2.3: "A simple example of this would be 'grep' looking for a
// pattern across a set of files ... This recall has no order and can
// result in a tape rewinding and seeking repeatedly to find files ...
// especially problematic when we consider 'grep' commands across
// machines."
// Model: a user greps a migrated project over NFS.  Each file read blocks
// on its own demand recall, issued in directory order from whatever
// machine the NFS request landed on.  Compare with the jail's answer —
// recall the set through PFTool (one batched, tape-ordered, node-affine
// request) and run the scan on disk.
namespace grep {
struct Outcome {
  double seconds = 0;
  std::uint64_t seeks = 0;
  std::uint64_t mounts = 0;
};

std::vector<std::string> populate(archive::CotsParallelArchive& sys,
                                  unsigned files) {
  workload::TreeSpec tree;
  tree.root = "/proj/grepme";
  for (unsigned i = 0; i < files; ++i) tree.file_sizes.push_back(64 * kMB);
  workload::build_tree(sys.archive_fs(), tree);
  std::vector<std::string> paths;
  for (unsigned i = 0; i < files; ++i) {
    paths.push_back(workload::tree_file_path(tree, i));
  }
  sys.hsm().parallel_migrate(paths, {0, 1, 2, 3},
                             hsm::DistributionStrategy::SizeBalanced, "g",
                             nullptr);
  sys.sim().run();
  return paths;
}

/// The grep (one demand recall per file, request order, arbitrary node)
/// or the jail's answer (one batched PFTool recall, tape-ordered, affine).
Outcome recall_all(unsigned files, bool nfs_grep) {
  archive::CotsParallelArchive sys(archive::SystemConfig::roadrunner());
  const std::vector<std::string> paths = populate(sys, files);
  const auto before = sys.library().aggregate_stats();
  const sim::Tick t0 = sys.sim().now();
  if (nfs_grep) {
    // Sequential: grep blocks on each file before opening the next.
    auto step = std::make_shared<std::function<void(std::size_t)>>();
    *step = [&sys, paths, step](std::size_t i) {
      if (i >= paths.size()) return;
      hsm::RecallOptions opts;
      opts.tape_ordered = false;  // demand recall knows no order
      // Each NFS read lands on whichever cluster node served the mount —
      // consecutive recalls of the same tape hop between machines.
      opts.nodes = {static_cast<tape::NodeId>(i % 10)};
      sys.hsm().recall({paths[i]}, opts,
                       [step, i](const hsm::RecallReport&) { (*step)(i + 1); });
    };
    (*step)(0);
    sys.sim().run();
    *step = nullptr;  // the closure owns `step`: break the cycle
  } else {
    hsm::RecallOptions opts;
    opts.tape_ordered = true;
    opts.assignment = hsm::RecallOptions::Assignment::TapeAffinity;
    opts.nodes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    sys.hsm().recall(paths, opts, nullptr);
    sys.sim().run();
  }
  Outcome out;
  out.seconds = sim::to_seconds(sys.sim().now() - t0);
  const auto after = sys.library().aggregate_stats();
  out.seeks = after.seeks - before.seeks;
  out.mounts = after.mounts - before.mounts;
  return out;
}

void run(Ledger& L) {
  L.experiment("Sec 3.1(1)/4.2.3", "'The grep from hell' vs jailed PFTool recall");
  std::printf("\n  files | access pattern   | seconds | seeks | volume mounts\n");
  std::printf("  ------+------------------+---------+-------+--------------\n");
  Outcome nfs{}, tool{};
  for (const unsigned files : {32u, 128u}) {
    nfs = recall_all(files, true);
    tool = recall_all(files, false);
    std::printf("  %5u | NFS grep         | %7.0f | %5llu | %13llu\n", files,
                nfs.seconds, static_cast<unsigned long long>(nfs.seeks),
                static_cast<unsigned long long>(nfs.mounts));
    std::printf("  %5u | jailed PFTool    | %7.0f | %5llu | %13llu\n", files,
                tool.seconds, static_cast<unsigned long long>(tool.seeks),
                static_cast<unsigned long long>(tool.mounts));
  }

  bench::section("paper vs measured (128 files)");
  L.row("grep.nfs", "NFS grep behaviour",
        "\"mounted and dismounted repeatedly\"",
        std::to_string(nfs.seeks) + " seeks, " + std::to_string(nfs.mounts) +
            " mounts",
        Claim::order(nfs.mounts, Op::Gt, tool.mounts));
  L.row("grep.pftool", "jailed PFTool", "sequential tape read",
        std::to_string(tool.seeks) + " seeks",
        Claim::order(tool.seeks, Op::Lt, nfs.seeks));
  L.row("grep.advantage", "why the jail exists", "avoid dangerous grep",
        bench::fmt("%.0fx faster via PFTool", nfs.seconds / tool.seconds),
        Claim::order(tool.seconds, Op::Lt, nfs.seconds));
}
}  // namespace grep

// Ablation: ILM storage-pool co-location in the tape back end
// (Sec 4.1: "Add support for ILM stgpool and co-location features in the
//  archive back-end"; Sec 3.1 items 6-7: "multiple copies, smart
//  placement").
// Interleave migrations from four projects, then recall ONE project.
// With co-location each project clusters on its own few volumes; without
// it the interleaved objects land on shared volumes and the recall must
// read around other projects' data (more volumes mounted, more seeking).
namespace colocation {
struct Outcome {
  double seconds = 0;
  std::uint64_t mounts = 0;
  std::size_t cartridges_in_library = 0;
  double seek_seconds = 0;
};

Outcome run(bool colocate, unsigned projects, unsigned files_per_project) {
  archive::SystemConfig cfg = archive::SystemConfig::roadrunner();
  // Small volumes so project interleaving visibly spreads across media.
  cfg.tape.cartridge_capacity = 40 * kGB;
  archive::CotsParallelArchive sys(cfg);

  // Interleaved arrival: one file from each project in rotation, batched
  // to tape in arrival order (what a colocation-blind back end does).
  std::vector<std::vector<std::string>> project_paths(projects);
  std::vector<std::string> arrival;
  for (unsigned f = 0; f < files_per_project; ++f) {
    for (unsigned p = 0; p < projects; ++p) {
      const std::string path =
          "/proj/p" + std::to_string(p) + "/f" + std::to_string(f);
      sys.make_file(sys.archive_fs(), path, 2 * kGB, p * 1000 + f);
      project_paths[p].push_back(path);
      arrival.push_back(path);
    }
  }
  // Migrate in arrival order; the co-location group is either per-project
  // or one shared scratch pool.
  auto migrate_seq = std::make_shared<std::function<void(std::size_t)>>();
  *migrate_seq = [&sys, arrival, colocate, migrate_seq](std::size_t i) {
    if (i >= arrival.size()) return;
    const std::string& path = arrival[i];
    const std::string group =
        colocate ? path.substr(0, path.find('/', 6)) : "shared";
    sys.hsm().migrate_batch(0, {path}, group,
                            [migrate_seq, i](const hsm::MigrateReport&) {
                              (*migrate_seq)(i + 1);
                            });
  };
  (*migrate_seq)(0);
  sys.sim().run();
  *migrate_seq = nullptr;  // the closure owns `migrate_seq`: break the cycle

  // Recall project 0 only.
  const auto before = sys.library().aggregate_stats();
  const sim::Tick t0 = sys.sim().now();
  hsm::RecallOptions opts;
  opts.nodes = {0, 1, 2, 3};
  sys.hsm().recall(project_paths[0], opts, nullptr);
  sys.sim().run();
  const auto after = sys.library().aggregate_stats();

  Outcome out;
  out.seconds = sim::to_seconds(sys.sim().now() - t0);
  out.mounts = after.mounts - before.mounts;
  out.cartridges_in_library = sys.library().cartridge_count();
  out.seek_seconds = sim::to_seconds(after.seek_time - before.seek_time);
  return out;
}

void run(Ledger& L) {
  L.experiment("Ablation", "Tape co-location groups vs shared scratch pool");
  constexpr unsigned kProjects = 4;
  constexpr unsigned kFiles = 40;
  const Outcome with = run(true, kProjects, kFiles);
  const Outcome without = run(false, kProjects, kFiles);

  std::printf("\n  policy        | recall (s) | volumes mounted | seek time (s) | library volumes\n");
  std::printf("  --------------+------------+-----------------+---------------+----------------\n");
  std::printf("  co-located    | %10.0f | %15llu | %13.0f | %15zu\n", with.seconds,
              static_cast<unsigned long long>(with.mounts), with.seek_seconds,
              with.cartridges_in_library);
  std::printf("  shared pool   | %10.0f | %15llu | %13.0f | %15zu\n",
              without.seconds, static_cast<unsigned long long>(without.mounts),
              without.seek_seconds, without.cartridges_in_library);

  bench::section("paper vs measured (recall one of four interleaved projects)");
  L.row("colocation.volumes", "volumes touched", "fewer with co-location",
        bench::fmt("%.0f", static_cast<double>(with.mounts)) + " vs " +
            bench::fmt("%.0f", static_cast<double>(without.mounts)),
        Claim::order(with.mounts, Op::Lt, without.mounts));
  L.row("colocation.recall", "recall time", "faster with co-location",
        bench::fmt("%.1fx", without.seconds / with.seconds),
        Claim::order(with.seconds, Op::Lt, without.seconds));
}
}  // namespace colocation

// Figure 6, "Parallel data movement": with LAN-free, "If you have
// multiple machines running LAN-free, they can read and write to
// different tapes independently of each other.  This allows for parallel
// data movement to and from tape."
// Sweep the mover count (each mover drives its own volume on its own
// drive) and report aggregate tape bandwidth, against the single-server
// LAN topology of Figure 5 where everything funnels through one machine.
namespace lanfree {
double migrate_rate_mbs(bool lan_free, unsigned movers) {
  archive::SystemConfig cfg = archive::SystemConfig::roadrunner();
  cfg.hsm.lan_free = lan_free;
  archive::CotsParallelArchive sys(cfg);
  double rate = 0;
  sys.hsm().parallel_migrate(arch_files(sys, movers * 20, 5 * kGB),
                             mover_nodes(movers),
                             hsm::DistributionStrategy::SizeBalanced, "g",
                             [&](const hsm::MigrateReport& r) {
                               rate = r.mean_rate_bps();
                             });
  sys.sim().run();
  return mbs(rate);
}

void run(Ledger& L) {
  L.experiment("Figures 5-6", "Tape bandwidth vs movers: LAN-free vs server-routed");
  std::printf("\n  movers | LAN-free (MB/s) | via TSM server (MB/s)\n");
  std::printf("  -------+-----------------+----------------------\n");
  double free1 = 0, free16 = 0, lan16 = 0;
  for (const unsigned movers : {1u, 2u, 4u, 8u, 16u}) {
    const double lanfree = migrate_rate_mbs(true, movers);
    const double routed = migrate_rate_mbs(false, movers);
    std::printf("  %6u | %15.0f | %21.0f\n", movers, lanfree, routed);
    if (movers == 1) free1 = lanfree;
    if (movers == 16) {
      free16 = lanfree;
      lan16 = routed;
    }
  }

  bench::section("paper vs measured");
  L.row("lanfree.scaling", "LAN-free scaling 1->16 movers",
        "independent tapes in parallel", bench::fmt("%.1fx", free16 / free1),
        Claim::order(free16, Op::Gt, free1));
  L.row("lanfree.vs_routed", "LAN-free vs server-routed at 16",
        "server NIC is the bottleneck", bench::fmt("%.0fx", free16 / lan16),
        Claim::order(free16, Op::Gt, lan16));
}
}  // namespace lanfree

// Ablation: volume space reclamation.
// The synchronous deleter (Sec 4.2.6) leaves dead regions on append-only
// tape; over time mostly-dead volumes waste slots and stretch recalls
// across media.  Reclamation copies the live remainder tape-to-tape and
// frees the volume — the standard TSM companion process to deletion.
// Build a fragmented library (many deletions), then compare recalling the
// survivors before and after reclamation.
namespace reclamation {
struct Outcome {
  double recall_seconds = 0;
  std::uint64_t mounts = 0;
  unsigned volumes_with_live_data = 0;
};

Outcome run(bool reclaim) {
  archive::SystemConfig cfg = archive::SystemConfig::roadrunner();
  cfg.tape.cartridge_capacity = 20 * kGB;  // small volumes fragment faster
  archive::CotsParallelArchive sys(cfg);

  // 200 x 500 MB files over ~5 volumes; delete 80% leaving stragglers
  // scattered across all of them.
  const std::vector<std::string> paths = arch_files(sys, 200, 500 * kMB);
  sys.hsm().migrate_batch(0, paths, "g", nullptr);
  sys.sim().run();
  std::vector<std::string> survivors;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (i % 5 == 0) {
      survivors.push_back(paths[i]);
    } else {
      sys.hsm().synchronous_delete(paths[i], nullptr);
    }
  }
  sys.sim().run();

  if (reclaim) {
    sys.hsm().reclaim_volumes(0.5, 0, nullptr);
    sys.sim().run();
  }

  Outcome out;
  sys.library().for_each_cartridge([&](tape::Cartridge& c) {
    if (c.bytes_used() > c.dead_bytes()) ++out.volumes_with_live_data;
  });

  const auto before = sys.library().aggregate_stats();
  const sim::Tick t0 = sys.sim().now();
  hsm::RecallOptions opts;
  opts.nodes = {0, 1, 2, 3};
  opts.max_parallel_tapes = 2;
  sys.hsm().recall(survivors, opts, nullptr);
  sys.sim().run();
  out.recall_seconds = sim::to_seconds(sys.sim().now() - t0);
  out.mounts = sys.library().aggregate_stats().mounts - before.mounts;
  return out;
}

void run(Ledger& L) {
  L.experiment("Ablation", "Volume reclamation after heavy deletion");
  const Outcome frag = run(false);
  const Outcome recl = run(true);

  std::printf("\n  state          | live-data volumes | recall mounts | recall (s)\n");
  std::printf("  ---------------+-------------------+---------------+-----------\n");
  std::printf("  fragmented     | %17u | %13llu | %10.0f\n",
              frag.volumes_with_live_data,
              static_cast<unsigned long long>(frag.mounts), frag.recall_seconds);
  std::printf("  reclaimed      | %17u | %13llu | %10.0f\n",
              recl.volumes_with_live_data,
              static_cast<unsigned long long>(recl.mounts), recl.recall_seconds);

  bench::section("paper vs measured");
  L.row("reclamation.volumes", "live volumes after reclamation", "consolidated",
        std::to_string(recl.volumes_with_live_data) + " vs " +
            std::to_string(frag.volumes_with_live_data),
        Claim::order(recl.volumes_with_live_data, Op::Lt,
                     frag.volumes_with_live_data));
  L.row("reclamation.recall", "survivor recall speedup",
        "fewer mounts, less seeking",
        bench::fmt("%.1fx", frag.recall_seconds / recl.recall_seconds),
        Claim::order(recl.recall_seconds, Op::Lt, frag.recall_seconds));
}
}  // namespace reclamation

// Sec 4.2.1: "GPFS can scan one million inodes in ten minutes."  The
// plant's scan cost is the calibration input inode_scan_rate = 1e6/600
// inodes/s per stream, so the 10.0 minutes hold by construction; the rows
// pin the model at 1, 5 and 10 scan streams.  host_check measures the
// host cost of real policy scans.
namespace sec421 {
void run(Ledger& L) {
  L.experiment("Sec 4.2.1", "GPFS policy-engine inode scan rate (calibrated)");
  archive::CotsParallelArchive sys(archive::SystemConfig::roadrunner());
  std::printf("\n  calibration input: inode_scan_rate = %.1f inodes/s per stream\n",
              sys.config().archive_fs.inode_scan_rate);
  std::printf("\n  inodes  | streams | scan time\n");
  std::printf("  --------+---------+----------\n");
  std::vector<double> minutes;
  for (const unsigned streams : {1u, 5u, 10u}) {
    const sim::Tick t = sys.archive_fs().scan_duration(1'000'000, streams);
    minutes.push_back(sim::to_seconds(t) / 60.0);
    std::printf("  1000000 | %7u | %s (model extrapolation)\n", streams,
                sim::format_duration(t).c_str());
  }
  bench::section("paper vs measured");
  L.row("sec421.streams_1", "1M inodes, 1 stream (calibrated)",
        "10 minutes", bench::fmt("%.1f minutes", minutes[0]),
        Claim::report(minutes[0]));
  L.row("sec421.streams_5", "1M inodes, 5 streams (calibrated)",
        "scales well", bench::fmt("%.1f minutes", minutes[1]),
        Claim::report(minutes[1]));
  L.row("sec421.streams_10", "1M inodes, 10 streams (calibrated)",
        "scales well", bench::fmt("%.1f minutes", minutes[2]),
        Claim::report(minutes[2]));
}
}  // namespace sec421

}  // namespace

// The experiments with their own source files.
namespace cpa::bench {
namespace sec45 { void run(Ledger& L); }
namespace md_batch { void run(Ledger& L); }
namespace scrub { void run(Ledger& L); }
namespace fairshare { void run(Ledger& L); }
namespace recovery { void run(Ledger& L); }
}  // namespace cpa::bench

int main(int argc, char** argv) {
  bench::CampaignOptions opts;
  std::string json_path;
  std::string fault;
  const bench::Cli cli = bench::Cli(argv[0])
                             .text("--json", "FILE", json_path)
                             .number("--seed", "N", opts.seed)
                             .text("--fault", "SPEC|auto", fault)
                             .text("--trace", "FILE", opts.trace_path)
                             .text("--metrics", "FILE", opts.metrics_path)
                             .text("--profile", "FILE", opts.profile_path);
  cli.parse(argc, argv);
  std::string error;
  if (!bench::read_fault_flag(fault, opts, &error)) cli.fail("--fault: " + error);

  Ledger L;
  if (!L.open_json(json_path)) return 1;
  const bool campaign_ok = campaign(L, bench::run_campaign(opts), opts);
  using Experiment = void (*)(Ledger&);
  for (const Experiment run : std::initializer_list<Experiment>{
           fig1::run, tape_order::run, nto1::run, fuse::run, migrator::run,
           sync_delete::run, sec52::run, sec61::run, sec62::run, grep::run,
           colocation::run, lanfree::run, reclamation::run, sec421::run,
           bench::sec45::run, bench::md_batch::run, bench::scrub::run,
           bench::fairshare::run, bench::recovery::run}) {
    run(L);
  }
  const int status = L.finish();
  return campaign_ok ? status : 1;
}
