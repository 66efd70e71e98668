#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>

#include "archive/system.hpp"
#include "obs/profile.hpp"
#include "simcore/rng.hpp"
#include "workload/campaign.hpp"
#include "workload/tree.hpp"

namespace archbench {
namespace {

using namespace cpa;
using archive::CotsParallelArchive;
using archive::JobSpec;
using archive::JobState;
using archive::SystemConfig;

constexpr double kMBf = static_cast<double>(kMB);

// Ethernet/TCP/NFS goodput on the trunks and NICs: the paper's own ceiling
// is "~75% bandwidth utilization from two 10Gigabit Ethernet trunk".
constexpr double kGoodput = 0.75;

/// Records percentile `p` of `xs` as virtual metric `name`, with its
/// sample count.  A tail percentile (p != 50) needs at least ten samples
/// beyond it -- above it for latencies, below it for rates (`low_tail`) --
/// or the run is reported incorrect.
void put_percentile(Instance& r, const std::string& name,
                    const std::vector<double>& xs, double p, bool low_tail) {
  const double cut = percentile(xs, p);
  const auto n_beyond = static_cast<std::size_t>(
      std::count_if(xs.begin(), xs.end(), [&](double x) {
        return low_tail ? x < cut : x > cut;
      }));
  r.virt[name] = cut;
  r.notes.push_back(name + ": " + std::to_string(xs.size()) + " samples, " +
                    std::to_string(n_beyond) + " beyond");
  if (xs.empty() || (p != 50.0 && n_beyond < 10)) {
    r.errors.push_back(name + " has " + std::to_string(n_beyond) +
                       " samples beyond it (needs 10)");
  }
}

/// Per-job pftool rates (bytes over the job's own elapsed time): median,
/// slow tail, and mean (Fig 10's summary figure).
void put_job_rates(Instance& r, const std::vector<double>& rates) {
  put_percentile(r, "job_rate_p50_mbs", rates, 50, false);
  put_percentile(r, "job_rate_p20_mbs", rates, 20, true);
  r.virt["job_rate_mean_mbs"] =
      std::accumulate(rates.begin(), rates.end(), 0.0) / static_cast<double>(rates.size());
}

/// Lateness of the open-loop generator: submit tick minus due tick.
void put_lateness(Instance& r, const std::vector<double>& xs) {
  const double worst = xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
  r.virt["gen.lateness_s"] = worst;
  if (worst != 0) r.errors.push_back("the open-loop generator ran late");
}

/// Per-layer quantities of one instance: host seconds from the spans (0
/// when untraced), counts from the registry over the measured phase, the
/// profiler's virtual-time buckets (traced only), and ratios of these.
void fill_layers(CotsParallelArchive& sys, const RegistryDelta& d,
                 const Spans& sp, double files_materialized, Instance& r) {
  obs::MetricsRegistry& m = sys.observer().metrics();
  Metrics& L = r.layer;
  L["sim.events"] = d.get(m, "sim.events_fired");
  L["sim.run_s"] = sp.total_s("sim.run");
  L["sim.loop_self_s"] = sp.self_s("sim.run");
  L["sim.flow.recomputes"] = d.get(m, "sim.flow.recompute_calls");
  L["sim.flow.flows_touched"] = d.get(m, "sim.flow.recompute_flows_touched");
  L["net.flows"] = d.get(m, "net.flows_started");

  L["workload.generate_s"] = sp.total_s("workload.generate");
  L["pfs.materialize_s"] = sp.total_s("pfs.materialize");
  L["pfs.materialized_files"] = files_materialized;
  L["pfs.scan_s"] = sp.total_s("pfs.scan");
  L["pfs.scanned_inodes"] = d.get(m, "pfs.policy_scanned_inodes");

  L["archive.build_s"] = sp.total_s("archive.build");
  L["archive.submit_s"] = sp.total_s("archive.submit");
  L["pftool.files_copied"] = d.get(m, "pftool.files_copied");
  L["pftool.chunks_copied"] = d.get(m, "pftool.chunks_copied");

  L["hsm.stage_s"] = sp.total_s("hsm.stage");
  L["hsm.migrate_call_s"] = sp.total_s("hsm.parallel_migrate");
  L["hsm.delete_call_s"] = sp.total_s("hsm.synchronous_delete");
  L["hsm.md_batches"] = d.get(m, "hsm.md_batches");
  L["hsm.md_batch_ops"] = d.get(m, "hsm.md_batch_ops");

  L["tape.mounts"] = d.get(m, "tape.mounts");
  L["tape.seeks"] = d.get(m, "tape.seeks");
  L["tape.backhitches"] = d.get(m, "tape.backhitches");
  L["tape.mount_s"] = d.get(m, "tape.mount_seconds");
  L["tape.seek_s"] = d.get(m, "tape.seek_seconds");
  L["tape.backhitch_s"] = d.get(m, "tape.backhitch_seconds");

  // Every queued job is a measured-phase job: staging submits none.
  double queue_wait = 0;
  if (const sim::Samples* s = m.find_series("sched.queue_wait_seconds")) {
    for (const double w : s->values()) queue_wait += w;
  }
  L["sched.queue_wait_s"] = queue_wait;
  L["sched.drive_queue_jumps"] = d.get(m, "sched.drive_queue_jumps");

  L["wal.flushes"] = d.get(m, "wal.flushes");
  L["wal.records"] = d.get(m, "wal.records");
  L["wal.recover_s"] = sp.total_s("wal.recover");
  L["wal.replay_records"] = d.get(m, "wal.replay_records");

  L["integrity.checksums_verified"] = d.get(m, "integrity.checksums_verified");
  if (d.get(m, "integrity.checksums_mismatches") != 0) {
    r.errors.push_back("integrity.checksums_mismatches is nonzero");
  }

  L["obs.trace_events"] = static_cast<double>(sys.observer().trace().event_count());
  static constexpr std::pair<obs::Bucket, const char*> kBuckets[] = {
      {obs::Bucket::PfsTransfer, "prof.pfs_transfer_s"},
      {obs::Bucket::Metadata, "prof.metadata_s"},
      {obs::Bucket::TapeMountWait, "prof.tape_mount_wait_s"},
      {obs::Bucket::TapePosition, "prof.tape_position_s"},
      {obs::Bucket::TapeTransfer, "prof.tape_transfer_s"},
      {obs::Bucket::DriveQueueWait, "prof.drive_queue_wait_s"},
      {obs::Bucket::AdmissionWait, "prof.admission_wait_s"},
      {obs::Bucket::WalCommit, "prof.wal_commit_s"},
  };
  for (const auto& [bucket, name] : kBuckets) L[name] = 0;
  L["obs.profile_s"] = 0;
  if (sp.enabled()) {
    const auto t0 = Clock::now();
    const obs::Profiler prof(sys.observer().trace());
    L["obs.profile_s"] = seconds_since(t0);
    if (!prof.conservation_ok()) {
      r.errors.push_back("profiler conservation violated on " +
                         std::to_string(prof.violations()) + " job(s)");
    }
    for (const obs::JobProfile& jp : prof.jobs()) {
      for (const auto& [bucket, name] : kBuckets) {
        L[name] += sim::to_seconds(jp.buckets[static_cast<std::size_t>(bucket)]);
      }
    }
  }

  const auto ratio = [&L](const char* name, const char* num, const char* den,
                          double scale) {
    L[name] = L[den] > 0 ? L[num] * scale / L[den] : 0.0;
  };
  ratio("sim.ns_per_event", "sim.run_s", "sim.events", 1e9);
  ratio("sim.flow.flows_per_recompute", "sim.flow.flows_touched", "sim.flow.recomputes", 1);
  ratio("pfs.materialize_us_per_file", "pfs.materialize_s", "pfs.materialized_files", 1e6);
  ratio("pfs.scan_ns_per_inode", "pfs.scan_s", "pfs.scanned_inodes", 1e9);
  ratio("hsm.md_ops_per_batch", "hsm.md_batch_ops", "hsm.md_batches", 1);
  ratio("wal.records_per_flush", "wal.records", "wal.flushes", 1);
}

// --------------------------------------------------------------------------
// campaign: the Figs 8-11 Open Science ingest campaign.

/// Materialized files across the 62 jobs.  The generator's unscaled counts
/// (~10 M files) are scaled to this total; the largest jobs then hold far
/// more than the 4,000-per-job cap of the figure benches.
constexpr double kCampaignFiles = 60'000;

std::vector<workload::JobSpec> generate_campaign(std::uint64_t seed) {
  workload::CampaignConfig wl;
  wl.seed = seed;
  wl.preserve_total_bytes = true;  // realistic durations -> realistic overlap
  wl.max_materialized_files = ~0ULL;
  // The unscaled file counts do not depend on the scale; a one-file-per-job
  // pass reads them, and the scale follows from the target total.
  wl.file_count_scale = 0.0;
  double unscaled = 0;
  for (const workload::JobSpec& s : workload::CampaignGenerator(wl).generate()) {
    unscaled += static_cast<double>(s.file_count);
  }
  wl.file_count_scale = kCampaignFiles / unscaled;
  return workload::CampaignGenerator(wl).generate();
}

/// Other site traffic occupies a varying fraction of each trunk in
/// alternating busy/quiet intervals over the operation days.
void schedule_background_load(CotsParallelArchive& sys, sim::Rng& rng,
                              double days) {
  for (unsigned t = 0; t < sys.config().cluster.trunk_count; ++t) {
    const sim::PoolId trunk = sys.fta().trunk_for(t);
    double at_hours = rng.uniform(0.0, 2.0);
    while (at_hours < days * 24.0) {
      const double busy_hours = rng.uniform(0.5, 4.0);
      const double rate = sys.net().pool_capacity(trunk) * rng.uniform(0.15, 0.6);
      const double bytes = rate * busy_hours * 3600.0;
      sys.sim().at(sim::hours(at_hours), [&sys, trunk, bytes, rate] {
        sys.net().start_flow({sim::PathLeg(trunk)}, bytes, nullptr, rate);
      });
      at_hours += busy_hours + rng.uniform(0.5, 4.0);
    }
  }
}

Instance run_campaign(std::uint64_t seed, Spans& sp) {
  Instance r;
  const auto t_setup = Clock::now();
  std::unique_ptr<CotsParallelArchive> plant;
  std::vector<workload::JobSpec> specs;
  std::vector<pftool::PftoolConfig> job_cfgs;
  double files = 0;
  {
    const auto g = sp.span("setup");
    {
      const auto g2 = sp.span("workload.generate");
      specs = generate_campaign(seed);
    }
    SystemConfig cfg = SystemConfig::roadrunner();
    cfg.cluster.trunk_bps *= kGoodput;
    cfg.cluster.node_nic_bps *= kGoodput;
    cfg.obs.tracing = sp.enabled();
    {
      const auto g2 = sp.span("archive.build");
      plant = std::make_unique<CotsParallelArchive>(cfg);
    }
    CotsParallelArchive& sys = *plant;
    {
      const auto g2 = sp.span("pfs.materialize");
      for (const workload::JobSpec& s : specs) {
        workload::TreeSpec tree;
        tree.root = "/scratch/job" + std::to_string(s.job_id);
        tree.file_sizes = s.file_sizes;
        tree.tag_seed = 0xC0FFEE + s.job_id;
        files += static_cast<double>(workload::build_tree(sys.scratch(), tree).files);
      }
    }
    sim::Rng rng(seed ^ 0xBADCAFE);
    schedule_background_load(sys, rng, workload::CampaignConfig{}.operation_days);
    // Users launched jobs with varying process counts; a few ran wide
    // enough to saturate the trunks (the paper's ~1868 MB/s peak).
    static constexpr unsigned kWorkerChoices[] = {1, 2, 2, 3, 3, 4, 4, 6, 8, 12, 16};
    for (const workload::JobSpec& s : specs) {
      pftool::PftoolConfig jc = sys.config().pftool;
      jc.num_workers = kWorkerChoices[rng.uniform_u64(0, std::size(kWorkerChoices) - 1)];
      jc.num_readdir = 2;
      jc.num_tapeprocs = 0;
      jc.per_stream_max_bps = 200.0 * kMBf;
      // Each materialized file stands for (count / materialized) real files'
      // worth of create/open/close work.
      const double expansion = static_cast<double>(s.file_count) /
                               static_cast<double>(s.file_sizes.size());
      jc.per_file_cost = static_cast<sim::Tick>(
          static_cast<double>(sim::msecs(4)) * std::max(1.0, expansion));
      job_cfgs.push_back(jc);
    }
    pfs::Rule rule;
    rule.name = "campaign-mig";
    rule.action = pfs::Rule::Action::List;
    rule.where = {pfs::Condition::path_glob("/proj/*"),
                  pfs::Condition::dmapi_is(pfs::DmapiState::Resident),
                  pfs::Condition::age_ge(1800)};
    sys.policy().add_rule(rule);
  }
  r.setup_s = seconds_since(t_setup);
  CotsParallelArchive& sys = *plant;
  r.sizes = std::to_string(specs.size()) + " jobs over 18 days, " +
            std::to_string(static_cast<std::uint64_t>(files)) +
            " files materialized, 4-hourly ILM cycles";

  RegistryDelta delta;
  delta.begin(sys.observer().metrics());
  std::vector<archive::JobHandle> handles(specs.size());
  std::vector<double> lateness;
  hsm::MigrateReport migrated;
  const auto t_run = Clock::now();
  {
    const auto g = sp.span("run");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const sim::Tick due = specs[i].submit_time;
      sys.sim().at(due, [&, i, due] {
        const auto g2 = sp.span("archive.submit");
        lateness.push_back(sim::to_seconds(sys.sim().now() - due));
        const std::string id = std::to_string(specs[i].job_id);
        handles[i] = sys.submit(
            JobSpec::pfcp("/scratch/job" + id, "/proj/job" + id).with_config(job_cfgs[i]));
      });
    }
    // The ILM cycle of CotsParallelArchive::run_migration_cycle, called
    // layer by layer so the scan and the migrate call are timed apart.
    // Cycles chain: a new scan starts 4 h after the previous migration.
    const double horizon_s = (workload::CampaignConfig{}.operation_days + 2.0) * 86400.0;
    std::vector<tape::NodeId> nodes(sys.config().cluster.fta_nodes);
    std::iota(nodes.begin(), nodes.end(), 0);
    auto cycle = std::make_shared<std::function<void()>>();
    const std::weak_ptr<std::function<void()>> weak = cycle;
    *cycle = [&, weak] {
      if (sim::to_seconds(sys.sim().now()) > horizon_s) return;
      pfs::ScanReport scan;
      {
        const auto g2 = sp.span("pfs.scan");
        scan = sys.policy().run_scan(sys.archive_fs(), sys.config().cluster.fta_nodes);
      }
      std::vector<std::string> paths;
      for (const pfs::PolicyMatch& m : scan.matches["campaign-mig"]) paths.push_back(m.path);
      sys.sim().after(scan.scan_duration, [&, weak, paths = std::move(paths)]() mutable {
        const auto g2 = sp.span("hsm.parallel_migrate");
        sys.hsm().parallel_migrate(
            std::move(paths), nodes, hsm::DistributionStrategy::SizeBalanced,
            "opensci", [&, weak](const hsm::MigrateReport& rep) {
              migrated.files_migrated += rep.files_migrated;
              migrated.files_failed += rep.files_failed;
              sys.sim().after(sim::hours(4), [weak] {
                if (const auto c = weak.lock()) (*c)();
              });
            });
      });
    };
    sys.sim().at(sim::hours(2), [weak] {
      if (const auto c = weak.lock()) (*c)();
    });
    const auto g2 = sp.span("sim.run");
    sys.sim().run();
  }
  r.run_s = seconds_since(t_run);

  double copied = 0;
  std::vector<double> rates;
  std::vector<double> report_bps;
  for (const archive::JobHandle& h : handles) {
    const pftool::JobReport& rep = h.report();
    if (h.state() != JobState::Succeeded) {
      r.errors.push_back("campaign job " + std::to_string(h.id()) + " ended " +
                         archive::to_string(h.state()));
    }
    copied += static_cast<double>(rep.files_copied);
    r.failed += rep.files_failed;
    report_bps.push_back(rep.rate_bps());
    rates.push_back(rep.rate_bps() / kMBf);
  }
  if (copied != files) {
    r.errors.push_back("files copied " + std::to_string(copied) +
                       " != files materialized " + std::to_string(files));
  }
  std::vector<double> series;
  if (const sim::Samples* s = sys.observer().metrics().find_series("pftool.job_rate_bps")) {
    series = s->values();
  }
  std::sort(series.begin(), series.end());
  std::sort(report_bps.begin(), report_bps.end());
  if (series != report_bps) {
    r.errors.push_back("pftool.job_rate_bps series differs from the job reports");
  }
  r.attempted = static_cast<std::uint64_t>(files) + migrated.files_migrated +
                migrated.files_failed;
  r.failed += migrated.files_failed;
  put_job_rates(r, rates);
  r.virt["migrated_files"] = static_cast<double>(migrated.files_migrated);
  put_lateness(r, lateness);
  fill_layers(sys, delta, sp, files, r);
  return r;
}

// --------------------------------------------------------------------------
// restore: interactive restores of skewed popularity beside a bulk tenant.

/// None of these values comes from the paper or a published trace; each is
/// an assumption chosen to reach an operating point (archbench/README.md
/// lists which results depend on which).
struct RestoreShape {
  unsigned dirs = 3000;
  unsigned files_per_dir = 30;
  double resident_share = 0.05;     // directories never migrated
  double file_mean_bytes = 40.0 * kMBf;  // lognormal, sigma 1, 1 MB-1 GB
  unsigned requests = 1000;
  double mean_gap_s = 150.0;        // open-loop interactive arrivals
  // Popularity skew over directories, chosen so that about a third of the
  // requested files are on disk (repeats and never-migrated directories)
  // and the median and the tail are both tape restores.
  double zipf_s = 0.6;
  unsigned bulk_trees = 8;
  unsigned bulk_files = 16;
  double bulk_file_bytes = 2000.0 * kMBf;
};

/// The fair-share policy of bench_fairshare: six admission slots, bulk
/// capped below the full drive count, to three running jobs and half the
/// PFS bandwidth, and the interactive tenant outranking it at every grant.
sched::SchedConfig restore_policy(unsigned drive_count) {
  return sched::SchedConfig{}
      .with_max_running_jobs(6)
      .with_max_queue(1024)
      .with_aging_step(sim::minutes(2))
      .with_aging_max_boost(3)
      .with_tenant("batch", sched::TenantQuota{}
                                .with_weight(1.0)
                                .with_max_drives(drive_count - 1)
                                .with_max_running_jobs(3)
                                .with_pfs_bw_fraction(0.5))
      .with_tenant("ana", sched::TenantQuota{}.with_weight(4.0));
}

Instance run_restore(std::uint64_t seed, Spans& sp) {
  const RestoreShape w;
  Instance r;
  const auto t_setup = Clock::now();
  std::unique_ptr<CotsParallelArchive> plant;
  std::vector<std::vector<std::uint64_t>> dir_sizes(w.dirs);
  std::vector<bool> resident(w.dirs);
  std::vector<std::uint64_t> dir_bytes(w.dirs, 0);
  std::vector<unsigned> req_dir(w.requests);
  std::vector<sim::Tick> req_due(w.requests);
  std::vector<std::vector<std::uint64_t>> bulk_sizes(w.bulk_trees);
  std::vector<std::uint64_t> bulk_bytes(w.bulk_trees, 0);
  double files = 0;
  {
    const auto g = sp.span("setup");
    {
      const auto g2 = sp.span("workload.generate");
      sim::Rng rng(seed ^ 0x5E570BE);
      for (unsigned d = 0; d < w.dirs; ++d) {
        resident[d] = rng.chance(w.resident_share);
        for (unsigned f = 0; f < w.files_per_dir; ++f) {
          const auto sz = static_cast<std::uint64_t>(std::clamp(
              rng.lognormal_mean(w.file_mean_bytes, 1.0), 1.0 * kMBf, 1000.0 * kMBf));
          dir_sizes[d].push_back(sz);
          dir_bytes[d] += sz;
        }
      }
      for (unsigned b = 0; b < w.bulk_trees; ++b) {
        for (unsigned f = 0; f < w.bulk_files; ++f) {
          const auto sz = static_cast<std::uint64_t>(
              rng.lognormal_mean(w.bulk_file_bytes, 0.3));
          bulk_sizes[b].push_back(sz);
          bulk_bytes[b] += sz;
        }
      }
      // Zipf popularity over a seed-shuffled ranking of the directories.
      std::vector<double> weight(w.dirs);
      for (unsigned k = 0; k < w.dirs; ++k) weight[k] = 1.0 / std::pow(k + 1.0, w.zipf_s);
      std::vector<unsigned> rank(w.dirs);
      std::iota(rank.begin(), rank.end(), 0u);
      rng.shuffle(rank);
      double t = 0;
      for (unsigned i = 0; i < w.requests; ++i) {
        t += rng.exponential(w.mean_gap_s);
        req_due[i] = sim::secs(t);
        req_dir[i] = rank[rng.weighted_choice(weight)];
      }
    }
    SystemConfig cfg = SystemConfig::roadrunner();
    cfg.with_sched(restore_policy(cfg.tape.drive_count));
    // Queued restores legitimately see no first byte for a long time; that
    // is the congestion under test, not a stall to abort.
    cfg.pftool.stall_timeout = sim::hours(2);
    cfg.obs.tracing = sp.enabled();
    {
      const auto g2 = sp.span("archive.build");
      plant = std::make_unique<CotsParallelArchive>(cfg);
    }
    CotsParallelArchive& sys = *plant;
    std::vector<std::vector<std::string>> dir_paths(w.dirs);
    std::vector<std::vector<std::string>> bulk_paths(w.bulk_trees);
    {
      const auto g2 = sp.span("pfs.materialize");
      for (unsigned d = 0; d < w.dirs; ++d) {
        for (unsigned f = 0; f < w.files_per_dir; ++f) {
          const std::string p = "/proj/u/d" + std::to_string(d) + "/f" + std::to_string(f);
          sys.make_file(sys.archive_fs(), p, dir_sizes[d][f], (std::uint64_t{d} << 20) + f);
          dir_paths[d].push_back(p);
        }
      }
      for (unsigned b = 0; b < w.bulk_trees; ++b) {
        for (unsigned f = 0; f < w.bulk_files; ++f) {
          const std::string p = "/proj/bulk/t" + std::to_string(b) + "/f" + std::to_string(f);
          sys.make_file(sys.archive_fs(), p, bulk_sizes[b][f], 0xB0000 + (b << 8) + f);
          bulk_paths[b].push_back(p);
        }
      }
      files = static_cast<double>(w.dirs * w.files_per_dir + w.bulk_trees * w.bulk_files);
    }
    unsigned staged_failures = 0;
    {
      const auto g2 = sp.span("hsm.stage");
      const unsigned nodes = sys.config().cluster.fta_nodes;
      const auto count = [&](const hsm::MigrateReport& rep) { staged_failures += rep.files_failed; };
      // One colocation group, so one cartridge, per directory.  When
      // restores of different directories overlap on a shared cartridge,
      // TapeLibrary::ensure_mounted can hand a drive back whose volume
      // another drive is already pulling, and every read of that restore
      // fails; per-directory cartridges keep the workload clear of it.
      for (unsigned d = 0; d < w.dirs; ++d) {
        if (resident[d]) continue;
        sys.hsm().migrate_batch(d % nodes, dir_paths[d], "u" + std::to_string(d), count);
      }
      for (unsigned b = 0; b < w.bulk_trees; ++b) {
        sys.hsm().migrate_batch(b % nodes, bulk_paths[b], "bulk" + std::to_string(b), count);
      }
      sys.sim().run();
    }
    if (staged_failures != 0) r.errors.push_back("staging to tape failed");
  }
  r.setup_s = seconds_since(t_setup);
  CotsParallelArchive& sys = *plant;
  r.sizes = std::to_string(w.dirs) + " dirs x " + std::to_string(w.files_per_dir) +
            " files (" + std::to_string(static_cast<int>(w.resident_share * 100)) +
            "% never migrated), " + std::to_string(w.requests) + " restores at " +
            std::to_string(static_cast<int>(w.mean_gap_s)) + " s mean gap, " +
            std::to_string(w.bulk_trees) + " bulk trees x " +
            std::to_string(w.bulk_files) + " files";

  RegistryDelta delta;
  delta.begin(sys.observer().metrics());
  std::vector<archive::JobHandle> reqs(w.requests), bulk(w.bulk_trees);
  std::vector<double> latency(w.requests, -1.0);
  std::vector<double> lateness;
  const sim::Tick t0 = sys.sim().now();
  // Bulk trees are submitted evenly across the interactive window.
  const sim::Tick window = req_due.back();
  const auto t_run = Clock::now();
  {
    const auto g = sp.span("run");
    for (unsigned i = 0; i < w.requests; ++i) {
      const sim::Tick due = t0 + req_due[i];
      sys.sim().at(due, [&, i, due] {
        const auto g2 = sp.span("archive.submit");
        lateness.push_back(sim::to_seconds(sys.sim().now() - due));
        const std::string src = "/proj/u/d" + std::to_string(req_dir[i]);
        reqs[i] = sys.submit(JobSpec::pfcp_restore(src, "/restage/r" + std::to_string(i))
                                 .with_tenant("ana")
                                 .with_qos(sched::QosClass::Interactive)
                                 .with_verified());
        reqs[i].on_done([&, i, due](const pftool::JobReport&) {
          latency[i] = sim::to_seconds(sys.sim().now() - due);
        });
      });
    }
    for (unsigned b = 0; b < w.bulk_trees; ++b) {
      const sim::Tick due = t0 + window * b / w.bulk_trees;
      sys.sim().at(due, [&, b, due] {
        const auto g2 = sp.span("archive.submit");
        lateness.push_back(sim::to_seconds(sys.sim().now() - due));
        const std::string src = "/proj/bulk/t" + std::to_string(b);
        bulk[b] = sys.submit(JobSpec::pfcp_restore(src, "/restage/b" + std::to_string(b))
                                 .with_tenant("batch")
                                 .with_qos(sched::QosClass::Bulk)
                                 .with_verified());
      });
    }
    const auto g2 = sp.span("sim.run");
    sys.sim().run();
  }
  r.run_s = seconds_since(t_run);

  const auto check = [&](const archive::JobHandle& h, std::uint64_t want_bytes,
                         const std::string& what) {
    const pftool::JobReport& rep = h.report();
    r.attempted += rep.files_copied + rep.files_failed;
    r.failed += rep.files_failed;
    if (h.state() != JobState::Succeeded || !h.fixity_clean()) {
      r.errors.push_back(what + " ended " + archive::to_string(h.state()) + " (" +
                         std::to_string(rep.files_failed) + " files failed, " +
                         std::to_string(rep.fixity_mismatches) + " fixity mismatches" +
                         (rep.aborted_by_watchdog ? ", stalled" : "") + ")");
    } else if (rep.bytes_copied != want_bytes) {
      r.errors.push_back(what + " restored " + std::to_string(rep.bytes_copied) +
                         " bytes, staged " + std::to_string(want_bytes));
    }
  };
  double restored_files = 0, tape_files = 0, bulk_total_bytes = 0, bulk_seconds = 0;
  for (unsigned i = 0; i < w.requests; ++i) {
    check(reqs[i], dir_bytes[req_dir[i]], "restore " + std::to_string(i));
    restored_files += static_cast<double>(reqs[i].report().files_copied);
    tape_files += static_cast<double>(reqs[i].report().files_restored);
  }
  for (unsigned b = 0; b < w.bulk_trees; ++b) {
    check(bulk[b], bulk_bytes[b], "bulk restore " + std::to_string(b));
    bulk_total_bytes += static_cast<double>(bulk[b].report().bytes_copied);
    bulk_seconds += bulk[b].report().elapsed_seconds();
  }
  put_percentile(r, "restore_p50_s", latency, 50, false);
  put_percentile(r, "restore_p90_s", latency, 90, false);
  // A restore's effective rate: its directory's bytes over due -> done.
  std::vector<double> rates;
  for (unsigned i = 0; i < w.requests; ++i) {
    rates.push_back(static_cast<double>(dir_bytes[req_dir[i]]) / latency[i] / kMBf);
  }
  put_percentile(r, "restore_rate_p50_mbs", rates, 50, true);
  // Bytes over the bulk jobs' summed service time: a bulk job slowed down
  // to buy interactive latency shows here even when arrivals bound the
  // tenant's makespan.
  r.virt["bulk_rate_mbs"] = bulk_total_bytes / bulk_seconds / kMBf;
  r.virt["disk_hit_share"] = 1.0 - tape_files / restored_files;
  put_lateness(r, lateness);
  fill_layers(sys, delta, sp, files, r);
  return r;
}

// --------------------------------------------------------------------------
// small_files: archive, migrate with aggregation, delete; then power-fail.

/// Assumptions, like RestoreShape's: only the metadata path itself (WAL
/// on, batched server) is what the workload is for.
struct SmallShape {
  unsigned dirs = 300;
  unsigned files_per_dir = 200;
  double min_bytes = 16.0 * kKB;
  double max_bytes = 8.0 * kMBf;
  double mean_gap_s = 300.0;   // open-loop directory arrivals
  double delete_share = 0.25;  // of each directory, once safe on tape
  unsigned groups = 32;
};

Instance run_small_files(std::uint64_t seed, Spans& sp) {
  const SmallShape w;
  Instance r;
  const auto t_setup = Clock::now();
  std::unique_ptr<CotsParallelArchive> plant;
  std::vector<std::vector<std::uint64_t>> sizes(w.dirs);
  std::vector<std::vector<unsigned>> doomed(w.dirs);
  std::vector<sim::Tick> due(w.dirs);
  double files = 0;
  {
    const auto g = sp.span("setup");
    {
      const auto g2 = sp.span("workload.generate");
      sim::Rng rng(seed ^ 0x5A11F11E);
      double t = 0;
      const auto n_delete = static_cast<unsigned>(w.files_per_dir * w.delete_share);
      for (unsigned d = 0; d < w.dirs; ++d) {
        for (unsigned f = 0; f < w.files_per_dir; ++f) {
          // Log-uniform between 16 KB and 8 MB.
          sizes[d].push_back(static_cast<std::uint64_t>(
              w.min_bytes * std::pow(w.max_bytes / w.min_bytes, rng.uniform())));
        }
        std::vector<unsigned> idx(w.files_per_dir);
        std::iota(idx.begin(), idx.end(), 0u);
        rng.shuffle(idx);
        doomed[d].assign(idx.begin(), idx.begin() + n_delete);
        t += rng.exponential(w.mean_gap_s);
        due[d] = sim::secs(t);
      }
    }
    SystemConfig cfg = SystemConfig::roadrunner();
    // The production metadata path: redo-logged and batched.
    cfg.with_wal();
    cfg.hsm.server.md_batch_size = 16;
    cfg.hsm.aggregation_enabled = true;
    cfg.obs.tracing = sp.enabled();
    {
      const auto g2 = sp.span("archive.build");
      plant = std::make_unique<CotsParallelArchive>(cfg);
    }
    CotsParallelArchive& sys = *plant;
    {
      const auto g2 = sp.span("pfs.materialize");
      for (unsigned d = 0; d < w.dirs; ++d) {
        for (unsigned f = 0; f < w.files_per_dir; ++f) {
          sys.make_file(sys.scratch(),
                        "/scratch/sf/d" + std::to_string(d) + "/f" + std::to_string(f),
                        sizes[d][f], (std::uint64_t{d} << 20) + f);
        }
      }
      files = static_cast<double>(w.dirs * w.files_per_dir);
    }
  }
  r.setup_s = seconds_since(t_setup);
  CotsParallelArchive& sys = *plant;
  r.sizes = std::to_string(w.dirs) + " dirs x " + std::to_string(w.files_per_dir) +
            " files of 16 KB-8 MB at " + std::to_string(static_cast<int>(w.mean_gap_s)) +
            " s mean gap, " + std::to_string(static_cast<int>(w.delete_share * 100)) +
            "% deleted, WAL on, md_batch_size " +
            std::to_string(sys.config().hsm.server.md_batch_size);

  RegistryDelta delta;
  delta.begin(sys.observer().metrics());
  std::vector<archive::JobHandle> jobs(w.dirs);
  std::vector<double> migrate_lat, delete_lat, lateness;
  std::vector<std::string> kept, deleted;  // acknowledged outcomes
  std::uint64_t migrate_failed = 0, delete_failed = 0;
  const auto arch_path = [](unsigned d, unsigned f) {
    return "/arch/sf/d" + std::to_string(d) + "/f" + std::to_string(f);
  };
  const unsigned fta_nodes = sys.config().cluster.fta_nodes;
  const auto t_run = Clock::now();
  {
    const auto g = sp.span("run");
    const auto remove = [&](unsigned d) {
      for (const unsigned f : doomed[d]) {
        const std::string p = arch_path(d, f);
        const sim::Tick called = sys.sim().now();
        const auto g2 = sp.span("hsm.synchronous_delete");
        sys.hsm().synchronous_delete(p, [&, p, called](pfs::Errc e) {
          delete_lat.push_back(sim::to_seconds(sys.sim().now() - called));
          if (e == pfs::Errc::Ok) {
            deleted.push_back(p);
          } else {
            ++delete_failed;
          }
        });
      }
    };
    const auto migrate = [&](unsigned d) {
      std::vector<std::string> paths;
      for (unsigned f = 0; f < w.files_per_dir; ++f) paths.push_back(arch_path(d, f));
      const sim::Tick called = sys.sim().now();
      const auto g2 = sp.span("hsm.parallel_migrate");
      // One mover per directory: a second batch of the same colocation
      // group would only wait for the first one's volume.
      sys.hsm().parallel_migrate(
          std::move(paths), {d % fta_nodes}, hsm::DistributionStrategy::SizeBalanced,
          "sf" + std::to_string(d % w.groups), [&, d, called](const hsm::MigrateReport& rep) {
            migrate_lat.push_back(sim::to_seconds(sys.sim().now() - called));
            migrate_failed += rep.files_failed;
            if (rep.files_failed != 0) return;
            std::vector<bool> gone(w.files_per_dir, false);
            for (const unsigned f : doomed[d]) gone[f] = true;
            for (unsigned f = 0; f < w.files_per_dir; ++f) {
              if (!gone[f]) kept.push_back(arch_path(d, f));
            }
            remove(d);
          });
    };
    for (unsigned d = 0; d < w.dirs; ++d) {
      const sim::Tick at = due[d];
      sys.sim().at(at, [&, d, at] {
        const auto g2 = sp.span("archive.submit");
        lateness.push_back(sim::to_seconds(sys.sim().now() - at));
        jobs[d] = sys.submit(JobSpec::pfcp("/scratch/sf/d" + std::to_string(d),
                                           "/arch/sf/d" + std::to_string(d)));
        jobs[d].on_done([&, d](const pftool::JobReport& rep) {
          if (rep.files_failed != 0) return;
          // Out of the job's completion path: the migrate is its own call.
          sys.sim().after(0, [&migrate, d] { migrate(d); });
        });
      });
    }
    {
      const auto g2 = sp.span("sim.run");
      sys.sim().run();
    }
    sys.power_fail(seed);
    {
      const auto g2 = sp.span("wal.recover");
      sys.recover();
    }
    const auto g2 = sp.span("sim.run");
    sys.sim().run();
  }
  r.run_s = seconds_since(t_run);

  std::vector<double> rates;
  for (const archive::JobHandle& h : jobs) {
    r.attempted += h.report().files_copied + h.report().files_failed;
    r.failed += h.report().files_failed;
    rates.push_back(h.report().rate_bps() / kMBf);
    if (h.state() != JobState::Succeeded) {
      r.errors.push_back("archive job " + std::to_string(h.id()) + " ended " +
                         archive::to_string(h.state()));
    }
  }
  r.attempted += static_cast<std::uint64_t>(files) + delete_lat.size();
  r.failed += migrate_failed + delete_failed;
  if (migrate_lat.size() != w.dirs) {
    r.errors.push_back(std::to_string(w.dirs - migrate_lat.size()) +
                       " directory migrations never completed");
  }
  // Durability: acknowledged outcomes survive power_fail() + recover().
  std::uint64_t lost = 0, resurrected = 0;
  for (const std::string& p : kept) {
    const auto st = sys.archive_fs().stat(p);
    if (!st.ok() || st.value().dmapi == pfs::DmapiState::Resident ||
        sys.hsm().server_for(p).export_db().by_path(p) == nullptr) {
      ++lost;
    }
  }
  for (const std::string& p : deleted) {
    if (sys.archive_fs().exists(p) ||
        sys.hsm().server_for(p).export_db().by_path(p) != nullptr) {
      ++resurrected;
    }
  }
  if (lost != 0) r.errors.push_back(std::to_string(lost) + " migrated files lost after recovery");
  if (resurrected != 0) {
    r.errors.push_back(std::to_string(resurrected) + " deleted files back after recovery");
  }
  if (sys.observer().metrics().counter_value("recovery.stub_violations") != 0) {
    r.errors.push_back("recovery found stubs without catalog objects");
  }
  put_percentile(r, "migrate_p50_s", migrate_lat, 50, false);
  put_percentile(r, "migrate_p90_s", migrate_lat, 90, false);
  put_percentile(r, "delete_p50_s", delete_lat, 50, false);
  put_percentile(r, "delete_p90_s", delete_lat, 90, false);
  put_job_rates(r, rates);
  r.virt["acked_kept_files"] = static_cast<double>(kept.size());
  r.virt["acked_deleted_files"] = static_cast<double>(deleted.size());
  put_lateness(r, lateness);
  fill_layers(sys, delta, sp, files, r);
  return r;
}

constexpr Workload kWorkloads[] = {
    {"campaign", run_campaign},
    {"restore", run_restore},
    {"small_files", run_small_files},
};

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace archbench
