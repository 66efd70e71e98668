// Sec 4.5 "Restart-able File Transfer":
//   "What about restarting a 40 Terabyte file, we don't want to start it
//    from the beginning ... we mark regular file chunks or FUSE file
//    chunks as good or bad so that we don't have to re-send known good
//    chunks.  This is a unique incremental parallel archive feature that
//    can reduce unnecessary data copy and increase performance."
//
// Interrupt a very large transfer at various completion fractions, then
// restart with and without the chunk journal, and compare bytes re-sent.
//
// The fault matrix then arms three canned plans, each a different failure
// class, against a live multi-file pfcp plus a parallel migration: retry
// and journal resume must ride out the injected faults, and pfcm verifies
// the tree byte-exactly.
//
// Ledger rows: sec45.* (journaled re-send < naive re-send; the 90 %
// saving is a report row) and faults.* (no unrecovered file, every
// injected fault repaired).
#include <cstdio>
#include <string>
#include <vector>

#include "archive/system.hpp"
#include "bench/ledger.hpp"

namespace cpa::bench::sec45 {
namespace {

using Op = Claim::Op;

/// GB the restart re-sends after an interrupt at `fail_fraction`.
double resent_gb(double fail_fraction, bool journaled,
                 std::uint64_t file_size) {
  archive::CotsParallelArchive sys(archive::SystemConfig::roadrunner());
  sys.make_file(sys.scratch(), "/scratch/huge", file_size, 0x40AB);

  pftool::PftoolConfig cfg = sys.config().pftool;
  cfg.num_workers = 16;
  cfg.restartable = journaled;

  // Simulate the interrupted first attempt: the journal recorded the
  // first `fail_fraction` of chunks as good before the network died.
  const pftool::ChunkPlanner planner(cfg.planner);
  const pftool::CopyPlan plan = planner.plan(file_size);
  const auto good = static_cast<std::uint64_t>(
      static_cast<double>(plan.chunks.size()) * fail_fraction);
  if (journaled) {
    sys.journal().begin("/proj/huge", file_size, plan.chunks.size());
    for (std::uint64_t i = 0; i < good; ++i) {
      sys.journal().mark_good("/proj/huge", i);
    }
  }
  // The interrupted run also left the partially-written destination.
  if (plan.mode == pftool::CopyMode::FuseNtoN) {
    sys.fuse().create("/proj/huge", file_size);
    for (std::uint64_t i = 0; i < good; ++i) {
      sys.fuse().write_chunk("/proj/huge", i, pftool::chunk_tag(0x40AB, i));
    }
  }

  const auto r = pftool::sim::run_pfcp(sys.job_env(false), cfg, "/scratch/huge",
                                       "/proj/huge");
  return static_cast<double>(r.bytes_copied) / static_cast<double>(kGB);
}

/// One fault plan per failure class: FTA nodes, tape drives, and the
/// archive server with a degraded site trunk.
struct FaultPlanSpec {
  const char* name;
  const char* spec;  // fault/plan.hpp grammar
};
constexpr FaultPlanSpec kFaultPlans[] = {
    {"nodes",
     "cluster.node[1]:fail@t=45s,repair=120s;"
     "cluster.node[2]:fail@t=60s,repair=120s"},
    {"drives",
     "tape.drive[0]:fail@t=30s,repair=180s;"
     "tape.drive[1]:fail@t=60s,repair=180s"},
    {"server_trunk",
     "hsm.server[0]:restart@t=100s,outage=45s;"
     "net.pool[trunk0]:degrade@t=20s,factor=0.25,repair=60s"},
};

struct FaultOutcome {
  std::uint64_t injected = 0;
  std::uint64_t repaired = 0;
  std::uint64_t unrecovered = 0;
};

/// Runs the pfcp + migration under `spec` and prints the recovery outcome.
FaultOutcome run_fault_plan(const std::string& spec) {
  const fault::FaultPlan plan = fault::FaultPlan::parse(spec).value();

  // Aggressive-but-bounded recovery: strikes land tens of virtual seconds
  // into the run, repairs take minutes, so retries must outlast an outage.
  fault::RetryPolicy rp;
  rp.max_attempts = 8;
  rp.backoff = sim::secs(15);
  rp.max_backoff = sim::minutes(5);

  archive::SystemConfig cfg = archive::SystemConfig::small()
                                  .with_workers(8)
                                  .with_retry(rp)
                                  .with_fault_plan(plan);
  archive::CotsParallelArchive sys(cfg);

  // A 24-file / 192 GB pfcp spans 80+ virtual seconds on the small plant,
  // so canned strikes at t=20..60s always hit in-flight copies.
  constexpr unsigned kCopyFiles = 24;
  for (unsigned i = 0; i < kCopyFiles; ++i) {
    sys.make_file(sys.scratch(), "/scratch/data/f" + std::to_string(i),
                  8 * kGB, 0x5EED00 + i);
  }
  // Pre-made archive files feed a migration launched immediately, so
  // drive/server faults during the first minute hit in-flight tape writes.
  std::vector<std::string> to_tape;
  for (unsigned i = 0; i < 16; ++i) {
    const std::string p = "/proj/premade/m" + std::to_string(i);
    sys.make_file(sys.archive_fs(), p, 2 * kGB, 0x7A9E00 + i);
    to_tape.push_back(p);
  }
  hsm::MigrateReport mig;
  sys.hsm().parallel_migrate(to_tape, {0, 1}, hsm::DistributionStrategy::SizeBalanced,
                             "smoke", [&mig](const hsm::MigrateReport& r) { mig = r; });

  // --verify fixity mode: every copied chunk is read back and compared,
  // so recovery must hand back bit-correct data, not just "a" file.
  archive::JobHandle job = sys.submit(
      archive::JobSpec::pfcp("/scratch/data", "/proj/data")
          .with_restartable()
          .with_verified()
          .with_retry(rp));
  sys.sim().run();

  const pftool::JobReport cp = job.report();
  const pftool::JobReport cm = sys.pfcm("/scratch/data", "/proj/data");

  obs::Observer& ob = sys.observer();
  const std::uint64_t injected = ob.metrics().counter_value("fault.injected_total");
  const std::uint64_t repaired = ob.metrics().counter_value("fault.repaired_total");
  const std::uint64_t retries = ob.metrics().counter_value("pftool.retries_total");

  bench::section("recovery outcome");
  std::printf("  faults injected: %llu   repaired: %llu\n",
              static_cast<unsigned long long>(injected),
              static_cast<unsigned long long>(repaired));
  std::printf("  pfcp: %u attempts, %llu files copied, %llu failed, "
              "%llu chunks retried, %llu journal-resumed\n",
              job.attempts(), static_cast<unsigned long long>(cp.files_copied),
              static_cast<unsigned long long>(cp.files_failed),
              static_cast<unsigned long long>(cp.chunk_retries),
              static_cast<unsigned long long>(cp.chunks_skipped_restart));
  std::printf("  pftool retries (chunk + relaunch): %llu\n",
              static_cast<unsigned long long>(retries));
  std::printf("  migration: %u migrated, %u failed, %u retries, "
              "%u units requeued\n",
              mig.files_migrated, mig.files_failed, mig.retries,
              mig.units_requeued);
  std::printf("  pfcm: %llu compared, %llu mismatched\n",
              static_cast<unsigned long long>(cm.files_compared),
              static_cast<unsigned long long>(cm.files_mismatched));
  std::printf("  fixity: %llu chunks verified, %llu mismatches, "
              "%llu unrepairable\n",
              static_cast<unsigned long long>(cp.chunks_verified),
              static_cast<unsigned long long>(cp.fixity_mismatches),
              static_cast<unsigned long long>(cp.files_unrepairable));

  // A fixity mismatch healed from another replica is recovered; only files
  // with no clean replica (already in files_failed too) stay unrecovered.
  const std::uint64_t unrecovered =
      cp.files_failed + mig.files_failed + cm.files_mismatched;
  std::printf("  unrecovered files: %llu\n",
              static_cast<unsigned long long>(unrecovered));
  return {injected, repaired, unrecovered};
}

}  // namespace

void run(Ledger& L) {
  L.experiment("Sec 4.5", "Restart-able transfer: chunk journal vs full re-send");

  constexpr std::uint64_t kFile = 2 * kTB;  // scaled stand-in for the 40 TB case
  constexpr double kFractions[] = {0.25, 0.50, 0.90};

  std::printf("\n  interrupted at | journaled re-send (GB) | naive re-send (GB) | saved\n");
  std::printf("  ---------------+------------------------+--------------------+------\n");
  std::vector<std::pair<double, double>> runs;  // journaled, naive GB
  for (const double frac : kFractions) {
    const double j = resent_gb(frac, true, kFile);
    const double n = resent_gb(frac, false, kFile);
    std::printf("  %13.0f%% | %22.0f | %18.0f | %4.0f%%\n", frac * 100.0, j, n,
                100.0 * (1.0 - j / n));
    runs.emplace_back(j, n);
  }

  bench::section("paper vs measured");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const double pct = kFractions[i] * 100.0;
    const auto& [j, n] = runs[i];
    L.row(fmt("sec45.resend_%.0f", pct),
          fmt("re-send after %.0f%% interrupt", pct), "only the bad chunks",
          fmt("%.0f GB", j) + " vs " + fmt("%.0f GB naive", n),
          Claim::order(j, Op::Lt, n));
  }
  const double saved90 = 1.0 - runs[2].first / runs[2].second;
  L.row("sec45.saved_90", "bytes saved after 90% interrupt",
        "only the bad chunks", fmt("%.0f%% of bytes saved", saved90 * 100.0),
        Claim::report(saved90));
  std::printf("\n  (For the paper's 40 TB file a 90%%-complete interrupt saves\n"
              "   ~36 TB of re-copy; scaled proportionally here.)\n");

  for (const FaultPlanSpec& p : kFaultPlans) {
    L.experiment("Sec 4.5 (fault matrix)",
                 std::string("Recovery under injected faults: ") + p.spec);
    const FaultOutcome out = run_fault_plan(p.spec);
    bench::section("paper vs measured");
    const std::string id = std::string("faults.") + p.name;
    L.row(id + ".unrecovered", "unrecovered files", "none",
          std::to_string(out.unrecovered),
          Claim::bound(out.unrecovered, Op::Eq, 0));
    L.row(id + ".repaired", "faults repaired", "every injected fault",
          of(out.repaired, out.injected), Claim::equal(out.repaired, out.injected));
  }
}

}  // namespace cpa::bench::sec45
