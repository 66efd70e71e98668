// A miniature Open Science campaign (Sec 5): several archive jobs with
// wildly different file-size profiles submitted over a few operation
// days, contending for the trunks while ILM migration drains the fast
// pool to tape in the background.
//
//   ./open_science_campaign
#include <cstdio>
#include <functional>

#include "archive/system.hpp"
#include "workload/campaign.hpp"
#include "workload/tree.hpp"

int main() {
  using namespace cpa;
  archive::CotsParallelArchive sys(archive::SystemConfig::roadrunner());

  // A 10-job, 3-day campaign drawn from the paper-calibrated generator.
  workload::CampaignConfig wl;
  wl.jobs = 10;
  wl.operation_days = 3.0;
  wl.file_count_scale = 0.002;
  wl.max_materialized_files = 500;
  wl.preserve_total_bytes = true;
  wl.seed = 7;
  const auto specs = workload::CampaignGenerator(wl).generate();

  // Background ILM migration cycle every 6 hours.
  pfs::Rule rule;
  rule.name = "drain";
  rule.action = pfs::Rule::Action::List;
  rule.where = {pfs::Condition::path_glob("/proj/*"),
                pfs::Condition::dmapi_is(pfs::DmapiState::Resident),
                pfs::Condition::age_ge(3600)};
  sys.policy().add_rule(rule);
  std::uint64_t migrated_total = 0;
  // Lives until main returns, after the simulation has run dry.
  std::function<void()> cycle = [&] {
    if (sys.sim().now() > sim::days(5)) return;
    sys.run_migration_cycle("drain", "opensci",
                            [&](const hsm::MigrateReport& r) {
                              migrated_total += r.files_migrated;
                              sys.sim().after(sim::hours(6), [&] { cycle(); });
                            });
  };
  sys.sim().at(sim::hours(3), [&] { cycle(); });

  std::printf("job | submit   | files(real) |   data   | avg file  | rate\n");
  std::printf("----+----------+-------------+----------+-----------+---------\n");

  struct Row {
    workload::JobSpec spec;
    pftool::JobReport report;
  };
  std::vector<Row> rows(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    rows[i].spec = specs[i];
    workload::TreeSpec tree;
    tree.root = "/scratch/job" + std::to_string(specs[i].job_id);
    tree.file_sizes = specs[i].file_sizes;
    workload::build_tree(sys.scratch(), tree);
    // Realistic job profile: a few movers, single-stream client ceiling.
    pftool::PftoolConfig job_cfg = sys.config().pftool;
    job_cfg.num_workers = 2 + static_cast<unsigned>(i % 5);
    job_cfg.per_stream_max_bps = 200.0 * static_cast<double>(kMB);
    sys.sim().at(specs[i].submit_time, [&sys, &rows, i, job_cfg] {
      const auto& spec = rows[i].spec;
      sys.submit(archive::JobSpec::pfcp(
                         "/scratch/job" + std::to_string(spec.job_id),
                         "/proj/job" + std::to_string(spec.job_id))
                     .with_config(job_cfg))
          .on_done([&rows, i](const pftool::JobReport& r) {
            rows[i].report = r;
          });
    });
  }
  sys.sim().run();

  double sum_rate = 0;
  for (const Row& row : rows) {
    const double mbs = row.report.rate_bps() / static_cast<double>(kMB);
    sum_rate += mbs;
    std::printf("%3u | %8s | %11llu | %8s | %9s | %6.0f MB/s\n",
                row.spec.job_id,
                sim::format_duration(row.spec.submit_time).c_str(),
                static_cast<unsigned long long>(row.spec.file_count),
                format_bytes(row.spec.total_bytes).c_str(),
                format_bytes(row.spec.avg_file_size).c_str(), mbs);
  }
  std::printf("\nmean job rate: %.0f MB/s (paper campaign mean: ~575 MB/s)\n",
              sum_rate / static_cast<double>(rows.size()));
  std::printf("background ILM migrated %llu files to tape during the campaign\n",
              static_cast<unsigned long long>(migrated_total));
  const auto tape_stats = sys.library().aggregate_stats();
  std::printf("tape plant: %llu mounts, %s written on %zu cartridges\n",
              static_cast<unsigned long long>(tape_stats.mounts),
              format_bytes(tape_stats.bytes_written).c_str(),
              sys.library().cartridge_count());
  return 0;
}
