// Sec 4.2.1: "Based on performance testing in our environment, GPFS can
// scan one million inodes in ten minutes.  This indicates that GPFS
// scales well under a heavy load ... and is a good fit in a parallel
// archive."
//
// The 1M-inode scan time follows from the calibrated scan rate, and
// paper_check pins it (rows sec421.*).  This experiment measures what the
// ledger cannot: the host cost of real policy scans.  It builds a
// namespace, runs policy scans over it, and reports each scan's virtual
// time next to its host cost per inode.  Both scans cover the same 50k
// files, 95% of them migrated:
//   * all_files    -- a List rule without conditions: every regular file
//                     matches, so every file's path is built;
//   * ilm_campaign -- the campaign's ILM rule (/proj/* + Resident + age
//                     >= 30 min): every inode is tested, but only the
//                     resident files get a path.
// Inodes, matches and virtual scan time are deterministic; host ns/inode
// is the fastest of several repetitions of the same scan.  Each record also
// carries the namespace's heap bytes per inode: the live-heap growth
// (glibc mallinfo2) across the tree build over the inodes it added, which
// follows from the inode and directory-table layout and the allocator,
// and the build's path resolutions per file (FileSystem::walks): one
// make_file pass per file, plus the tree root's mkdirs.
//
// Rows: inode_scan.all_files and inode_scan.ilm_campaign.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "archive/system.hpp"
#include "bench/common.hpp"
#include "workload/tree.hpp"

namespace cpa::bench::inode_scan {
namespace {

constexpr int kFiles = 50'000;
constexpr int kResidentEvery = 20;  // every 20th file stays resident
constexpr int kRepetitions = 20;

struct ScanRow {
  std::string name;
  std::uint64_t inodes = 0;
  std::size_t matches = 0;
  sim::Tick virtual_time = 0;
  double host_ns_per_inode = 0.0;
};

ScanRow measure(std::string name, const pfs::Rule& rule,
                const pfs::FileSystem& fs) {
  pfs::PolicyEngine engine;
  engine.add_rule(rule);
  ScanRow row;
  row.name = std::move(name);
  double best_s = 0.0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const pfs::ScanReport report = engine.run_scan(fs, 1);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (rep == 0 || s < best_s) best_s = s;
    row.inodes = report.inodes_scanned;
    row.matches = report.matches.at(rule.name).size();
    row.virtual_time = report.scan_duration;
  }
  row.host_ns_per_inode = best_s * 1e9 / static_cast<double>(row.inodes);
  return row;
}

}  // namespace

bool run(std::vector<std::string>& records) {
  header("Sec 4.2.1", "GPFS policy-scan host cost per inode");

  archive::CotsParallelArchive sys(archive::SystemConfig::roadrunner());
  pfs::FileSystem& fs = sys.archive_fs();

  // A real namespace to scan, left the way the campaign's 4-hourly ILM
  // cycles leave /proj: most files migrated, all older than the rule's
  // 30 minutes.
  workload::TreeSpec tree;
  tree.root = "/proj/data";
  for (int i = 0; i < kFiles; ++i) tree.file_sizes.push_back(kMB);
  const std::uint64_t inodes_before = fs.total_inodes();
  const std::size_t heap_before = heap_in_use();
  const std::uint64_t walks_before = fs.walks();
  workload::build_tree(fs, tree);
  const double heap_bytes_per_inode =
      static_cast<double>(heap_in_use() - heap_before) /
      static_cast<double>(fs.total_inodes() - inodes_before);
  const double walks_per_file =
      static_cast<double>(fs.walks() - walks_before) / kFiles;
  for (int i = 0; i < kFiles; ++i) {
    if (i % kResidentEvery == 0) continue;
    const std::string path =
        workload::tree_file_path(tree, static_cast<std::uint64_t>(i));
    fs.premigrate(path);
    fs.punch(path);
  }
  sys.sim().run_until(sim::hours(1));

  pfs::Rule all;
  all.name = "all-files";
  all.action = pfs::Rule::Action::List;
  pfs::Rule ilm;
  ilm.name = "campaign-mig";
  ilm.action = pfs::Rule::Action::List;
  ilm.where = {pfs::Condition::path_glob("/proj/*"),
               pfs::Condition::dmapi_is(pfs::DmapiState::Resident),
               pfs::Condition::age_ge(1800)};
  const std::vector<ScanRow> rows = {measure("all_files", all, fs),
                                     measure("ilm_campaign", ilm, fs)};

  std::printf("\n  %-12s | %7s | %7s | %-13s | %s\n", "scan", "inodes",
              "matches", "virtual scan", "host ns/inode");
  std::printf("  -------------+---------+---------+---------------+--------------\n");
  for (const ScanRow& r : rows) {
    std::printf("  %-12s | %7llu | %7zu | %-13s | %.1f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.inodes), r.matches,
                sim::format_duration(r.virtual_time).c_str(), r.host_ns_per_inode);
    char rec[256];
    std::snprintf(rec, sizeof(rec),
                  "{\"id\": \"inode_scan.%s\", \"inodes\": %llu, "
                  "\"matches\": %zu, \"virtual_scan_s\": %.6f, "
                  "\"host_ns_per_inode\": %.1f, \"heap_bytes_per_inode\": %.1f, "
                  "\"walks_per_file\": %.3f}",
                  r.name.c_str(), static_cast<unsigned long long>(r.inodes),
                  r.matches, sim::to_seconds(r.virtual_time),
                  r.host_ns_per_inode, heap_bytes_per_inode, walks_per_file);
    records.emplace_back(rec);
  }
  std::printf("\n  namespace heap: %.1f B per inode; tree build: %.3f walks per file\n",
              heap_bytes_per_inode, walks_per_file);
  return true;
}

}  // namespace cpa::bench::inode_scan
