// Sec 6.4 "Single TSM Server", and the metadata batching that answers it.
//
//   "Having a single TSM server creates a single point of a failure ...
//    It also creates a limitation when we need to scale beyond what a
//    single TSM server can provide.  In our current archive, scalability
//    is not an issue, but could be in future archives that have more than
//    hundreds of millions of files.  By leveraging the remote file system
//    feature of GPFS, it might be possible to tether multiple archive
//    file systems together thus allowing for multiple TSM servers."
//
// The wall is metadata, not data: every migrate/recall/delete pays one
// full server round-trip per mutation, serialized FIFO on one TSM server.
// Every mutation goes through a TxnSession; at batch size B=1 that is the
// paper's stop-and-wait round-trip, and at B=16 the session group-commits
// up to 16 mutations into one amortized round-trip (batch_cost(n)) with
// up to four round-trips in flight.  Two measurements, B=1 (1-by-1) vs
// B=16 (batched), against 1..8 hash-routed servers:
//   (a) a bookkeeping txn storm — the per-object work a hundreds-of-
//       millions-file archive generates, the pure-metadata worst case;
//   (b) a synchronous-delete sweep — two dependent round-trips per file
//       through the real HSM delete path.
// The 1-by-1 columns over 1..8 servers are the paper's proposed fix
// (tethered servers); the batched columns are the CASTOR-style one.
//
// Correctness gate (exit non-zero): the one-server storm must speed up by
// >=5x batched-over-1-by-1 — the acceptance bar; the cost model alone
// provides ~6.4x at B=16.
//
// Output: a human table plus BENCH_md_batch.json, one record per server
// count.  Flags: --smoke, --json=PATH.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "archive/system.hpp"
#include "bench/common.hpp"
#include "hsm/txn_batch.hpp"
#include "workload/tree.hpp"

namespace {

using namespace cpa;

constexpr sim::Tick kTxnCost = sim::msecs(20);  // loaded TSM server
constexpr unsigned kBatch = 16;

archive::SystemConfig plant(unsigned servers, bool batched) {
  archive::SystemConfig cfg = archive::SystemConfig::roadrunner();
  cfg.hsm.server_count = servers;
  cfg.hsm.server.metadata_txn_cost = kTxnCost;
  if (batched) cfg.hsm.server.md_batch_size = kBatch;
  return cfg;
}

/// The bookkeeping storm: `txns` object-DB mutations spread over the
/// servers, each submitted to its server's session.
double txn_storm_seconds(unsigned servers, unsigned txns, bool batched) {
  archive::CotsParallelArchive sys(plant(servers, batched));
  for (unsigned i = 0; i < txns; ++i) {
    const std::string path = "/proj/f" + std::to_string(i);
    sys.hsm().session_for(sys.hsm().server_for(path)).submit([] {});
  }
  for (unsigned i = 0; i < sys.hsm().server_count(); ++i) {
    sys.hsm().session_for(sys.hsm().server(i)).flush();
  }
  sys.sim().run();
  return sim::to_seconds(sys.sim().now());
}

/// Synchronous-delete sweep through the full HSM path (lookup join +
/// cascade delete per file); the batch size is the only difference.
double sync_delete_seconds(unsigned servers, unsigned files, bool batched) {
  archive::CotsParallelArchive sys(plant(servers, batched));
  workload::TreeSpec tree;
  tree.root = "/proj/data";
  for (unsigned i = 0; i < files; ++i) tree.file_sizes.push_back(kMB);
  workload::build_tree(sys.archive_fs(), tree);
  std::vector<std::string> paths;
  for (unsigned i = 0; i < files; ++i) {
    paths.push_back(workload::tree_file_path(tree, i));
  }
  sys.hsm().parallel_migrate(paths, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
                             hsm::DistributionStrategy::SizeBalanced, "g",
                             nullptr);
  sys.sim().run();

  const sim::Tick t0 = sys.sim().now();
  for (const auto& p : paths) {
    sys.hsm().synchronous_delete(p, nullptr);
  }
  sys.sim().run();
  return sim::to_seconds(sys.sim().now() - t0);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_md_batch.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }
  const unsigned kTxns = smoke ? 4'000 : 20'000;
  const unsigned kFiles = smoke ? 500 : 2'000;

  bench::header("Sec 6.4 + batching",
                "Group-committed metadata vs stop-and-wait round-trips");
  std::printf(
      "\n  B=%u W=%u, txn cost %.0f ms; storm = %u txns, delete = %u files\n",
      kBatch, hsm::TxnSession::kWindow, sim::to_seconds(kTxnCost) * 1e3, kTxns,
      kFiles);
  std::printf(
      "\n  servers | storm 1-by-1 (s) | storm batched (s) | speedup |"
      " delete 1-by-1 (s) | delete batched (s) | speedup\n"
      "  --------+------------------+-------------------+---------+"
      "-------------------+--------------------+--------\n");

  std::string json = "[\n";
  double storm_speedup1 = 0;
  double storm1 = 0, storm8 = 0, del1 = 0, del8 = 0;  // 1-by-1 columns
  bool first = true;
  for (const unsigned servers : {1u, 2u, 4u, 8u}) {
    const double storm_plain = txn_storm_seconds(servers, kTxns, false);
    const double storm_batch = txn_storm_seconds(servers, kTxns, true);
    const double del_plain = sync_delete_seconds(servers, kFiles, false);
    const double del_batch = sync_delete_seconds(servers, kFiles, true);
    const double storm_speedup = storm_plain / storm_batch;
    const double del_speedup = del_plain / del_batch;
    if (servers == 1) {
      storm_speedup1 = storm_speedup;
      storm1 = storm_plain;
      del1 = del_plain;
    }
    if (servers == 8) {
      storm8 = storm_plain;
      del8 = del_plain;
    }
    std::printf(
        "  %7u | %16.1f | %17.1f | %6.1fx | %17.1f | %18.1f | %5.1fx\n",
        servers, storm_plain, storm_batch, storm_speedup, del_plain,
        del_batch, del_speedup);
    char row[512];
    std::snprintf(row, sizeof(row),
                  "%s  {\"case\": \"s%u\", \"servers\": %u, "
                  "\"storm_plain_s\": %.3f, \"storm_batched_s\": %.3f, "
                  "\"storm_speedup\": %.3f, \"delete_plain_s\": %.3f, "
                  "\"delete_batched_s\": %.3f, \"delete_speedup\": %.3f}",
                  first ? "" : ",\n", servers, servers, storm_plain,
                  storm_batch, storm_speedup, del_plain, del_batch,
                  del_speedup);
    json += row;
    first = false;
  }
  json += "\n]\n";
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\n  wrote %s\n", json_path.c_str());
  }

  bench::section("paper vs measured");
  bench::compare("single-server txn throughput", "the scale limitation",
                 bench::fmt("%.0f txn/s", static_cast<double>(kTxns) / storm1));
  bench::compare("8 tethered servers (txn storm)", "scales with servers",
                 bench::fmt("%.1fx faster", storm1 / storm8));
  bench::compare("8 tethered servers (delete sweep)", "scales with servers",
                 bench::fmt("%.1fx faster", del1 / del8));
  bench::compare("single-server storm, batched",
                 "amortized group commit",
                 bench::fmt("%.1fx faster than stop-and-wait",
                            storm_speedup1));

  if (storm_speedup1 < 5.0) {
    std::fprintf(stderr,
                 "FAIL: one-server storm speedup %.2fx < 5x acceptance bar\n",
                 storm_speedup1);
    return 1;
  }
  return 0;
}
