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
// Ledger rows: sec64.* (8 tethered servers finish before 1, B=1) and
// md_batch.* (batched finishes before one-by-one, at every server
// count).  The one-server speedups are report rows: they follow from the
// cost formula batch_cost(n) = base + per_op*n, ~6.4x at B=16, which a
// unit test already asserts.
#include <cstdio>
#include <string>
#include <vector>

#include "archive/system.hpp"
#include "bench/ledger.hpp"
#include "hsm/txn_batch.hpp"
#include "workload/tree.hpp"

namespace cpa::bench::md_batch {
namespace {

using Op = Claim::Op;

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

void run(Ledger& L) {
  constexpr unsigned kTxns = 20'000;
  constexpr unsigned kFiles = 2'000;

  L.experiment("Sec 6.4 + batching",
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

  struct Point {
    unsigned servers;
    double storm_plain, storm_batch, del_plain, del_batch;  // seconds
  };
  std::vector<Point> points;
  for (const unsigned servers : {1u, 2u, 4u, 8u}) {
    const double storm_plain = txn_storm_seconds(servers, kTxns, false);
    const double storm_batch = txn_storm_seconds(servers, kTxns, true);
    const double del_plain = sync_delete_seconds(servers, kFiles, false);
    const double del_batch = sync_delete_seconds(servers, kFiles, true);
    std::printf(
        "  %7u | %16.1f | %17.1f | %6.1fx | %17.1f | %18.1f | %5.1fx\n",
        servers, storm_plain, storm_batch, storm_plain / storm_batch,
        del_plain, del_batch, del_plain / del_batch);
    points.push_back({servers, storm_plain, storm_batch, del_plain, del_batch});
  }

  const auto secs_vs = [](double a, double b) {
    return fmt("%.2f s", a) + " vs " + fmt("%.2f s", b);
  };
  const Point& one = points.front();
  const Point& eight = points.back();
  bench::section("paper vs measured");
  L.row("sec64.txn_rate", "single-server txn throughput",
        "the scale limitation",
        fmt("%.0f txn/s", static_cast<double>(kTxns) / one.storm_plain),
        Claim::report(static_cast<double>(kTxns) / one.storm_plain));
  L.row("sec64.storm", "8 tethered servers (txn storm)", "scales with servers",
        fmt("%.1fx faster, ", one.storm_plain / eight.storm_plain) +
            secs_vs(eight.storm_plain, one.storm_plain),
        Claim::order(eight.storm_plain, Op::Lt, one.storm_plain));
  L.row("sec64.delete", "8 tethered servers (delete sweep)",
        "scales with servers",
        fmt("%.1fx faster, ", one.del_plain / eight.del_plain) +
            secs_vs(eight.del_plain, one.del_plain),
        Claim::order(eight.del_plain, Op::Lt, one.del_plain));
  // Batching composes with tethering: batched wins at every server count.
  for (const Point& p : points) {
    const std::string n = std::to_string(p.servers);
    L.row("md_batch.storm_s" + n, n + " server(s): storm, batched",
          "amortized group commit", secs_vs(p.storm_batch, p.storm_plain),
          Claim::order(p.storm_batch, Op::Lt, p.storm_plain));
    L.row("md_batch.delete_s" + n, n + " server(s): delete, batched",
          "amortized group commit", secs_vs(p.del_batch, p.del_plain),
          Claim::order(p.del_batch, Op::Lt, p.del_plain));
  }
  L.row("md_batch.storm_speedup", "1-server storm speedup (batch_cost)",
        "base + per_op*n", fmt("%.3fx", one.storm_plain / one.storm_batch),
        Claim::report(one.storm_plain / one.storm_batch));
  L.row("md_batch.delete_speedup", "1-server delete speedup (batch_cost)",
        "base + per_op*n", fmt("%.3fx", one.del_plain / one.del_batch),
        Claim::report(one.del_plain / one.del_batch));
}

}  // namespace cpa::bench::md_batch
