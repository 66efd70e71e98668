// Catalog memory and host cost: what one migrated file costs the metadata
// tables that locate it on tape.
//
// Sec 4.2.5: PFTool finds a file's (tape id, tape seq) through an indexed
// MySQL export of the TSM database.  The plant keeps two metadb tables per
// migrated file: the archive server's object catalog, which carries that
// export as two more indexes (GPFS file id and path hash; the path itself
// is the row's), and the fixity table (indexed by object).  At the
// paper's ~14.6 M files their footprint decides whether the campaign fits
// in memory at all, so this experiment fills an ArchiveServer and a
// FixityDb with N rows shaped like archbench's restore workload — paths
// /proj/u/dD/fF, 30 files per directory and per cartridge, one fixity row
// per object — and reports
//   * live heap bytes per file for each table and in total (glibc
//     mallinfo2 delta around each fill, rows built inside the window so
//     their path strings count), and
//   * host ns per staged file (catalog record + fixity add) and per
//     by_path and by_gpfs_file_id query through the server's export
//     (fastest of several passes).
// Row counts are deterministic; bytes per file depend only on the row
// layout and the allocator; host ns are wall-clock.
//
// run() returns false if the 100k-file total exceeds 300 bytes per file.
// Rows: catalog.10000 and catalog.100000.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "hsm/server.hpp"
#include "integrity/fixity.hpp"
#include "pfs/common.hpp"
#include "simcore/flow_network.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"

namespace cpa::bench::catalog {
namespace {

constexpr std::uint64_t kFilesPerDir = 30;  // one directory per cartridge
constexpr int kPasses = 3;
constexpr double kMaxBytesPerFile = 300.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

hsm::ArchiveObject object_row(std::uint64_t i) {
  hsm::ArchiveObject o;
  o.object_id = i + 1;
  o.path = "/proj/u/d" + std::to_string(i / kFilesPerDir) + "/f" +
           std::to_string(i % kFilesPerDir);
  // One directory inode ahead of each directory's files.
  o.gpfs_file_id = pfs::FileId{4 + i + i / kFilesPerDir, 1}.packed();
  o.size_bytes = (1 + i % 97) * 1'000'000;
  o.content_tag = integrity::fixity_mix(i);
  o.cartridge_id = 1 + i / kFilesPerDir;
  o.tape_seq = 1 + i % kFilesPerDir;
  return o;
}

// Records object `i` with its colocation group, one per directory.
void record(hsm::ArchiveServer& server, hsm::ArchiveObject o, std::uint64_t i) {
  o.group = server.group_id("u" + std::to_string(i / kFilesPerDir));
  server.record_object(std::move(o));
}

void add_fixity(integrity::FixityDb& db, const hsm::ArchiveObject& o) {
  db.add(o.object_id, o.cartridge_id, o.tape_seq, o.size_bytes,
         integrity::fixity_checksum(o.object_id, o.size_bytes, 0, 1), 0);
}

struct Result {
  std::uint64_t files = 0;
  std::size_t rows_objects = 0;
  std::size_t rows_export = 0;
  std::size_t rows_fixity = 0;
  double objects_bytes = 0;  // per file, the export's indexes included
  double fixity_bytes = 0;
  double upsert_ns = 0;
  double by_path_ns = 0;
  double by_gpfs_file_id_ns = 0;
  [[nodiscard]] double bytes_per_file() const { return objects_bytes + fixity_bytes; }
};

// Live heap each table holds.
void measure_memory(std::uint64_t n, Result& r) {
  sim::Simulation sim;
  sim::FlowNetwork net(sim);
  const auto per_file = [n](std::size_t before, std::size_t after) {
    return static_cast<double>(after - before) / static_cast<double>(n);
  };

  std::size_t h0 = heap_in_use();
  hsm::ArchiveServer server(sim, net, "tsm0", hsm::ServerConfig{});
  for (std::uint64_t i = 0; i < n; ++i) record(server, object_row(i), i);
  r.objects_bytes = per_file(h0, heap_in_use());
  r.rows_objects = server.object_count();
  r.rows_export = server.export_db().size();

  h0 = heap_in_use();
  integrity::FixityDb fixity;
  for (std::uint64_t i = 0; i < n; ++i) add_fixity(fixity, object_row(i));
  r.fixity_bytes = per_file(h0, heap_in_use());
  r.rows_fixity = fixity.size();
}

// Fastest of kPasses runs of `fn`, in ns per call (`calls` calls a run).
template <typename Fn>
double best_ns(std::uint64_t calls, Fn&& fn) {
  double best = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double s = seconds_since(t0);
    if (pass == 0 || s < best) best = s;
  }
  return best * 1e9 / static_cast<double>(calls);
}

void measure_time(std::uint64_t n, Result& r) {
  std::vector<hsm::ArchiveObject> objects;
  objects.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) objects.push_back(object_row(i));

  // Staging: each pass records every file into a fresh catalog.
  r.upsert_ns = best_ns(n, [&] {
    sim::Simulation sim;
    sim::FlowNetwork net(sim);
    hsm::ArchiveServer server(sim, net, "tsm0", hsm::ServerConfig{});
    integrity::FixityDb fixity;
    for (std::uint64_t i = 0; i < n; ++i) {
      record(server, objects[i], i);
      add_fixity(fixity, objects[i]);
    }
  });

  sim::Simulation sim;
  sim::FlowNetwork net(sim);
  hsm::ArchiveServer server(sim, net, "tsm0", hsm::ServerConfig{});
  for (std::uint64_t i = 0; i < n; ++i) record(server, objects[i], i);
  const auto& db = server.export_db();
  // Queries in a seeded random order, so the walk is not a sequential one.
  sim::Rng rng(2009);
  std::vector<std::uint64_t> order(n);
  for (std::uint64_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  std::uint64_t sink = 0;
  r.by_path_ns = best_ns(n, [&] {
    for (const std::uint64_t i : order) sink += db.by_path(objects[i].path)->tape_seq;
  });
  r.by_gpfs_file_id_ns = best_ns(n, [&] {
    for (const std::uint64_t i : order) {
      sink += db.by_gpfs_file_id(objects[i].gpfs_file_id)->tape_seq;
    }
  });
  if (sink == 0) std::printf("  (empty catalog)\n");
}

}  // namespace

bool run(std::vector<std::string>& records) {
  header("Sec 4.2.5", "metadb catalog memory and host cost per migrated file");

  std::vector<Result> results;
  for (const std::uint64_t n : {10'000ULL, 100'000ULL}) {
    Result r;
    r.files = n;
    measure_memory(n, r);
    measure_time(n, r);
    results.push_back(r);
  }

  std::printf("\n  %7s | %-19s | %7s | %-26s\n", "files", "heap B/file obj/fix",
              "total", "host ns: stage / path / fid");
  std::printf("  --------+---------------------+---------+---------------------------\n");
  for (const Result& r : results) {
    std::printf("  %7llu | %7.1f / %7.1f   | %7.1f | %7.0f / %6.0f / %6.0f\n",
                static_cast<unsigned long long>(r.files), r.objects_bytes,
                r.fixity_bytes, r.bytes_per_file(), r.upsert_ns, r.by_path_ns,
                r.by_gpfs_file_id_ns);
    char rec[512];
    std::snprintf(rec, sizeof(rec),
                  "{\"id\": \"catalog.%llu\", \"files\": %llu, \"rows_objects\": %zu, "
                  "\"rows_export\": %zu, \"rows_fixity\": %zu, "
                  "\"objects_bytes_per_file\": %.1f, \"fixity_bytes_per_file\": %.1f, "
                  "\"bytes_per_file\": %.1f, \"upsert_ns\": %.1f, \"by_path_ns\": %.1f, "
                  "\"by_gpfs_file_id_ns\": %.1f}",
                  static_cast<unsigned long long>(r.files),
                  static_cast<unsigned long long>(r.files), r.rows_objects,
                  r.rows_export, r.rows_fixity, r.objects_bytes, r.fixity_bytes,
                  r.bytes_per_file(), r.upsert_ns, r.by_path_ns, r.by_gpfs_file_id_ns);
    records.emplace_back(rec);
  }

  const Result& big = results.back();
  std::printf("\n  catalog bytes per migrated file: %.0f B, %.1f GB projected at "
              "the paper's 14.6 M files\n",
              big.bytes_per_file(), big.bytes_per_file() * 14.6e6 / 1e9);
  if (big.bytes_per_file() > kMaxBytesPerFile) {
    std::fprintf(stderr, "  error: %.0f bytes per file at %llu files exceeds %.0f\n",
                 big.bytes_per_file(), static_cast<unsigned long long>(big.files),
                 kMaxBytesPerFile);
    return false;
  }
  return true;
}

}  // namespace cpa::bench::catalog
