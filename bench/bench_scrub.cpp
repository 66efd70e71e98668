// Scrubber experiment: tape-ordered vs naive scan order, plus the full
// repair lattice under injected silent corruption.
//
// Three integrity scenarios exercise every rung of the repair lattice
// (Sec 4.1's copy pools are the safety net; the scrubber is the process
// that cashes them in):
//   copy_pool    duplicate volumes clean -> every bad segment rewritten
//                from the copy pool,
//   premigrated  no duplicates but disk data still premigrated -> every
//                bad segment re-migrated from the filesystem,
//   no_source    stubs only, no duplicates -> unrepairable, reported
//                exactly once (a re-scrub stays silent).
// Each scenario injects a known number of corruptions; its ledger rows
// (scrub.<scenario>.*) check that every one was injected, detected and
// resolved by the rung that applies, and that a re-scrub finds nothing.
//
// The scan-order scenario measures why the scrubber walks fixity rows in
// (cartridge, tape_seq) order: files archived round-robin over several
// colocation groups interleave volumes in the fixity table, so the
// archive-order (row id) baseline pays a robot exchange on nearly every
// row while the tape-ordered walk pays one mount per volume (the
// Sec 4.2.5 tape-order lesson applied to scrubbing).
//
// scrub.mounts and scrub.order check that tape order pays fewer mounts
// and less time.
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/ledger.hpp"
#include "hsm/hsm.hpp"
#include "simcore/units.hpp"

namespace cpa::bench::scrub {
namespace {

using Op = Claim::Op;

constexpr std::uint64_t kFileBytes = 64 * kMB;

pfs::FsConfig fs_config() {
  pfs::FsConfig cfg;
  cfg.pools = {pfs::PoolConfig{"fast", 0, 4, false}};
  return cfg;
}

tape::LibraryConfig lib_config() {
  tape::LibraryConfig cfg;
  cfg.drive_count = 4;
  return cfg;
}

hsm::HsmConfig hsm_config(unsigned copies, bool punch) {
  hsm::HsmConfig cfg;
  cfg.tape_copies = copies;
  cfg.punch_after_migrate = punch;
  return cfg;
}

/// One self-contained archive plant with `files` regular files migrated
/// to colocation group "g" (plus copy pools when copies > 1).
struct Plant {
  sim::Simulation sim;
  sim::FlowNetwork net{sim};
  pfs::FileSystem fs;
  tape::TapeLibrary lib;
  hsm::HsmSystem hsm;
  std::vector<std::string> paths;

  /// `groups` > 1 archives file i to colocation group "g<i % groups>" one
  /// file at a time, so consecutive fixity rows land on different volumes
  /// (the ingest pattern that makes archive-order scrubbing pathological).
  Plant(unsigned copies, bool punch, unsigned files, unsigned groups = 1)
      : fs(sim, fs_config()),
        lib(sim, net, lib_config()),
        hsm(sim, net, fs, lib, hsm::Fabric::unconstrained(),
            hsm_config(copies, punch)) {
    for (unsigned i = 0; i < files; ++i) {
      const std::string p = "/arch/f" + std::to_string(i);
      fs.mkdirs(pfs::parent_path(p));
      fs.create(p);
      fs.write_all(p, kFileBytes, 0x9000 + i);
      paths.push_back(p);
    }
    if (groups <= 1) {
      hsm.migrate_batch(0, paths, "g", nullptr);
      sim.run();
    } else {
      for (unsigned i = 0; i < files; ++i) {
        hsm.migrate_batch(0, {paths[i]}, "g" + std::to_string(i % groups),
                          nullptr);
        sim.run();
      }
    }
  }

  /// Flips exactly `count` live segments into silent corruption, spread
  /// over the cartridges selected by `primaries_only` (true skips the
  /// "~copyN" duplicate volumes so the copy pool stays clean).
  std::uint64_t inject(std::uint64_t count, std::uint64_t seed,
                       bool primaries_only) {
    std::uint64_t injected = 0;
    lib.for_each_cartridge([&](tape::Cartridge& c) {
      if (injected >= count) return;
      if (primaries_only &&
          c.colocation_group().find("~copy") != std::string::npos) {
        return;
      }
      injected += c.corrupt_random_segments(count - injected, seed + c.id());
    });
    return injected;
  }

  integrity::ScrubReport scrub(bool tape_ordered) {
    integrity::ScrubConfig cfg;
    cfg.tape_ordered = tape_ordered;
    std::optional<integrity::ScrubReport> out;
    hsm.scrub(cfg, [&](const integrity::ScrubReport& r) { out = r; });
    sim.run();
    return *out;
  }
};

struct ScenarioResult {
  std::string name;
  std::uint64_t requested = 0;
  std::uint64_t injected = 0;
  std::uint64_t detected = 0;
  std::uint64_t repaired_from_copy = 0;
  std::uint64_t remigrated = 0;
  std::uint64_t unrepairable = 0;
  std::uint64_t rescrub_mismatches = 0;  // must be 0: repaired or reported once
};

/// Injects `n` corruptions, scrubs, then scrubs again: the second pass
/// proves repairs stuck and unrepairables are not re-reported.
ScenarioResult run_scenario(const std::string& name, unsigned copies,
                            bool punch, unsigned files, std::uint64_t n,
                            std::uint64_t seed, bool primaries_only) {
  Plant plant(copies, punch, files);
  ScenarioResult r;
  r.name = name;
  r.requested = n;
  r.injected = plant.inject(n, seed, primaries_only);
  const integrity::ScrubReport first = plant.scrub(/*tape_ordered=*/true);
  const integrity::ScrubReport second = plant.scrub(/*tape_ordered=*/true);
  r.detected = first.mismatches;
  r.repaired_from_copy = first.repaired_from_copy;
  r.remigrated = first.remigrated;
  r.unrepairable = first.unrepairable;
  r.rescrub_mismatches = second.mismatches;
  return r;
}

struct OrderResult {
  std::uint64_t segments = 0;
  double tape_ordered_seconds = 0;
  double naive_seconds = 0;
  std::uint64_t tape_ordered_mounts = 0;
  std::uint64_t naive_mounts = 0;

  [[nodiscard]] double speedup() const {
    return tape_ordered_seconds > 0 ? naive_seconds / tape_ordered_seconds : 0;
  }
};

/// Clean (no corruption) scan-cost comparison on identical plants.  Files
/// archived round-robin over four colocation groups interleave volumes in
/// the fixity table, so archive order pays a robot exchange on almost
/// every row while tape order pays one mount per volume.
OrderResult run_order_comparison(unsigned files) {
  OrderResult out;
  for (const bool tape_ordered : {true, false}) {
    Plant plant(/*copies=*/1, /*punch=*/true, files, /*groups=*/4);
    const std::uint64_t mounts0 = plant.lib.aggregate_stats().mounts;
    const integrity::ScrubReport rep = plant.scrub(tape_ordered);
    const double secs = sim::to_seconds(rep.finished - rep.started);
    const std::uint64_t mounts = plant.lib.aggregate_stats().mounts - mounts0;
    out.segments = rep.segments_scanned;
    if (tape_ordered) {
      out.tape_ordered_seconds = secs;
      out.tape_ordered_mounts = mounts;
    } else {
      out.naive_seconds = secs;
      out.naive_mounts = mounts;
    }
  }
  return out;
}

}  // namespace

void run(Ledger& L) {
  constexpr std::uint64_t kSeed = 42;
  constexpr unsigned kFiles = 40;
  constexpr std::uint64_t kInject = 10;

  L.experiment("Scrub", "fixity scrubbing: repair lattice + tape-ordered scan");

  const ScenarioResult scenarios[] = {
      run_scenario("copy_pool", /*copies=*/2, /*punch=*/true, kFiles, kInject,
                   kSeed, /*primaries_only=*/true),
      run_scenario("premigrated", /*copies=*/1, /*punch=*/false, kFiles,
                   kInject, kSeed, /*primaries_only=*/false),
      run_scenario("no_source", /*copies=*/1, /*punch=*/true, kFiles, kInject,
                   kSeed, /*primaries_only=*/false)};

  std::printf("  scenario     | injected | detected | copy-fix | remigr | unrep | re-scrub\n");
  std::printf("  -------------+----------+----------+----------+--------+-------+---------\n");
  for (const ScenarioResult& s : scenarios) {
    std::printf("  %-12s | %8" PRIu64 " | %8" PRIu64 " | %8" PRIu64
                " | %6" PRIu64 " | %5" PRIu64 " | %8" PRIu64 "\n",
                s.name.c_str(), s.injected, s.detected, s.repaired_from_copy,
                s.remigrated, s.unrepairable, s.rescrub_mismatches);
  }

  const OrderResult order = run_order_comparison(kFiles);
  bench::section("scan order (clean pass, 4 interleaved groups)");
  std::printf("  order        | segments | mounts | virtual seconds\n");
  std::printf("  -------------+----------+--------+----------------\n");
  std::printf("  tape-ordered | %8" PRIu64 " | %6" PRIu64 " | %15.0f\n",
              order.segments, order.tape_ordered_mounts,
              order.tape_ordered_seconds);
  std::printf("  archive-order| %8" PRIu64 " | %6" PRIu64 " | %15.0f\n",
              order.segments, order.naive_mounts, order.naive_seconds);

  bench::section("paper vs measured");
  // The rung on which each scenario must resolve every corruption.
  const std::uint64_t resolved[] = {scenarios[0].repaired_from_copy,
                                    scenarios[1].remigrated,
                                    scenarios[2].unrepairable};
  const char* const rung[] = {"repaired from the copy pool",
                              "re-migrated from disk", "reported unrepairable"};
  for (std::size_t i = 0; i < std::size(scenarios); ++i) {
    const ScenarioResult& s = scenarios[i];
    const std::string id = "scrub." + s.name;
    L.row(id + ".injected", s.name + ": corruptions injected", "as requested",
          of(s.injected, s.requested),
          Claim::bound(s.injected, Op::Eq, s.requested));
    L.row(id + ".detected", s.name + ": detected", "100%",
          of(s.detected, s.injected), Claim::equal(s.detected, s.injected));
    L.row(id + ".resolved", s.name + ": " + rung[i], "100%",
          of(resolved[i], s.injected), Claim::equal(resolved[i], s.injected));
    L.row(id + ".rescrub", s.name + ": re-scrub mismatches", "none",
          std::to_string(s.rescrub_mismatches),
          Claim::bound(s.rescrub_mismatches, Op::Eq, 0));
  }
  L.row("scrub.mounts", "tape-ordered scrub mounts", "one mount per volume",
        std::to_string(order.tape_ordered_mounts) + " vs " +
            std::to_string(order.naive_mounts) + " archive-order",
        Claim::order(order.tape_ordered_mounts, Op::Lt, order.naive_mounts));
  L.row("scrub.order", "tape-ordered scrub speedup", "one mount per volume",
        fmt("%.1fx", order.speedup()),
        Claim::order(order.tape_ordered_seconds, Op::Lt, order.naive_seconds));
}

}  // namespace cpa::bench::scrub
