// Flow-churn microbenchmark: incremental dirty-component scheduling vs
// full from-scratch water-filling.
//
// The campaign workloads churn flows constantly (every file copy is a
// flow start + completion), but each mutation touches only the small
// connected component of pools its flow traverses.  This bench builds F
// flows spread over pool clusters with sparse overlap, then measures
// steady-state churn throughput (abort one flow + start a replacement)
// with the incremental scheduler and again with `set_full_recompute(true)`
// (the pre-incremental behaviour).
//
// One more row is shaped like the archive plant (cluster.cpp): FTA nodes
// with a NIC and an HBA each, two site trunks, one FC SAN, and
// equal-capacity scratch and archive NSD servers that a copy stripes over
// (1/w legs).  There churn comes from completions, as in the campaign:
// the loop steps to the next completion and each finished copy starts its
// replacement from its completion callback, so the completion heap is
// timed along with the solves.  Every copy crosses the SAN, so the plant
// is one component and the incremental and full modes do the same work.
//
// Every run cross-checks the incrementally maintained rates against
// `recompute_rates_reference()` bit-for-bit and exits non-zero on any
// divergence, so CI smoke runs double as a correctness gate.
//
// Output: a human table plus BENCH_flow_churn.json with one record per
// row, keyed by its flow count.
//
// Flags: --smoke (fewer ops, skip F=5000), --seed=N, --json=PATH.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "simcore/flow_network.hpp"
#include "simcore/rng.hpp"

namespace {

using namespace cpa;
using sim::FlowId;
using sim::FlowNetwork;
using sim::PathLeg;
using sim::PoolId;

constexpr double kMBd = 1e6;
constexpr int kPoolsPerCluster = 4;

struct ChurnResult {
  std::size_t flows = 0;
  std::size_t pools = 0;
  std::size_t ops = 0;
  double ops_per_sec = 0.0;
};

struct Topology {
  sim::Simulation sim;
  FlowNetwork net;
  sim::Rng rng;
  std::size_t clusters;
  std::vector<PoolId> pools;
  std::vector<FlowId> live;     // index-aligned with `cluster_of`
  std::vector<std::size_t> cluster_of;

  Topology(std::size_t flows, std::uint64_t seed)
      : net(sim), rng(seed), clusters(std::max<std::size_t>(1, flows / 50)) {
    for (std::size_t c = 0; c < clusters; ++c) {
      for (int p = 0; p < kPoolsPerCluster; ++p) {
        pools.push_back(net.add_pool(
            "c" + std::to_string(c) + "p" + std::to_string(p),
            rng.uniform(50, 200) * kMBd));
      }
    }
    for (std::size_t i = 0; i < flows; ++i) {
      const std::size_t c = i % clusters;
      live.push_back(start_in_cluster(c));
      cluster_of.push_back(c);
    }
  }

  FlowId start_in_cluster(std::size_t c) {
    // Two legs inside the cluster: enough overlap that components are
    // real (cluster-sized), sparse enough that clusters stay disjoint.
    const auto leg = [&] {
      return pools[c * kPoolsPerCluster +
                   rng.uniform_u64(0, kPoolsPerCluster - 1)];
    };
    // Big enough that nothing completes during the measured loop.
    return net.start_flow({PathLeg(leg()), PathLeg(leg())},
                          1e12 * rng.uniform(1.0, 2.0), nullptr);
  }

  /// One churn op: abort a random flow, start a replacement in the same
  /// cluster (two rate recomputes).
  void churn() {
    const std::size_t i =
        static_cast<std::size_t>(rng.uniform_u64(0, live.size() - 1));
    net.abort_flow(live[i]);
    live[i] = start_in_cluster(cluster_of[i]);
  }
};

/// Bit-exact incremental-vs-reference comparison.
bool rates_match_reference(const FlowNetwork& net) {
  const auto reference = net.recompute_rates_reference();
  const auto ids = net.live_flow_ids();
  if (reference.size() != ids.size()) return false;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (reference[i].first != ids[i].id) return false;
    if (net.flow_rate(ids[i]) != reference[i].second) return false;
  }
  return true;
}

/// The archive plant's pools and copy paths, with `flows` copies always in
/// flight: each completion starts its replacement on the same node.
struct Plant {
  static constexpr int kNodes = 10;
  static constexpr double kBlock = 4 * kMBd;  // stripe block size

  sim::Simulation sim;
  FlowNetwork net;
  sim::Rng rng;
  std::vector<PoolId> nics, hbas, trunks, scratch_nsds, archive_nsds;
  PoolId san;
  std::size_t completions = 0;

  Plant(std::size_t flows, std::uint64_t seed) : net(sim), rng(seed) {
    for (int n = 0; n < kNodes; ++n) {
      nics.push_back(add("fta" + std::to_string(n) + ".nic", 1250));
      hbas.push_back(add("fta" + std::to_string(n) + ".hba", 400));
    }
    for (int t = 0; t < 2; ++t) {
      trunks.push_back(add("trunk" + std::to_string(t), 1250));
    }
    san = add("san", 8000);
    for (int i = 0; i < 16; ++i) {
      scratch_nsds.push_back(add("scratch.nsd" + std::to_string(i), 400));
    }
    for (int i = 0; i < 10; ++i) {
      archive_nsds.push_back(add("archive.nsd" + std::to_string(i), 500));
    }
    for (std::size_t i = 0; i < flows; ++i) start_copy(static_cast<int>(i % kNodes));
  }

  PoolId add(const std::string& name, double mbs) {
    return net.add_pool(name, mbs * kMBd);
  }

  /// A file of `bytes` striped round-robin over consecutive servers from
  /// a random first one: each of the w servers carries 1/w of the rate.
  void stripe(std::vector<PathLeg>& path, const std::vector<PoolId>& nsds,
              double bytes) {
    const std::size_t w = std::min<std::size_t>(
        nsds.size(), 1 + static_cast<std::size_t>(bytes / kBlock));
    const std::size_t first =
        static_cast<std::size_t>(rng.uniform_u64(0, nsds.size() - 1));
    for (std::size_t i = 0; i < w; ++i) {
      path.emplace_back(nsds[(first + i) % nsds.size()],
                        1.0 / static_cast<double>(w));
    }
  }

  /// One pftool copy from scratch to archive through node `node`.
  void start_copy(int node) {
    const double bytes = rng.uniform(1, 256) * kMBd;
    std::vector<PathLeg> path;
    stripe(path, scratch_nsds, bytes);
    path.emplace_back(trunks[static_cast<std::size_t>(node % 2)]);
    path.emplace_back(nics[static_cast<std::size_t>(node)]);
    path.emplace_back(hbas[static_cast<std::size_t>(node)]);
    path.emplace_back(san);
    stripe(path, archive_nsds, bytes);
    net.start_flow(std::move(path), bytes, [this, node](const sim::FlowStats&) {
      ++completions;
      start_copy(node);
    });
  }
};

/// Runs the plant until `ops` copies have completed (each one a finish and
/// a start); same cross-checks as run_mode.
ChurnResult run_plant(std::size_t flows, std::uint64_t seed, std::size_t ops,
                      bool full_recompute, bool* diverged) {
  Plant plant(flows, seed);
  plant.net.set_full_recompute(full_recompute);
  const std::size_t check_every = std::max<std::size_t>(1, ops / 8);
  std::size_t next_check = check_every;
  const auto t0 = std::chrono::steady_clock::now();
  while (plant.completions < ops && plant.sim.step()) {
    if (plant.completions >= next_check) {
      next_check += check_every;
      if (!rates_match_reference(plant.net)) *diverged = true;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (!rates_match_reference(plant.net)) *diverged = true;
  const double dt = std::chrono::duration<double>(t1 - t0).count();
  ChurnResult r;
  r.flows = flows;
  r.pools = plant.net.pool_count();
  r.ops = plant.completions;
  r.ops_per_sec = dt > 0.0 ? static_cast<double>(r.ops) / dt : 0.0;
  return r;
}

/// Runs `ops` churn operations and returns throughput; `check_every > 0`
/// cross-checks rates against the reference during the loop (outside the
/// timed region cost is negligible vs the solve itself, so we keep it in —
/// both modes pay it equally).
ChurnResult run_mode(std::size_t flows, std::uint64_t seed, std::size_t ops,
                     bool full_recompute, bool* diverged) {
  Topology topo(flows, seed);
  topo.net.set_full_recompute(full_recompute);
  const std::size_t check_every = std::max<std::size_t>(1, ops / 8);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t op = 0; op < ops; ++op) {
    topo.churn();
    if (op % check_every == 0 && !rates_match_reference(topo.net)) {
      *diverged = true;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (!rates_match_reference(topo.net)) *diverged = true;
  const double dt = std::chrono::duration<double>(t1 - t0).count();
  ChurnResult r;
  r.flows = flows;
  r.pools = topo.pools.size();
  r.ops = ops;
  r.ops_per_sec = dt > 0.0 ? static_cast<double>(ops) / dt : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::uint64_t seed = 42;
  std::string json_path = "BENCH_flow_churn.json";
  bench::Cli(argv[0])
      .toggle("--smoke", smoke)
      .number("--seed", "N", seed)
      .text("--json", "FILE", json_path)
      .parse(argc, argv);

  bench::header("bench_flow_churn",
                "incremental dirty-component scheduling vs full recompute");
  std::printf("  %6s %6s | %12s %12s | %12s %12s | %8s\n", "flows", "pools",
              "inc ops", "inc ops/s", "full ops", "full ops/s", "speedup");

  std::vector<std::size_t> sizes = {10, 100, 1000};
  if (!smoke) sizes.push_back(5000);

  bool diverged = false;
  double speedup_at_1000 = 0.0;
  std::vector<std::string> rows;
  const auto add_row = [&](const char* shape, const ChurnResult& inc,
                           const ChurnResult& full) {
    const double speedup =
        full.ops_per_sec > 0.0 ? inc.ops_per_sec / full.ops_per_sec : 0.0;
    std::printf("  %6zu %6zu | %12zu %12.0f | %12zu %12.0f | %7.1fx  %s\n",
                inc.flows, inc.pools, inc.ops, inc.ops_per_sec, full.ops,
                full.ops_per_sec, speedup, shape);
    char row[256];
    std::snprintf(row, sizeof(row),
                  "  {\"flows\": %zu, \"pools\": %zu, \"shape\": \"%s\", "
                  "\"incremental_ops_per_sec\": %.1f, "
                  "\"full_ops_per_sec\": %.1f, \"speedup\": %.2f}",
                  inc.flows, inc.pools, shape, inc.ops_per_sec,
                  full.ops_per_sec, speedup);
    rows.emplace_back(row);
    return speedup;
  };
  for (const std::size_t flows : sizes) {
    // The full mode is O(F^2) per op; scale its op count down so the
    // largest points stay sub-minute while the rate estimate stays sound.
    const std::size_t inc_ops = smoke ? 2000 : 20000;
    const std::size_t full_ops =
        std::max<std::size_t>(smoke ? 20 : 50, (smoke ? 20000 : 200000) / flows);
    const ChurnResult inc = run_mode(flows, seed, inc_ops, false, &diverged);
    const ChurnResult full = run_mode(flows, seed, full_ops, true, &diverged);
    const double speedup = add_row("clusters", inc, full);
    if (flows == 1000) speedup_at_1000 = speedup;
  }
  {
    // The plant is one component, so both modes cost the same per op.
    constexpr std::size_t kPlantFlows = 32;
    const std::size_t ops = smoke ? 4000 : 40000;
    const ChurnResult inc = run_plant(kPlantFlows, seed, ops, false, &diverged);
    const ChurnResult full = run_plant(kPlantFlows, seed, ops, true, &diverged);
    add_row("plant", inc, full);
  }
  std::string json = "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json += rows[i] + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json += "]\n";

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\n  wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "bench_flow_churn: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }

  bench::section("summary");
  std::printf("  churn speedup at F=1000, sparse overlap: %.1fx (target >= 5x)\n",
              speedup_at_1000);
  if (diverged) {
    std::fprintf(stderr,
                 "bench_flow_churn: FAIL — incremental rates diverged from "
                 "recompute_rates_reference()\n");
    return 1;
  }
  std::printf("  incremental rates matched the reference exactly at every "
              "checkpoint\n");
  return 0;
}
