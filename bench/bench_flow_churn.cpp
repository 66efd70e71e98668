// Flow-network churn: what one flow mutation costs the incremental
// dirty-component scheduler, and that its rates stay exact.
//
// The campaign workloads churn flows constantly (every file copy is a
// flow start + completion), but each mutation touches only the small
// connected component of pools its flow traverses.  This experiment builds
// F flows spread over pool clusters of 50 flows with sparse overlap, then
// measures steady-state churn (abort one flow + start a replacement in its
// cluster).  A `sim::FlowProbe` counts the flows each recompute re-solves:
// at F >= 100 every op re-solves 99 of them (the 49 left in the aborted
// flow's cluster, then the 50 with its replacement), whatever F is, where
// re-solving every component would cost 2F - 1.  So `touched_per_op`,
// which is deterministic and gated exactly, shows that churn cost tracks
// the dirty component, not F; `ops_per_sec` is the wall-clock view.
//
// One more row is shaped like the archive plant (cluster.cpp): FTA nodes
// with a NIC and an HBA each, two site trunks, one FC SAN, and
// equal-capacity scratch and archive NSD servers that a copy stripes over
// (1/w legs).  There churn comes from completions, as in the campaign:
// the loop steps to the next completion and each finished copy starts its
// replacement from its completion callback, so the completion heap is
// timed along with the solves.  Every copy crosses the SAN, so the plant
// is one component: each op re-solves all 32 flows twice, less the one
// that finished.
//
// Every run cross-checks the incrementally maintained rates against
// `recompute_rates_reference()` bit-for-bit at eight checkpoints and at
// the end; run() returns false on any divergence.
//
// Rows: flow_churn.clusters_{10,100,1000,5000} and flow_churn.plant_32.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "simcore/flow_network.hpp"
#include "simcore/probe.hpp"
#include "simcore/rng.hpp"

namespace cpa::bench::flow_churn {
namespace {

using sim::FlowId;
using sim::FlowNetwork;
using sim::PathLeg;
using sim::PoolId;

constexpr double kMBd = 1e6;
constexpr int kPoolsPerCluster = 4;
constexpr std::uint64_t kSeed = 42;

/// Sums the flows every rate recomputation re-solves.
struct TouchCounter final : sim::FlowProbe {
  std::size_t touched = 0;
  void on_flow_started(std::uint64_t, double, sim::Tick) override {}
  void on_flow_completed(std::uint64_t, const sim::FlowStats&) override {}
  void on_flow_aborted(std::uint64_t, sim::Tick) override {}
  void on_rates_recomputed(std::size_t flows) override { touched += flows; }
};

struct ChurnResult {
  std::size_t flows = 0;
  std::size_t pools = 0;
  std::size_t ops = 0;
  double touched_per_op = 0.0;
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

  explicit Topology(std::size_t flows)
      : net(sim), rng(kSeed), clusters(std::max<std::size_t>(1, flows / 50)) {
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

  explicit Plant(std::size_t flows) : net(sim), rng(kSeed) {
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
/// a start); same cross-checks as run_clusters.
ChurnResult run_plant(std::size_t flows, std::size_t ops, bool* diverged) {
  Plant plant(flows);
  TouchCounter counter;
  plant.net.set_probe(&counter);
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
  r.touched_per_op =
      static_cast<double>(counter.touched) / static_cast<double>(r.ops);
  r.ops_per_sec = dt > 0.0 ? static_cast<double>(r.ops) / dt : 0.0;
  return r;
}

/// Runs `ops` churn operations and returns their cost; rates are
/// cross-checked against the reference at eight points in the loop (inside
/// the timed region: the check is cheap next to the solves).
ChurnResult run_clusters(std::size_t flows, std::size_t ops, bool* diverged) {
  Topology topo(flows);
  TouchCounter counter;
  topo.net.set_probe(&counter);
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
  r.touched_per_op =
      static_cast<double>(counter.touched) / static_cast<double>(ops);
  r.ops_per_sec = dt > 0.0 ? static_cast<double>(ops) / dt : 0.0;
  return r;
}

}  // namespace

bool run(std::vector<std::string>& records) {
  header("Flow churn", "incremental dirty-component scheduling under churn");
  std::printf("  %6s %6s | %8s %12s %12s | %s\n", "flows", "pools", "ops",
              "touched/op", "ops/s", "shape");

  bool diverged = false;
  const auto add_row = [&](const char* shape, const ChurnResult& r) {
    std::printf("  %6zu %6zu | %8zu %12.3f %12.0f | %s\n", r.flows, r.pools,
                r.ops, r.touched_per_op, r.ops_per_sec, shape);
    char rec[256];
    std::snprintf(rec, sizeof(rec),
                  "{\"id\": \"flow_churn.%s_%zu\", \"flows\": %zu, "
                  "\"pools\": %zu, \"ops\": %zu, \"touched_per_op\": %.3f, "
                  "\"ops_per_sec\": %.1f}",
                  shape, r.flows, r.flows, r.pools, r.ops, r.touched_per_op,
                  r.ops_per_sec);
    records.emplace_back(rec);
  };
  for (const std::size_t flows : {10, 100, 1000, 5000}) {
    add_row("clusters", run_clusters(flows, 20000, &diverged));
  }
  add_row("plant", run_plant(32, 40000, &diverged));

  if (diverged) {
    std::fprintf(stderr,
                 "  error: incremental rates diverged from "
                 "recompute_rates_reference()\n");
    return false;
  }
  std::printf("  incremental rates matched the reference exactly at every "
              "checkpoint\n");
  return true;
}

}  // namespace cpa::bench::flow_churn
