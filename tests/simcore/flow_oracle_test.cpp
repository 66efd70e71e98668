// Differential oracle for the incremental flow scheduler.
//
// A randomized churn driver mutates a FlowNetwork (start / abort /
// capacity change / time advance with completions) and after EVERY
// mutation asserts that the incrementally maintained rates are *exactly*
// (bit-for-bit) the rates a full from-scratch water-filling produces —
// recompute_rates_reference() and the dirty-component path share one
// canonically-ordered solver, so any divergence is a real bookkeeping bug
// (stale membership index, missed dirty component, wrong epoch sync), not
// floating-point noise.  Conservation invariants are checked alongside:
// no pool over capacity, no flow over its cap, and max-min work
// conservation (every flow is cap-limited or crosses a saturated pool).
//
// Scale: kSeeds seeds x kMutations mutations > 100k randomized mutations
// per run (CPA_ORACLE_MUTATIONS overrides the per-seed count; ci.sh runs
// this under ASan+UBSan).  A second, plant-shaped oracle at the bottom of
// this file also checks every flow's completion.
#include "simcore/flow_network.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "simcore/rng.hpp"

namespace cpa::sim {
namespace {

constexpr double kMBd = 1e6;
constexpr int kSeeds = 24;

int mutations_per_seed() {
  if (const char* env = std::getenv("CPA_ORACLE_MUTATIONS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 4500;
}

struct LiveFlow {
  FlowId id;
  double cap;
  std::vector<PathLeg> path;
};

/// Incremental rates must equal the from-scratch reference bit for bit:
/// both paths run the identical FP operation sequence.
void expect_rates_match_reference(const FlowNetwork& net, std::uint64_t seed,
                                  int step) {
  const auto reference = net.recompute_rates_reference();
  const std::vector<FlowId> ids = net.live_flow_ids();
  ASSERT_EQ(reference.size(), ids.size()) << "seed " << seed << " step " << step;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(reference[i].first, ids[i].id);
    ASSERT_EQ(net.flow_rate(ids[i]), reference[i].second)
        << "rate divergence: seed " << seed << " step " << step << " flow "
        << ids[i].id;
  }
}

class FlowOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowOracle, IncrementalRatesMatchReferenceExactly) {
  Rng rng(GetParam() * 0x9E3779B97F4A7C15ULL + 1);
  Simulation sim;
  FlowNetwork net(sim);

  // Sparse overlap: several pool "clusters" that flows mostly stay inside,
  // so the network usually splits into multiple connected components and
  // the dirty-set logic (component discovery, merge on start, split on
  // abort/finish) is genuinely exercised.
  const int n_clusters = static_cast<int>(rng.uniform_u64(2, 4));
  const int pools_per_cluster = static_cast<int>(rng.uniform_u64(2, 4));
  std::vector<PoolId> pools;
  std::vector<double> base_capacity;
  for (int c = 0; c < n_clusters; ++c) {
    for (int p = 0; p < pools_per_cluster; ++p) {
      const double cap = rng.uniform(10, 500) * kMBd;
      pools.push_back(net.add_pool(
          "c" + std::to_string(c) + "p" + std::to_string(p), cap));
      base_capacity.push_back(cap);
    }
  }
  std::map<std::uint64_t, LiveFlow> live;  // flows we may still abort

  const auto check = [&](int step) {
    ASSERT_NO_FATAL_FAILURE(expect_rates_match_reference(net, GetParam(), step));
    // Conservation invariants (tolerances only absorb benign last-ulp
    // residue in the *sums*, not incremental-vs-reference drift).
    for (std::size_t p = 0; p < pools.size(); ++p) {
      ASSERT_LE(net.pool_allocated(pools[p]),
                net.pool_capacity(pools[p]) * (1 + 1e-9) + 1e-9)
          << "pool over capacity: seed " << GetParam() << " step " << step;
    }
    for (const auto& [id, lf] : live) {
      const double r = net.flow_rate(lf.id);
      ASSERT_GE(r, 0.0);
      ASSERT_LE(r, lf.cap * (1 + 1e-9))
          << "flow over cap: seed " << GetParam() << " step " << step;
      // Work conservation: a flow below its cap must cross a saturated
      // pool (otherwise max-min fairness would raise its rate).  A flow
      // stalled by a zero-capacity pool satisfies this via that pool
      // (allocated 0 >= capacity 0).
      if (lf.cap != FlowNetwork::kUnlimited && r >= lf.cap * (1 - 1e-9)) {
        continue;  // cap-limited, not pool-limited
      }
      bool saturated_leg = false;
      for (const PathLeg& leg : lf.path) {
        if (net.pool_allocated(leg.pool) >=
            net.pool_capacity(leg.pool) * (1 - 1e-9)) {
          saturated_leg = true;
          break;
        }
      }
      ASSERT_TRUE(saturated_leg)
          << "flow " << id << " below cap with no saturated pool: seed "
          << GetParam() << " step " << step;
    }
  };

  const int steps = mutations_per_seed();
  for (int step = 0; step < steps; ++step) {
    const double dice = rng.uniform();
    if (dice < 0.45 || live.empty()) {
      // Start a flow: 1-3 legs, usually inside one cluster, sometimes
      // bridging two (which must merge their components).
      const int cluster = static_cast<int>(rng.uniform_u64(
          0, static_cast<std::uint64_t>(n_clusters - 1)));
      std::vector<PathLeg> path;
      const int legs = static_cast<int>(rng.uniform_u64(1, 3));
      for (int l = 0; l < legs; ++l) {
        int c = cluster;
        if (rng.chance(0.12)) {  // bridge
          c = static_cast<int>(
              rng.uniform_u64(0, static_cast<std::uint64_t>(n_clusters - 1)));
        }
        const int p = static_cast<int>(rng.uniform_u64(
            0, static_cast<std::uint64_t>(pools_per_cluster - 1)));
        const double weight = rng.chance(0.3) ? rng.uniform(0.25, 1.0) : 1.0;
        path.emplace_back(pools[static_cast<std::size_t>(
                              c * pools_per_cluster + p)],
                          weight);
      }
      const double cap =
          rng.chance(0.3) ? rng.uniform(5, 100) * kMBd : FlowNetwork::kUnlimited;
      const double bytes = rng.chance(0.02)
                               ? 0.0  // degenerate zero-byte flow
                               : rng.uniform(1, 5000) * kMBd;
      const FlowId id = net.start_flow(path, bytes, nullptr, cap);
      if (bytes > 0.0) live.emplace(id.id, LiveFlow{id, cap, std::move(path)});
    } else if (dice < 0.65) {
      // Abort a random live flow (may already have completed: then
      // abort_flow returns false and we just forget it).
      auto it = live.begin();
      std::advance(it, static_cast<long>(
                           rng.uniform_u64(0, live.size() - 1)));
      net.abort_flow(it->second.id);
      live.erase(it);
    } else if (dice < 0.80) {
      // Capacity churn, including full stalls and restores.
      const std::size_t p = static_cast<std::size_t>(
          rng.uniform_u64(0, pools.size() - 1));
      double cap;
      if (rng.chance(0.15)) {
        cap = 0.0;  // stall the component
      } else if (rng.chance(0.3)) {
        cap = base_capacity[p];  // restore
      } else {
        cap = rng.uniform(10, 500) * kMBd;
      }
      net.set_pool_capacity(pools[p], cap);
    } else {
      // Advance virtual time; completions fire and resolve components.
      sim.run_until(sim.now() + secs(rng.uniform(0.05, 20.0)));
      // Drop handles of flows that completed meanwhile (merge-scan the
      // sorted live-id list against our sorted handle map).
      std::vector<std::uint64_t> gone;
      {
        const auto ids = net.live_flow_ids();
        std::size_t j = 0;
        for (const auto& [id, lf] : live) {
          while (j < ids.size() && ids[j].id < id) ++j;
          if (j >= ids.size() || ids[j].id != id) gone.push_back(id);
        }
      }
      for (const std::uint64_t id : gone) live.erase(id);
    }
    ASSERT_NO_FATAL_FAILURE(check(step));
  }
  // Drain: let everything finish; the network must end empty with the
  // reference agreeing on the (empty) rate vector.
  for (const auto& [id, lf] : live) net.abort_flow(lf.id);
  live.clear();
  sim.run();
  ASSERT_NO_FATAL_FAILURE(check(steps));
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_TRUE(net.recompute_rates_reference().empty());
}

INSTANTIATE_TEST_SUITE_P(RandomChurn, FlowOracle,
                         ::testing::Range<std::uint64_t>(1, kSeeds + 1));

// Plant-shaped churn with completion checks.  The archive's data flows
// cross equal-capacity NSD server groups (a transfer striped over w
// servers charges each 1/w of its rate) behind serial trunk, NIC and SAN
// legs.  Equal capacities make bottleneck shares tie exactly, and batches
// of equal flows started on one path at one tick (a job's workers copying
// same-sized files) finish on the same tick, so the scheduler's
// tie-breaking and same-tick completion order are exercised.  Besides the
// exact rate check after every mutation: a flow that is not aborted
// completes exactly once with its requested bytes, an aborted flow never
// completes, and flows finishing on one tick complete in ascending id
// order.  A per-seed FNV-1a digest of (id, finished tick, bytes) over the
// completion sequence pins the whole schedule.
constexpr int kPlantSteps = 2000;
// Live-flow bound: full-width stripes put most flows in one component, so
// every mutation re-solves all of them.
constexpr std::size_t kPlantMaxLive = 32;
// Re-pin only for a deliberate change to the completion schedule.
constexpr std::uint64_t kPlantDigests[kSeeds] = {
    0xE3F6E20A22F53F4EULL, 0x50EBF1FEDDC6C748ULL, 0x593484259CF15AEFULL,
    0xD2BF76E9B04B8CD0ULL, 0x229B3DDA2EFE3D38ULL, 0x01B715BDCAAA3BA4ULL,
    0xF25D066D255748DAULL, 0x79CD258F1BDF3E1CULL, 0xF6D52BCA2FD2979AULL,
    0x61359D46CD3AE024ULL, 0xAFD219C82DE964E5ULL, 0xDC5FD3D9075C8D30ULL,
    0x1C77889C1DEE6D22ULL, 0xF8F30A7E97A74300ULL, 0x743640D2231540BCULL,
    0x447421B2680EEAC7ULL, 0xBAE3A619E74E9ECCULL, 0xA2E13B0D8DB77238ULL,
    0x87D9B4B224187386ULL, 0x66C901742D2DA812ULL, 0x5D955269540C834FULL,
    0x5713D645391578C2ULL, 0xC17CEAC2E2B48447ULL, 0x25404848E2464C08ULL,
};

struct PlantFlow {
  std::uint64_t id = 0;
  double bytes = 0.0;
  bool aborted = false;
  int completions = 0;
  FlowStats stats;
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
  return h;
}

class FlowCompletionOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowCompletionOracle, PlantChurnCompletesEveryFlowExactlyOnce) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 7);
  Simulation sim;
  FlowNetwork net(sim);

  std::vector<PoolId> all;
  std::vector<double> base_capacity;
  const auto add = [&](const std::string& name, double cap) {
    all.push_back(net.add_pool(name, cap));
    base_capacity.push_back(cap);
    return all.back();
  };
  std::vector<std::vector<PoolId>> nsd_groups;
  for (const int width : {10, 16}) {
    const double cap = rng.uniform(100, 400) * kMBd;  // one for the group
    std::vector<PoolId> group;
    for (int i = 0; i < width; ++i) {
      group.push_back(add(
          "nsd" + std::to_string(width) + "." + std::to_string(i), cap));
    }
    nsd_groups.push_back(std::move(group));
  }
  std::vector<PoolId> trunks;
  std::vector<PoolId> nics;
  std::vector<PoolId> sans;
  for (int i = 0; i < 2; ++i) {
    trunks.push_back(add("trunk" + std::to_string(i), 1250 * kMBd));
  }
  for (int i = 0; i < 4; ++i) {
    nics.push_back(add("nic" + std::to_string(i), 1000 * kMBd));
  }
  for (int i = 0; i < 2; ++i) {
    sans.push_back(add("san" + std::to_string(i), 800 * kMBd));
  }

  const auto pick = [&](const std::vector<PoolId>& v) {
    return v[static_cast<std::size_t>(rng.uniform_u64(0, v.size() - 1))];
  };
  // 1/w legs over w consecutive servers of a group, usually all of them.
  const auto stripe = [&](std::vector<PathLeg>& path,
                          const std::vector<PoolId>& group) {
    const std::size_t w =
        rng.chance(0.7) ? group.size()
                        : static_cast<std::size_t>(rng.uniform_u64(2, group.size()));
    const std::size_t first =
        static_cast<std::size_t>(rng.uniform_u64(0, group.size() - 1));
    for (std::size_t i = 0; i < w; ++i) {
      path.emplace_back(group[(first + i) % group.size()],
                        1.0 / static_cast<double>(w));
    }
  };
  const auto plant_path = [&] {
    std::vector<PathLeg> path;
    const double kind = rng.uniform();
    const auto& group = nsd_groups[rng.uniform_u64(0, 1)];
    if (kind < 0.5) {  // client copy: NIC -> trunk -> NSD stripe
      path.emplace_back(pick(nics));
      path.emplace_back(pick(trunks));
      stripe(path, group);
    } else if (kind < 0.85) {  // migrate or recall: NSD stripe -> SAN
      stripe(path, group);
      path.emplace_back(pick(sans));
    } else {  // pool-to-pool copy over a trunk: joins both groups
      stripe(path, nsd_groups[0]);
      stripe(path, nsd_groups[1]);
      path.emplace_back(pick(trunks));
    }
    return path;
  };
  const auto pick_cap = [&] {
    return rng.chance(0.3) ? rng.uniform(20, 400) * kMBd
                           : FlowNetwork::kUnlimited;
  };

  std::vector<PlantFlow> flows;
  std::vector<std::size_t> live;   // indices into `flows`: not done, not aborted
  std::vector<std::size_t> drain;  // completion order within one run_until
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  const auto start = [&](std::vector<PathLeg> path, double bytes, double cap) {
    const std::size_t idx = flows.size();
    flows.push_back(PlantFlow{0, bytes, false, 0, {}});
    const auto on_done = [&flows, &drain, &digest, idx](const FlowStats& st) {
      PlantFlow& f = flows[idx];
      ++f.completions;
      f.stats = st;
      drain.push_back(idx);
      std::uint64_t byte_bits = 0;
      std::memcpy(&byte_bits, &st.bytes, sizeof(byte_bits));
      digest = fnv1a(fnv1a(fnv1a(digest, f.id), st.finished), byte_bits);
    };
    flows[idx].id = net.start_flow(std::move(path), bytes, on_done, cap).id;
    live.push_back(idx);
  };
  // Non-zero flows finishing on one tick come out of one completion event,
  // which completes them in ascending id order.  (Zero-byte flows complete
  // through their own events.)
  const auto check_drain = [&](int step) {
    const PlantFlow* prev = nullptr;
    for (const std::size_t idx : drain) {
      const PlantFlow& f = flows[idx];
      if (f.bytes == 0.0) continue;
      if (prev != nullptr && prev->stats.finished == f.stats.finished) {
        ASSERT_LT(prev->id, f.id) << "same-tick completions out of id order: "
                                  << "seed " << seed << " step " << step;
      }
      prev = &f;
    }
    drain.clear();
  };

  for (int step = 0; step < kPlantSteps; ++step) {
    double dice = rng.uniform();
    if (live.size() >= kPlantMaxLive && dice < 0.45) dice = 1.0;  // advance
    if (dice < 0.30 || live.empty()) {
      const std::vector<PathLeg> path = plant_path();
      const int batch = static_cast<int>(rng.uniform_u64(2, 6));
      const double bytes = rng.uniform(1, 2000) * kMBd;
      const double cap = pick_cap();
      for (int i = 0; i < batch; ++i) start(path, bytes, cap);
    } else if (dice < 0.45) {
      const double bytes =
          rng.chance(0.03) ? 0.0 : rng.uniform(1, 5000) * kMBd;
      start(plant_path(), bytes, pick_cap());
    } else if (dice < 0.60) {
      // Completion callbacks run inside the event that finishes a flow,
      // so every flow still in `live` is abortable.
      const std::size_t k =
          static_cast<std::size_t>(rng.uniform_u64(0, live.size() - 1));
      PlantFlow& f = flows[live[k]];
      ASSERT_TRUE(net.abort_flow(FlowId{f.id}))
          << "seed " << seed << " step " << step << " flow " << f.id;
      f.aborted = true;
      live[k] = live.back();
      live.pop_back();
    } else if (dice < 0.72) {
      // Zero-capacity stall, or restore to the base capacity.
      const std::size_t p =
          static_cast<std::size_t>(rng.uniform_u64(0, all.size() - 1));
      const bool stalled = net.pool_capacity(all[p]) == 0.0;
      net.set_pool_capacity(
          all[p], !stalled && rng.chance(0.5) ? 0.0 : base_capacity[p]);
    } else {
      sim.run_until(sim.now() + secs(rng.uniform(0.01, 10.0)));
      ASSERT_NO_FATAL_FAILURE(check_drain(step));
      std::erase_if(live, [&](std::size_t idx) {
        return flows[idx].completions > 0;
      });
    }
    ASSERT_NO_FATAL_FAILURE(expect_rates_match_reference(net, seed, step));
  }

  // Drain: restore every pool so every remaining flow can finish.
  for (std::size_t p = 0; p < all.size(); ++p) {
    net.set_pool_capacity(all[p], base_capacity[p]);
  }
  sim.run();
  ASSERT_NO_FATAL_FAILURE(check_drain(kPlantSteps));
  EXPECT_EQ(net.active_flows(), 0u);

  for (const PlantFlow& f : flows) {
    if (f.aborted) {
      EXPECT_EQ(f.completions, 0) << "aborted flow " << f.id << " completed";
      continue;
    }
    ASSERT_EQ(f.completions, 1) << "seed " << seed << " flow " << f.id;
    EXPECT_EQ(f.stats.bytes, f.bytes) << "flow " << f.id;
    EXPECT_GE(f.stats.finished, f.stats.started) << "flow " << f.id;
  }
  EXPECT_EQ(digest, kPlantDigests[seed - 1])
      << "completion digest changed: seed " << seed << " digest 0x" << std::hex
      << digest;
}

INSTANTIATE_TEST_SUITE_P(PlantChurn, FlowCompletionOracle,
                         ::testing::Range<std::uint64_t>(1, kSeeds + 1));

}  // namespace
}  // namespace cpa::sim
