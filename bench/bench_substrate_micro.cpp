// google-benchmark microbenchmarks of the simulation substrates: they
// document the simulator's own capacity (events/s, flow recompute cost,
// indexed lookups), not any paper result.
#include <benchmark/benchmark.h>

#include "metadb/tsm_export.hpp"
#include "pftool/core/queues.hpp"
#include "simcore/flow_network.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"

namespace {

using namespace cpa;

void BM_EventQueueScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s;
    for (int i = 0; i < 1000; ++i) {
      s.after(sim::usecs(static_cast<double>(i % 97)), [] {});
    }
    benchmark::DoNotOptimize(s.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_EventCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s;
    std::vector<sim::Simulation::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(s.after(sim::secs(1), [] {}));
    }
    for (const auto id : ids) s.cancel(id);
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventCancel);

void BM_FlowNetworkRecompute(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  sim::Simulation s;
  sim::FlowNetwork net(s);
  std::vector<sim::PoolId> pools;
  for (int p = 0; p < 16; ++p) {
    pools.push_back(net.add_pool("p" + std::to_string(p), 1e9));
  }
  sim::Rng rng(1);
  for (int f = 0; f < flows; ++f) {
    std::vector<sim::PathLeg> path;
    for (const auto p : pools) {
      if (rng.chance(0.3)) path.emplace_back(p);
    }
    if (path.empty()) path.emplace_back(pools[0]);
    net.start_flow(std::move(path), 1e18, nullptr);
  }
  sim::PoolId probe = pools[0];
  for (auto _ : state) {
    // Each capacity change triggers a full max-min recompute.
    net.set_pool_capacity(probe, 1e9 + static_cast<double>(state.iterations()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowNetworkRecompute)->Arg(16)->Arg(64)->Arg(256);

// An export of `rows` objects whose paths, /a/f0 .. /a/f<rows-1>, a vector
// owns the way the server's object table owns them.
struct Export {
  explicit Export(std::uint64_t rows) {
    for (std::uint64_t i = 0; i < rows; ++i) paths.push_back("/a/f" + std::to_string(i));
    for (std::uint64_t i = 0; i < rows; ++i) {
      db.upsert(metadb::TapeObjectRow{i + 1, i + 1, 0, 1024, i % 24, i / 24}, paths[i]);
    }
  }
  std::vector<std::string> paths;
  metadb::TsmExportDb db{[this](std::uint64_t id) { return &paths[id - 1]; }};
};

void BM_TsmExportIndexedLookup(benchmark::State& state) {
  const auto rows = static_cast<std::uint64_t>(state.range(0));
  const Export e(rows);
  const metadb::TsmExportDb& db = e.db;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.by_path("/a/f" + std::to_string(i++ % rows)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsmExportIndexedLookup)->Arg(1000)->Arg(100000);

void BM_TsmExportFullScanLookup(benchmark::State& state) {
  const auto rows = static_cast<std::uint64_t>(state.range(0));
  const Export e(rows);
  const metadb::TsmExportDb& db = e.db;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db.by_path_unindexed("/a/f" + std::to_string(i++ % rows)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsmExportFullScanLookup)->Arg(1000);

// The allocation-free visitor vs the vector-materializing lookup on the
// tape index (24 rows per tape here) — the tape-ordered recall planner's
// hot path after the for_each_u64 migration.
void BM_TsmExportVisitOnTape(benchmark::State& state) {
  const Export e(100000);
  const metadb::TsmExportDb& db = e.db;
  std::uint64_t i = 0;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      db.for_each_on_tape(i++ % 24,
                          [&](const metadb::TapeObjectRow& r) { sum += r.tape_seq; });
    } else {
      for (const auto* r : db.on_tape(i++ % 24)) sum += r->tape_seq;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(0) == 0 ? "visitor" : "materialize");
}
BENCHMARK(BM_TsmExportVisitOnTape)->Arg(0)->Arg(1);

// Bulk-batch mutation path: one insert_bulk of N rows vs N singleton
// inserts — the metadb half of the group-commit amortization story.
void BM_TsmTableBulkInsert(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const bool bulk = state.range(1) != 0;
  for (auto _ : state) {
    metadb::Table<metadb::TapeObjectRow> t(
        [](const metadb::TapeObjectRow& r) { return r.object_id; });
    if (bulk) {
      std::vector<metadb::TapeObjectRow> rows;
      rows.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        rows.push_back({i + 1, i + 1, 0, 1024, i % 24, i / 24});
      }
      benchmark::DoNotOptimize(t.insert_bulk(std::move(rows)));
    } else {
      for (std::uint64_t i = 0; i < n; ++i) {
        t.insert({i + 1, i + 1, 0, 1024, i % 24, i / 24});
      }
    }
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetLabel(bulk ? "bulk" : "singleton");
}
BENCHMARK(BM_TsmTableBulkInsert)
    ->Args({1024, 0})
    ->Args({1024, 1});

void BM_TapeQueueOrdering(benchmark::State& state) {
  sim::Rng rng(5);
  for (auto _ : state) {
    pftool::TapeCopyQueues<int> q;
    for (int i = 0; i < 1000; ++i) {
      q.add(rng.uniform_u64(1, 8), rng.uniform_u64(1, 100000), i);
    }
    std::uint64_t cart = 0;
    std::vector<int> items;
    while (q.pop_cartridge(&cart, &items)) {
      benchmark::DoNotOptimize(items.size());
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TapeQueueOrdering);

}  // namespace

BENCHMARK_MAIN();
