// Crash recovery: WAL replay time vs log length and checkpoint interval.
//
// The paper's archive survives host power loss because TSM's database and
// PFTool's restart journals are logged to stable storage; what it pays
// for that is the recovery scan after the crash.  This experiment measures
// the simulated equivalent: a metadata plant (object catalog + fixity table +
// restart journal) redo-logged through the WAL, driven through M
// mutations with periodic group-commit barriers, then power-failed and
// recovered.
//
// Two series over the same mutation counts:
//   no checkpoint    the log holds every record since boot; replay time
//                    grows linearly with M,
//   64 KB checkpoint auto-checkpoints bound the log, so recovery time
//                    stays flat no matter how long the plant ran.
// The crossover is the whole argument for checkpointing: the flat series
// costs snapshot installs during normal operation and wins them back at
// recovery time.
//
// Ledger rows: recovery.<cell>.survivors (every durably-acked object is
// present after recovery, with its fixity row, in every cell) and
// recovery.checkpoint (checkpointed recovery beats full replay at the
// largest history).
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/ledger.hpp"
#include "hsm/server.hpp"
#include "integrity/fixity.hpp"
#include "obs/observer.hpp"
#include "pftool/core/restart_journal.hpp"
#include "simcore/units.hpp"
#include "wal/durable.hpp"

namespace cpa::bench::recovery {
namespace {

using Op = Claim::Op;

struct CellResult {
  std::string name;
  std::uint64_t mutations = 0;
  std::uint64_t checkpoint_bytes_cfg = 0;
  std::uint64_t replayed = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  double recovery_ms = 0;
  std::uint64_t acked = 0;      // durably-acked objects before the crash
  std::uint64_t survivors = 0;  // of those, present with a fixity row after
};

/// Drives `mutations` catalog+fixity+journal updates through a Durable
/// (sync barrier every 8 mutations, like acknowledgement points), then
/// power-fails and recovers.  Returns the recovery stats and how many
/// durably-acked objects came back with their fixity rows.
CellResult run_cell(std::uint64_t mutations, std::uint64_t checkpoint_bytes,
                    std::uint64_t seed) {
  sim::Simulation sim;
  sim::FlowNetwork net(sim);
  obs::Observer obs;
  hsm::ArchiveServer server(sim, net, "tsm0", hsm::ServerConfig{});
  integrity::FixityDb fixity;
  pftool::RestartJournal journal;
  wal::WalConfig cfg;
  cfg.checkpoint_bytes = checkpoint_bytes;
  wal::Durable durable(sim, cfg, obs);
  durable.attach_server(0, server);
  durable.attach_fixity(fixity);
  durable.attach_journal(journal);

  std::vector<std::uint64_t> acked;
  for (std::uint64_t i = 0; i < mutations; ++i) {
    hsm::ArchiveObject o;
    o.object_id = server.allocate_object_id();
    o.gpfs_file_id = o.object_id;
    o.size_bytes = 16 * kMB;
    o.content_tag = seed + i;
    o.cartridge_id = 1 + i % 4;
    o.tape_seq = i;
    o.path = "/arch/d" + std::to_string(i % 16) + "/f" + std::to_string(i);
    const std::uint64_t id = o.object_id;
    server.record_object(std::move(o));
    fixity.add(id, 1 + i % 4, i, 16 * kMB, seed * 1000003 + i, 0);
    if (i % 4 == 0) {
      journal.begin(std::string("/arch/j") + std::to_string(i), 16 * kMB, 4);
      journal.mark_good("/arch/j" + std::to_string(i), i % 4);
    }
    if (i % 8 == 7) {
      durable.sync([&acked, id] { acked.push_back(id); });
      sim.run();
    }
  }
  durable.sync([&acked, &server] { acked.push_back(server.next_object_id()); });
  sim.run();
  acked.pop_back();  // the final barrier's marker, not an object id

  // Whole-host power failure, then recovery from checkpoint + log.
  server.power_fail();
  fixity.clear();
  journal.clear();
  durable.crash(seed);
  const wal::Durable::RecoveryStats st = durable.recover();

  CellResult r;
  r.mutations = mutations;
  r.checkpoint_bytes_cfg = checkpoint_bytes;
  r.replayed = st.replayed_records;
  r.log_bytes = st.log_bytes;
  r.checkpoint_bytes = st.checkpoint_bytes;
  r.recovery_ms = sim::to_seconds(st.duration) * 1e3;
  r.name = "m" + std::to_string(mutations) +
           (checkpoint_bytes == 0 ? "_nockpt" : "_ckpt64k");

  r.acked = acked.size();
  for (const std::uint64_t id : acked) {
    if (server.object(id) != nullptr && !fixity.by_object(id).empty()) {
      ++r.survivors;
    }
  }
  return r;
}

}  // namespace

void run(Ledger& L) {
  constexpr std::uint64_t kSeed = 7;
  constexpr std::uint64_t kCkpt = 64 * 1024;

  L.experiment("Recovery",
               "WAL crash recovery: replay time vs log length & checkpoints");

  std::vector<CellResult> cells;
  for (const std::uint64_t m : {500, 2000, 8000}) {
    cells.push_back(run_cell(m, 0, kSeed));
    cells.push_back(run_cell(m, kCkpt, kSeed));
  }

  std::printf("  scenario      | mutations | replayed | log bytes | ckpt bytes | recovery ms\n");
  std::printf("  --------------+-----------+----------+-----------+------------+------------\n");
  for (const CellResult& c : cells) {
    std::printf("  %-13s | %9" PRIu64 " | %8" PRIu64 " | %9" PRIu64
                " | %10" PRIu64 " | %11.2f\n",
                c.name.c_str(), c.mutations, c.replayed, c.log_bytes,
                c.checkpoint_bytes, c.recovery_ms);
  }

  bench::section("paper vs measured");
  for (const CellResult& c : cells) {
    L.row("recovery." + c.name + ".survivors", c.name + ": durably-acked survival",
          "100%",
          of(c.survivors, c.acked) + ", " + std::to_string(c.replayed) +
              " replayed in " + fmt("%.3f ms", c.recovery_ms),
          Claim::equal(c.survivors, c.acked));
  }
  // The headline: without checkpoints recovery grows with history; with
  // them it stays bounded.  Compare the largest cell pair.
  const CellResult& big_plain = cells[cells.size() - 2];
  const CellResult& big_ckpt = cells[cells.size() - 1];
  L.row("recovery.checkpoint", "checkpointed vs full replay",
        "flat vs linear in history",
        fmt("%.3f ms", big_ckpt.recovery_ms) + " vs " +
            fmt("%.3f ms", big_plain.recovery_ms),
        Claim::order(big_ckpt.recovery_ms, Op::Lt, big_plain.recovery_ms));
}

}  // namespace cpa::bench::recovery
