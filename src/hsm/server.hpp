// The archive server (TSM stand-in).
//
// The server owns the object database and serializes metadata
// transactions: every migrate, recall and delete performs server
// round-trips that queue FIFO with a fixed per-transaction cost.  This is
// deliberately a single choke point — Sec 6.4: "Having a single TSM server
// creates a single point of a failure ... and a limitation when we need to
// scale beyond what a single TSM server can provide."  Benchmarks
// instantiate several servers to explore the paper's proposed fix.
//
// The server also terminates the non-LAN-free data path: without LAN-free,
// "all data is passed to a central server via the network, making the TSM
// server's network connection the bottleneck" (Sec 4.2.2) — modeled as the
// `data_pool()` every server-routed flow must traverse.
//
// The indexed TSM export (`export_db`) stands in for the periodic MySQL
// export job.  It is a view over indexes on the object table, so it is
// current after every object mutation and holds no row of its own.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hsm/object.hpp"
#include "metadb/table.hpp"
#include "metadb/tsm_export.hpp"
#include "simcore/flow_network.hpp"
#include "simcore/simulation.hpp"

namespace cpa::hsm {

struct ServerConfig {
  /// Service time of one metadata transaction (object insert/lookup/delete).
  sim::Tick metadata_txn_cost = sim::msecs(5);
  /// Bandwidth of the server's network connection, traversed by all
  /// server-routed (non-LAN-free) data.
  double data_bandwidth_bps = 80.0 * 1e6;
  /// First object id this server hands out.  Multi-server deployments
  /// give each server a disjoint range so ids stay globally unique.
  std::uint64_t object_id_base = 1;

  /// Mutations a metadata round-trip carries (the CASTOR-style answer to
  /// the Sec 6.4 wall).  1 is the paper's stop-and-wait server: one
  /// round-trip per mutation at `metadata_txn_cost`.
  unsigned md_batch_size = 1;

  /// Service time of one round-trip carrying n mutations: a fixed part
  /// plus a tenth of `metadata_txn_cost` per mutation, so a round-trip of
  /// one costs exactly `metadata_txn_cost` and amortization nears 10x at
  /// large n (6.4x at 16).
  [[nodiscard]] sim::Tick batch_cost(std::size_t n) const {
    if (n == 0) return 0;
    const sim::Tick per_op = metadata_txn_cost / 10;
    return metadata_txn_cost - per_op + per_op * static_cast<sim::Tick>(n);
  }
};

class ArchiveServer {
 public:
  ArchiveServer(sim::Simulation& sim, sim::FlowNetwork& net, std::string name,
                ServerConfig cfg);
  // The export is a view over this server's object table.
  ArchiveServer(const ArchiveServer&) = delete;
  ArchiveServer& operator=(const ArchiveServer&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const ServerConfig& config() const { return cfg_; }
  [[nodiscard]] sim::PoolId data_pool() const { return data_pool_; }

  /// Queues one metadata round-trip that applies `ops` in order and then
  /// fires `done`, once every earlier round-trip and this one's
  /// `config().batch_cost(ops.size())` have elapsed.  A power failure
  /// tears a round-trip in service away whole: none of its ops apply and
  /// `done` never fires.  HsmSystem reaches the server only through a
  /// TxnSession, which forms these batches.
  void metadata_batch(std::vector<std::function<void()>> ops,
                      std::function<void()> done);

  /// Round-trips serviced (one per batch, however many mutations it
  /// carries) and the mutations they carried.
  [[nodiscard]] std::uint64_t txns_completed() const { return txns_; }
  [[nodiscard]] std::uint64_t batch_ops_completed() const { return batch_ops_; }
  [[nodiscard]] std::size_t txn_queue_depth() const { return queue_.size(); }

  // --- fault injection: server restarts ------------------------------------
  /// Restarts the server.  For `outage` no new transaction starts (queued
  /// work waits until the server is back) and the epoch bumps, which
  /// in-flight migrations use to detect that their session died and
  /// requeue the interrupted unit.
  void restart(sim::Tick outage);
  /// Incremented on every restart.  Sample before an operation, compare
  /// after: a difference means a restart interrupted it.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] bool down() const { return sim_.now() < up_at_; }

  /// Whole-host power failure: the in-memory object database and its
  /// links vanish, queued round-trips are dropped on the floor (their
  /// callbacks never fire), the round-trip in service is torn away whole,
  /// and the epoch bumps so in-flight sessions notice.
  /// Recovery replays the WAL back through `record_object`.
  void power_fail();

  /// Durability listeners: fired after every object mutation with the
  /// stored row, whose links and group name `links` and `group_name` read
  /// back.  Installed by the WAL layer; unset hooks are free.
  struct MutationHooks {
    std::function<void(const ArchiveObject&)> on_record;
    std::function<void(std::uint64_t object_id)> on_delete;
  };
  void set_mutation_hooks(MutationHooks hooks) { hooks_ = std::move(hooks); }

  // --- object database (call inside metadata_batch ops) -------------------
  [[nodiscard]] std::uint64_t allocate_object_id() { return next_object_id_++; }
  /// Recovery: re-seats the allocator above every replayed object id.
  void set_next_object_id(std::uint64_t next) { next_object_id_ = next; }
  [[nodiscard]] std::uint64_t next_object_id() const { return next_object_id_; }
  /// Inserts or replaces `obj`, keeping the links the object has (a new
  /// object has none).
  void record_object(ArchiveObject obj);
  /// Inserts or replaces `obj` and replaces its links with `links`.
  void record_object(ArchiveObject obj, ObjectLinks links);
  [[nodiscard]] const ArchiveObject* object(std::uint64_t id) const;
  /// Object `id`'s members and replicas; empty for most objects.  Valid
  /// until the object is next recorded or deleted.
  [[nodiscard]] const ObjectLinks& links(std::uint64_t id) const;
  /// Deletes object `id` and its links.  A member also leaves the member
  /// list of its aggregate when this server holds the aggregate.
  bool delete_object(std::uint64_t id);
  [[nodiscard]] std::size_t object_count() const { return objects_.size(); }
  void for_each_object(const std::function<void(const ArchiveObject&)>& fn) const;

  /// The id of colocation group `name` in this server's rows, interning
  /// it on first use.  Ids outlive power failures: they name strings, not
  /// catalog state.
  std::uint32_t group_id(const std::string& name);
  [[nodiscard]] const std::string& group_name(std::uint32_t id) const {
    return *group_names_.at(id);
  }

  /// The indexed export (Sec 4.2.5): indexes on the object table.
  [[nodiscard]] const metadb::TsmExportDb<ArchiveObject>& export_db() const {
    return export_;
  }

 private:
  // A queued round-trip: `ops` applied in order, then `done`.
  struct Txn {
    sim::Tick cost = 0;
    std::vector<std::function<void()>> ops;
    std::function<void()> done;
  };

  void pump();
  void complete(std::uint64_t gen);  // the round-trip in service is done

  sim::Simulation& sim_;
  std::string name_;
  ServerConfig cfg_;
  sim::PoolId data_pool_;
  bool busy_ = false;
  std::deque<Txn> queue_;
  Txn in_service_;
  std::uint64_t txns_ = 0;
  std::uint64_t batch_ops_ = 0;
  std::uint64_t power_gen_ = 0;  // bumped only by power_fail()
  std::uint64_t epoch_ = 0;
  sim::Tick up_at_ = 0;  // no transaction completes before this time
  std::uint64_t next_object_id_ = 1;
  metadb::Table<ArchiveObject> objects_;
  metadb::TsmExportDb<ArchiveObject> export_{objects_};
  // Side table: the few objects with members or replicas.
  std::unordered_map<std::uint64_t, ObjectLinks> links_;
  // Interned colocation groups: id -> name points at the map's keys.
  std::unordered_map<std::string, std::uint32_t> group_ids_;
  std::vector<const std::string*> group_names_;
  MutationHooks hooks_;
};

}  // namespace cpa::hsm
