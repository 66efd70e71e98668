// Durability wrapper: redo-logs every metadata mutation through the WAL.
//
// Three stores hold archive metadata that must survive a host power
// failure: the per-server object catalog (+ its indexed TSM export, two
// indexes on the catalog and therefore not logged separately), the fixity
// table, and the pftool restart journal.  Durable subscribes to each
// store's mutation hooks and appends one idempotent redo record per
// mutation (wal/record.hpp) — full-row images for catalog/fixity upserts,
// an id for a delete, incremental (but naturally idempotent) ops for
// journal bitmaps.  Records are applied in-memory first and logged after;
// a `sync()` barrier is what callers use at acknowledgement points (before
// a punch frees disk data, before a job completion is reported) to
// guarantee the log covers what they are about to promise.
//
// Recovery inverts the pipeline: the caller wipes the stores, then
// `recover()` loads the last durably installed checkpoint and replays the
// surviving log image (CRC framing stops the walk at the torn tail).
// Replaying a prefix twice converges on the same state, so redo is safe
// against replay duplication.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "hsm/server.hpp"
#include "integrity/fixity.hpp"
#include "pftool/core/restart_journal.hpp"
#include "wal/record.hpp"
#include "wal/wal.hpp"

namespace cpa::wal {

class Durable {
 public:
  Durable(sim::Simulation& sim, WalConfig cfg, obs::Observer& obs);

  // --- wiring (once, at plant construction) -------------------------------
  void attach_server(unsigned idx, hsm::ArchiveServer& srv);
  void attach_fixity(integrity::FixityDb& db);
  void attach_journal(pftool::RestartJournal& journal);

  /// Group-commit durability barrier (see WalWriter::sync).
  void sync(std::function<void()> done) { writer_.sync(std::move(done)); }

  /// Manual checkpoint (auto-checkpointing is governed by
  /// WalConfig::checkpoint_bytes).
  void checkpoint() { writer_.checkpoint(); }

  /// Power failure: tear the un-fsynced log tail at a seed-derived byte
  /// offset and drop pending barrier callbacks.  The caller wipes the
  /// attached stores separately.
  void crash(std::uint64_t seed) { writer_.crash(seed); }

  struct RecoveryStats {
    std::uint64_t replayed_records = 0;
    std::uint64_t checkpoint_bytes = 0;
    std::uint64_t log_bytes = 0;
    /// Modeled virtual-time cost of the recovery scan + redo apply.
    sim::Tick duration = 0;
  };

  /// Rebuilds the attached (pre-wiped) stores from checkpoint + log.
  /// Synchronous state change; the returned duration is the virtual time
  /// the caller should charge before resuming service.
  RecoveryStats recover();

  /// Redoes one record payload (a log frame's or a checkpoint line's)
  /// against the attached stores: recovery's step for each record.
  /// False, with no store touched, when the payload does not decode.
  bool apply(std::string_view record);

  [[nodiscard]] WalWriter& writer() { return writer_; }
  [[nodiscard]] const WalConfig& config() const { return writer_.config(); }

 private:
  std::string serialize_state() const;  // checkpoint source
  void redo(Record& r);
  hsm::ArchiveServer* server(std::uint64_t idx) const {
    return idx < servers_.size() ? servers_[idx] : nullptr;
  }
  /// Frames the record `put` writes into `buf_` (the hooks' one buffer).
  template <typename Put>
  void log(Put&& put) {
    if (replaying_) return;
    buf_.clear();
    put(buf_);
    writer_.append_record(buf_);
  }

  sim::Simulation& sim_;
  obs::Observer& obs_;
  WalWriter writer_;
  std::vector<hsm::ArchiveServer*> servers_;
  integrity::FixityDb* fixity_ = nullptr;
  pftool::RestartJournal* journal_ = nullptr;
  /// Recovery applies records through the same store APIs that fire the
  /// mutation hooks; this flag keeps replay from re-logging itself.
  bool replaying_ = false;
  std::string buf_;  // the record being appended
  Record rec_;       // the record being redone
};

}  // namespace cpa::wal
