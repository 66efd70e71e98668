// The metadata session: the one way HsmSystem reaches an ArchiveServer.
//
// A TxnSession fronts one server's object-DB path: callers `submit`
// mutations, the session coalesces them into batches of up to
// `batch_size` and keeps up to `kWindow` round-trips in flight.  At
// batch size 1 this is the paper's stop-and-wait TSM server: every
// mutation is one round-trip at `metadata_txn_cost`, FIFO-serialized.
// Larger batches are the CASTOR-style request-batching answer to the
// Sec 6.4 single-server wall.
//
// Flush triggers, all deterministic in virtual time:
//   * size      — the forming batch reaches `batch_size`;
//   * timeout   — `kFlushTimeout` after the first op entered an empty
//                 forming batch;
//   * explicit  — `flush()`;
//   * slot-free — a window slot frees while a batch is owed.
//
// Ordering: ops apply on the server in exact submission order (batches
// dispatch FIFO into the server's FIFO queue, and a batch applies its ops
// in order).  Ops beyond a full window wait in the forming queue.
//
// One contract for callers: an op's `applied` callback fires once its
// batch has applied on the server and passed the `barrier` hook (one
// group-commit fsync per batch via the WAL, not one per mutation), so
// applied implies durable whenever a WAL is attached.  Callers continue
// their chains on `applied`.  `abandon()` models power failure: every
// forming op vanishes and no callback leaks to the dead jobs, matching
// the server's own tear of the round-trip in service.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace cpa::hsm {

class ArchiveServer;

class TxnSession {
 public:
  /// Round-trips in flight per session (pipelining depth).
  static constexpr unsigned kWindow = 4;
  /// A forming batch flushes after this long even if not full.
  static constexpr sim::Tick kFlushTimeout = sim::msecs(2);

  struct Hooks {
    /// Group-commit barrier run after a batch's ops apply; `done` fires
    /// when the batch is durable, in call order (a group commit keeps
    /// it).  Unset => applied is durable at once.
    std::function<void(std::function<void()> done)> barrier;
    /// Fired once per completed batch with its op count (counters).
    std::function<void(std::size_t n)> on_batch;
  };

  TxnSession(sim::Simulation& sim, ArchiveServer& server, unsigned batch_size,
             Hooks hooks);
  // Server completions and flush timers hold `this`.
  TxnSession(const TxnSession&) = delete;
  TxnSession& operator=(const TxnSession&) = delete;

  [[nodiscard]] ArchiveServer& server() { return server_; }

  /// Queues `op` for the next batch; `applied` fires once the op has
  /// applied on the server and passed the durability barrier.  Ops run on
  /// the server in submission order.
  void submit(std::function<void()> op, std::function<void()> applied = {});
  /// Dispatches everything submitted so far without waiting for the size
  /// or timeout trigger (window permitting; the rest follows as slots
  /// free up).
  void flush();
  /// Power failure: drops all forming work without firing any callback;
  /// the round-trip in service is torn away by the server's own
  /// power-fail guard.  The session is reusable.
  void abandon();

  [[nodiscard]] std::size_t forming() const { return forming_.size(); }
  [[nodiscard]] unsigned in_flight() const {
    return static_cast<unsigned>(batches_sent_ - settled_);
  }
  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t applied() const { return applied_; }
  [[nodiscard]] std::uint64_t batches_sent() const { return batches_sent_; }

 private:
  struct Op {
    std::function<void()> op;
    std::function<void()> applied;
  };
  struct Sent {
    std::uint64_t batch;  // the batch's id (see batches_sent_)
    std::function<void()> applied;
  };

  void dispatch();  // send forming batches while a trigger & window allow
  void send_batch();
  void settle(std::uint64_t batch);  // batch applied and durable
  void arm_timer();

  sim::Simulation& sim_;
  ArchiveServer& server_;
  unsigned batch_size_;
  Hooks hooks_;

  std::deque<Op> forming_;  // submitted, not yet dispatched
  std::deque<Sent> sent_;   // dispatched, not yet settled, in batch order
  std::uint64_t submitted_ = 0;   // ops ever submitted
  std::uint64_t dispatched_ = 0;  // ops handed to the server
  std::uint64_t applied_ = 0;     // ops applied + durable
  // Batch k is the k-th ever sent; batches up to `settled_` are settled or
  // abandoned, so their late completions no-op.
  std::uint64_t batches_sent_ = 0;
  std::uint64_t settled_ = 0;
  // Ops numbered < flush_watermark_ must not wait for size/timeout.
  std::uint64_t flush_watermark_ = 0;
  std::uint64_t gen_ = 0;        // bumped by abandon()
  std::uint64_t timer_gen_ = 0;  // bumped to cancel an armed flush timer
};

}  // namespace cpa::hsm
