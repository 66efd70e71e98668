#include "hsm/txn_batch.hpp"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "hsm/server.hpp"

namespace cpa::hsm {

TxnSession::TxnSession(sim::Simulation& sim, ArchiveServer& server,
                       unsigned batch_size, Hooks hooks)
    : sim_(sim),
      server_(server),
      batch_size_(std::max(batch_size, 1u)),
      hooks_(std::move(hooks)) {}

void TxnSession::submit(std::function<void()> op,
                        std::function<void()> applied) {
  ++submitted_;
  if (forming_.size() >= batch_size_) dispatch();
  // A full batch still waiting for a window slot: queue behind it; the
  // slot-free dispatch sends it.
  const bool backlogged = forming_.size() >= batch_size_;
  const bool was_empty = forming_.empty();
  forming_.push_back(Op{std::move(op), std::move(applied)});
  if (backlogged) return;
  if (forming_.size() >= batch_size_) {
    dispatch();
  } else if (was_empty) {
    arm_timer();
  }
}

void TxnSession::flush() {
  flush_watermark_ = submitted_;
  dispatch();
}

void TxnSession::abandon() {
  ++gen_;
  ++timer_gen_;
  forming_.clear();
  sent_.clear();
  settled_ = batches_sent_;
  submitted_ = 0;
  dispatched_ = 0;
  applied_ = 0;
  flush_watermark_ = 0;
}

void TxnSession::dispatch() {
  while (!forming_.empty() && in_flight() < kWindow &&
         (forming_.size() >= batch_size_ || dispatched_ < flush_watermark_)) {
    send_batch();
  }
  if (!forming_.empty()) arm_timer();
}

void TxnSession::send_batch() {
  ++timer_gen_;  // whatever timer covered these ops is moot now
  const std::size_t n = std::min<std::size_t>(forming_.size(), batch_size_);
  const std::uint64_t batch = ++batches_sent_;
  std::vector<std::function<void()>> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Op& entry = forming_.front();
    ops.push_back(std::move(entry.op));
    sent_.push_back(Sent{batch, std::move(entry.applied)});
    forming_.pop_front();
  }
  dispatched_ += n;
  server_.metadata_batch(std::move(ops), [this, batch] {
    if (batch <= settled_) return;  // session abandoned meanwhile
    if (hooks_.barrier) {
      hooks_.barrier([this, batch] { settle(batch); });
    } else {
      settle(batch);
    }
  });
}

void TxnSession::settle(std::uint64_t batch) {
  if (batch <= settled_) return;  // session abandoned meanwhile
  assert(batch == settled_ + 1 && "batches must settle in send order");
  settled_ = batch;
  std::size_t n = 0;
  while (n < sent_.size() && sent_[n].batch == batch) ++n;
  if (hooks_.on_batch) hooks_.on_batch(n);
  applied_ += n;
  // Applied callbacks may submit follow-up ops (e.g. the second leg of a
  // sync delete); the slot is free before they run.  One that power-fails
  // the plant abandons the session: the rest belong to dead jobs.
  for (const std::uint64_t gen = gen_; n > 0 && gen == gen_; --n) {
    std::function<void()> applied = std::move(sent_.front().applied);
    sent_.pop_front();
    if (applied) applied();
  }
  dispatch();
}

void TxnSession::arm_timer() {
  const std::uint64_t timer = ++timer_gen_;
  sim_.at(sim_.now() + kFlushTimeout, [this, timer] {
    if (timer != timer_gen_) return;
    flush();
  });
}

}  // namespace cpa::hsm
