// Virtual-time write-ahead log over a simulated block device.
//
// The paper's archive keeps its catalog in TSM's database and its transfer
// state in PFTool restart journals; both survive a host power failure only
// because they are logged to stable storage before the operation they
// describe is acknowledged.  This module is the simulated equivalent: an
// append-only byte log whose durability advances asynchronously (one
// fsync barrier costs `flush_latency` of virtual time), with torn-tail
// semantics on power failure — the durable prefix survives exactly, and a
// seed-derived fraction of the un-fsynced tail survives, possibly cutting
// a record in half.
//
// Record framing is [u32 length][u32 crc32(payload)][payload].  Replay
// walks frames from the front and stops at the first short or
// CRC-mismatching frame, which is by construction inside the torn tail.
// Checkpoints snapshot the whole logical state into a blob that installs
// atomically (rename semantics: a crash mid-install keeps the previous
// checkpoint) and truncate the log prefix the snapshot covers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/observer.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace cpa::wal {

struct WalConfig {
  bool enabled = false;
  /// Virtual cost of one fsync barrier (group commit amortizes it).
  sim::Tick flush_latency = sim::msecs(2);
  /// Sequential read/write rate for checkpoint install and recovery scan.
  double log_bytes_per_sec = 200e6;
  /// Auto-checkpoint once this many log bytes accumulate (0 = manual only).
  std::uint64_t checkpoint_bytes = 0;
  /// Per-record redo-apply cost charged to the recovery duration.
  sim::Tick replay_record_cost = sim::usecs(2);
};

/// Software CRC32 (IEEE, reflected) — deterministic across platforms.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len);

/// Append-only log device in virtual time.  Bytes appended are volatile
/// until a flush barrier completes; `tear()` models the power failure.
class SimBlockDevice {
 public:
  SimBlockDevice(sim::Simulation& sim, sim::Tick flush_latency)
      : sim_(sim), flush_latency_(flush_latency) {}

  void append(std::string_view bytes) { data_ += bytes; }

  /// Makes everything appended so far durable after `flush_latency`; the
  /// callback fires at completion.  A tear() in flight swallows it (the
  /// machine lost power before the fsync returned).
  void flush(std::function<void()> done);

  /// Power failure: keep the durable prefix plus `tail_fraction` of the
  /// volatile tail (byte-granular, so the last surviving record is
  /// usually torn mid-frame).  Pending flush callbacks never fire.
  void tear(double tail_fraction);

  /// Drops `bytes` from the front (checkpoint truncation).
  void truncate_front(std::uint64_t bytes);

  /// Shrinks the image to its first `keep` bytes (recovery cuts the torn
  /// half-frame a tear() left behind, so later appends stay reachable).
  void truncate_back(std::uint64_t keep);

  [[nodiscard]] const std::string& bytes() const { return data_; }
  [[nodiscard]] std::uint64_t size() const { return data_.size(); }
  [[nodiscard]] std::uint64_t durable_size() const { return durable_; }

 private:
  sim::Simulation& sim_;
  sim::Tick flush_latency_;
  std::string data_;      // surviving log image (logical byte trimmed_ + i)
  std::uint64_t trimmed_ = 0;  // bytes dropped from the front (checkpoints)
  std::uint64_t durable_ = 0;  // absolute logical durability watermark
  /// Bumped by tear(); in-flight flush completions no-op on mismatch.
  std::uint64_t gen_ = 0;
};

/// Writer half: record framing, group-commit sync barriers, checkpoints.
class WalWriter {
 public:
  WalWriter(sim::Simulation& sim, WalConfig cfg, obs::Observer& obs);

  /// Frames and appends one redo record (volatile until sync()): the
  /// frame header and the payload go straight into the device image.
  void append_record(std::string_view payload);

  /// Durability barrier: fires `done` once every record appended before
  /// this call is on stable storage.  Concurrent callers share one flush
  /// (group commit); the batch size is recorded in wal.flush_batch_size.
  void sync(std::function<void()> done);

  /// The source of checkpoint blobs (the Durable wrapper's serialized
  /// state).  Must be set before checkpoints can run.
  void set_checkpoint_source(std::function<std::string()> src) {
    checkpoint_source_ = std::move(src);
  }

  /// Snapshot + install + truncate.  Safe to call while appends continue;
  /// records appended after the snapshot survive truncation.
  void checkpoint();

  /// Power failure at the current instant: tear the volatile tail at a
  /// seed-derived byte offset, drop pending sync/checkpoint completions.
  void crash(std::uint64_t seed);

  /// Recovery epilogue: drops everything past the last intact frame.  A
  /// tear usually cuts a record in half, and replay stops at that frame
  /// forever — without this cut, records appended after recovery would
  /// sit behind the torn garbage where no future replay can reach them.
  void trim_torn_tail(std::uint64_t valid_bytes);

  [[nodiscard]] const std::string& installed_checkpoint() const {
    return checkpoint_;
  }
  [[nodiscard]] const std::string& log_bytes() const { return dev_.bytes(); }
  [[nodiscard]] const WalConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t records_appended() const { return records_; }

 private:
  void start_flush();
  void maybe_auto_checkpoint();

  sim::Simulation& sim_;
  WalConfig cfg_;
  obs::Observer& obs_;
  SimBlockDevice dev_;
  // Per-record and per-flush instruments, looked up once.
  obs::Counter& c_records_;
  obs::Counter& c_appended_bytes_;
  obs::Counter& c_flushes_;
  sim::OnlineStats& s_flush_batch_;
  std::vector<std::function<void()>> waiters_;   // not yet covered by a flush
  std::vector<std::function<void()>> in_flight_; // covered by the running flush
  bool flush_running_ = false;
  bool checkpoint_running_ = false;
  std::function<std::string()> checkpoint_source_;
  std::string checkpoint_;  // last durably installed snapshot
  std::uint64_t bytes_since_checkpoint_ = 0;
  std::uint64_t records_ = 0;
  /// Bumped by crash(); stale flush/checkpoint completions no-op.
  std::uint64_t gen_ = 0;
};

/// Reader half: frame-by-frame replay of a (possibly torn) log image.
class WalReader {
 public:
  /// Applies `fn` to each intact record payload in order; stops at the
  /// first short or corrupt frame.  Returns the records applied; if
  /// `valid_bytes` is non-null it receives the byte offset where the walk
  /// stopped (== log.size() iff the log ends on a frame boundary).
  /// Each payload is a view into `log`, valid for the call.
  static std::uint64_t replay(std::string_view log,
                              const std::function<void(std::string_view)>& fn,
                              std::uint64_t* valid_bytes = nullptr);
};

}  // namespace cpa::wal
