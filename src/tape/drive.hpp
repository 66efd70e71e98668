// A tape drive: a strictly serial device with expensive mechanical state.
//
// All operations queue FIFO on the drive and take virtual time per the
// TapeTimings model.  The drive tracks which cluster node currently owns
// the data path: in a LAN-free setup each node talks to the drive directly
// over the SAN, and when a mounted tape's I/O hops between nodes the drive
// must rewind and re-verify the volume label (the Sec 6.2 "massive
// performance hit even though the tape is not physically dismounted").
//
// Data transfers are flows through the shared FlowNetwork: callers supply
// the SAN/HBA pools on the path and the drive adds its own streaming-rate
// pool, so concurrent drives contend realistically for SAN bandwidth.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "obs/observer.hpp"
#include "simcore/flow_network.hpp"
#include "simcore/simulation.hpp"
#include "tape/cartridge.hpp"
#include "tape/timings.hpp"

namespace cpa::tape {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

struct DriveStats {
  std::uint64_t mounts = 0;
  std::uint64_t unmounts = 0;
  std::uint64_t label_verifies = 0;
  std::uint64_t handoffs = 0;       // ownership changes on a mounted tape
  std::uint64_t seeks = 0;
  std::uint64_t backhitches = 0;
  std::uint64_t write_txns = 0;
  std::uint64_t read_txns = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  sim::Tick mount_time = 0;
  sim::Tick seek_time = 0;
  sim::Tick backhitch_time = 0;
  sim::Tick transfer_time = 0;
};

/// A write's completion: the segment written and its sequence number on
/// the cartridge, or nullptr and 0 when the write failed.
using WriteDone = std::function<void(const Segment* seg, std::uint64_t seq)>;

class TapeDrive {
 public:
  TapeDrive(sim::Simulation& sim, sim::FlowNetwork& net, std::string name,
            TapeTimings timings);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const TapeTimings& timings() const { return timings_; }
  [[nodiscard]] sim::PoolId rate_pool() const { return rate_pool_; }
  [[nodiscard]] Cartridge* mounted() const { return cartridge_; }
  [[nodiscard]] bool busy() const { return busy_ || !ops_.empty(); }
  [[nodiscard]] const DriveStats& stats() const { return stats_; }

  /// Routes spans and tape.* metrics to `obs` (all drives share the same
  /// counters; each drive traces onto its own named track).
  void set_observer(obs::Observer& obs);

  /// Marks the drive failed / repaired.  Failing a drive aborts any
  /// in-flight data transfer (its completion sees nullptr) and makes
  /// queued/new read and write ops fail fast.  Mechanical mount/unmount
  /// still works, so the library can recover the stuck cartridge.
  void set_failed(bool failed);
  [[nodiscard]] bool failed() const { return failed_; }

  /// Mounts a cartridge (load + label verify).  Drive must be empty when
  /// the operation runs.
  void mount(Cartridge* cartridge, std::function<void()> done);

  /// Rewinds and unloads the mounted cartridge.
  void unmount(std::function<void()> done);

  /// Appends an object to the mounted cartridge from `node`, streaming the
  /// bytes through `path` (SAN / HBA pools).  The per-transaction stop
  /// (backhitch) is charged afterwards.  Fails (done(nullptr, 0)) if no
  /// cartridge is mounted or it cannot fit the object.  `parent` causally
  /// links the op (and its queue-wait/position sub-spans) under the
  /// caller's span for the critical-path profiler.
  void write_object(NodeId node, std::uint64_t object_id, std::uint64_t bytes,
                    std::vector<sim::PathLeg> path, WriteDone done,
                    obs::SpanId parent = {});

  /// Reads the segment with sequence number `seq` from `node`.  Reading
  /// the physically next segment streams without a seek or backhitch;
  /// anything else pays a locate.  done(nullptr) when seq is absent.
  void read_object(NodeId node, std::uint64_t seq,
                   std::vector<sim::PathLeg> path,
                   std::function<void(const Segment*)> done,
                   obs::SpanId parent = {});

 private:
  void enqueue(std::function<void(std::function<void()>)> op);
  void run_next();
  /// Charges any owner-handoff penalty, then continues.
  void with_ownership(NodeId node, std::function<void()> then);
  /// Re-resolves the cached tape.* instruments against obs_'s registry.
  void cache_instruments();

  sim::Simulation& sim_;
  sim::FlowNetwork& net_;
  std::string name_;
  TapeTimings timings_;
  sim::PoolId rate_pool_;

  Cartridge* cartridge_ = nullptr;
  std::uint64_t position_ = 0;  // current head byte position
  NodeId owner_ = kNoNode;      // node owning the data path
  bool busy_ = false;
  bool failed_ = false;
  // Set while a data flow is in flight; fired by set_failed(true) to abort
  // the transfer and complete the op with nullptr.
  std::function<void()> interrupt_;
  std::deque<std::function<void(std::function<void()>)>> ops_;
  DriveStats stats_;

  obs::Observer* obs_ = &obs::Observer::nil();
  // Cached so hot-path updates never look names up.
  obs::Counter* c_mounts_ = nullptr;
  obs::Counter* c_unmounts_ = nullptr;
  obs::Counter* c_handoffs_ = nullptr;
  obs::Counter* c_seeks_ = nullptr;
  obs::Counter* c_backhitches_ = nullptr;
  obs::Counter* c_write_txns_ = nullptr;
  obs::Counter* c_read_txns_ = nullptr;
  obs::Counter* c_bytes_written_ = nullptr;
  obs::Counter* c_bytes_read_ = nullptr;
  obs::Gauge* g_mount_seconds_ = nullptr;
  obs::Gauge* g_seek_seconds_ = nullptr;
  obs::Gauge* g_backhitch_seconds_ = nullptr;
};

}  // namespace cpa::tape
