// Scrub planning: what to scan, in which order, how fast, and the
// machine-comparable record of what a scrub run did.
//
// The walk itself needs drives, mounts, and metadata transactions, so it
// lives in HsmSystem::scrub(); this header holds the policy (ScrubConfig),
// the outcome (ScrubReport + per-repair log entries), and the pure
// ordering function both the HSM and the bench share.  Ordering reuses
// the tape-order idea of Sec 4.2.5: visiting fixity rows sorted by
// (cartridge, tape_seq) costs one mount per cartridge plus forward seeks,
// while naive archive order (row id) remounts on nearly every step.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "integrity/fixity.hpp"
#include "simcore/time.hpp"
#include "tape/library.hpp"

namespace cpa::integrity {

struct ScrubConfig {
  /// Mover node whose SAN/LAN legs carry the scan reads.
  tape::NodeId node = 0;
  /// Visit fixity rows in (cartridge, tape_seq) order; false = archive
  /// (row-id) order, the naive baseline of the scrub.order ledger row.
  bool tape_ordered = true;
  /// Scan-rate ceiling in bytes per virtual second; 0 = unthrottled.
  /// Enforced as a pause after each segment, so a scrub holding one drive
  /// yields the tape subsystem to foreground recalls (the paper's
  /// shared-FTA lesson).
  double rate_limit_bps = 0.0;
  /// Tenant the scrub's drive holds are charged to (always Maintenance
  /// QoS); empty = unmanaged plant maintenance.
  std::string tenant;

  // Fluent refinement, mirroring SystemConfig/JobSpec/RecallOptions.
  ScrubConfig& with_node(tape::NodeId n) {
    node = n;
    return *this;
  }
  ScrubConfig& with_tape_ordered(bool on = true) {
    tape_ordered = on;
    return *this;
  }
  ScrubConfig& with_rate_limit_bps(double bps) {
    rate_limit_bps = bps;
    return *this;
  }
  ScrubConfig& with_tenant(std::string name) {
    tenant = std::move(name);
    return *this;
  }
};

/// One repair decision, renderable so determinism tests can compare whole
/// repair logs across runs.
struct ScrubRepair {
  enum class Action : std::uint8_t {
    RepairedFromCopy,  // clean duplicate read, segment rewritten
    Remigrated,        // rewritten from still-resident/premigrated disk data
    Unrepairable,      // no clean source anywhere
  };
  std::uint64_t object_id = 0;
  std::uint64_t bad_cartridge = 0;
  std::uint64_t bad_seq = 0;
  std::uint64_t source_cartridge = 0;  // clean copy read (0 if none)
  std::uint64_t new_cartridge = 0;     // rewritten location (0 if none)
  std::uint64_t new_seq = 0;
  Action action = Action::Unrepairable;

  [[nodiscard]] std::string render() const;
};

struct ScrubReport {
  std::uint64_t segments_scanned = 0;
  std::uint64_t bytes_scanned = 0;
  std::uint64_t cartridges_visited = 0;  // distinct mounts in visit order
  std::uint64_t mismatches = 0;
  std::uint64_t repaired_from_copy = 0;
  std::uint64_t remigrated = 0;
  std::uint64_t unrepairable = 0;
  std::uint64_t read_errors = 0;  // scan reads lost to loud faults
  std::vector<ScrubRepair> repair_log;
  sim::Tick started = 0;
  sim::Tick finished = 0;

  [[nodiscard]] std::uint64_t repaired() const {
    return repaired_from_copy + remigrated;
  }
  [[nodiscard]] double scan_rate_bps() const {
    const double dt = sim::to_seconds(finished - started);
    return dt > 0 ? static_cast<double>(bytes_scanned) / dt : 0.0;
  }
  /// The whole repair log, one line per entry — equal strings prove two
  /// runs made identical decisions.
  [[nodiscard]] std::string render_repair_log() const;
};

/// Snapshot of the rows a scrub pass will visit, in visit order.  Only
/// rows still expected to verify (status Ok) are scanned, so a segment
/// declared unrepairable is reported exactly once across runs.
[[nodiscard]] std::vector<FixityRow> plan_scrub_order(const FixityDb& db,
                                                      bool tape_ordered);

}  // namespace cpa::integrity
