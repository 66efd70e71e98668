// Chaos campaign generation: randomized end-to-end adversity, seeded.
//
// The paper's evidence is observational — 62 production jobs rode out 18
// operation days of drive failures, node crashes and operator restarts.
// A hand-written test can replay one such story; a *generator* can replay
// millions.  This header defines the campaign grammar: a ChaosCampaign is
// a deterministic function of (ChaosConfig, seed) composing mixed-tenant
// job lanes (make-tree / archive / migrate / restore / delete / cancel)
// with a maintenance lane (scrubs, reconciles) and a random FaultPlan of
// drive failures, node crashes, media errors and silent corruption.  The
// runner (runner.hpp) executes a campaign against a live
// CotsParallelArchive in virtual time; the same seed always produces the
// identical campaign, the identical interleaving, and the identical
// digest — FoundationDB-style simulation testing for the archive.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "archive/system.hpp"
#include "fault/plan.hpp"
#include "sched/qos.hpp"
#include "simcore/time.hpp"

namespace cpa::check {

/// Deliberate sabotage the runner applies so the harness can prove it
/// would catch a real bug (and that the shrinker can minimize one).
enum class Doctor : std::uint8_t {
  None,
  /// After the campaign drains, silently rot one live tape segment the
  /// fault plan never touched — a stand-in for a broken repair path that
  /// "fixes" a segment without actually rewriting it.  The fixity
  /// consistency oracle must flag it as undetected corruption.
  BreakScrubRepair,
  /// After the campaign drains, erase one live object's fixity rows — a
  /// stand-in for a repair that forgets to re-record checksums.  The
  /// structural oracle must flag the uncovered tape location.
  DropFixityRow,
};

[[nodiscard]] const char* to_string(Doctor d);

struct ChaosConfig {
  std::uint64_t seed = 1;
  /// Operation budget: the generator emits at most this many ops.
  unsigned ops = 300;
  /// Concurrent job lanes (trees); 0 = derived from `ops`.
  unsigned lanes = 0;
  /// Distinct tenants jobs are spread across (quotas generated).
  unsigned tenants = 3;
  /// Arm a seeded random FaultPlan (drive failures, node crashes, media
  /// errors, server restarts) against the plant.
  bool faults = true;
  /// Include silent tape corruption in the fault plan.  Off for the
  /// fault-free metamorphic twin: corruption legitimately changes the
  /// final archive state (repairs relocate segments, rot can be
  /// unrepairable), so state-equality comparisons exclude it.
  bool corruptions = true;
  /// Emit cancel races against freshly submitted jobs.  Off in
  /// metamorphic state-compare runs: whether a cancel lands depends on
  /// timing, which faults shift.
  bool cancels = true;
  /// Emit crash-restart ops (whole-archive power failure + WAL recovery)
  /// and run the plant with the write-ahead log enabled.  The fault-free
  /// twin keeps them: crash ops are part of the op sequence, so state
  /// equality between the runs exercises recovery itself.
  bool crashes = false;
  /// After the campaign drains (all lanes quiescent, before the final
  /// sweep), power-fail and recover the whole archive once.  The
  /// metamorphic gate: the final state digest must equal the same
  /// campaign's digest without the quiescent crash.
  bool quiescent_crash = false;
  /// Enable the multi-tenant admission scheduler.
  bool use_sched = true;
  /// Record spans so the profiler-conservation oracle can run.
  bool tracing = true;
  /// Second tape copy pool, so corruption is normally repairable.
  unsigned tape_copies = 2;
  /// Mutations per metadata round-trip on the archive servers; 1 is the
  /// paper's stop-and-wait server.  The knob is plant configuration, not
  /// campaign grammar: it never feeds render(), so the op sequence of a
  /// (config, seed) pair is the same at every batch size.
  unsigned md_batch = 1;
  Doctor doctor = Doctor::None;

  // Fluent refinement, mirroring SystemConfig/JobSpec.
  ChaosConfig& with_seed(std::uint64_t s) { seed = s; return *this; }
  ChaosConfig& with_ops(unsigned n) { ops = n; return *this; }
  ChaosConfig& with_faults(bool on) { faults = on; return *this; }
  ChaosConfig& with_corruptions(bool on) { corruptions = on; return *this; }
  ChaosConfig& with_cancels(bool on) { cancels = on; return *this; }
  ChaosConfig& with_crashes(bool on) { crashes = on; return *this; }
  ChaosConfig& with_quiescent_crash(bool on) {
    quiescent_crash = on;
    return *this;
  }
  ChaosConfig& with_sched(bool on) { use_sched = on; return *this; }
  ChaosConfig& with_tracing(bool on) { tracing = on; return *this; }
  ChaosConfig& with_md_batch(unsigned n) { md_batch = n; return *this; }
  ChaosConfig& with_doctor(Doctor d) { doctor = d; return *this; }

  /// The fault-free metamorphic twin of this config: same seed, same op
  /// sequence, no faults.  Final archive state must match a faulted run
  /// whenever the faulted run recovered fully.
  [[nodiscard]] ChaosConfig fault_free_twin() const {
    ChaosConfig c = *this;
    c.faults = false;
    c.corruptions = false;
    return c;
  }
};

enum class OpKind : std::uint8_t {
  MakeTree,   // materialize `files` files of ~`bytes` each on scratch
  Archive,    // pfcp scratch -> archive (maybe raced by a cancel)
  Migrate,    // ILM cycle: migrate the lane's resident files to tape
  Restore,    // pfcp archive -> scratch restage (recalls migrated files)
  DeleteOne,  // synchronous_delete of one archived file
  Scrub,      // full-archive fixity scrub (maintenance lane)
  Reconcile,  // orphan tree-walk (maintenance lane)
  /// Whole-archive power failure mid-campaign followed by WAL recovery
  /// (maintenance lane).  `a` carries the seed-derived torn-tail seed.
  CrashRestart,
};

[[nodiscard]] const char* to_string(OpKind k);

struct ChaosOp {
  OpKind kind = OpKind::MakeTree;
  /// Job lane (tree index); Scrub/Reconcile run on the maintenance lane.
  unsigned lane = 0;
  /// Virtual-time gap between the previous op on this lane finishing and
  /// this op starting.
  sim::Tick gap = 0;
  /// MakeTree: file count.  DeleteOne: file index within the tree.
  std::uint64_t a = 0;
  /// MakeTree: per-file size in bytes.
  std::uint64_t b = 0;
  /// Archive only: race a JobHandle::cancel() this many ticks after
  /// submit (0 = same-tick, landing in the deferred-launch window).
  /// Negative = no cancel race.
  std::int64_t cancel_after = -1;

  /// One-line canonical form, stable across platforms (digest input).
  [[nodiscard]] std::string render() const;
};

struct ChaosCampaign {
  ChaosConfig cfg;
  /// Per-lane tenant names ("t0".."tN") and QoS classes.
  std::vector<std::string> lane_tenant;
  std::vector<sched::QosClass> lane_qos;
  /// The op sequence, in generation order.  Lanes execute their ops
  /// sequentially; distinct lanes interleave freely in virtual time.
  std::vector<ChaosOp> ops;
  /// Scripted adversity armed at system construction.
  fault::FaultPlan fault_plan;

  [[nodiscard]] unsigned lane_count() const {
    return static_cast<unsigned>(lane_tenant.size());
  }
  /// Canonical multi-line rendering (ops + plan), the replayable spec.
  [[nodiscard]] std::string render() const;

  /// Deterministic generation: the same config (seed included) always
  /// yields the identical campaign on every platform.
  static ChaosCampaign generate(const ChaosConfig& cfg);
};

/// The plant a campaign runs against: SystemConfig::small() refined with
/// copy pools, tenant quotas, tracing, and the campaign's fault plan.
[[nodiscard]] archive::SystemConfig plant_for(const ChaosCampaign& campaign);

}  // namespace cpa::check
