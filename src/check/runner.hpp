// Campaign execution: one ChaosCampaign against one live plant.
//
// The runner turns a campaign's op list into interleaved per-lane chains
// of real API calls (submit / run_migration_cycle / scrub / delete) in
// virtual time, wires the InvariantRegistry's continuous oracles into the
// event loop through a CheckProbe, and closes the run with the end-to-end
// oracles the registry cannot see from the inside: a verified restore of
// every lane (no-lost-files), a byte-exact pfcm of every clean lane (the
// kill-and-restart / RestartJournal oracle — node crashes forced journal
// resumes mid-campaign), and the optional Doctor sabotage that proves the
// oracles would catch a real bug.  Everything the run does is appended to
// a canonical log; fnv1a64(campaign + log) is the campaign digest that
// same-seed replays must reproduce bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/campaign.hpp"
#include "check/invariants.hpp"

namespace cpa::check {

struct RunOptions {
  /// Save the observer's span trace here after the run (pfprof input).
  std::string save_trace;
  /// Continuous-oracle budget: run them every this many fired events.
  std::uint64_t check_every = 2048;
};

struct ChaosResult {
  /// Everything the run did, in execution order (deterministic).
  std::string log;
  /// fnv1a64(campaign.render() + log): the replay-identity digest.
  std::uint64_t digest = 0;
  /// Time-free final-state rendering (per-file fate, restore verdicts);
  /// comparable across a faulted run and its fault-free twin.
  std::string state;
  std::uint64_t state_digest = 0;
  std::vector<Violation> violations;
  /// True when every job succeeded and nothing was declared unrepairable
  /// or failed — the precondition for the metamorphic state comparison.
  bool fully_recovered = true;
  unsigned ops_executed = 0;
  unsigned ops_skipped = 0;
  unsigned jobs_submitted = 0;
  unsigned cancels_landed = 0;
  sim::Tick drained_at = 0;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string render_violations() const;
};

/// Executes a campaign (any op subset of one — the shrinker relies on
/// every op re-checking its preconditions and skipping when unmet).
ChaosResult run_campaign(const ChaosCampaign& campaign,
                         const RunOptions& opt = {});

/// generate + run in one stroke.
ChaosResult run_chaos(const ChaosConfig& cfg, const RunOptions& opt = {});

/// The copy-pasteable reproduction command for a config.
[[nodiscard]] std::string repro_line(const ChaosConfig& cfg);

/// One seed-corpus line: `<seed> [ops] [crash] # comment`.  The `crash`
/// token runs the seed with crash-restart ops (and so the WAL) on.
struct CorpusEntry {
  std::uint64_t seed = 0;
  unsigned ops = 0;
  bool crashes = false;
  std::string comment;
};

/// Parses a seed corpus (tests/check/seed_corpus.txt); entries without an
/// op count get `default_ops`.  Empty when the file is unreadable.
[[nodiscard]] std::vector<CorpusEntry> load_corpus(const std::string& path,
                                                   unsigned default_ops);

}  // namespace cpa::check
