// ILM policy engine (GPFS-style).
//
// GPFS policies are SQL-ish rules evaluated by a parallel metadata scan.
// The archive uses three kinds (Secs 4.2.1, 4.2.4, 4.2.7):
//   * placement rules    — choose the storage pool at create time
//                          (fast FC pool by default, "slow" pool for small
//                          files);
//   * list rules         — emit candidate file lists (the parallel data
//                          migrator consumes these instead of letting the
//                          policy engine migrate directly);
//   * migrate/delete     — move data between pools / to the external
//                          (tape) pool, or delete (trashcan aging).
//
// Rules carry structured AND-ed conditions rather than free-form lambdas
// so they can be printed, compared, and tested.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/observer.hpp"
#include "pfs/filesystem.hpp"

namespace cpa::pfs {

struct Condition {
  enum class Field : std::uint8_t {
    SizeBytes,    // numeric
    AgeSeconds,   // numeric: now - mtime
    Pool,         // string equality
    PathGlob,     // glob over full path
    Dmapi,        // residency state
  };
  enum class Op : std::uint8_t { Ge, Le, Eq, Ne, Match };

  Field field = Field::SizeBytes;
  Op op = Op::Ge;
  std::uint64_t num = 0;
  std::string str;
  DmapiState state = DmapiState::Resident;

  [[nodiscard]] bool eval(const std::string& path, const InodeAttrs& a,
                          sim::Tick now) const;
  [[nodiscard]] std::string to_string() const;

  // Convenience constructors, e.g. Condition::size_ge(100 * kMB).
  static Condition size_ge(std::uint64_t bytes);
  static Condition size_le(std::uint64_t bytes);
  static Condition age_ge(double seconds);
  static Condition pool_is(std::string pool);
  static Condition path_glob(std::string pattern);
  static Condition dmapi_is(DmapiState s);
  static Condition dmapi_not(DmapiState s);
};

struct Rule {
  enum class Action : std::uint8_t {
    Place,            // target = pool (applies at create)
    MigrateToPool,    // target = destination disk pool
    MigrateExternal,  // target = external pool name (tape side)
    Delete,
    List,             // target = list name
  };

  std::string name;
  Action action = Rule::Action::List;
  std::string target;
  std::vector<Condition> where;  // conjunction; empty = match everything

  [[nodiscard]] bool matches(const std::string& path, const InodeAttrs& a,
                             sim::Tick now) const;
  /// The same conjunction over a scan's inode view.  Path-free conditions
  /// are tested first (AND commutes), so the path is built only for an
  /// inode that passes all of them.
  [[nodiscard]] bool matches(const InodeView& v, sim::Tick now) const;
  [[nodiscard]] std::string to_string() const;
};

struct PolicyMatch {
  std::string path;
  InodeAttrs attrs;
};

struct ScanReport {
  /// rule name -> matched files (in inode order).
  std::map<std::string, std::vector<PolicyMatch>> matches;
  std::uint64_t inodes_scanned = 0;
  sim::Tick scan_duration = 0;
};

class PolicyEngine {
 public:
  void add_rule(Rule rule) { rules_.push_back(std::move(rule)); }
  [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }

  /// Pool for a newly created file: first matching placement rule, or
  /// empty if none (caller falls back to the file system default).
  /// Placement is evaluated before data exists, so size-based conditions
  /// see size 0 — exactly GPFS's create-time limitation.
  [[nodiscard]] std::string placement_pool(const std::string& path,
                                           sim::Tick now) const;

  /// Scans every regular file in inode order.  For Migrate/Delete actions
  /// the first matching rule claims the file (GPFS first-match semantics);
  /// List rules each collect independently.  A file's path is built only
  /// once some rule's path-free conditions all pass.  `streams` models the
  /// number of parallel scan processes for the duration estimate, which
  /// charges every inode.
  [[nodiscard]] ScanReport run_scan(const FileSystem& fs, unsigned streams = 1) const;

  /// Routes pfs.policy_* metrics and scan spans to `obs`.
  void set_observer(obs::Observer& obs) { obs_ = &obs; }

 private:
  std::vector<Rule> rules_;
  obs::Observer* obs_ = &obs::Observer::nil();
};

}  // namespace cpa::pfs
