// Scan-equivalence oracle.  PolicyEngine::run_scan tests a rule's
// path-free conditions first and builds a path only for inodes that pass
// them; it must report exactly what the plain definition does: every inode
// in id order, its path from path_of(), each rule's conditions evaluated
// in declaration order.  Seeded random namespaces meet seeded random rule
// sets.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "pfs/policy.hpp"
#include "simcore/rng.hpp"
#include "simcore/units.hpp"

namespace cpa::pfs {
namespace {

FsConfig config() {
  FsConfig cfg;
  cfg.pools = {
      PoolConfig{"fast", 0, 4, false},
      PoolConfig{"slow", 0, 2, false},
      PoolConfig{"tape", 0, 1, true},
  };
  return cfg;
}

const char* const kPools[] = {"fast", "slow", "tape"};
const std::uint64_t kSizes[] = {0, 1 * kMB, 4 * kMB, 16 * kMB};
const std::uint64_t kAgesSeconds[] = {0, 1800, 3600, 4 * 3600, 12 * 3600};
const char* const kGlobs[] = {"*",      "/d1*",  "*/f2*", "/n*/m*/*",
                              "*/d?/*", "/d0/*", "*3"};

template <typename T, std::size_t N>
const T& pick(sim::Rng& rng, const T (&options)[N]) {
  return options[rng.uniform_u64(0, N - 1)];
}

// Grows a namespace one random step at a time: nested directories
// (mkdirs), files written at mtimes spread over hours, unlinks, DMAPI
// transitions, rewrites and pool moves, and directory renames under a
// directory created after them, so a parent's id can exceed its child's.
class RandomNamespace {
 public:
  RandomNamespace(sim::Simulation& sim, FileSystem& fs, std::uint64_t seed)
      : sim_(sim), fs_(fs), rng_(seed) {
    dirs_.push_back(fs_.stat("/").value().fid);
  }

  void step() {
    sim_.run_until(sim_.now() + sim::secs(rng_.uniform(0.0, 1200.0)));
    switch (rng_.uniform_u64(0, 9)) {
      case 0:
      case 1: make_dirs(); break;
      case 2:
      case 3:
      case 4: make_file(); break;
      case 5: unlink_file(); break;
      case 6:
      case 7: dmapi_step(); break;
      case 8: rename_under_newer_dir(); break;
      default: rewrite_or_move(); break;
    }
  }

  [[nodiscard]] int renames() const { return renames_; }

 private:
  std::string path(FileId fid) const { return fs_.path_of(fid).value(); }
  std::string fresh_name(char prefix) {
    return prefix + std::to_string(next_name_++);
  }
  FileId any(const std::vector<FileId>& v) {
    return v[rng_.uniform_u64(0, v.size() - 1)];
  }

  void make_dirs() {
    const std::string top = join_path(path(any(dirs_)), fresh_name('d'));
    const std::string leaf = join_path(top, fresh_name('d'));
    ASSERT_EQ(fs_.mkdirs(leaf), Errc::Ok);
    dirs_.push_back(fs_.stat(top).value().fid);
    dirs_.push_back(fs_.stat(leaf).value().fid);
  }

  void make_file() {
    const std::string p = join_path(path(any(dirs_)), fresh_name('f'));
    const Result<FileId> fid = fs_.create(p, kPools[rng_.uniform_u64(0, 1)]);
    ASSERT_TRUE(fid.ok());
    ASSERT_EQ(fs_.write_all(p, pick(rng_, kSizes), rng_.next_u64()), Errc::Ok);
    files_.push_back(fid.value());
  }

  void unlink_file() {
    if (files_.empty()) return;
    const std::size_t i = rng_.uniform_u64(0, files_.size() - 1);
    ASSERT_EQ(fs_.unlink(path(files_[i])), Errc::Ok);
    files_.erase(files_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  void dmapi_step() {
    if (files_.empty()) return;
    const std::string p = path(any(files_));
    switch (fs_.stat(p).value().dmapi) {
      case DmapiState::Resident:
        ASSERT_EQ(fs_.premigrate(p), Errc::Ok);
        break;
      case DmapiState::Premigrated:
        ASSERT_EQ(rng_.chance(0.7) ? fs_.punch(p) : fs_.make_resident(p), Errc::Ok);
        break;
      case DmapiState::Migrated:
        ASSERT_EQ(fs_.mark_recalled(p), Errc::Ok);
        break;
    }
  }

  void rename_under_newer_dir() {
    if (dirs_.size() < 2) return;
    const FileId moved = dirs_[rng_.uniform_u64(1, dirs_.size() - 1)];  // not "/"
    const std::string host = "/" + fresh_name('n');
    ASSERT_TRUE(fs_.mkdir(host).ok());
    dirs_.push_back(fs_.stat(host).value().fid);
    ASSERT_EQ(fs_.rename(path(moved), join_path(host, fresh_name('m'))), Errc::Ok);
    ++renames_;
  }

  void rewrite_or_move() {
    if (files_.empty()) return;
    const std::string p = path(any(files_));
    if (rng_.chance(0.5)) {
      ASSERT_EQ(fs_.write_all(p, pick(rng_, kSizes), rng_.next_u64()), Errc::Ok);
    } else {
      ASSERT_EQ(fs_.move_to_pool(p, kPools[rng_.uniform_u64(0, 1)]), Errc::Ok);
    }
  }

  sim::Simulation& sim_;
  FileSystem& fs_;
  sim::Rng rng_;
  std::vector<FileId> dirs_;
  std::vector<FileId> files_;
  int next_name_ = 0;
  int renames_ = 0;
};

Condition random_condition(sim::Rng& rng) {
  static constexpr Condition::Op kNumericOps[] = {
      Condition::Op::Ge, Condition::Op::Le, Condition::Op::Eq, Condition::Op::Ne};
  static constexpr DmapiState kStates[] = {
      DmapiState::Resident, DmapiState::Premigrated, DmapiState::Migrated};
  const bool negate = rng.chance(0.3);
  Condition c;
  switch (rng.uniform_u64(0, 4)) {
    case 0:
      c.field = Condition::Field::SizeBytes;
      c.op = pick(rng, kNumericOps);
      c.num = pick(rng, kSizes);
      break;
    case 1:
      c.field = Condition::Field::AgeSeconds;
      c.op = pick(rng, kNumericOps);
      c.num = pick(rng, kAgesSeconds);
      break;
    case 2:
      c.field = Condition::Field::Pool;
      c.op = negate ? Condition::Op::Ne : Condition::Op::Eq;
      c.str = pick(rng, kPools);
      break;
    case 3:
      c.field = Condition::Field::PathGlob;
      c.op = negate ? Condition::Op::Ne : Condition::Op::Match;
      c.str = pick(rng, kGlobs);
      break;
    default:
      c.field = Condition::Field::Dmapi;
      c.op = negate ? Condition::Op::Ne : Condition::Op::Eq;
      c.state = pick(rng, kStates);
      break;
  }
  return c;
}

std::vector<Rule> random_rules(sim::Rng& rng) {
  static constexpr Rule::Action kActions[] = {
      Rule::Action::List, Rule::Action::MigrateToPool,
      Rule::Action::MigrateExternal, Rule::Action::Delete, Rule::Action::Place};
  std::vector<Rule> rules(rng.uniform_u64(1, 6));
  for (std::size_t i = 0; i < rules.size(); ++i) {
    rules[i].name = "r" + std::to_string(i);
    rules[i].action = pick(rng, kActions);
    rules[i].target = "slow";
    for (std::uint64_t k = rng.uniform_u64(0, 3); k > 0; --k) {
      rules[i].where.push_back(random_condition(rng));
    }
  }
  return rules;
}

// The definition run_scan must meet.  Inodes come from a readdir walk, not
// from for_each_inode, and each file's path from path_of().
ScanReport reference_scan(const FileSystem& fs, const std::vector<Rule>& rules,
                          unsigned streams) {
  std::vector<std::pair<InodeAttrs, std::string>> inodes;
  inodes.emplace_back(fs.stat("/").value(), "/");
  for (std::vector<std::string> pending{"/"}; !pending.empty();) {
    const std::string dir = pending.back();
    pending.pop_back();
    for (const DirEntry& e : fs.readdir(dir).value()) {
      std::string p = join_path(dir, e.name);
      if (e.kind == FileKind::Directory) pending.push_back(p);
      inodes.emplace_back(fs.stat(p).value(), std::move(p));
    }
  }
  std::sort(inodes.begin(), inodes.end(), [](const auto& x, const auto& y) {
    return x.first.fid.inode < y.first.fid.inode;
  });

  ScanReport ref;
  for (const Rule& r : rules) {
    if (r.action != Rule::Action::Place) ref.matches[r.name];
  }
  const sim::Tick now = fs.sim().now();
  for (const auto& [a, walked] : inodes) {
    ++ref.inodes_scanned;
    if (a.kind != FileKind::Regular) continue;
    const std::string path = fs.path_of(a.fid).value();
    EXPECT_EQ(path, walked);
    bool claimed = false;
    for (const Rule& r : rules) {
      if (r.action == Rule::Action::Place) continue;
      const bool list = r.action == Rule::Action::List;
      if ((list || !claimed) && r.matches(path, a, now)) {
        ref.matches[r.name].push_back(PolicyMatch{path, a});
        claimed = claimed || !list;
      }
    }
  }
  ref.scan_duration = fs.scan_duration(ref.inodes_scanned, streams);
  return ref;
}

void expect_same(const ScanReport& got, const ScanReport& want) {
  EXPECT_EQ(got.inodes_scanned, want.inodes_scanned);
  EXPECT_EQ(got.scan_duration, want.scan_duration);
  ASSERT_EQ(got.matches.size(), want.matches.size());
  for (const auto& [rule, list] : want.matches) {
    const auto it = got.matches.find(rule);
    ASSERT_TRUE(it != got.matches.end()) << rule;
    ASSERT_EQ(it->second.size(), list.size()) << rule;
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_EQ(it->second[i].path, list[i].path) << rule;
      EXPECT_TRUE(it->second[i].attrs == list[i].attrs) << rule << " " << list[i].path;
    }
  }
}

class ScanOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScanOracle, RunScanEqualsReference) {
  sim::Simulation sim;
  FileSystem fs(sim, config());
  RandomNamespace ns(sim, fs, GetParam());
  sim::Rng rng(GetParam() ^ 0x5CA9ULL);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 50; ++i) ns.step();
    for (int k = 0; k < 6; ++k) {
      const std::vector<Rule> rules = random_rules(rng);
      PolicyEngine engine;
      for (const Rule& r : rules) engine.add_rule(r);
      const auto streams = static_cast<unsigned>(rng.uniform_u64(1, 4));
      const ScanReport got = engine.run_scan(fs, streams);
      EXPECT_EQ(got.inodes_scanned, fs.total_inodes());
      expect_same(got, reference_scan(fs, rules, streams));
    }
  }
  EXPECT_GT(ns.renames(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanOracle, ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace cpa::pfs
