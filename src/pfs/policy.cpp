#include "pfs/policy.hpp"

#include "pfs/glob.hpp"

namespace cpa::pfs {
namespace {

bool cmp_u64(Condition::Op op, std::uint64_t lhs, std::uint64_t rhs) {
  switch (op) {
    case Condition::Op::Ge: return lhs >= rhs;
    case Condition::Op::Le: return lhs <= rhs;
    case Condition::Op::Eq: return lhs == rhs;
    case Condition::Op::Ne: return lhs != rhs;
    case Condition::Op::Match: return false;
  }
  return false;
}

// A stat-style InodeAttrs and its path, read through the accessors of a
// scan's InodeView so one evaluator serves both.
struct AttrsWithPath {
  const std::string& full_path;
  const InodeAttrs& attrs;
  [[nodiscard]] std::uint64_t size() const { return attrs.size; }
  [[nodiscard]] sim::Tick mtime() const { return attrs.mtime; }
  [[nodiscard]] const std::string& pool() const { return attrs.pool; }
  [[nodiscard]] DmapiState dmapi() const { return attrs.dmapi; }
  [[nodiscard]] const std::string& path() const { return full_path; }
};

// `Subject` is AttrsWithPath or InodeView; only PathGlob reads the path.
template <typename Subject>
bool eval_condition(const Condition& c, const Subject& s, sim::Tick now) {
  using Field = Condition::Field;
  using Op = Condition::Op;
  switch (c.field) {
    case Field::SizeBytes:
      return cmp_u64(c.op, s.size(), c.num);
    case Field::AgeSeconds: {
      const sim::Tick age = now > s.mtime() ? now - s.mtime() : 0;
      return cmp_u64(c.op, static_cast<std::uint64_t>(sim::to_seconds(age)), c.num);
    }
    case Field::Pool:
      return c.op == Op::Ne ? s.pool() != c.str : s.pool() == c.str;
    case Field::PathGlob: {
      const bool m = glob_match(c.str, s.path());
      return c.op == Op::Ne ? !m : m;
    }
    case Field::Dmapi:
      return c.op == Op::Ne ? s.dmapi() != c.state : s.dmapi() == c.state;
  }
  return false;
}

}  // namespace

bool Condition::eval(const std::string& path, const InodeAttrs& a,
                     sim::Tick now) const {
  return eval_condition(*this, AttrsWithPath{path, a}, now);
}

std::string Condition::to_string() const {
  auto op_str = [this] {
    switch (op) {
      case Op::Ge: return ">=";
      case Op::Le: return "<=";
      case Op::Eq: return "==";
      case Op::Ne: return "!=";
      case Op::Match: return "LIKE";
    }
    return "?";
  };
  switch (field) {
    case Field::SizeBytes:
      return "size " + std::string(op_str()) + " " + std::to_string(num);
    case Field::AgeSeconds:
      return "age " + std::string(op_str()) + " " + std::to_string(num) + "s";
    case Field::Pool:
      return "pool " + std::string(op_str()) + " '" + str + "'";
    case Field::PathGlob:
      return "path " + std::string(op_str()) + " '" + str + "'";
    case Field::Dmapi:
      return std::string("state ") + op_str() + " " + cpa::pfs::to_string(state);
  }
  return "?";
}

Condition Condition::size_ge(std::uint64_t bytes) {
  Condition c;
  c.field = Field::SizeBytes;
  c.op = Op::Ge;
  c.num = bytes;
  return c;
}

Condition Condition::size_le(std::uint64_t bytes) {
  Condition c;
  c.field = Field::SizeBytes;
  c.op = Op::Le;
  c.num = bytes;
  return c;
}

Condition Condition::age_ge(double seconds) {
  Condition c;
  c.field = Field::AgeSeconds;
  c.op = Op::Ge;
  c.num = static_cast<std::uint64_t>(seconds);
  return c;
}

Condition Condition::pool_is(std::string pool) {
  Condition c;
  c.field = Field::Pool;
  c.op = Op::Eq;
  c.str = std::move(pool);
  return c;
}

Condition Condition::path_glob(std::string pattern) {
  Condition c;
  c.field = Field::PathGlob;
  c.op = Op::Match;
  c.str = std::move(pattern);
  return c;
}

Condition Condition::dmapi_is(DmapiState s) {
  Condition c;
  c.field = Field::Dmapi;
  c.op = Op::Eq;
  c.state = s;
  return c;
}

Condition Condition::dmapi_not(DmapiState s) {
  Condition c;
  c.field = Field::Dmapi;
  c.op = Op::Ne;
  c.state = s;
  return c;
}

bool Rule::matches(const std::string& path, const InodeAttrs& a,
                   sim::Tick now) const {
  for (const Condition& c : where) {
    if (!c.eval(path, a, now)) return false;
  }
  return true;
}

bool Rule::matches(const InodeView& v, sim::Tick now) const {
  for (const Condition& c : where) {
    if (c.field != Condition::Field::PathGlob && !eval_condition(c, v, now)) {
      return false;
    }
  }
  for (const Condition& c : where) {
    if (c.field == Condition::Field::PathGlob && !eval_condition(c, v, now)) {
      return false;
    }
  }
  return true;
}

std::string Rule::to_string() const {
  auto action_str = [this] {
    switch (action) {
      case Action::Place: return "PLACE";
      case Action::MigrateToPool: return "MIGRATE";
      case Action::MigrateExternal: return "MIGRATE EXTERNAL";
      case Action::Delete: return "DELETE";
      case Action::List: return "LIST";
    }
    return "?";
  };
  std::string out = "RULE '" + name + "' " + action_str();
  if (!target.empty()) out += " TO '" + target + "'";
  if (!where.empty()) {
    out += " WHERE ";
    for (std::size_t i = 0; i < where.size(); ++i) {
      if (i != 0) out += " AND ";
      out += where[i].to_string();
    }
  }
  return out;
}

std::string PolicyEngine::placement_pool(const std::string& path,
                                         sim::Tick now) const {
  InodeAttrs blank;  // create-time: no size, default everything
  for (const Rule& r : rules_) {
    if (r.action != Rule::Action::Place) continue;
    if (r.matches(path, blank, now)) return r.target;
  }
  return "";
}

ScanReport PolicyEngine::run_scan(const FileSystem& fs, unsigned streams) const {
  ScanReport report;
  const sim::Tick now = fs.sim().now();
  // Pre-create entries so empty rules still appear in the report.
  for (const Rule& r : rules_) {
    if (r.action != Rule::Action::Place) report.matches[r.name];
  }
  fs.for_each_inode([&](const InodeView& v) {
    ++report.inodes_scanned;
    if (v.kind() != FileKind::Regular) return;
    bool claimed = false;
    for (const Rule& r : rules_) {
      switch (r.action) {
        case Rule::Action::Place:
          break;  // create-time only
        case Rule::Action::List:
          if (r.matches(v, now)) {
            report.matches[r.name].push_back(PolicyMatch{v.path(), v.attrs()});
          }
          break;
        case Rule::Action::MigrateToPool:
        case Rule::Action::MigrateExternal:
        case Rule::Action::Delete:
          if (!claimed && r.matches(v, now)) {
            report.matches[r.name].push_back(PolicyMatch{v.path(), v.attrs()});
            claimed = true;  // first-match semantics
          }
          break;
      }
    }
  });
  report.scan_duration = fs.scan_duration(report.inodes_scanned, streams);
  obs::MetricsRegistry& m = obs_->metrics();
  m.counter("pfs.policy_scans").inc();
  m.counter("pfs.policy_scanned_inodes").add(report.inodes_scanned);
  // The caller charges scan_duration; the span covers that charged window.
  const obs::SpanId sp =
      obs_->trace().complete(obs::Component::Pfs, "policy", "policy_scan", now,
                             now + report.scan_duration);
  obs_->trace().arg_num(sp, "inodes", report.inodes_scanned);
  obs_->trace().arg_num(sp, "streams", static_cast<std::uint64_t>(streams));
  return report;
}

}  // namespace cpa::pfs
