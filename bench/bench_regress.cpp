// bench_regress: the CI perf-regression gate.
//
// Diffs a freshly produced BENCH_*.json against a checked-in baseline and
// fails (exit 1) when a named headline metric regressed beyond its
// tolerance — the ROADMAP "as fast as the hardware allows" goal needs
// perf wins (e.g. PR 3's incremental scheduler) to stay won.  Both files
// are the flat JSON the benches emit: an array of objects whose values
// are numbers or strings.  Records are matched by a key field present in
// both files ("id" for BENCH_paper.json and BENCH_host.json).  A baseline
// record missing from the fresh run fails (a silently dropped point is a
// regression in coverage), and so does a fresh record missing from the
// baseline (a point nobody pinned is not gated).  Records without the key
// field are skipped on both sides, and so is a metric a baseline record
// does not carry.
//
// Usage (one command line):
//   bench_regress --baseline=FILE --fresh=FILE --key=FIELD
//                 --metric=NAME:TOL_PCT[:higher|lower|exact] [--metric=...]
//
// Direction: `higher` (default) means bigger is better — fail when fresh
// drops more than TOL_PCT below baseline; `lower` means smaller is better;
// `exact` ignores TOL_PCT and requires equality (for deterministic counts).
// Exit codes: 0 ok, 1 regression, 2 usage or parse error.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

// One bench record: field -> value.  Numbers keep a parsed double next to
// the raw text so `exact` can compare what was written, not a reparse.
struct Record {
  std::map<std::string, std::string> raw;
  std::map<std::string, double> num;
};

// Minimal parser for the benches' own output: `[ {"k": v, ...}, ... ]`
// where v is a JSON number or a quoted string (no nesting, no escapes
// beyond \" — the emitters never produce them).
bool parse_records(const std::string& text, std::vector<Record>* out,
                   std::string* err) {
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
  };
  const auto fail = [&](const std::string& what) {
    *err = what + " at offset " + std::to_string(i);
    return false;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '[') return fail("expected '['");
  ++i;
  skip_ws();
  if (i < text.size() && text[i] == ']') return true;  // empty array
  while (true) {
    skip_ws();
    if (i >= text.size() || text[i] != '{') return fail("expected '{'");
    ++i;
    Record rec;
    while (true) {
      skip_ws();
      if (i >= text.size() || text[i] != '"') return fail("expected key");
      const std::size_t kend = text.find('"', i + 1);
      if (kend == std::string::npos) return fail("unterminated key");
      const std::string key = text.substr(i + 1, kend - i - 1);
      i = kend + 1;
      skip_ws();
      if (i >= text.size() || text[i] != ':') return fail("expected ':'");
      ++i;
      skip_ws();
      if (i < text.size() && text[i] == '"') {
        std::size_t vend = i + 1;
        while (vend < text.size() && text[vend] != '"') {
          if (text[vend] == '\\') ++vend;
          ++vend;
        }
        if (vend >= text.size()) return fail("unterminated string");
        rec.raw[key] = text.substr(i + 1, vend - i - 1);
        i = vend + 1;
      } else {
        const std::size_t start = i;
        while (i < text.size() && (std::isdigit(static_cast<unsigned char>(
                                       text[i])) != 0 ||
                                   text[i] == '-' || text[i] == '+' ||
                                   text[i] == '.' || text[i] == 'e' ||
                                   text[i] == 'E')) {
          ++i;
        }
        if (i == start) return fail("expected value");
        const std::string lit = text.substr(start, i - start);
        rec.raw[key] = lit;
        rec.num[key] = std::strtod(lit.c_str(), nullptr);
      }
      skip_ws();
      if (i < text.size() && text[i] == ',') {
        ++i;
        continue;
      }
      if (i < text.size() && text[i] == '}') {
        ++i;
        break;
      }
      return fail("expected ',' or '}'");
    }
    out->push_back(std::move(rec));
    skip_ws();
    if (i < text.size() && text[i] == ',') {
      ++i;
      continue;
    }
    if (i < text.size() && text[i] == ']') return true;
    return fail("expected ',' or ']'");
  }
}

bool load_records(const std::string& path, std::vector<Record>* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_regress: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  if (!parse_records(ss.str(), out, &err)) {
    std::fprintf(stderr, "bench_regress: %s: parse error: %s\n", path.c_str(),
                 err.c_str());
    return false;
  }
  return true;
}

enum class Direction { Higher, Lower, Exact };

struct MetricSpec {
  std::string name;
  double tol_pct = 0.0;
  Direction dir = Direction::Higher;
};

bool parse_metric(const std::string& spec, MetricSpec* out) {
  const std::size_t c1 = spec.find(':');
  if (c1 == std::string::npos) {
    out->name = spec;
    out->dir = Direction::Exact;
    return !out->name.empty();
  }
  out->name = spec.substr(0, c1);
  const std::size_t c2 = spec.find(':', c1 + 1);
  const std::string tol = spec.substr(c1 + 1, c2 == std::string::npos
                                                  ? std::string::npos
                                                  : c2 - c1 - 1);
  out->tol_pct = std::strtod(tol.c_str(), nullptr);
  if (c2 != std::string::npos) {
    const std::string d = spec.substr(c2 + 1);
    if (d == "higher") {
      out->dir = Direction::Higher;
    } else if (d == "lower") {
      out->dir = Direction::Lower;
    } else if (d == "exact") {
      out->dir = Direction::Exact;
    } else {
      return false;
    }
  }
  return !out->name.empty();
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_regress --baseline=FILE --fresh=FILE "
               "--key=FIELD --metric=NAME:TOL_PCT[:higher|lower|exact] "
               "[--metric=...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string fresh_path;
  std::string key;
  std::vector<MetricSpec> metrics;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--fresh=", 0) == 0) {
      fresh_path = arg.substr(8);
    } else if (arg.rfind("--key=", 0) == 0) {
      key = arg.substr(6);
    } else if (arg.rfind("--metric=", 0) == 0) {
      MetricSpec spec;
      if (!parse_metric(arg.substr(9), &spec)) return usage();
      metrics.push_back(std::move(spec));
    } else {
      return usage();
    }
  }
  if (baseline_path.empty() || fresh_path.empty() || key.empty() ||
      metrics.empty()) {
    return usage();
  }

  std::vector<Record> baseline;
  std::vector<Record> fresh;
  if (!load_records(baseline_path, &baseline) ||
      !load_records(fresh_path, &fresh)) {
    return 2;
  }

  // The record of `records` whose key field reads `value`, or null.
  const auto find = [&key](const std::vector<Record>& records,
                           const std::string& value) -> const Record* {
    for (const Record& r : records) {
      const auto k = r.raw.find(key);
      if (k != r.raw.end() && k->second == value) return &r;
    }
    return nullptr;
  };

  int regressions = 0;
  int checked = 0;
  for (const Record& f : fresh) {
    const auto fkey = f.raw.find(key);
    if (fkey != f.raw.end() && find(baseline, fkey->second) == nullptr) {
      std::fprintf(stderr, "REGRESS %s=%s: record missing from baseline\n",
                   key.c_str(), fkey->second.c_str());
      ++regressions;
    }
  }
  for (const Record& base : baseline) {
    const auto bkey = base.raw.find(key);
    if (bkey == base.raw.end()) continue;  // record not keyed (e.g. summary)
    const Record* match = find(fresh, bkey->second);
    if (match == nullptr) {
      std::fprintf(stderr,
                   "REGRESS %s=%s: record missing from fresh run\n",
                   key.c_str(), bkey->second.c_str());
      ++regressions;
      continue;
    }
    for (const MetricSpec& m : metrics) {
      const auto bv = base.raw.find(m.name);
      if (bv == base.raw.end()) continue;  // metric not in this record
      const auto fv = match->raw.find(m.name);
      ++checked;
      if (fv == match->raw.end()) {
        std::fprintf(stderr, "REGRESS %s=%s: metric %s missing\n", key.c_str(),
                     bkey->second.c_str(), m.name.c_str());
        ++regressions;
        continue;
      }
      const auto bn = base.num.find(m.name);
      const auto fn = match->num.find(m.name);
      const bool numeric =
          bn != base.num.end() && fn != match->num.end();
      bool ok = true;
      if (m.dir == Direction::Exact || !numeric) {
        ok = numeric ? bn->second == fn->second : bv->second == fv->second;
      } else if (m.dir == Direction::Higher) {
        ok = fn->second >= bn->second * (1.0 - m.tol_pct / 100.0);
      } else {
        ok = fn->second <= bn->second * (1.0 + m.tol_pct / 100.0);
      }
      if (!ok) {
        std::fprintf(stderr,
                     "REGRESS %s=%s: %s baseline %s fresh %s (tol %.1f%% %s)\n",
                     key.c_str(), bkey->second.c_str(), m.name.c_str(),
                     bv->second.c_str(), fv->second.c_str(), m.tol_pct,
                     m.dir == Direction::Exact
                         ? "exact"
                         : (m.dir == Direction::Higher ? "higher" : "lower"));
        ++regressions;
      } else {
        std::printf("ok      %s=%s: %s %s -> %s\n", key.c_str(),
                    bkey->second.c_str(), m.name.c_str(), bv->second.c_str(),
                    fv->second.c_str());
      }
    }
  }
  if (checked == 0) {
    std::fprintf(stderr,
                 "bench_regress: no metrics matched (wrong --key/--metric?)\n");
    return 2;
  }
  if (regressions > 0) {
    std::fprintf(stderr, "bench_regress: %d regression(s) vs %s\n",
                 regressions, baseline_path.c_str());
    return 1;
  }
  std::printf("bench_regress: %d checks ok vs %s\n", checked,
              baseline_path.c_str());
  return 0;
}
