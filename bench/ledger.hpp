// The paper ledger: one row per "paper vs measured" comparison, each with
// the claim it makes about what was measured.  A claim is one of:
//   order  — between two measured values (ordered-recall seeks <
//            request-order seeks);
//   bound  — a measured value against a bound taken from the paper's own
//            words (>= 10x where it says "order of magnitude"), never one
//            picked by looking at the measured value.  An experiment beyond
//            the paper takes the target it set before it was first
//            measured (>= 5x interactive isolation);
//   equal  — two independent accountings of one quantity;
//   report — an absolute number the reproduction does not aim to match:
//            printed and pinned in the JSON, never asserted.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"

namespace cpa::bench {

struct Claim {
  enum class Kind { Order, Bound, Equal, Report };
  enum class Op { Lt, Gt, Ge, Eq };

  Kind kind = Kind::Report;
  Op op = Op::Eq;
  double value = 0.0;  // the measured value the row is about
  double ref = 0.0;    // the other measured value, or the paper's bound

  static Claim order(double v, Op op, double other) {
    return {Kind::Order, op, v, other};
  }
  static Claim bound(double v, Op op, double paper) {
    return {Kind::Bound, op, v, paper};
  }
  static Claim equal(double v, double w) { return {Kind::Equal, Op::Eq, v, w}; }
  static Claim report(double v) { return {Kind::Report, Op::Eq, v, 0.0}; }

  /// True for a report row; otherwise `value op ref`.
  [[nodiscard]] bool holds() const {
    if (kind == Kind::Report) return true;
    switch (op) {
      case Op::Lt:
        return value < ref;
      case Op::Gt:
        return value > ref;
      case Op::Ge:
        return value >= ref;
      case Op::Eq:
        return value == ref;
    }
    return false;
  }

  /// "ok: 32.6 >= 10", "FAIL: 2 < 1" or "report".
  [[nodiscard]] std::string verdict() const {
    if (kind == Kind::Report) return "report";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s: %g %s %g", holds() ? "ok" : "FAIL",
                  value, op_text(), ref);
    return buf;
  }

  [[nodiscard]] const char* op_text() const {
    static constexpr const char* kText[] = {"<", ">", ">=", "=="};
    return kText[static_cast<int>(op)];
  }
  [[nodiscard]] const char* kind_text() const {
    static constexpr const char* kText[] = {"order", "bound", "equal", "report"};
    return kText[static_cast<int>(kind)];
  }
};

struct LedgerRow {
  std::string id;  // stable across runs, e.g. "fig1.gap_at_16"
  std::string section, metric, paper, measured;
  Claim claim;
};

class Ledger {
 public:
  /// Prints an experiment's banner; the rows that follow carry `section`.
  void experiment(const std::string& section, const std::string& title) {
    section_ = section;
    header(section, title);
  }

  /// Records a row and prints it in the `paper: … measured: …` format
  /// with the claim's verdict appended.
  void row(std::string id, std::string metric, std::string paper,
           std::string measured, Claim claim) {
    std::printf("  %-38s paper: %-18s measured: %s  [%s]\n", metric.c_str(),
                paper.c_str(), measured.c_str(), claim.verdict().c_str());
    rows_.push_back({std::move(id), section_, std::move(metric),
                     std::move(paper), std::move(measured), claim});
  }

  /// One flat record per row, in the format `bench_regress` reads; numbers
  /// round-trip exactly, so the gate compares them bit for bit.
  [[nodiscard]] std::string json() const {
    const auto str = [](const std::string& s) {
      std::string out = "\"";
      for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      return out + '"';
    };
    const auto num = [&](double v) {
      return std::isfinite(v) ? fmt("%.17g", v) : str(fmt("%g", v));
    };
    std::string out = "[";
    const char* sep = "\n  ";
    for (const LedgerRow& r : rows_) {
      const Claim& c = r.claim;
      out += sep;
      sep = ",\n  ";
      out += "{\"id\": " + str(r.id) + ", \"section\": " + str(r.section) +
             ", \"metric\": " + str(r.metric) + ", \"paper\": " + str(r.paper) +
             ", \"measured\": " + str(r.measured) +
             ", \"claim\": " + str(c.kind_text()) + ", \"value\": " + num(c.value);
      if (c.kind != Claim::Kind::Report) {
        out += ", \"op\": " + str(c.op_text()) + ", \"ref\": " + num(c.ref);
      }
      out += std::string(", \"holds\": ") + (c.holds() ? "1}" : "0}");
    }
    return out + "\n]\n";
  }

  /// Opens `path` for finish() to write json() into; an empty path means
  /// no JSON.  Call it before the first experiment, so that a path that
  /// cannot be opened is refused before any work.  False, with an error on
  /// stderr, when it cannot be opened.
  [[nodiscard]] bool open_json(const std::string& path) {
    json_path_ = path;
    if (path.empty()) return true;
    json_file_.reset(std::fopen(path.c_str(), "w"));
    if (json_file_ == nullptr) {
      std::fprintf(stderr, "  error: could not write %s\n", path.c_str());
      return false;
    }
    return true;
  }

  /// Prints the tally and the failed claims, writes json() to the file
  /// open_json opened, if any, and returns the exit status: 1 if a claim
  /// failed or the JSON could not be written, else 0.
  [[nodiscard]] int finish() {
    std::size_t reports = 0, failed = 0;
    for (const LedgerRow& r : rows_) {
      reports += r.claim.kind == Claim::Kind::Report ? 1 : 0;
      failed += r.claim.holds() ? 0 : 1;
    }
    section("paper ledger");
    std::printf("  %zu rows: %zu claims hold, %zu failed, %zu report-only\n",
                rows_.size(), rows_.size() - reports - failed, failed, reports);
    for (const LedgerRow& r : rows_) {
      if (r.claim.holds()) continue;
      std::printf("  FAILED %s (%s, %s): %s\n", r.id.c_str(),
                  r.section.c_str(), r.metric.c_str(),
                  r.claim.verdict().c_str());
    }
    if (json_file_ == nullptr) return failed > 0 ? 1 : 0;
    const bool written = std::fputs(json().c_str(), json_file_.get()) >= 0;
    if (std::fclose(json_file_.release()) != 0 || !written) {
      std::fprintf(stderr, "  error: could not write %s\n", json_path_.c_str());
      return 1;
    }
    std::printf("  wrote %s\n", json_path_.c_str());
    return failed > 0 ? 1 : 0;
  }

 private:
  struct CloseFile {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  std::string section_;
  std::vector<LedgerRow> rows_;
  std::string json_path_;
  std::unique_ptr<std::FILE, CloseFile> json_file_;
};

}  // namespace cpa::bench
