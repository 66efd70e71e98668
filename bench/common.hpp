// Shared output and command-line helpers for the bench binaries.
//
// `paper_check` prints the series and rows of every paper figure and
// section and checks each row's claim (bench/ledger.hpp); the other
// benches print their own series and a paper-vs-measured block in the
// same `paper: … measured: …` format.  Absolute equality with the paper's
// testbed is not expected; the *shape* (who wins, by what factor, where
// crossovers fall) is the reproduction target.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

namespace cpa::bench {

inline void header(const std::string& id, const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("==============================================================\n");
}

inline void section(const std::string& name) {
  std::printf("\n-- %s --\n", name.c_str());
}

/// One paper-vs-measured comparison row; `note` is printed after it.
inline void compare(const std::string& metric, const std::string& paper,
                    const std::string& measured, const std::string& note = "") {
  std::printf("  %-38s paper: %-18s measured: %s%s\n", metric.c_str(),
              paper.c_str(), measured.c_str(), note.c_str());
}

inline std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// Observability flags shared by the bench mains.  `--trace=out.json`
/// writes Chrome trace JSON (chrome://tracing or https://ui.perfetto.dev),
/// `--metrics=out.txt` the metrics-registry summary and `--profile=out.txt`
/// the causal critical-path attribution report ("-" = stdout).  All three
/// default off, so plain runs pay only the disabled-recorder branch.
struct ObsCli {
  std::string trace_path;
  std::string metrics_path;
  std::string profile_path;
  /// Fault-spec string (fault/plan.hpp grammar, or a bench-defined alias
  /// like "auto") from `--fault=...`.  Empty means fault-free.
  std::string fault_spec;
  /// Simulation seed from `--seed=N`; benches that take it pass it to
  /// their workload generator so runs are reproducible bit-for-bit.
  std::uint64_t seed = 0;
  bool seed_set = false;
};

/// Parses all of `text` as a decimal number into `out`.  False, with `out`
/// untouched, on empty input, trailing characters or overflow (strtoull
/// reads "abc" as 0 and "12x" as 12).
template <typename T>
bool parse_number(std::string_view text, T& out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return false;
  out = value;
  return true;
}

/// Applies `arg` to `cli` if it is one of the flags above, else returns
/// false.  A --seed= that is not a whole number prints `usage` and exits 2.
inline bool apply_obs_flag(const std::string& arg, ObsCli& cli,
                           const std::string& usage) {
  if (arg.rfind("--trace=", 0) == 0) {
    cli.trace_path = arg.substr(8);
  } else if (arg.rfind("--metrics=", 0) == 0) {
    cli.metrics_path = arg.substr(10);
  } else if (arg.rfind("--profile=", 0) == 0) {
    cli.profile_path = arg.substr(10);
  } else if (arg.rfind("--fault=", 0) == 0) {
    cli.fault_spec = arg.substr(8);
  } else if (arg.rfind("--seed=", 0) != 0) {
    return false;
  } else if (parse_number(arg.substr(7), cli.seed)) {
    cli.seed_set = true;
  } else {
    std::fprintf(stderr, "malformed number in %s\n%s\n", arg.c_str(),
                 usage.c_str());
    std::exit(2);
  }
  return true;
}

/// Takes the flags above out of argv and leaves every other argument to
/// the bench, which parses its own after this.
inline ObsCli parse_obs_cli(int argc, char** argv) {
  const std::string usage = std::string("usage: ") + argv[0] +
                            " [--trace=FILE] [--metrics=FILE] [--profile=FILE]"
                            " [--fault=SPEC] [--seed=N] [bench flags]";
  ObsCli cli;
  for (int i = 1; i < argc; ++i) apply_obs_flag(argv[i], cli, usage);
  return cli;
}

}  // namespace cpa::bench
