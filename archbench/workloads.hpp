// The benchmark's three workloads.
//
// One *instance* builds a fresh plant, generates its inputs from a seed,
// materializes and stages them (set-up), runs the measured phase, and
// checks the outputs.  archbench runs one instance per process; run.py
// repeats processes and takes medians.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace archbench {

struct Instance {
  double setup_s = 0.0;  // host: plant + inputs + namespace + staging
  double run_s = 0.0;    // host: the measured phase
  /// Virtual-time figures (rates, latency percentiles): exact for a seed.
  Metrics virt;
  /// Per-layer quantities.  Host-time ones are only nonzero when spans are on.
  Metrics layer;
  std::uint64_t attempted = 0;      // file operations attempted
  std::uint64_t failed = 0;         // ... of which failed
  std::vector<std::string> notes;   // one per percentile, with its sample count
  std::vector<std::string> errors;  // failed correctness checks
  std::string sizes;                // the generated inputs, in one line
};

struct Workload {
  const char* name;
  Instance (*run)(std::uint64_t seed, Spans& spans);
};

/// nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(const std::string& name);

}  // namespace archbench
