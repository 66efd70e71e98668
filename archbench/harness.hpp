// Shared pieces of the archive benchmark: host-time spans, metric maps,
// percentiles, and counter deltas over the measured phase.
//
// Layers are measured from outside.  The benchmark times its own calls into
// each module (a Span around policy().run_scan(), hsm().parallel_migrate(),
// sim().run(), ...) and reads the counters the modules already publish in
// observer().metrics().  Spans are recorded only in the traced run; the
// untraced run times set-up and the measured phase and nothing else.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace archbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-memory host-time spans: name, start, end, parent, and the run id all
/// spans of one workload instance share.  Calls nest on one thread, so a span's
/// children are exactly the spans opened while it was the innermost one.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  class Guard {
   public:
    Guard(Spans* owner, int idx) : owner_(owner), idx_(idx) {}
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() {
      if (owner_ != nullptr) owner_->close(idx_);
    }

   private:
    Spans* owner_;
    int idx_;
  };

  /// Opens a span under the innermost open one; closes when the guard dies.
  [[nodiscard]] Guard span(const char* name);

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_run_id(std::string id) { run_id_ = std::move(id); }

  /// Sum of the durations of every span called `name`.
  [[nodiscard]] double total_s(const std::string& name) const;
  /// Sum of self time (duration minus the time its children cover).
  [[nodiscard]] double self_s(const std::string& name) const;

  /// Appends one JSON object per span (a JSON-lines file).
  void write_jsonl(std::FILE* out) const;

 private:
  struct Rec {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t child_ns;
  };
  void close(int idx);

  bool enabled_;
  std::string run_id_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Rec> recs_;
  std::vector<int> open_;
};

/// Metric values by name, in a fixed (sorted) order.
using Metrics = std::map<std::string, double>;

/// Exact percentile by the nearest-rank rule; `p` in (0, 100].
[[nodiscard]] double percentile(std::vector<double> xs, double p);

/// Counters and gauges of the registry, snapshotted before the measured
/// phase so set-up (staging to tape, materializing) is excluded.
/// Only the instruments named in kCounters/kGauges (harness.cpp) are tracked.
class RegistryDelta {
 public:
  void begin(const cpa::obs::MetricsRegistry& m);
  /// Value accrued since begin(); 0 when the instrument never registered.
  [[nodiscard]] double get(const cpa::obs::MetricsRegistry& m,
                           const std::string& name) const;

 private:
  std::map<std::string, double> base_;
};

}  // namespace archbench
