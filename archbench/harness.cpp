#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace archbench {
namespace {

constexpr const char* kCounters[] = {
    "sim.events_fired",        "sim.flow.recompute_calls",
    "sim.flow.recompute_flows_touched",
    "net.flows_started",       "pfs.policy_scanned_inodes",
    "pftool.files_copied",     "pftool.chunks_copied",
    "hsm.md_batches",          "hsm.md_batch_ops",
    "tape.mounts",             "tape.seeks",
    "tape.backhitches",        "sched.drive_queue_jumps",
    "wal.flushes",             "wal.records",
    "wal.replay_records",      "integrity.checksums_verified",
    "integrity.checksums_mismatches",
};
constexpr const char* kGauges[] = {
    "tape.mount_seconds",
    "tape.seek_seconds",
    "tape.backhitch_seconds",
};

double read(const cpa::obs::MetricsRegistry& m, const std::string& name) {
  for (const char* c : kCounters) {
    if (name == c) {
      const cpa::obs::Counter* p = m.find_counter(name);
      return p != nullptr ? static_cast<double>(p->value()) : 0.0;
    }
  }
  for (const char* g : kGauges) {
    if (name == g) {
      const cpa::obs::Gauge* p = m.find_gauge(name);
      return p != nullptr ? p->value() : 0.0;
    }
  }
  throw std::logic_error("archbench: untracked instrument " + name);
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

}  // namespace

Spans::Guard Spans::span(const char* name) {
  if (!enabled_) return Guard(nullptr, -1);
  const int parent = open_.empty() ? -1 : open_.back();
  recs_.push_back(Rec{name, ns_between(origin_, Clock::now()), 0, parent, 0});
  const int idx = static_cast<int>(recs_.size()) - 1;
  open_.push_back(idx);
  return Guard(this, idx);
}

void Spans::close(int idx) {
  Rec& r = recs_[static_cast<std::size_t>(idx)];
  r.end_ns = ns_between(origin_, Clock::now());
  open_.pop_back();
  if (r.parent >= 0) {
    recs_[static_cast<std::size_t>(r.parent)].child_ns += r.end_ns - r.start_ns;
  }
}

double Spans::total_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Rec& r : recs_) {
    if (name == r.name) ns += r.end_ns - r.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Spans::self_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Rec& r : recs_) {
    if (name == r.name) ns += r.end_ns - r.start_ns - r.child_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

void Spans::write_jsonl(std::FILE* out) const {
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    std::fprintf(out,
                 "{\"run\": \"%s\", \"id\": %zu, \"parent\": %d, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"self_ns\": %lld}\n",
                 run_id_.c_str(), i, r.parent, r.name,
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<long long>(r.end_ns - r.start_ns - r.child_ns));
  }
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

void RegistryDelta::begin(const cpa::obs::MetricsRegistry& m) {
  base_.clear();
  for (const char* c : kCounters) base_[c] = read(m, c);
  for (const char* g : kGauges) base_[g] = read(m, g);
}

double RegistryDelta::get(const cpa::obs::MetricsRegistry& m,
                          const std::string& name) const {
  const auto it = base_.find(name);
  return read(m, name) - (it != base_.end() ? it->second : 0.0);
}

}  // namespace archbench
