// pfprof: causal critical-path profiler CLI.
//
// Answers the paper's "why is this job slower than the hardware" question
// for any recorded run: loads a trace (TraceRecorder::save format) or runs
// the Figure-10 campaign in-process with tracing on, then prints per-class
// attribution tables, exact p50/p95/p99/max latency percentiles, and the
// top-k critical-path spans.  Exits nonzero if any job's bucket
// decomposition fails the `sum(buckets) == wall-clock` invariant, so CI
// can use it as a conservation gate.
//
// Usage:
//   pfprof --trace=run.cpatrace [--topk=N] [--out=report.txt]
//   pfprof --campaign [--scale=0.01] [--seed=2009] [--fault=auto]
//          [--topk=N] [--out=report.txt] [--save-trace=run.cpatrace]
#include <cmath>
#include <cstdio>
#include <string>

#include "bench/campaign_runner.hpp"
#include "bench/common.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace {

bool write_text(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(text.c_str(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpa;

  std::string trace_path;
  std::string out_path = "-";
  std::string save_trace;
  std::string fault_spec;
  bool campaign = false;
  double scale = 0.01;
  std::uint64_t seed = 2009;
  std::size_t topk = 10;
  const bench::Cli cli = bench::Cli(argv[0])
                             .text("--trace", "FILE", trace_path)
                             .toggle("--campaign", campaign)
                             .number("--scale", "S", scale)
                             .number("--seed", "N", seed)
                             .text("--fault", "SPEC", fault_spec)
                             .number("--topk", "K", topk)
                             .text("--out", "FILE", out_path)
                             .text("--save-trace", "FILE", save_trace);
  cli.parse(argc, argv);
  if (!(scale > 0) || !std::isfinite(scale)) {
    cli.fail("--scale must be a positive number");
  }
  if (campaign == !trace_path.empty()) {
    cli.fail("give exactly one of --trace and --campaign");
  }
  bench::CampaignOptions opts;
  std::string error;
  if (!bench::read_fault_flag(fault_spec, opts, &error)) {
    cli.fail("--fault: " + error);
  }

  obs::TraceRecorder trace;
  if (campaign) {
    opts.file_count_scale = scale;
    opts.seed = seed;
    opts.profile_path = out_path;
    opts.profile_topk = topk;
    opts.raw_trace_path = save_trace;
    std::fprintf(stderr, "pfprof: running campaign (scale %g, seed %llu)...\n",
                 scale, static_cast<unsigned long long>(seed));
    const bench::CampaignResult result = bench::run_campaign(opts);
    if (!result.profile_written) {
      std::fprintf(stderr, "pfprof: cannot write %s\n", out_path.c_str());
      return 2;
    }
    if (!save_trace.empty() && !result.trace_written) {
      std::fprintf(stderr, "pfprof: cannot save trace %s\n",
                   save_trace.c_str());
      return 2;
    }
    if (!result.profile_conservation_ok) {
      std::fprintf(stderr,
                   "pfprof: CONSERVATION VIOLATION: bucket sums diverged "
                   "from job wall-clock\n");
      return 1;
    }
    std::fprintf(stderr, "pfprof: %zu jobs profiled, conservation ok\n",
                 result.profiled_jobs);
    return 0;
  }

  if (!trace.load(trace_path)) {
    std::fprintf(stderr, "pfprof: cannot load trace %s\n", trace_path.c_str());
    return 2;
  }
  if (!save_trace.empty() && !trace.save(save_trace)) {
    std::fprintf(stderr, "pfprof: cannot save trace %s\n", save_trace.c_str());
    return 2;
  }
  const obs::Profiler prof(trace);
  if (!write_text(out_path, prof.report(topk))) {
    std::fprintf(stderr, "pfprof: cannot write %s\n", out_path.c_str());
    return 2;
  }
  if (!prof.conservation_ok()) {
    std::fprintf(stderr,
                 "pfprof: CONSERVATION VIOLATION in %zu of %zu jobs\n",
                 prof.violations(), prof.jobs().size());
    return 1;
  }
  std::fprintf(stderr, "pfprof: %zu jobs profiled, conservation ok\n",
               prof.jobs().size());
  return 0;
}
