// cpa_check: the deterministic chaos-simulation harness CLI.
//
//   cpa_check --seed=7 --ops=300            one campaign, full oracles
//   cpa_check --seed=1 --seeds=20           a sweep of 20 seeds
//   cpa_check --corpus=tests/check/seed_corpus.txt   replay known seeds
//   cpa_check --seed=7 --shrink             minimize a failing campaign
//   cpa_check --doctor=scrub                self-test: plant a bug, demand
//                                           the oracles catch + shrink it
//
// Each seed runs the full battery: the chaos campaign itself (zero
// invariant violations expected), a same-seed replay (bit-identical
// campaign digest expected), and a metamorphic pair (a faulted run that
// recovered fully must leave the same final archive state as its
// fault-free twin).  Any failure prints a copy-pasteable repro line.
// CPA_CHECK_OPS scales the per-seed op budget when --ops is absent.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/check/campaign.hpp"
#include "src/check/runner.hpp"
#include "src/check/shrink.hpp"

namespace {

using cpa::check::ChaosCampaign;
using cpa::check::ChaosConfig;
using cpa::check::ChaosResult;
using cpa::check::CorpusEntry;
using cpa::check::Doctor;
using cpa::check::RunOptions;

struct Cli {
  std::uint64_t seed = 1;
  unsigned seeds = 1;
  unsigned ops = 0;  // 0 = CPA_CHECK_OPS or 300
  bool do_shrink = false;
  bool no_faults = false;
  bool no_corruptions = false;
  bool no_cancels = false;
  bool no_meta = false;
  bool crashes = false;
  bool quiescent_crash = false;
  unsigned md_batch = 1;
  bool dump_log = false;
  Doctor doctor = Doctor::None;
  std::string save_trace;
  std::string corpus;
};

void usage() {
  std::printf(
      "usage: cpa_check [--seed=N] [--seeds=COUNT] [--ops=K] [--shrink]\n"
      "                 [--corpus=FILE] [--doctor=scrub|fixity]\n"
      "                 [--save-trace=PATH] [--no-faults] "
      "[--no-corruptions]\n"
      "                 [--no-cancels] [--no-meta] [--crashes] "
      "[--quiescent-crash]\n"
      "                 [--md-batch=N]\n"
      "--md-batch=N carries up to N metadata mutations per server round-trip\n"
      "(1 = the paper's stop-and-wait server; plant knob only, so the op\n"
      "sequence stays comparable across batch sizes)\n"
      "--crashes arms whole-archive power failures (WAL on) and adds the\n"
      "quiescent crash+recover metamorphic gate to each seed's battery\n"
      "env: CPA_CHECK_OPS sets the default op budget (default 300)\n");
}

bool parse(int argc, char** argv, Cli& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* key) -> const char* {
      const std::size_t n = std::strlen(key);
      return a.compare(0, n, key) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = val("--seed=")) {
      cli.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--seeds=")) {
      cli.seeds = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = val("--ops=")) {
      cli.ops = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (a == "--shrink") {
      cli.do_shrink = true;
    } else if (a == "--no-faults") {
      cli.no_faults = true;
    } else if (a == "--no-corruptions") {
      cli.no_corruptions = true;
    } else if (a == "--no-cancels") {
      cli.no_cancels = true;
    } else if (a == "--no-meta") {
      cli.no_meta = true;
    } else if (a == "--crashes") {
      cli.crashes = true;
    } else if (a == "--quiescent-crash") {
      cli.quiescent_crash = true;
    } else if (const char* v = val("--md-batch=")) {
      cli.md_batch = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
      if (cli.md_batch == 0) cli.md_batch = 1;
    } else if (a == "--dump-log") {
      cli.dump_log = true;
    } else if (const char* v = val("--doctor=")) {
      if (std::strcmp(v, "scrub") == 0) {
        cli.doctor = Doctor::BreakScrubRepair;
      } else if (std::strcmp(v, "fixity") == 0) {
        cli.doctor = Doctor::DropFixityRow;
      } else {
        std::fprintf(stderr, "unknown --doctor=%s\n", v);
        return false;
      }
    } else if (const char* v = val("--save-trace=")) {
      cli.save_trace = v;
    } else if (const char* v = val("--corpus=")) {
      cli.corpus = v;
    } else if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      usage();
      return false;
    }
  }
  if (cli.ops == 0) {
    const char* env = std::getenv("CPA_CHECK_OPS");
    cli.ops = env != nullptr
                  ? static_cast<unsigned>(std::strtoul(env, nullptr, 10))
                  : 0;
    if (cli.ops == 0) cli.ops = 300;
  }
  return true;
}

ChaosConfig config_for(const Cli& cli, std::uint64_t seed, unsigned ops,
                       bool crashes) {
  ChaosConfig cfg;
  cfg.with_seed(seed).with_ops(ops).with_doctor(cli.doctor);
  if (cli.no_faults) cfg.with_faults(false);
  if (cli.no_corruptions) cfg.with_corruptions(false);
  if (cli.no_cancels) cfg.with_cancels(false);
  if (crashes) cfg.with_crashes(true);
  if (cli.quiescent_crash) cfg.with_quiescent_crash(true);
  cfg.with_md_batch(cli.md_batch);
  return cfg;
}

void print_failure(const ChaosConfig& cfg, const ChaosResult& r,
                   const char* what) {
  std::printf("FAIL seed=%llu: %s\n",
              static_cast<unsigned long long>(cfg.seed), what);
  std::fputs(r.render_violations().c_str(), stdout);
  std::printf("repro: %s\n", cpa::check::repro_line(cfg).c_str());
}

void shrink_and_report(const ChaosConfig& cfg, const RunOptions& opt) {
  const ChaosCampaign full = ChaosCampaign::generate(cfg);
  const auto res = cpa::check::shrink(full, opt);
  if (!res) {
    std::printf("shrink: campaign no longer fails (flaky?)\n");
    return;
  }
  std::printf("shrink: %zu -> %zu ops, %zu -> %zu fault events "
              "(%u probe runs)\n",
              full.ops.size(), res->minimal.ops.size(),
              full.fault_plan.events.size(),
              res->minimal.fault_plan.events.size(), res->runs);
  std::printf("--- minimal campaign ---\n%s--- first violation ---\n%s\n",
              res->minimal.render().c_str(),
              res->failure.violations.empty()
                  ? "(none)"
                  : res->failure.violations.front().render().c_str());
}

/// The full battery for one seed.  Returns true when every check passed.
bool run_seed(const Cli& cli, std::uint64_t seed, unsigned ops,
              bool crashes) {
  const ChaosConfig cfg = config_for(cli, seed, ops, crashes);
  RunOptions opt;
  opt.save_trace = cli.save_trace;

  const ChaosResult r1 = cpa::check::run_chaos(cfg, opt);
  if (cli.dump_log) std::fputs(r1.log.c_str(), stdout);
  if (!r1.ok()) {
    print_failure(cfg, r1, "invariant violation(s)");
    if (cli.do_shrink) shrink_and_report(cfg, opt);
    return false;
  }

  // Same seed, fresh plant: the campaign digest must be bit-identical.
  RunOptions replay_opt;  // no trace overwrite on the replay
  const ChaosResult r2 = cpa::check::run_chaos(cfg, replay_opt);
  if (r2.digest != r1.digest) {
    std::printf("FAIL seed=%llu: replay digest %016llx != %016llx "
                "(nondeterminism)\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(r2.digest),
                static_cast<unsigned long long>(r1.digest));
    std::printf("repro: %s\n", cpa::check::repro_line(cfg).c_str());
    return false;
  }

  // Metamorphic pair: faults (minus corruption, minus timing-dependent
  // cancels) with full recovery must converge to the fault-free state.
  if (!cli.no_meta) {
    ChaosConfig faulted = cfg;
    faulted.with_cancels(false).with_corruptions(false);
    const ChaosResult m1 = cpa::check::run_chaos(faulted, replay_opt);
    const ChaosResult m2 =
        cpa::check::run_chaos(faulted.fault_free_twin(), replay_opt);
    if (!m1.ok()) {
      print_failure(faulted, m1, "violation(s) in metamorphic faulted run");
      if (cli.do_shrink) shrink_and_report(faulted, replay_opt);
      return false;
    }
    if (!m2.ok()) {
      const ChaosConfig twin = faulted.fault_free_twin();
      print_failure(twin, m2, "violation(s) in fault-free twin");
      if (cli.do_shrink) shrink_and_report(twin, replay_opt);
      return false;
    }
    // Crash campaigns are excluded from the faulted/twin state compare:
    // a power failure can cut a synchronous_delete either side of its
    // unlink, and which side it lands on is timing the twin's fault-free
    // schedule shifts.  The quiescent-crash gate below covers them.
    if (m1.fully_recovered && !cfg.crashes &&
        m1.state_digest != m2.state_digest) {
      std::printf("FAIL seed=%llu: recovered faulted state %016llx != "
                  "fault-free twin %016llx\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(m1.state_digest),
                  static_cast<unsigned long long>(m2.state_digest));
      std::printf("repro: %s\n", cpa::check::repro_line(faulted).c_str());
      return false;
    }
    if (!m1.fully_recovered) {
      std::printf("seed %llu: metamorphic compare skipped "
                  "(faulted run did not fully recover)\n",
                  static_cast<unsigned long long>(seed));
    }
  }

  // Quiescent-crash metamorphic gate: power-failing the drained plant
  // and replaying the WAL must be invisible — the final state digest has
  // to equal the very same campaign's digest without the crash.
  if (cfg.crashes && !cfg.quiescent_crash && !cli.no_meta) {
    ChaosConfig qcfg = cfg;
    qcfg.with_quiescent_crash(true);
    RunOptions qopt;
    const ChaosResult rq = cpa::check::run_chaos(qcfg, qopt);
    if (!rq.ok()) {
      print_failure(qcfg, rq, "violation(s) in quiescent-crash run");
      if (cli.do_shrink) shrink_and_report(qcfg, qopt);
      return false;
    }
    if (rq.state_digest != r1.state_digest) {
      std::printf("FAIL seed=%llu: quiescent crash+recover state %016llx != "
                  "crash-free %016llx\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(rq.state_digest),
                  static_cast<unsigned long long>(r1.state_digest));
      std::printf("repro: %s\n", cpa::check::repro_line(qcfg).c_str());
      return false;
    }
  }

  std::printf("seed %llu: ok digest=%016llx ops=%u/%u jobs=%u cancels=%u "
              "drained=%.0fs\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(r1.digest), r1.ops_executed,
              r1.ops_executed + r1.ops_skipped, r1.jobs_submitted,
              r1.cancels_landed, cpa::sim::to_seconds(r1.drained_at));
  return true;
}

/// Doctor self-test: plant a bug, demand detection *and* a useful shrink.
bool run_doctor(const Cli& cli) {
  const ChaosConfig cfg = config_for(cli, cli.seed, cli.ops, cli.crashes);
  RunOptions opt;
  opt.save_trace = cli.save_trace;
  const ChaosResult r = cpa::check::run_chaos(cfg, opt);
  if (r.ok()) {
    std::printf("FAIL: doctored bug (%s) produced no violation\n",
                to_string(cfg.doctor));
    return false;
  }
  std::printf("doctored bug (%s) caught:\n%s", to_string(cfg.doctor),
              r.render_violations().c_str());
  const ChaosCampaign full = ChaosCampaign::generate(cfg);
  const auto res = cpa::check::shrink(full, opt);
  if (!res) {
    std::printf("FAIL: doctored failure did not survive shrinking\n");
    return false;
  }
  if (res->minimal.ops.size() >= full.ops.size()) {
    std::printf("FAIL: shrinker removed nothing (%zu ops)\n",
                full.ops.size());
    return false;
  }
  std::printf("shrunk to %zu op(s), %zu fault event(s) in %u runs:\n%s",
              res->minimal.ops.size(), res->minimal.fault_plan.events.size(),
              res->runs, res->minimal.render().c_str());
  std::printf("self-test ok\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse(argc, argv, cli)) return 2;

  if (cli.doctor != Doctor::None) {
    return run_doctor(cli) ? 0 : 1;
  }

  std::vector<CorpusEntry> seeds;
  if (!cli.corpus.empty()) {
    seeds = cpa::check::load_corpus(cli.corpus, cli.ops);
    if (seeds.empty()) {
      std::fprintf(stderr, "corpus %s is empty or unreadable\n",
                   cli.corpus.c_str());
      return 2;
    }
  } else {
    for (unsigned i = 0; i < cli.seeds; ++i) {
      seeds.push_back({cli.seed + i, cli.ops, cli.crashes, {}});
    }
  }

  unsigned failed = 0;
  for (const CorpusEntry& e : seeds) {
    if (!run_seed(cli, e.seed, e.ops, e.crashes || cli.crashes)) ++failed;
  }
  std::printf("%zu seed(s), %u failed\n", seeds.size(), failed);
  return failed == 0 ? 0 : 1;
}
