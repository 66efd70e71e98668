#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "fault/injector.hpp"
#include "mutants.hpp"
#include "obs/observer.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace cpa::fault {
namespace {

// ---------------------------------------------------------------- RetryPolicy

TEST(RetryPolicy, NoneNeverAllowsASecondAttempt) {
  const RetryPolicy p = RetryPolicy::none();
  EXPECT_TRUE(p.allows(0));   // the first attempt itself
  EXPECT_FALSE(p.allows(1));  // no retry after one failure
}

TEST(RetryPolicy, StandardAllowsThreeTotalAttempts) {
  const RetryPolicy p = RetryPolicy::standard();
  EXPECT_TRUE(p.allows(1));
  EXPECT_TRUE(p.allows(2));
  EXPECT_FALSE(p.allows(3));
}

TEST(RetryPolicy, DelayGrowsExponentially) {
  RetryPolicy p;
  p.backoff = sim::secs(5);
  p.multiplier = 2.0;
  p.max_backoff = sim::minutes(10);
  EXPECT_EQ(p.delay(1), sim::secs(5));
  EXPECT_EQ(p.delay(2), sim::secs(10));
  EXPECT_EQ(p.delay(3), sim::secs(20));
  EXPECT_EQ(p.delay(4), sim::secs(40));
}

TEST(RetryPolicy, DelayClampsAtMaxBackoff) {
  RetryPolicy p;
  p.backoff = sim::minutes(1);
  p.multiplier = 10.0;
  p.max_backoff = sim::minutes(5);
  EXPECT_EQ(p.delay(1), sim::minutes(1));
  EXPECT_EQ(p.delay(2), sim::minutes(5));   // 10 min clamped
  EXPECT_EQ(p.delay(10), sim::minutes(5));  // huge exponent still clamped
}

TEST(RetryPolicy, ZeroJitterIsBitIdenticalForEverySalt) {
  RetryPolicy plain;
  plain.backoff = sim::secs(5);
  RetryPolicy seeded = plain;
  seeded.jitter_seed = 0xBEEF;  // a seed alone must change nothing
  for (unsigned i = 1; i <= 6; ++i) {
    for (std::uint64_t salt : {0ULL, 1ULL, 42ULL, 0xDEADULL}) {
      EXPECT_EQ(seeded.delay(i, salt), plain.delay(i));
    }
  }
}

TEST(RetryPolicy, JitterIsDeterministicBoundedAndSaltSensitive) {
  RetryPolicy p;
  p.backoff = sim::secs(10);
  p.jitter = 0.5;
  p.jitter_seed = 7;
  RetryPolicy base = p;
  base.jitter = 0.0;
  bool salt_matters = false;
  for (unsigned i = 1; i <= 5; ++i) {
    for (std::uint64_t salt = 0; salt < 8; ++salt) {
      const sim::Tick d = p.delay(i, salt);
      EXPECT_EQ(d, p.delay(i, salt));  // same (seed, salt, index) replays
      // Full jitter scales by a draw from [1-jitter, 1].
      EXPECT_LE(d, base.delay(i));
      EXPECT_GE(d, static_cast<sim::Tick>(
                       static_cast<double>(base.delay(i)) * 0.5));
      if (d != p.delay(i, salt + 1)) salt_matters = true;
    }
  }
  EXPECT_TRUE(salt_matters);  // colliding jobs decorrelate
}

// ------------------------------------------------------------------ FaultPlan

TEST(FaultPlan, BuildersRenderCanonicalSpec) {
  FaultPlan plan;
  plan.drive_failure(3, sim::secs(120), sim::secs(300))
      .node_crash(2, sim::minutes(10), sim::minutes(20))
      .pool_degrade("trunk0", sim::minutes(5), 0.5, sim::minutes(10));
  const std::string spec = plan.render();
  EXPECT_NE(spec.find("tape.drive[3]:fail@t=120s,repair=300s"), std::string::npos);
  EXPECT_NE(spec.find("cluster.node[2]:fail@t=600s,repair=1200s"), std::string::npos);
  EXPECT_NE(spec.find("net.pool[trunk0]:degrade@t=300s,factor=0.5,repair=600s"),
            std::string::npos);
}

TEST(FaultPlan, ParseRenderRoundTripsExactly) {
  const std::vector<std::string> specs = {
      "tape.drive[3]:fail@t=120s,repair=300s",
      "tape.media[7]:fail@t=3600s",
      "cluster.node[2]:fail@t=600s,repair=1200s",
      "hsm.server[0]:restart@t=7200s,outage=60s",
      "net.pool[trunk0]:degrade@t=300s,factor=0.25,repair=600s",
      "tape.media[7]:corrupt@t=3600s,segments=3,seed=42",
      "tape.media[0]:corrupt@t=90s,segments=1,seed=0",
      "server.power[0]:fail@t=2700s,seed=7,repair=120s",
      "server.power[0]:fail@t=45s",
  };
  for (const auto& s : specs) {
    std::string err;
    const auto plan = FaultPlan::parse(s, &err);
    ASSERT_TRUE(plan.has_value()) << s << ": " << err;
    EXPECT_EQ(plan->render(), s);
    // render() output is itself parseable to the same plan.
    const auto again = FaultPlan::parse(plan->render());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->render(), s);
  }
}

TEST(FaultPlan, CorruptBuilderRendersCanonicalSpec) {
  FaultPlan plan;
  plan.media_corruption(7, sim::hours(1), 3, 42);
  EXPECT_EQ(plan.render(), "tape.media[7]:corrupt@t=3600s,segments=3,seed=42");
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::Corrupt);
  EXPECT_EQ(plan.events[0].segments, 3u);
  EXPECT_EQ(plan.events[0].seed, 42u);
}

TEST(FaultPlan, CorruptParseRejectsBadShapes) {
  for (const std::string bad : {
           "tape.media[1]:corrupt@t=10s",                 // needs segments=
           "tape.media[1]:corrupt@t=10s,segments=0",      // zero segments
           "tape.media[1]:corrupt@t=10s,segments=2,repair=5s",  // silent fault
           "tape.drive[0]:corrupt@t=10s,segments=1",      // media only
           "cluster.node[0]:corrupt@t=10s,segments=1",    // media only
       }) {
    std::string err;
    EXPECT_FALSE(FaultPlan::parse(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(FaultPlan, CompositePlanRoundTripsThroughTheGrammar) {
  // The chaos generator emits plans mixing every kind in one spec; the
  // whole composite must survive parse -> render -> parse unchanged.
  const std::string spec =
      "tape.media[7]:corrupt@t=3600s,segments=3,seed=42;"
      "cluster.node[2]:fail@t=120s,repair=300s;"
      "tape.drive[3]:fail@t=120s,repair=300s";
  std::string err;
  const auto plan = FaultPlan::parse(spec, &err);
  ASSERT_TRUE(plan.has_value()) << err;
  ASSERT_EQ(plan->size(), 3u);
  EXPECT_EQ(plan->events[0].kind, FaultKind::Corrupt);
  EXPECT_EQ(plan->events[1].target, FaultTarget::ClusterNode);
  EXPECT_EQ(plan->events[2].target, FaultTarget::TapeDrive);
  EXPECT_EQ(plan->render(), spec);
  const auto again = FaultPlan::parse(plan->render(), &err);
  ASSERT_TRUE(again.has_value()) << err;
  EXPECT_EQ(again->render(), spec);
}

TEST(FaultPlan, RandomMatchesPinnedGolden) {
  // FaultPlan::random(cfg, seed) is a replay contract: chaos campaigns
  // embed only (cfg, seed), so the expansion must never drift.  If this
  // golden moves, every archived repro line silently changes meaning.
  RandomFaultConfig cfg;
  cfg.drive_failures = 1;
  cfg.node_crashes = 1;
  cfg.media_corruptions = 1;
  cfg.drives = 4;
  cfg.nodes = 4;
  cfg.cartridges = 4;
  cfg.horizon = sim::hours(1);
  cfg.min_repair = sim::minutes(2);
  cfg.max_repair = sim::minutes(10);
  EXPECT_EQ(FaultPlan::random(cfg, 7).render(),
            "cluster.node[0]:fail@t=2776433019402ns,repair=162201366393ns;"
            "tape.drive[2]:fail@t=3390333354327ns,repair=226460372153ns;"
            "tape.media[0]:corrupt@t=3476297480058ns,segments=1,seed=26083683");
}

TEST(FaultPlan, RandomCoversCorruptionsDeterministically) {
  RandomFaultConfig cfg;
  cfg.drive_failures = 0;
  cfg.node_crashes = 0;
  cfg.media_corruptions = 5;
  cfg.cartridges = 3;
  const FaultPlan a = FaultPlan::random(cfg, 11);
  const FaultPlan b = FaultPlan::random(cfg, 11);
  EXPECT_EQ(a.render(), b.render());
  ASSERT_EQ(a.size(), 5u);
  for (const auto& ev : a.events) {
    EXPECT_EQ(ev.target, FaultTarget::TapeMedia);
    EXPECT_EQ(ev.kind, FaultKind::Corrupt);
    EXPECT_LT(ev.index, 3u);
    EXPECT_GE(ev.segments, 1u);
    EXPECT_LE(ev.segments, 4u);
    EXPECT_LE(ev.at, cfg.horizon);
  }
  // Round-trips through the grammar like every other kind.
  const auto parsed = FaultPlan::parse(a.render());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->render(), a.render());
}

TEST(FaultPlan, ParseAcceptsDurationSuffixesAndMultipleEvents) {
  std::string err;
  const auto plan = FaultPlan::parse(
      "tape.drive[0]:fail@t=2m,repair=1h;cluster.node[1]:fail@t=1d", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  ASSERT_EQ(plan->size(), 2u);
  EXPECT_EQ(plan->events[0].at, sim::minutes(2));
  EXPECT_EQ(plan->events[0].repair, sim::hours(1));
  EXPECT_EQ(plan->events[1].at, sim::days(1));
  EXPECT_EQ(plan->events[1].repair, 0u);  // permanent
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  for (const std::string bad : {
           "tape.drive[x]:fail@t=10s",         // non-numeric index
           "tape.drive[0]",                    // no verb
           "tape.drive[0]:explode@t=10s",      // unknown verb
           "gpu.core[0]:fail@t=10s",           // unknown target
           "net.pool[trunk0]:degrade@t=10s",   // degrade needs factor
           "tape.drive[0]:fail",               // missing @t
           "tape.drive[0]:fail@t=nan",         // not a number
           "tape.drive[0]:fail@t=inf",         // not finite
           "tape.drive[0]:fail@t=1e300",       // beyond any Tick
           "tape.drive[0]:fail@t=1s,repair=nan",
           "tape.drive[-1]:fail@t=10s",        // signed index
           "tape.drive[+1]:fail@t=10s",
           "tape.media[0]:corrupt@t=1s,segments=-1",
           "tape.media[0]:corrupt@t=1s,segments=1,seed=-1",
           "net.pool[trunk0]:degrade@t=1s,factor=nan",
       }) {
    std::string err;
    EXPECT_FALSE(FaultPlan::parse(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
  // A NUL byte ends a C string but not a field.  The first two are
  // FaultPlanFuzz mutants that once parsed as 7us and 3ns; the third once
  // parsed as factor 0.5.
  using namespace std::string_literals;
  for (const std::string& bad : {
           " hsm.server[2] : restart@t=7us\0, outage=3ns ;"s,
           " hsm.server[2] : restart@t=7us , outage=3ns\0;"s,
           "net.pool[trunk0]:degrade@t=5m,factor=0.5\0"s,
       }) {
    EXPECT_FALSE(FaultPlan::parse(bad).has_value()) << bad;
  }
}

// Mutation fuzz of the spec grammar: every mutant of ten valid specs (one
// per target and verb, a composite plan, blanks and a trailing ';') must
// either fail to parse, with a diagnostic, or parse to a plan whose
// canonical render() parses back and renders to the same text.
TEST(FaultPlanFuzz, MutantsFailOrRenderToAFixedPoint) {
  const std::vector<std::string> specs = {
      "tape.drive[3]:fail@t=120s,repair=300s",
      "tape.media[7]:fail@t=1h,repair=30m",
      "tape.media[7]:corrupt@t=1h,segments=3,seed=42",
      "cluster.node[2]:fail@t=10m,repair=20m",
      "hsm.server[0]:restart@t=2h,outage=60s",
      "net.pool[trunk0]:degrade@t=5m,factor=0.5,repair=10m",
      "server.power[0]:fail@t=45m,seed=7,repair=120s",
      "tape.drive[1]:fail@t=1d",
      "tape.drive[0]:fail@t=1.5s;net.pool[san a]:degrade@t=250ms,factor=0.25",
      " hsm.server[2] : restart@t=7us , outage=3ns ;",
  };
  std::uint64_t rng = 0x13198A2E03707344ULL;
  std::uint64_t mutants = 0;
  std::uint64_t parsed = 0;
  for (const std::string& spec : specs) {
    ASSERT_TRUE(FaultPlan::parse(spec).has_value()) << spec;
    for (const std::string& m : fuzz::mutants_of(spec, specs, ";:,=@[]", rng)) {
      ++mutants;
      std::string err;
      const std::optional<FaultPlan> plan = FaultPlan::parse(m, &err);
      if (!plan) {
        ASSERT_FALSE(err.empty()) << m;
        continue;
      }
      ++parsed;
      const std::string canonical = plan->render();
      // Only a pool name may carry a NUL byte through; anywhere else it
      // must fail the parse, not be skipped.
      if (m.find('\0') != std::string::npos) {
        ASSERT_NE(canonical.find('\0'), std::string::npos) << m;
      }
      const std::optional<FaultPlan> again = FaultPlan::parse(canonical, &err);
      ASSERT_TRUE(again.has_value()) << m << " -> " << canonical << ": " << err;
      ASSERT_EQ(again->render(), canonical) << m;
    }
  }
  // 4,749 mutants, 422 of them plans.
  EXPECT_GT(mutants, 4000u);
  EXPECT_GT(parsed, 300u);
}

TEST(FaultPlan, RandomIsDeterministicPerSeed) {
  RandomFaultConfig cfg;
  cfg.drive_failures = 3;
  cfg.node_crashes = 2;
  cfg.media_errors = 1;
  cfg.server_restarts = 1;
  const FaultPlan a = FaultPlan::random(cfg, 42);
  const FaultPlan b = FaultPlan::random(cfg, 42);
  const FaultPlan c = FaultPlan::random(cfg, 43);
  EXPECT_EQ(a.render(), b.render());
  EXPECT_NE(a.render(), c.render());
  EXPECT_EQ(a.size(), 7u);
}

TEST(FaultPlan, RandomRespectsPlantBoundsAndHorizon) {
  RandomFaultConfig cfg;
  cfg.drive_failures = 8;
  cfg.node_crashes = 8;
  cfg.drives = 2;
  cfg.nodes = 3;
  cfg.horizon = sim::minutes(30);
  const FaultPlan plan = FaultPlan::random(cfg, 7);
  for (const auto& ev : plan.events) {
    EXPECT_LE(ev.at, cfg.horizon);
    if (ev.target == FaultTarget::TapeDrive) EXPECT_LT(ev.index, 2u);
    if (ev.target == FaultTarget::ClusterNode) EXPECT_LT(ev.index, 3u);
    if (ev.repair != 0) {
      EXPECT_GE(ev.repair, cfg.min_repair);
      EXPECT_LE(ev.repair, cfg.max_repair);
    }
  }
}

// -------------------------------------------------------------- FaultInjector

struct Recorded {
  std::vector<std::pair<std::uint64_t, bool>> drives;
  std::vector<std::pair<std::uint64_t, bool>> nodes;
  std::vector<std::pair<std::string, double>> pools;
  std::vector<sim::Tick> when;
};

TEST(FaultInjector, FiresStrikeAndRepairAtExactVirtualTimes) {
  sim::Simulation sim;
  obs::Observer obs;
  FaultInjector inj(sim, obs);

  Recorded rec;
  FaultTargets targets;
  targets.tape_drive = [&](std::uint64_t d, bool down) {
    rec.drives.emplace_back(d, down);
    rec.when.push_back(sim.now());
  };
  targets.cluster_node = [&](std::uint64_t n, bool down) {
    rec.nodes.emplace_back(n, down);
    rec.when.push_back(sim.now());
  };
  inj.set_targets(std::move(targets));

  FaultPlan plan;
  plan.drive_failure(1, sim::secs(10), sim::secs(20));  // repaired at t=30
  plan.node_crash(2, sim::secs(15));                    // permanent
  inj.arm(plan);
  sim.run();

  ASSERT_EQ(rec.drives.size(), 2u);
  EXPECT_EQ(rec.drives[0], (std::pair<std::uint64_t, bool>{1, true}));
  EXPECT_EQ(rec.drives[1], (std::pair<std::uint64_t, bool>{1, false}));
  ASSERT_EQ(rec.nodes.size(), 1u);
  EXPECT_EQ(rec.nodes[0], (std::pair<std::uint64_t, bool>{2, true}));
  ASSERT_EQ(rec.when.size(), 3u);
  EXPECT_EQ(rec.when[0], sim::secs(10));
  EXPECT_EQ(rec.when[1], sim::secs(15));
  EXPECT_EQ(rec.when[2], sim::secs(30));

  // Permanent faults count as injected but never repaired.
  EXPECT_EQ(inj.injected(), 2u);
  EXPECT_EQ(inj.repaired(), 1u);
  EXPECT_EQ(obs.metrics().counter_value("fault.injected_total"), 2u);
  EXPECT_EQ(obs.metrics().counter_value("fault.repaired_total"), 1u);
}

TEST(FaultInjector, PoolDegradePassesFactorThenRestores) {
  sim::Simulation sim;
  obs::Observer obs;
  FaultInjector inj(sim, obs);

  Recorded rec;
  FaultTargets targets;
  targets.net_pool = [&](const std::string& pool, double factor, bool down) {
    rec.pools.emplace_back(pool, down ? factor : 1.0);
  };
  inj.set_targets(std::move(targets));

  FaultPlan plan;
  plan.pool_degrade("trunk0", sim::secs(5), 0.25, sim::secs(10));
  inj.arm(plan);
  sim.run();

  ASSERT_EQ(rec.pools.size(), 2u);
  EXPECT_EQ(rec.pools[0].first, "trunk0");
  EXPECT_DOUBLE_EQ(rec.pools[0].second, 0.25);
  EXPECT_DOUBLE_EQ(rec.pools[1].second, 1.0);
}

TEST(FaultInjector, ServerPowerFiresStrikeWithSeedThenRepair) {
  sim::Simulation sim;
  obs::Observer obs;
  FaultInjector inj(sim, obs);

  std::vector<std::tuple<std::uint64_t, std::uint64_t, bool, sim::Tick>> hits;
  FaultTargets targets;
  targets.server_power = [&](std::uint64_t srv, std::uint64_t seed,
                             bool down) {
    hits.emplace_back(srv, seed, down, sim.now());
  };
  inj.set_targets(std::move(targets));

  const auto plan =
      FaultPlan::parse("server.power[0]:fail@t=10s,seed=9,repair=30s");
  ASSERT_TRUE(plan.has_value());
  inj.arm(*plan);
  sim.run();

  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], (std::tuple<std::uint64_t, std::uint64_t, bool,
                                 sim::Tick>{0, 9, true, sim::secs(10)}));
  EXPECT_EQ(std::get<2>(hits[1]), false);
  EXPECT_EQ(std::get<3>(hits[1]), sim::secs(40));
}

TEST(FaultInjector, UnwiredTargetsAreCountedSkipped) {
  sim::Simulation sim;
  obs::Observer obs;
  FaultInjector inj(sim, obs);  // no targets wired at all

  FaultPlan plan;
  plan.drive_failure(0, sim::secs(1), sim::secs(1));
  plan.media_error(4, sim::secs(2));
  inj.arm(plan);
  sim.run();

  EXPECT_EQ(inj.injected(), 0u);
  EXPECT_GE(obs.metrics().counter_value("fault.skipped_total"), 2u);
}

TEST(FaultInjector, CorruptFiresSilentCallbackWithSegmentsAndSeed) {
  sim::Simulation sim;
  obs::Observer obs;
  FaultInjector inj(sim, obs);

  struct Hit {
    std::uint64_t cart, segments, seed;
    sim::Tick when;
  };
  std::vector<Hit> hits;
  FaultTargets targets;
  targets.tape_corrupt = [&](std::uint64_t cart, std::uint64_t segments,
                             std::uint64_t seed) {
    hits.push_back({cart, segments, seed, sim.now()});
  };
  inj.set_targets(std::move(targets));

  FaultPlan plan;
  plan.media_corruption(2, sim::secs(30), 4, 99);
  inj.arm(plan);
  sim.run();

  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].cart, 2u);
  EXPECT_EQ(hits[0].segments, 4u);
  EXPECT_EQ(hits[0].seed, 99u);
  EXPECT_EQ(hits[0].when, sim::secs(30));
  // Silent bit-rot never schedules a repair event.
  EXPECT_EQ(inj.injected(), 1u);
  EXPECT_EQ(inj.repaired(), 0u);
  EXPECT_EQ(obs.metrics().counter_value("fault.corruptions"), 1u);
}

TEST(FaultInjector, ArmAccumulatesAcrossCalls) {
  sim::Simulation sim;
  obs::Observer obs;
  FaultInjector inj(sim, obs);

  unsigned strikes = 0;
  FaultTargets targets;
  targets.tape_drive = [&](std::uint64_t, bool down) { strikes += down; };
  inj.set_targets(std::move(targets));

  FaultPlan a;
  a.drive_failure(0, sim::secs(1));
  FaultPlan b;
  b.drive_failure(1, sim::secs(2));
  inj.arm(a);
  inj.arm(b);
  sim.run();
  EXPECT_EQ(strikes, 2u);
}

}  // namespace
}  // namespace cpa::fault
