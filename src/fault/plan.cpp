#include "fault/plan.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "simcore/parse.hpp"
#include "simcore/rng.hpp"

namespace cpa::fault {
namespace {

// Canonical duration rendering: the largest unit that divides evenly, so
// parse(render()) round-trips tick-exact.
std::string render_duration(sim::Tick t) {
  char buf[32];
  if (t % sim::kTicksPerSec == 0) {
    std::snprintf(buf, sizeof(buf), "%llus",
                  static_cast<unsigned long long>(t / sim::kTicksPerSec));
  } else if (t % sim::kTicksPerMsec == 0) {
    std::snprintf(buf, sizeof(buf), "%llums",
                  static_cast<unsigned long long>(t / sim::kTicksPerMsec));
  } else if (t % sim::kTicksPerUsec == 0) {
    std::snprintf(buf, sizeof(buf), "%lluus",
                  static_cast<unsigned long long>(t / sim::kTicksPerUsec));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluns", static_cast<unsigned long long>(t));
  }
  return buf;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

// Longest duration accepted, in seconds (~317 years), so that every
// accepted value converts to a Tick.  strtod also reads "nan", "inf" and
// "1e300", whose conversion would be undefined.
constexpr double kMaxDurationSeconds = 1e10;

bool parse_duration(const std::string& text, sim::Tick* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || !(value >= 0.0)) return false;
  // The rest of the field, a NUL byte included: strtod stops at one.
  const std::string suffix =
      trim(text.substr(static_cast<std::size_t>(end - text.c_str())));
  struct Unit {
    const char* suffix;
    double seconds;
    sim::Tick (*to_ticks)(double);
  };
  static constexpr Unit kUnits[] = {
      {"", 1.0, sim::secs},
      {"s", 1.0, sim::secs},
      {"ms", 1e-3, sim::msecs},
      {"us", 1e-6, sim::usecs},
      {"ns", 1e-9, [](double ns) { return static_cast<sim::Tick>(ns + 0.5); }},
      {"m", 60.0, sim::minutes},
      {"h", 3600.0, sim::hours},
      {"d", 86400.0, sim::days},
  };
  for (const Unit& unit : kUnits) {
    if (suffix != unit.suffix) continue;
    if (!(value * unit.seconds <= kMaxDurationSeconds)) return false;
    *out = unit.to_ticks(value);
    return true;
  }
  return false;
}

bool fail_with(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// One `target:action` clause, e.g. "tape.drive[3]:fail@t=120s,repair=300s".
bool parse_event(const std::string& clause, FaultEvent* ev, std::string* error) {
  const std::size_t colon = clause.find(':');
  if (colon == std::string::npos) {
    return fail_with(error, "missing ':' in '" + clause + "'");
  }
  const std::string target = trim(clause.substr(0, colon));
  const std::string action = trim(clause.substr(colon + 1));

  const std::size_t lb = target.find('[');
  const std::size_t rb = target.rfind(']');
  if (lb == std::string::npos || rb == std::string::npos || rb < lb ||
      rb + 1 != target.size()) {
    return fail_with(error, "malformed target '" + target + "' (want name[arg])");
  }
  const std::string name = trim(target.substr(0, lb));
  const std::string arg = trim(target.substr(lb + 1, rb - lb - 1));

  std::string verb = "fail";
  if (name == "tape.drive") {
    ev->target = FaultTarget::TapeDrive;
  } else if (name == "tape.media") {
    ev->target = FaultTarget::TapeMedia;
  } else if (name == "cluster.node") {
    ev->target = FaultTarget::ClusterNode;
  } else if (name == "hsm.server") {
    ev->target = FaultTarget::HsmServer;
    verb = "restart";
  } else if (name == "net.pool") {
    ev->target = FaultTarget::NetPool;
    verb = "degrade";
  } else if (name == "server.power") {
    ev->target = FaultTarget::ServerPower;
  } else {
    return fail_with(error, "unknown fault target '" + name + "'");
  }

  if (ev->target == FaultTarget::NetPool) {
    if (arg.empty()) return fail_with(error, "net.pool needs a pool name");
    ev->pool = arg;
  } else {
    if (!sim::parse_u64(arg, ev->index)) {
      return fail_with(error, "bad index '" + arg + "' for " + name);
    }
  }

  const std::size_t at_sign = action.find('@');
  if (at_sign == std::string::npos) {
    return fail_with(error, "missing '@' in action '" + action + "'");
  }
  const std::string got_verb = trim(action.substr(0, at_sign));
  if (ev->target == FaultTarget::TapeMedia && got_verb == "corrupt") {
    // Silent bit-rot is a second verb on the media target: not a readable
    // outage window but a fixity violation discovered later.
    ev->kind = FaultKind::Corrupt;
  } else if (got_verb != verb) {
    return fail_with(error, name + " wants action '" + verb + "', got '" +
                                got_verb + "'");
  }

  // key=value list: t= (required first), then repair=/outage=/factor=,
  // or segments=/seed= for the corrupt kind.
  bool have_at = false;
  bool have_factor = false;
  bool have_segments = false;
  std::string rest = action.substr(at_sign + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string pair =
        trim(comma == std::string::npos ? rest : rest.substr(0, comma));
    rest = comma == std::string::npos ? std::string() : rest.substr(comma + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return fail_with(error, "expected key=value, got '" + pair + "'");
    }
    const std::string key = trim(pair.substr(0, eq));
    const std::string value = trim(pair.substr(eq + 1));
    if (key == "t") {
      if (!parse_duration(value, &ev->at)) {
        return fail_with(error, "bad time '" + value + "'");
      }
      have_at = true;
    } else if (key == "repair" || key == "outage") {
      if (ev->kind == FaultKind::Corrupt) {
        return fail_with(error,
                         "corrupt is silent bit-rot; '" + key +
                             "=' makes no sense (scrub repairs it)");
      }
      if (!parse_duration(value, &ev->repair)) {
        return fail_with(error, "bad duration '" + value + "'");
      }
    } else if (key == "segments" && ev->kind == FaultKind::Corrupt) {
      if (!sim::parse_u64(value, ev->segments) || ev->segments == 0) {
        return fail_with(error, "segments must be a positive count, got '" +
                                    value + "'");
      }
      have_segments = true;
    } else if (key == "seed" && (ev->kind == FaultKind::Corrupt ||
                                 ev->target == FaultTarget::ServerPower)) {
      if (!sim::parse_u64(value, ev->seed)) {
        return fail_with(error, "bad seed '" + value + "'");
      }
    } else if (key == "factor") {
      char* end = nullptr;
      ev->factor = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || end != value.c_str() + value.size() ||
          !(ev->factor >= 0.0 && ev->factor <= 1.0)) {
        return fail_with(error, "factor must be in [0,1], got '" + value + "'");
      }
      have_factor = true;
    } else {
      return fail_with(error, "unknown key '" + key + "'");
    }
  }
  if (!have_at) return fail_with(error, "missing t= in '" + clause + "'");
  if (ev->kind == FaultKind::Corrupt && !have_segments) {
    return fail_with(error, "tape.media corrupt needs segments=");
  }
  if (ev->target == FaultTarget::NetPool && !have_factor) {
    return fail_with(error, "net.pool degrade needs factor=");
  }
  if (ev->target == FaultTarget::HsmServer && ev->repair == 0) {
    return fail_with(error, "hsm.server restart needs a non-zero outage=");
  }
  return true;
}

}  // namespace

namespace {

// splitmix64 finalizer: a one-shot mix good enough to decorrelate the
// jitter draw across (seed, salt, retry_index) triples.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

sim::Tick RetryPolicy::delay(unsigned retry_index, std::uint64_t salt) const {
  sim::Tick base = 0;
  if (retry_index <= 1) {
    base = std::min(backoff, max_backoff);
  } else {
    double d = static_cast<double>(backoff);
    bool capped = false;
    for (unsigned i = 1; i < retry_index; ++i) {
      d *= multiplier;
      if (d >= static_cast<double>(max_backoff)) {
        capped = true;
        break;
      }
    }
    base = capped ? max_backoff
                  : std::min(static_cast<sim::Tick>(d + 0.5), max_backoff);
  }
  if (jitter <= 0.0) return base;
  // Seeded full jitter: scale by a deterministic draw from [1-jitter, 1].
  const std::uint64_t h =
      mix64(jitter_seed ^ mix64(salt) ^ (0x5B17ULL * retry_index));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  const double scale = 1.0 - std::min(jitter, 1.0) * u;
  return static_cast<sim::Tick>(static_cast<double>(base) * scale + 0.5);
}

const char* to_string(FaultTarget t) {
  switch (t) {
    case FaultTarget::TapeDrive: return "tape.drive";
    case FaultTarget::TapeMedia: return "tape.media";
    case FaultTarget::ClusterNode: return "cluster.node";
    case FaultTarget::HsmServer: return "hsm.server";
    case FaultTarget::NetPool: return "net.pool";
    case FaultTarget::ServerPower: return "server.power";
  }
  return "?";
}

std::string FaultEvent::render() const {
  std::string out = to_string(target);
  out += '[';
  if (target == FaultTarget::NetPool) {
    out += pool;
  } else {
    out += std::to_string(index);
  }
  out += "]:";
  if (kind == FaultKind::Corrupt) {
    out += "corrupt@t=" + render_duration(at);
    out += ",segments=" + std::to_string(segments);
    out += ",seed=" + std::to_string(seed);
    return out;
  }
  switch (target) {
    case FaultTarget::HsmServer: out += "restart"; break;
    case FaultTarget::NetPool: out += "degrade"; break;
    default: out += "fail"; break;
  }
  out += "@t=" + render_duration(at);
  if (target == FaultTarget::NetPool) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ",factor=%g", factor);
    out += buf;
  }
  if (target == FaultTarget::ServerPower && seed != 0) {
    out += ",seed=" + std::to_string(seed);
  }
  if (repair != 0) {
    out += target == FaultTarget::HsmServer ? ",outage=" : ",repair=";
    out += render_duration(repair);
  }
  return out;
}

FaultPlan& FaultPlan::add(FaultEvent ev) {
  events.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::drive_failure(std::uint64_t drive, sim::Tick at,
                                    sim::Tick repair) {
  return add({FaultTarget::TapeDrive, drive, {}, at, repair, 0.0});
}

FaultPlan& FaultPlan::media_error(std::uint64_t cartridge, sim::Tick at,
                                  sim::Tick repair) {
  return add({FaultTarget::TapeMedia, cartridge, {}, at, repair, 0.0});
}

FaultPlan& FaultPlan::media_corruption(std::uint64_t cartridge, sim::Tick at,
                                       std::uint64_t segments,
                                       std::uint64_t seed) {
  FaultEvent ev;
  ev.target = FaultTarget::TapeMedia;
  ev.kind = FaultKind::Corrupt;
  ev.index = cartridge;
  ev.at = at;
  ev.segments = segments;
  ev.seed = seed;
  return add(std::move(ev));
}

FaultPlan& FaultPlan::node_crash(std::uint64_t node, sim::Tick at,
                                 sim::Tick repair) {
  return add({FaultTarget::ClusterNode, node, {}, at, repair, 0.0});
}

FaultPlan& FaultPlan::server_restart(std::uint64_t server, sim::Tick at,
                                     sim::Tick outage) {
  return add({FaultTarget::HsmServer, server, {}, at, outage, 0.0});
}

FaultPlan& FaultPlan::pool_degrade(std::string pool, sim::Tick at, double factor,
                                   sim::Tick repair) {
  return add({FaultTarget::NetPool, 0, std::move(pool), at, repair, factor});
}

FaultPlan& FaultPlan::power_fail(std::uint64_t server, sim::Tick at,
                                 std::uint64_t seed, sim::Tick repair) {
  FaultEvent ev;
  ev.target = FaultTarget::ServerPower;
  ev.index = server;
  ev.at = at;
  ev.repair = repair;
  ev.seed = seed;
  return add(std::move(ev));
}

std::string FaultPlan::render() const {
  std::string out;
  for (const FaultEvent& ev : events) {
    if (!out.empty()) out += ";";
    out += ev.render();
  }
  return out;
}

std::optional<FaultPlan> FaultPlan::parse(const std::string& spec,
                                          std::string* error) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t semi = spec.find(';', pos);
    const std::string clause = trim(
        semi == std::string::npos ? spec.substr(pos)
                                  : spec.substr(pos, semi - pos));
    if (!clause.empty()) {
      FaultEvent ev;
      if (!parse_event(clause, &ev, error)) return std::nullopt;
      plan.events.push_back(std::move(ev));
    }
    if (semi == std::string::npos) break;
    pos = semi + 1;
  }
  return plan;
}

FaultPlan FaultPlan::random(const RandomFaultConfig& cfg, std::uint64_t seed) {
  sim::Rng rng(seed);
  FaultPlan plan;
  auto window = [&](FaultEvent ev) {
    ev.at = rng.uniform_u64(0, cfg.horizon);
    ev.repair = rng.uniform_u64(cfg.min_repair, cfg.max_repair);
    plan.add(std::move(ev));
  };
  for (unsigned i = 0; i < cfg.drive_failures && cfg.drives > 0; ++i) {
    FaultEvent ev;
    ev.target = FaultTarget::TapeDrive;
    ev.index = rng.uniform_u64(0, cfg.drives - 1);
    window(std::move(ev));
  }
  for (unsigned i = 0; i < cfg.node_crashes && cfg.nodes > 0; ++i) {
    FaultEvent ev;
    ev.target = FaultTarget::ClusterNode;
    ev.index = rng.uniform_u64(0, cfg.nodes - 1);
    window(std::move(ev));
  }
  for (unsigned i = 0; i < cfg.media_errors && cfg.cartridges > 0; ++i) {
    FaultEvent ev;
    ev.target = FaultTarget::TapeMedia;
    ev.index = rng.uniform_u64(0, cfg.cartridges - 1);
    window(std::move(ev));
  }
  for (unsigned i = 0; i < cfg.media_corruptions && cfg.cartridges > 0; ++i) {
    FaultEvent ev;
    ev.target = FaultTarget::TapeMedia;
    ev.kind = FaultKind::Corrupt;
    ev.index = rng.uniform_u64(0, cfg.cartridges - 1);
    ev.at = rng.uniform_u64(0, cfg.horizon);
    ev.segments = rng.uniform_u64(1, 4);
    ev.seed = rng.uniform_u64(0, 0xFFFFFFFFULL);
    plan.add(std::move(ev));
  }
  for (unsigned i = 0; i < cfg.server_restarts && cfg.servers > 0; ++i) {
    FaultEvent ev;
    ev.target = FaultTarget::HsmServer;
    ev.index = rng.uniform_u64(0, cfg.servers - 1);
    window(std::move(ev));
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

}  // namespace cpa::fault
