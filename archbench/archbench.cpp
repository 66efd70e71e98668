// archbench: runs one instance of one benchmark workload and prints one JSON
// line of raw measurements (archbench/run.py repeats it, takes medians and
// turns the result into the named, unit-tagged report).
//
//   archbench --workload campaign|restore|small_files --seed N --trace 0|1
//             [--spans PATH]
//
// The instance builds the plant and generates its inputs from the seed, so
// its virtual-time outcomes repeat exactly from process to process.  With
// --trace 1 it turns on the program's trace (for the profiler buckets) and
// records host spans around the benchmark's calls into each layer,
// appending them as JSON lines to PATH.  The exit code is 1 when a
// correctness check failed, after the JSON line is printed.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

// Build flavour, from the compiler's own macros: host metrics of an
// unoptimized or sanitizer build are not comparable with anything.
#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__)
constexpr const char* kSanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
constexpr const char* kSanitizer = "thread";
#else
constexpr const char* kSanitizer = "";
#endif

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

/// %.17g round-trips a double exactly, so virtual metrics compare equal
/// across processes.
std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_obj(const archbench::Metrics& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_str(k) + ": " + json_num(v);
  }
  return out + "}";
}

std::string json_list(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (const std::string& x : xs) {
    if (out.size() > 1) out += ", ";
    out += json_str(x);
  }
  return out + "]";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "archbench: %s\nusage: archbench --workload campaign|restore|"
               "small_files --seed N --trace 0|1 [--spans PATH]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  std::uint64_t seed = 0;
  int trace = -1;
  if (argc % 2 != 1) usage("flags take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else if (flag == "--spans") {
      spans_path = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const archbench::Workload* wl = archbench::find_workload(workload);
  if (wl == nullptr) usage("unknown --workload");
  if (trace != 0 && trace != 1) usage("--trace 0|1 is required");

  archbench::Spans spans(trace == 1);
  spans.set_run_id(workload + "-" + std::to_string(seed) + "-" + std::to_string(getpid()));
  const archbench::Instance r = wl->run(seed, spans);
  if (trace == 1 && !spans_path.empty()) {
    std::FILE* out = std::fopen(spans_path.c_str(), "a");
    if (out == nullptr) usage("cannot write --spans file");
    spans.write_jsonl(out);
    std::fclose(out);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  const bool comparable = kOptimized && std::string(kSanitizer).empty();
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"sizes\": %s, "
      "\"nproc\": %ld, \"tracing\": %s, \"optimized\": %s, \"sanitizer\": %s, "
      "\"comparable\": %s, \"setup_s\": %s, \"run_s\": %s, \"peak_rss_mb\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"virt\": %s, \"layer\": %s, "
      "\"notes\": %s, \"errors\": %s}\n",
      json_str(workload).c_str(), static_cast<unsigned long long>(seed),
      json_str(r.sizes).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      trace == 1 ? "true" : "false", kOptimized ? "true" : "false",
      json_str(kSanitizer).c_str(), comparable ? "true" : "false",
      json_num(r.setup_s).c_str(), json_num(r.run_s).c_str(),
      json_num(peak_rss_mb).c_str(), static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), json_obj(r.virt).c_str(),
      json_obj(r.layer).c_str(), json_list(r.notes).c_str(),
      json_list(r.errors).c_str());
  return r.errors.empty() ? 0 : 1;
}
