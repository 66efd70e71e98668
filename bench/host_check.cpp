// host_check: the host-cost ledger.  Runs, in one process, every experiment
// whose result is host time or host memory, which simulated time cannot
// show: the metadata tables' bytes and ns per migrated file (Sec 4.2.5),
// the policy-scan cost per inode (Sec 4.2.1) and flow-network churn.  Each
// prints its table; --json writes one flat record per row, keyed by "id",
// which `ci.sh` gates with one `bench_regress --key=id` call against
// bench/baselines/BENCH_host.json.  Host numbers come from a Release build
// and are only comparable with one.
// Exit status: 0 when every self-check holds; 1 when the flow scheduler's
// rates diverge from the reference, the catalog holds more than 300 B per
// file at 100k files, or the JSON cannot be written; 2 on a malformed
// command line.
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "bench/common.hpp"

// The experiments, one source file each.  Each prints its table, appends
// one record per row and returns false when a self-check fails.
namespace cpa::bench {
namespace catalog { bool run(std::vector<std::string>& records); }
namespace inode_scan { bool run(std::vector<std::string>& records); }
namespace flow_churn { bool run(std::vector<std::string>& records); }
}  // namespace cpa::bench

int main(int argc, char** argv) {
  using namespace cpa;
  std::string json_path = "BENCH_host.json";
  bench::Cli(argv[0]).text("--json", "FILE", json_path).parse(argc, argv);

  // Opened before the first experiment, so that a path that cannot be
  // written is refused before any work.
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "  error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::vector<std::string> records;
  bool ok = true;
  // The two heap-measuring experiments run first, the catalog before the
  // inode scan: so each reads the bytes it reads in a process of its own.
  // After the scan's teardown, glibc's raised mmap threshold moves the
  // catalog's 10k-file figures by up to 0.9 B per file.
  using Experiment = bool (*)(std::vector<std::string>&);
  for (const Experiment run : std::initializer_list<Experiment>{
           bench::catalog::run, bench::inode_scan::run, bench::flow_churn::run}) {
    ok = run(records) && ok;
  }

  std::string text = "[";
  const char* sep = "\n  ";
  for (const std::string& r : records) {
    text += sep + r;
    sep = ",\n  ";
  }
  text += "\n]\n";
  const bool written = std::fputs(text.c_str(), json) >= 0;
  if (std::fclose(json) != 0 || !written) {
    std::fprintf(stderr, "  error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\n  wrote %s\n", json_path.c_str());
  return ok ? 0 : 1;
}
