// Pins the campaign digest of every configuration in cpa_check's three
// standing matrices: seeds 1-20 at 300 ops, plain, with crash-restart ops
// (and so the WAL) on, and with metadata batching at 16.  The digest
// covers the generated campaign and everything its run logged, so any
// drift in simulated behaviour names the configurations it moved.  One
// run per configuration; cpa_check's battery adds the replay and
// metamorphic runs.
//
// Re-pin deliberately with:
//   CPA_UPDATE_GOLDEN=1 ./chaos_test --gtest_filter='ChaosDigests.*'
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "check/runner.hpp"

namespace cpa::check {
namespace {

constexpr const char* kDigestsPath =
    CPA_SOURCE_DIR "/tests/check/chaos_digests.txt";

constexpr const char* kHeader =
    "# Chaos campaign digests: cpa_check's 20-seed matrices at 300 ops,\n"
    "# plain, --crashes and --md-batch=16, one run per configuration.\n"
    "# <fnv1a64 campaign digest> <the configuration, as repro_line names it>\n"
    "# Checked by ChaosDigests.PinnedMatricesUnchanged; re-pin with\n"
    "# CPA_UPDATE_GOLDEN=1.\n";

std::vector<ChaosConfig> pinned_configs() {
  std::vector<ChaosConfig> out;
  for (int matrix = 0; matrix < 3; ++matrix) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      ChaosConfig cfg = ChaosConfig{}.with_seed(seed).with_ops(300);
      if (matrix == 1) cfg.with_crashes(true);
      if (matrix == 2) cfg.with_md_batch(16);
      out.push_back(cfg);
    }
  }
  return out;
}

TEST(ChaosDigests, PinnedMatricesUnchanged) {
  std::vector<std::string> actual;
  for (const ChaosConfig& cfg : pinned_configs()) {
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64, run_chaos(cfg).digest);
    actual.push_back(std::string(digest) + " " + repro_line(cfg));
  }

  if (std::getenv("CPA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kDigestsPath, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kDigestsPath;
    out << kHeader;
    for (const std::string& line : actual) out << line << '\n';
    GTEST_SKIP() << "digests re-pinned at " << kDigestsPath;
  }

  std::ifstream in(kDigestsPath);
  ASSERT_TRUE(in.good()) << "missing " << kDigestsPath
                         << " (run with CPA_UPDATE_GOLDEN=1 to create)";
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i])
        << "campaign digest drifted; if intentional, re-pin with "
           "CPA_UPDATE_GOLDEN=1";
  }
}

}  // namespace
}  // namespace cpa::check
