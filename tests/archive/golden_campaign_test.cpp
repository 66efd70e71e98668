// Golden-digest regression for the Figure 10 campaign.
//
// Runs the seed-2009, 1/100-scale Open Science campaign end to end and
// compares per-job (files, bytes, duration) tuples byte-for-byte against
// tests/archive/golden_fig10.txt.  The campaign exercises every layer —
// workload generator, pfcp job scheduling, the flow network, tape
// migration, fault-free restart journals — so any behavioural drift in
// the simcore scheduler (or in PR 2's replay machinery) shows up as a
// digest mismatch with a per-job diff.
//
// Regenerate intentionally with:
//   CPA_UPDATE_GOLDEN=1 ./archive_test --gtest_filter='GoldenCampaign.*'
//
// Provenance: the digest was first captured from the pre-incremental
// scheduler.  The incremental rewrite reproduced every per-job file and
// byte count exactly; 13 of 62 durations moved by <= 65 ns (relative
// ~1e-12) because lazy byte accounting evaluates rate*(t1-t0) in one
// multiply instead of summing per-event slices — pure FP re-association,
// at which point the golden was re-pinned to the incremental scheduler.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/campaign_runner.hpp"
#include "simcore/hash.hpp"

namespace cpa {
namespace {

#ifndef CPA_SOURCE_DIR
#error "CPA_SOURCE_DIR must point at the repository root"
#endif

constexpr const char* kGoldenPath =
    CPA_SOURCE_DIR "/tests/archive/golden_fig10.txt";

std::string render_digest(const bench::CampaignResult& result) {
  std::ostringstream out;
  out << "# fig10 campaign golden digest: seed 2009, scale 0.01\n";
  out << "# job_id files_copied total_bytes duration_seconds\n";
  std::string body;
  for (const auto& job : result.jobs) {
    char line[160];
    std::snprintf(line, sizeof(line), "job %2u %6llu %15llu %.9f\n",
                  job.spec.job_id,
                  static_cast<unsigned long long>(job.files_copied),
                  static_cast<unsigned long long>(job.spec.total_bytes),
                  job.elapsed_seconds);
    body += line;
  }
  out << body;
  char tail[64];
  std::snprintf(tail, sizeof(tail), "fnv1a %016llx\n",
                static_cast<unsigned long long>(
                    sim::fnv1a64(body, sim::kFnv1a64ShortBasis)));
  out << tail;
  return out.str();
}

TEST(GoldenCampaign, Fig10Seed2009DigestUnchanged) {
  bench::CampaignOptions opts;  // defaults: seed 2009, scale 0.01
  const bench::CampaignResult result = bench::run_campaign(opts);
  ASSERT_EQ(result.jobs.size(), 62u);
  const std::string actual = render_digest(result);

  if (std::getenv("CPA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << actual;
    GTEST_SKIP() << "golden regenerated at " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << kGoldenPath
                         << " (run with CPA_UPDATE_GOLDEN=1 to create)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "campaign results drifted from the golden digest; if intentional, "
         "regenerate with CPA_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace cpa
