// Replays tests/check/seed_corpus.txt — seeds that once exercised real
// bug classes — as fixed regression tests (ctest label: chaos).  Entries
// tagged `crash` run with crash-restart ops and the WAL on, as in
// `cpa_check --corpus`.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/runner.hpp"

namespace cpa::check {
namespace {

TEST(SeedCorpus, EveryKnownInterestingSeedStaysClean) {
  const std::vector<CorpusEntry> corpus = load_corpus(
      std::string(CPA_SOURCE_DIR) + "/tests/check/seed_corpus.txt", 300);
  ASSERT_FALSE(corpus.empty());
  // The crash-class seeds only reproduce their bugs with power failures.
  EXPECT_TRUE(std::any_of(corpus.begin(), corpus.end(),
                          [](const CorpusEntry& e) { return e.crashes; }));
  for (const CorpusEntry& e : corpus) {
    const ChaosConfig cfg =
        ChaosConfig{}.with_seed(e.seed).with_ops(e.ops).with_crashes(e.crashes);
    const ChaosResult r = run_chaos(cfg);
    EXPECT_TRUE(r.ok()) << "seed " << e.seed << " (" << e.comment
                        << ") regressed:\n"
                        << r.render_violations() << "repro: "
                        << repro_line(cfg);
    EXPECT_EQ(r.ops_executed + r.ops_skipped, e.ops)
        << "seed " << e.seed << " lost ops";
  }
}

}  // namespace
}  // namespace cpa::check
