#include <gtest/gtest.h>

#include "mutants.hpp"
#include "pftool/core/options.hpp"
#include "pftool/core/planner.hpp"
#include "pftool/core/queues.hpp"
#include "pftool/core/report.hpp"
#include "pftool/core/restart_journal.hpp"
#include "simcore/rng.hpp"

namespace cpa::pftool {
namespace {

// --- ChunkPlanner -----------------------------------------------------------

TEST(ChunkPlanner, ModeThresholdsMatchThePaper) {
  ChunkPlanner p{PlannerConfig{}};
  EXPECT_EQ(p.mode_for(1 * kGB), CopyMode::Whole);
  EXPECT_EQ(p.mode_for(10 * kGB), CopyMode::ChunkedNto1);   // "10GBs to 100 GBs"
  EXPECT_EQ(p.mode_for(99 * kGB), CopyMode::ChunkedNto1);
  EXPECT_EQ(p.mode_for(100 * kGB), CopyMode::FuseNtoN);     // "> 100 GB"
  EXPECT_EQ(p.mode_for(1000 * kGB), CopyMode::FuseNtoN);
}

TEST(ChunkPlanner, WholeFilesAreOneChunk) {
  ChunkPlanner p{PlannerConfig{}};
  const CopyPlan plan = p.plan(5 * kGB);
  EXPECT_EQ(plan.mode, CopyMode::Whole);
  ASSERT_EQ(plan.chunks.size(), 1u);
  EXPECT_EQ(plan.chunks[0].bytes, 5 * kGB);
}

TEST(ChunkPlanner, ZeroByteFile) {
  ChunkPlanner p{PlannerConfig{}};
  const CopyPlan plan = p.plan(0);
  ASSERT_EQ(plan.chunks.size(), 1u);
  EXPECT_EQ(plan.chunks[0].bytes, 0u);
}

TEST(ChunkPlanner, Nto1ChunksPartitionExactly) {
  PlannerConfig cfg;
  cfg.copy_chunk_size = 4 * kGB;
  ChunkPlanner p{cfg};
  const CopyPlan plan = p.plan(10 * kGB);
  EXPECT_EQ(plan.mode, CopyMode::ChunkedNto1);
  ASSERT_EQ(plan.chunks.size(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(plan.chunks[2].bytes, 2 * kGB);
  std::uint64_t covered = 0;
  for (const auto& c : plan.chunks) {
    EXPECT_EQ(c.offset, covered);
    covered += c.bytes;
  }
  EXPECT_EQ(covered, 10 * kGB);
}

TEST(ChunkPlanner, FuseChunksUseFuseChunkSize) {
  PlannerConfig cfg;
  cfg.fuse_chunk_size = 16 * kGB;
  ChunkPlanner p{cfg};
  const CopyPlan plan = p.plan(200 * kGB);
  EXPECT_EQ(plan.mode, CopyMode::FuseNtoN);
  EXPECT_EQ(plan.chunks.size(), 13u);  // ceil(200/16)
}

TEST(ChunkTag, DistinctAcrossChunksAndFiles) {
  EXPECT_NE(chunk_tag(1, 0), chunk_tag(1, 1));
  EXPECT_NE(chunk_tag(1, 0), chunk_tag(2, 0));
  EXPECT_EQ(chunk_tag(7, 3), chunk_tag(7, 3));  // deterministic
}

// --- WorkQueue / TapeCopyQueues ----------------------------------------------

TEST(WorkQueue, FifoWithStats) {
  WorkQueue<int> q;
  EXPECT_TRUE(q.empty());
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.max_depth(), 3u);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  q.push(4);
  EXPECT_EQ(q.max_depth(), 3u);  // high watermark unchanged
  EXPECT_EQ(q.total_enqueued(), 4u);
}

TEST(TapeCopyQueues, PerCartridgeSeqOrdering) {
  TapeCopyQueues<std::string> q;
  q.add(2, 30, "c-late");
  q.add(1, 5, "a-mid");
  q.add(1, 1, "a-first");
  q.add(1, 9, "a-last");
  q.add(2, 10, "c-early");
  EXPECT_EQ(q.cartridge_count(), 2u);
  EXPECT_EQ(q.total_enqueued(), 5u);

  std::uint64_t cart = 0;
  std::vector<std::string> items;
  ASSERT_TRUE(q.pop_cartridge(&cart, &items));
  EXPECT_EQ(cart, 1u);
  EXPECT_EQ(items, (std::vector<std::string>{"a-first", "a-mid", "a-last"}));
  ASSERT_TRUE(q.pop_cartridge(&cart, &items));
  EXPECT_EQ(cart, 2u);
  EXPECT_EQ(items, (std::vector<std::string>{"c-early", "c-late"}));
  EXPECT_FALSE(q.pop_cartridge(&cart, &items));
  EXPECT_TRUE(q.empty());
}

TEST(TapeCopyQueues, DuplicateSeqsKeptInInsertionOrder) {
  TapeCopyQueues<int> q;
  q.add(1, 5, 100);
  q.add(1, 5, 200);
  std::uint64_t cart = 0;
  std::vector<int> items;
  ASSERT_TRUE(q.pop_cartridge(&cart, &items));
  EXPECT_EQ(items, (std::vector<int>{100, 200}));
}

// --- RestartJournal -----------------------------------------------------------

TEST(RestartJournal, TracksPendingChunks) {
  RestartJournal j;
  j.begin("/dst/f", 100, 4);
  EXPECT_TRUE(j.known("/dst/f"));
  EXPECT_EQ(j.pending("/dst/f").size(), 4u);
  j.mark_good("/dst/f", 0);
  j.mark_good("/dst/f", 2);
  EXPECT_EQ(j.pending("/dst/f"), (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(j.good_count("/dst/f"), 2u);
  EXPECT_FALSE(j.complete("/dst/f"));
  j.mark_good("/dst/f", 1);
  j.mark_good("/dst/f", 3);
  EXPECT_TRUE(j.complete("/dst/f"));
}

TEST(RestartJournal, ResumePreservesMarksWhenShapeMatches) {
  RestartJournal j;
  j.begin("/f", 100, 4);
  j.mark_good("/f", 1);
  j.begin("/f", 100, 4);  // restart, same file
  EXPECT_EQ(j.good_count("/f"), 1u);
  j.begin("/f", 200, 4);  // source changed: reset
  EXPECT_EQ(j.good_count("/f"), 0u);
}

TEST(RestartJournal, MarkBadReturnsChunkToPending) {
  RestartJournal j;
  j.begin("/f", 100, 2);
  j.mark_good("/f", 0);
  j.mark_bad("/f", 0);
  EXPECT_EQ(j.pending("/f").size(), 2u);
}

TEST(RestartJournal, UnknownDestinationIsSafe) {
  RestartJournal j;
  EXPECT_FALSE(j.known("/x"));
  EXPECT_FALSE(j.complete("/x"));
  EXPECT_TRUE(j.pending("/x").empty());
  j.mark_good("/x", 0);  // no-op
  j.forget("/x");        // no-op
}

TEST(RestartJournal, OutOfRangeChunkIgnored) {
  RestartJournal j;
  j.begin("/f", 100, 2);
  j.mark_good("/f", 99);
  EXPECT_EQ(j.good_count("/f"), 0u);
}

TEST(RestartJournal, SerializeRoundTrip) {
  RestartJournal j;
  j.begin("/a/b", 1000, 3);
  j.mark_good("/a/b", 1);
  j.begin("/c", 0, 1);
  const std::string text = j.serialize();
  const auto parsed = RestartJournal::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->pending("/a/b"), (std::vector<std::uint64_t>{0, 2}));
  EXPECT_EQ(parsed->good_count("/a/b"), 1u);
}

// Size, count and bitmap are read from the right, so a destination that
// contains '|' round-trips through the unchanged line format.
TEST(RestartJournal, PipeInDestinationRoundTrips) {
  RestartJournal j;
  j.begin("/proj/a|b.dat", 100, 2);
  j.mark_good("/proj/a|b.dat", 1);
  j.begin("/proj/|x|", 7, 1);
  const std::string text = j.serialize();
  EXPECT_NE(text.find("/proj/a|b.dat|100|2|01\n"), std::string::npos);
  const auto parsed = RestartJournal::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->pending("/proj/a|b.dat"), (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(parsed->pending("/proj/|x|"), (std::vector<std::uint64_t>{0}));
}

TEST(RestartJournal, ParseRejectsGarbage) {
  EXPECT_FALSE(RestartJournal::parse("not a journal").has_value());
  EXPECT_FALSE(RestartJournal::parse("/f|x|y|11").has_value());
  EXPECT_FALSE(RestartJournal::parse("/f|10|3|11").has_value());   // bitmap len
  EXPECT_FALSE(RestartJournal::parse("/f|10|2|1z").has_value());   // bad char
  // Each number is read whole: no sign, blank or trailing byte.
  for (const char* bad : {"/f|12x|2|10", "/f| 12|2|10", "/f|+12|2|10",
                          "/f|-1|2|10", "/f|10|1x|1"}) {
    EXPECT_FALSE(RestartJournal::parse(bad).has_value()) << bad;
  }
  // A huge chunk count needs as long a bitmap, so it allocates nothing.
  EXPECT_FALSE(RestartJournal::parse("/f|10|18446744073709551615|1").has_value());
  EXPECT_TRUE(RestartJournal::parse("").has_value());              // empty ok
}

// Mutation fuzz of the journal's text form: every mutant of ten valid
// journals (a '|' or blank in a destination, an empty destination, zero
// chunks, the largest size, several lines, blank lines, no final newline)
// must either fail to parse or parse to a journal whose serialize() parses
// back and serializes to the same text.
TEST(RestartJournalFuzz, MutantsFailOrSerializeToAFixedPoint) {
  const std::vector<std::string> texts = {
      "/arch/a|4096|4|0101\n",
      "/arch/p|q|100|2|01\n",
      "/arch/empty|0|1|0\n",
      "/a|1|1|1\n/b|2|2|00\n",
      "|0|0|\n",
      "/big|18446744073709551615|3|111\n",
      "/x y|10|1|0\n",
      "/arch/j%201|4096|3|000\n",
      "/arch/nonl|7|2|10",
      "\n\n/arch/blank|1|1|1\n\n",
  };
  std::uint64_t rng = 0xA4093822299F31D0ULL;
  std::uint64_t mutants = 0;
  std::uint64_t parsed = 0;
  for (const std::string& text : texts) {
    ASSERT_TRUE(RestartJournal::parse(text).has_value()) << text;
    for (const std::string& m : fuzz::mutants_of(text, texts, "|\n", rng)) {
      ++mutants;
      const std::optional<RestartJournal> journal = RestartJournal::parse(m);
      if (!journal) continue;
      ++parsed;
      const std::string canonical = journal->serialize();
      const std::optional<RestartJournal> again = RestartJournal::parse(canonical);
      ASSERT_TRUE(again.has_value()) << m << " -> " << canonical;
      ASSERT_EQ(again->serialize(), canonical) << m;
    }
  }
  // 2,662 mutants, 1,151 of them journals.
  EXPECT_GT(mutants, 2000u);
  EXPECT_GT(parsed, 800u);
}

// Property: after random mark sequences, pending + good partition chunks.
class JournalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JournalProperty, PendingAndGoodPartition) {
  cpa::sim::Rng rng(GetParam());
  RestartJournal j;
  const std::uint64_t chunks = rng.uniform_u64(1, 64);
  j.begin("/f", chunks * 100, chunks);
  for (int op = 0; op < 200; ++op) {
    const std::uint64_t c = rng.uniform_u64(0, chunks - 1);
    if (rng.chance(0.7)) {
      j.mark_good("/f", c);
    } else {
      j.mark_bad("/f", c);
    }
  }
  EXPECT_EQ(j.pending("/f").size() + j.good_count("/f"), chunks);
  // Serialize/parse preserves exact state.
  const auto parsed = RestartJournal::parse(j.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->pending("/f"), j.pending("/f"));
}

INSTANTIATE_TEST_SUITE_P(RandomMarks, JournalProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- JobReport -----------------------------------------------------------------

TEST(JobReport, RenderContainsKeyFigures) {
  JobReport r;
  r.command = "pfcp";
  r.src_root = "/scratch/run1";
  r.dst_root = "/archive/run1";
  r.started = 0;
  r.finished = sim::secs(100);
  r.dirs_walked = 5;
  r.files_stated = 20;
  r.files_copied = 20;
  r.bytes_copied = 57'500 * kMB;
  r.chunks_copied = 22;
  const std::string s = r.render();
  EXPECT_NE(s.find("pfcp"), std::string::npos);
  EXPECT_NE(s.find("575.0 MB/s"), std::string::npos);
  EXPECT_NE(s.find("walked 5 dirs"), std::string::npos);
  EXPECT_DOUBLE_EQ(r.elapsed_seconds(), 100.0);
}

TEST(JobReport, AbortedFlagShown) {
  JobReport r;
  r.command = "pfcp";
  r.aborted_by_watchdog = true;
  EXPECT_NE(r.render().find("ABORTED"), std::string::npos);
}

}  // namespace
}  // namespace cpa::pftool
