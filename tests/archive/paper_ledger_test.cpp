// The paper ledger's claim evaluator (bench/ledger.hpp): every claim kind
// passes at its bound and fails one representable step past it, a report
// row never fails, and a ledger with a failing row exits 1 only after
// printing every row.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "bench/ledger.hpp"

namespace cpa::bench {
namespace {

using Op = Claim::Op;

double below(double x) { return std::nextafter(x, -1e300); }
double above(double x) { return std::nextafter(x, 1e300); }

TEST(PaperLedger, OrderClaimsHoldAtTheirBoundAndFailOneStepPast) {
  EXPECT_TRUE(Claim::order(below(512), Op::Lt, 512).holds());
  EXPECT_FALSE(Claim::order(512, Op::Lt, 512).holds());
  EXPECT_TRUE(Claim::order(above(9.8), Op::Gt, 9.8).holds());
  EXPECT_FALSE(Claim::order(9.8, Op::Gt, 9.8).holds());
  EXPECT_TRUE(Claim::order(9.8, Op::Ge, 9.8).holds());
  EXPECT_FALSE(Claim::order(below(9.8), Op::Ge, 9.8).holds());
}

TEST(PaperLedger, BoundClaimsHoldAtTheirBoundAndFailOneStepPast) {
  // ">= order of magnitude".
  EXPECT_TRUE(Claim::bound(10.0, Op::Ge, 10.0).holds());
  EXPECT_FALSE(Claim::bound(below(10.0), Op::Ge, 10.0).holds());
  // "none".
  EXPECT_TRUE(Claim::bound(0.0, Op::Eq, 0.0).holds());
  EXPECT_FALSE(Claim::bound(above(0.0), Op::Eq, 0.0).holds());
  // Beats the serial archive.
  EXPECT_TRUE(Claim::bound(above(1.0), Op::Gt, 1.0).holds());
  EXPECT_FALSE(Claim::bound(1.0, Op::Gt, 1.0).holds());
}

TEST(PaperLedger, EqualClaimsHoldOnlyOnExactEquality) {
  EXPECT_TRUE(Claim::equal(751.7, 751.7).holds());
  EXPECT_FALSE(Claim::equal(above(751.7), 751.7).holds());
  EXPECT_FALSE(Claim::equal(below(751.7), 751.7).holds());
}

TEST(PaperLedger, ReportRowNeverFails) {
  EXPECT_TRUE(Claim::report(0.0).holds());
  EXPECT_TRUE(Claim::report(-1e300).holds());
  EXPECT_TRUE(Claim::report(std::numeric_limits<double>::quiet_NaN()).holds());
  EXPECT_TRUE(Claim::report(std::numeric_limits<double>::infinity()).holds());
  EXPECT_EQ(Claim::report(10.0).verdict(), "report");
}

TEST(PaperLedger, FailingRowExitsOneOnlyAfterEveryRowIsPrinted) {
  Ledger ledger;
  testing::internal::CaptureStdout();
  ledger.experiment("Sec 0", "ledger self-test");
  ledger.row("t.first", "first metric", "paper one", "1", Claim::report(1));
  ledger.row("t.failing", "failing metric", "\"order\"", "2 vs 1",
             Claim::order(2, Op::Lt, 1));
  ledger.row("t.last", "last metric", "paper three", "3",
             Claim::bound(3, Op::Ge, 3));
  const int status = ledger.finish();
  const std::string out = testing::internal::GetCapturedStdout();

  EXPECT_EQ(status, 1);
  EXPECT_NE(out.find("3 rows: 1 claims hold, 1 failed, 1 report-only"),
            std::string::npos);
  const auto first = out.find("first metric");
  const auto failing = out.find("failing metric");
  const auto last = out.find("last metric");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(failing, std::string::npos);
  ASSERT_NE(last, std::string::npos);
  EXPECT_LT(first, failing);
  EXPECT_LT(failing, last);
  EXPECT_NE(out.find("measured: 2 vs 1  [FAIL: 2 < 1]"), std::string::npos);
  EXPECT_NE(out.find("FAILED t.failing"), std::string::npos);
  EXPECT_NE(ledger.json().find("\"section\": \"Sec 0\""), std::string::npos);
}

TEST(PaperLedger, PassingLedgerExitsZeroAndWritesOneRecordPerRow) {
  Ledger ledger;
  const std::string path = testing::TempDir() + "paper_ledger_test.json";
  ASSERT_TRUE(ledger.open_json(path));
  testing::internal::CaptureStdout();
  ledger.row("t.a", "a", "\"quoted\"", "1", Claim::equal(1, 1));
  ledger.row("t.b", "b", "p", "2", Claim::report(2));
  const int status = ledger.finish();
  testing::internal::GetCapturedStdout();
  EXPECT_EQ(status, 0);
  const std::string json = ledger.json();
  EXPECT_NE(json.find("{\"id\": \"t.a\""), std::string::npos);
  EXPECT_NE(json.find("\"paper\": \"\\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"op\": \"==\", \"ref\": 1"), std::string::npos);
  EXPECT_EQ(json.find("\"ref\"", json.find("t.b")), std::string::npos);
  std::ifstream written(path);
  const std::string on_disk((std::istreambuf_iterator<char>(written)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, json);
  // A path that cannot be opened is refused when it is opened, before any
  // experiment would run.
  testing::internal::CaptureStderr();
  EXPECT_FALSE(Ledger().open_json("/nonexistent_dir/paper.json"));
  EXPECT_NE(testing::internal::GetCapturedStderr().find("could not write"),
            std::string::npos);
}

}  // namespace
}  // namespace cpa::bench
