// The metadata session: flush triggers, ordering, the in-flight window,
// amortized cost, B=1 as the stop-and-wait round-trip, and the power-fail
// contract (a round-trip in service tears away whole — no partial apply,
// no callback leak, no wedged queue).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "hsm/server.hpp"
#include "hsm/txn_batch.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace cpa::hsm {
namespace {

class MdBatchTest : public ::testing::Test {
 protected:
  MdBatchTest() : net_(sim_), server_(sim_, net_, "tsm0", ServerConfig{}) {}

  TxnSession session(unsigned batch_size, TxnSession::Hooks hooks = {}) {
    return TxnSession(sim_, server_, batch_size, std::move(hooks));
  }

  sim::Simulation sim_;
  sim::FlowNetwork net_{sim_};
  ArchiveServer server_;
};

TEST(MdBatchConfig, BatchingOffByDefault) {
  const ServerConfig cfg;
  EXPECT_EQ(cfg.md_batch_size, 1u);
}

TEST(MdBatchConfig, BatchCostAmortizesAndDegeneratesToSingleton) {
  const ServerConfig cfg;
  // A batch of one costs exactly one stop-and-wait round-trip.
  EXPECT_EQ(cfg.batch_cost(1), cfg.metadata_txn_cost);
  // Amortization: 16 ops in one batch vs 16 stop-and-wait round-trips.
  const sim::Tick batched = cfg.batch_cost(16);
  const sim::Tick singleton = 16 * cfg.metadata_txn_cost;
  EXPECT_LT(batched, singleton);
  // The acceptance gate demands >=5x on the storm; the cost model alone
  // must already provide it at B=16.
  EXPECT_GE(singleton / batched, 5u);
}

// At B=1 the session is the paper's stop-and-wait server: producers that
// each chain their next op on `applied` are served strictly FIFO, one
// round-trip of `metadata_txn_cost` at a time — whether or not they
// outnumber the in-flight window.
TEST(MdBatchStopAndWait, ChainedProducersCompleteFifoAtCostMultiples) {
  for (const unsigned producers : {3u, 2 * TxnSession::kWindow}) {
    sim::Simulation sim;
    sim::FlowNetwork net(sim);
    ArchiveServer server(sim, net, "tsm0", ServerConfig{});
    TxnSession s(sim, server, /*batch_size=*/1, {});
    constexpr unsigned kOpsEach = 4;
    std::vector<std::pair<unsigned, sim::Tick>> done;  // (producer, at)
    std::vector<unsigned> left(producers, kOpsEach);
    std::function<void(unsigned)> next = [&](unsigned p) {
      s.submit([] {}, [&, p] {
        done.emplace_back(p, sim.now());
        if (--left[p] > 0) next(p);
      });
    };
    for (unsigned p = 0; p < producers; ++p) next(p);
    sim.run();
    const sim::Tick cost = ServerConfig{}.metadata_txn_cost;
    ASSERT_EQ(done.size(), producers * kOpsEach) << producers << " producers";
    for (std::size_t k = 0; k < done.size(); ++k) {
      EXPECT_EQ(done[k].first, k % producers) << "completion " << k;
      EXPECT_EQ(done[k].second, (k + 1) * cost) << "completion " << k;
    }
    EXPECT_EQ(server.txns_completed(), producers * kOpsEach);
  }
}

TEST_F(MdBatchTest, SizeTriggerDispatchesFullBatch) {
  auto s = session(/*batch_size=*/4);
  std::vector<int> applied;
  sim::Tick done_at = 0;
  for (int i = 0; i < 4; ++i) {
    s.submit([&applied, i] { applied.push_back(i); },
             [&done_at, this] { done_at = sim_.now(); });
  }
  EXPECT_EQ(s.batches_sent(), 1u);  // size trigger, no flush needed
  sim_.run();
  EXPECT_EQ(applied, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(done_at, server_.config().batch_cost(4));
  EXPECT_EQ(server_.batch_ops_completed(), 4u);
  EXPECT_EQ(server_.txns_completed(), 1u);  // one round-trip, not four
}

TEST_F(MdBatchTest, TimeoutFlushesPartialBatch) {
  auto s = session(/*batch_size=*/16);
  bool applied = false;
  sim::Tick done_at = 0;
  s.submit([&applied] { applied = true; },
           [&done_at, this] { done_at = sim_.now(); });
  EXPECT_EQ(s.batches_sent(), 0u);  // waiting on the timer
  sim_.run();
  EXPECT_TRUE(applied);
  EXPECT_EQ(done_at,
            TxnSession::kFlushTimeout + server_.config().batch_cost(1));
}

TEST_F(MdBatchTest, ExplicitFlushSkipsTheTimer) {
  auto s = session(/*batch_size=*/16);
  int applied = 0;
  sim::Tick done_at = 0;
  for (int i = 0; i < 2; ++i) {
    s.submit([&applied] { ++applied; },
             [&done_at, this] { done_at = sim_.now(); });
  }
  s.flush();
  EXPECT_EQ(s.batches_sent(), 1u);
  sim_.run();
  EXPECT_EQ(applied, 2);
  EXPECT_EQ(done_at, server_.config().batch_cost(2));
}

TEST_F(MdBatchTest, OpsApplyInSubmissionOrderAcrossBatches) {
  // Enough ops that batches outnumber the window and some wait.
  auto s = session(/*batch_size=*/4);
  std::vector<int> applied;
  for (int i = 0; i < 42; ++i) {
    s.submit([&applied, i] { applied.push_back(i); });
  }
  s.flush();
  sim_.run();
  ASSERT_EQ(applied.size(), 42u);
  for (int i = 0; i < 42; ++i) EXPECT_EQ(applied[i], i);
  EXPECT_EQ(s.applied(), 42u);
  EXPECT_EQ(s.batches_sent(), 11u);  // ten of 4, then 2
}

TEST_F(MdBatchTest, FullWindowHoldsBatchesUntilSlotFrees) {
  auto s = session(/*batch_size=*/2);
  std::vector<int> applied;
  const unsigned ops = 2 * (TxnSession::kWindow + 2);
  for (unsigned i = 0; i < ops; ++i) {
    s.submit([&applied, i] { applied.push_back(static_cast<int>(i)); });
  }
  // The window is full; two more full batches wait in the forming queue.
  EXPECT_EQ(s.in_flight(), TxnSession::kWindow);
  EXPECT_EQ(s.forming(), 4u);
  sim_.run();
  ASSERT_EQ(applied.size(), ops);
  for (unsigned i = 0; i < ops; ++i) EXPECT_EQ(applied[i], static_cast<int>(i));
  EXPECT_EQ(s.forming(), 0u);
  EXPECT_EQ(s.in_flight(), 0u);
  EXPECT_EQ(s.batches_sent(), TxnSession::kWindow + 2);
}

TEST_F(MdBatchTest, PipelineKeepsWindowBatchesInFlight) {
  auto s = session(/*batch_size=*/2);
  for (int i = 0; i < 8; ++i) s.submit([] {});
  // Four full batches dispatched back-to-back without waiting for the
  // first to complete: that is the pipelining half of the design.
  EXPECT_EQ(s.batches_sent(), 4u);
  EXPECT_EQ(s.in_flight(), 4u);
  sim_.run();
  EXPECT_EQ(s.applied(), 8u);
}

TEST_F(MdBatchTest, BarrierRunsOncePerBatchBeforeApplied) {
  int barriers = 0;
  int applied_cbs = 0;
  TxnSession::Hooks hooks;
  hooks.barrier = [&](std::function<void()> done) {
    ++barriers;
    done();
  };
  std::size_t last_batch = 0;
  hooks.on_batch = [&](std::size_t n) { last_batch = n; };
  auto s = session(4, std::move(hooks));
  for (int i = 0; i < 8; ++i) {
    s.submit([] {}, [&] {
      // Applied implies the batch's barrier already ran.
      EXPECT_GE(barriers, 1 + applied_cbs / 4);
      ++applied_cbs;
    });
  }
  sim_.run();
  EXPECT_EQ(barriers, 2);  // one group-commit per batch, not per op
  EXPECT_EQ(applied_cbs, 8);
  EXPECT_EQ(last_batch, 4u);
}

// A power failure while one-op round-trips are in service and queued must
// neither apply them nor leak applied callbacks to the dead jobs — and the
// server queue must not wedge afterwards.
TEST_F(MdBatchTest, PowerFailTearsInFlightBatchWholeAndStaysLive) {
  auto s = session(/*batch_size=*/1);
  int applied_ops = 0;
  int applied_cbs = 0;
  for (int i = 0; i < 3; ++i) {
    s.submit([&applied_ops] { ++applied_ops; },
             [&applied_cbs] { ++applied_cbs; });
  }
  ASSERT_EQ(s.batches_sent(), 3u);
  // Power-fail mid-service of the first round-trip.
  sim_.at(server_.config().metadata_txn_cost / 2, [&] {
    server_.power_fail();
    s.abandon();
  });
  sim_.run();
  EXPECT_EQ(applied_ops, 0);  // nothing applied — torn whole
  EXPECT_EQ(applied_cbs, 0);  // no applied callback leaked
  EXPECT_EQ(server_.txns_completed(), 0u);

  // The session and server both stay usable after recovery.
  int after = 0;
  bool applied_after = false;
  s.submit([&after] { ++after; }, [&applied_after] { applied_after = true; });
  sim_.run();
  EXPECT_EQ(after, 1);
  EXPECT_TRUE(applied_after);
}

TEST_F(MdBatchTest, AbandonDropsFormingAndOverflowSilently) {
  // A full window, one full batch waiting behind it, and a partial one.
  auto s = session(/*batch_size=*/2);
  int applied = 0;
  for (unsigned i = 0; i < 2 * TxnSession::kWindow + 3; ++i) {
    s.submit([&applied] { ++applied; }, [&applied] { ++applied; });
  }
  EXPECT_EQ(s.forming(), 3u);
  server_.power_fail();
  s.abandon();
  EXPECT_EQ(s.forming(), 0u);
  sim_.run();
  EXPECT_EQ(applied, 0);  // every op vanished with the power failure
}

// Server-level half of the same contract, without a session in front: a
// one-op round-trip in service and a two-op one queued behind it.
TEST_F(MdBatchTest, ServerBatchAtomicAgainstPowerFail) {
  int applied = 0;
  int done = 0;
  server_.metadata_batch({[&applied] { ++applied; }}, [&done] { ++done; });
  server_.metadata_batch({[&applied] { ++applied; }, [&applied] { ++applied; }},
                         [&done] { ++done; });
  sim_.at(server_.config().metadata_txn_cost / 2, [&] { server_.power_fail(); });
  sim_.run();
  EXPECT_EQ(applied, 0);
  EXPECT_EQ(done, 0);
  // Queue still pumps: a post-recovery one-op round-trip completes.
  bool txn_done = false;
  server_.metadata_batch({[] {}}, [&txn_done] { txn_done = true; });
  sim_.run();
  EXPECT_TRUE(txn_done);
}

TEST_F(MdBatchTest, EmptyServerBatchCompletesSynchronously) {
  bool done = false;
  server_.metadata_batch({}, [&done] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_EQ(server_.txns_completed(), 0u);
}

}  // namespace
}  // namespace cpa::hsm
