#include "hsm/server.hpp"

#include <gtest/gtest.h>

namespace cpa::hsm {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : net_(sim_), server_(sim_, net_, "tsm0", ServerConfig{}) {}
  sim::Simulation sim_;
  sim::FlowNetwork net_{sim_};
  ArchiveServer server_{sim_, net_, "tsm0", ServerConfig{}};
};

TEST_F(ServerTest, TxnsSerializeWithFixedCost) {
  // One-op round-trips are the paper's stop-and-wait transactions.
  std::vector<sim::Tick> completions;
  for (int i = 0; i < 3; ++i) {
    server_.metadata_batch({[] {}}, [&] { completions.push_back(sim_.now()); });
  }
  sim_.run();
  ASSERT_EQ(completions.size(), 3u);
  const sim::Tick cost = ServerConfig{}.metadata_txn_cost;
  EXPECT_EQ(completions[0], cost);
  EXPECT_EQ(completions[1], 2 * cost);
  EXPECT_EQ(completions[2], 3 * cost);
  EXPECT_EQ(server_.txns_completed(), 3u);
}

TEST_F(ServerTest, QueueDepthVisible) {
  for (int i = 0; i < 5; ++i) server_.metadata_batch({[] {}}, nullptr);
  EXPECT_GE(server_.txn_queue_depth(), 4u);  // one may be in service
  sim_.run();
  EXPECT_EQ(server_.txn_queue_depth(), 0u);
}

TEST_F(ServerTest, RecordObjectMirrorsIntoExport) {
  ArchiveObject obj;
  obj.object_id = server_.allocate_object_id();
  obj.path = "/arch/f";
  obj.gpfs_file_id = 99;
  obj.size_bytes = 1234;
  obj.cartridge_id = 7;
  obj.tape_seq = 3;
  server_.record_object(obj);

  ASSERT_NE(server_.object(obj.object_id), nullptr);
  const auto* row = server_.export_db().by_path("/arch/f");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->cartridge_id, 7u);
  EXPECT_EQ(row->tape_seq, 3u);
  EXPECT_EQ(row->gpfs_file_id, 99u);
}

TEST_F(ServerTest, AggregateObjectsAreNotExported) {
  ArchiveObject agg;
  agg.object_id = server_.allocate_object_id();
  agg.size_bytes = 100;
  server_.record_object(agg, ObjectLinks{{10, 11}, {}});
  EXPECT_EQ(server_.export_db().size(), 0u);
  EXPECT_EQ(server_.object_count(), 1u);
}

TEST_F(ServerTest, DeleteObjectRemovesExportRow) {
  ArchiveObject obj;
  obj.object_id = 5;
  obj.path = "/arch/f";
  server_.record_object(obj);
  EXPECT_TRUE(server_.delete_object(5));
  EXPECT_FALSE(server_.delete_object(5));
  EXPECT_EQ(server_.export_db().by_path("/arch/f"), nullptr);
  EXPECT_EQ(server_.object_count(), 0u);
}

TEST_F(ServerTest, AllocateObjectIdsAreUnique) {
  const auto a = server_.allocate_object_id();
  const auto b = server_.allocate_object_id();
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace cpa::hsm
