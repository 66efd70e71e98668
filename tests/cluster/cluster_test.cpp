#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include "simcore/units.hpp"

namespace cpa::cluster {
namespace {

pfs::FsConfig archive_config() {
  pfs::FsConfig cfg;
  cfg.name = "archive";
  cfg.pools = {pfs::PoolConfig{"fast", 0, 5, false}};
  return cfg;
}

pfs::FsConfig scratch_config() {
  pfs::FsConfig cfg;
  cfg.name = "scratch";
  cfg.pools = {pfs::PoolConfig{"panfs", 0, 8, false}};
  return cfg;
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest()
      : archive_(sim_, archive_config()),
        scratch_(sim_, scratch_config()),
        cluster_(net_, ClusterConfig{}, archive_, scratch_) {}
  sim::Simulation sim_;
  sim::FlowNetwork net_{sim_};
  pfs::FileSystem archive_;
  pfs::FileSystem scratch_;
  Cluster cluster_;
};

TEST_F(ClusterTest, PoolsExistWithConfiguredCapacities) {
  const ClusterConfig cfg;
  EXPECT_EQ(net_.pool_capacity(cluster_.node_nic(0)), cfg.node_nic_bps);
  EXPECT_EQ(net_.pool_capacity(cluster_.node_hba(3)), cfg.node_hba_bps);
  EXPECT_EQ(net_.pool_capacity(cluster_.san()), cfg.san_bps);
  EXPECT_EQ(net_.pool_capacity(cluster_.trunk_for(0)), cfg.trunk_bps);
}

TEST_F(ClusterTest, TrunksAlternateAcrossNodes) {
  EXPECT_EQ(cluster_.trunk_for(0).idx, cluster_.trunk_for(2).idx);
  EXPECT_EQ(cluster_.trunk_for(1).idx, cluster_.trunk_for(3).idx);
  EXPECT_NE(cluster_.trunk_for(0).idx, cluster_.trunk_for(1).idx);
}

TEST_F(ClusterTest, DiskPathUsesStripedNsds) {
  const auto fid = scratch_.create("/big");
  ASSERT_TRUE(fid.ok());
  ASSERT_EQ(scratch_.write_all("/big", 100 * kMB, 1), pfs::Errc::Ok);
  const auto pools = cluster_.disk_path(scratch_, fid.value(), 0, 100 * kMB);
  EXPECT_EQ(pools.size(), 8u);  // wide stripe covers all scratch NSDs
  const auto narrow = cluster_.disk_path(scratch_, fid.value(), 0, 1000);
  EXPECT_EQ(narrow.size(), 1u);
  // No file, no disk legs.
  EXPECT_TRUE(cluster_.disk_path(scratch_, pfs::FileId{}, 0, 1000).empty());
}

TEST_F(ClusterTest, CopyPathIncludesAllLegs) {
  const auto src = scratch_.create("/src");
  ASSERT_TRUE(src.ok());
  ASSERT_EQ(scratch_.write_all("/src", 100 * kMB, 1), pfs::Errc::Ok);
  const auto dst = archive_.create("/dst");
  ASSERT_TRUE(dst.ok());
  ASSERT_EQ(archive_.write_all("/dst", 100 * kMB, 1), pfs::Errc::Ok);
  const auto path = cluster_.copy_path(2, scratch_, src.value(), archive_,
                                       dst.value(), 0, 100 * kMB);
  // 8 scratch NSDs + trunk + nic + hba + san + 5 archive NSDs.
  EXPECT_EQ(path.size(), 8u + 4u + 5u);
  // A destination that names no file (a FUSE N-to-N copy's) adds no legs.
  EXPECT_EQ(cluster_.copy_path(2, scratch_, src.value(), archive_,
                               pfs::FileId{}, 0, 100 * kMB)
                .size(),
            8u + 4u);
}

TEST_F(ClusterTest, FabricRoutesThroughExpectedLegs) {
  const hsm::Fabric f = cluster_.fabric();
  const auto fid = archive_.create("/f");
  ASSERT_TRUE(fid.ok());
  ASSERT_EQ(archive_.write_all("/f", 100 * kMB, 1), pfs::Errc::Ok);
  EXPECT_EQ(f.disk_path(fid.value(), 0, 100 * kMB).size(), 5u);
  // The HSM's legs are the cluster's legs for the archive file system.
  const auto by_cluster = cluster_.disk_path(archive_, fid.value(), 0, 100 * kMB);
  const auto by_fabric = f.disk_path(fid.value(), 0, 100 * kMB);
  ASSERT_EQ(by_fabric.size(), by_cluster.size());
  for (std::size_t i = 0; i < by_fabric.size(); ++i) {
    EXPECT_EQ(by_fabric[i].pool.idx, by_cluster[i].pool.idx);
    EXPECT_EQ(by_fabric[i].weight, by_cluster[i].weight);
  }
  // A file that is gone has no disk legs.
  ASSERT_EQ(archive_.unlink("/f"), pfs::Errc::Ok);
  EXPECT_TRUE(f.disk_path(fid.value(), 0, 100 * kMB).empty());
  EXPECT_EQ(f.san_path(0).size(), 2u);  // hba + san
  EXPECT_EQ(f.lan_path(0).size(), 2u);  // nic + trunk
  // Node ids beyond the cluster wrap instead of crashing.
  EXPECT_EQ(f.san_path(99).size(), 2u);
}

TEST_F(ClusterTest, LoadManagerSortsAscendingWithStableTies) {
  cluster_.add_load(0, 5);
  cluster_.add_load(1, 1);
  cluster_.add_load(2, 3);
  const auto list = cluster_.machine_list();
  ASSERT_EQ(list.size(), 10u);
  EXPECT_EQ(list[0], 3u);  // zero-load nodes first, by id
  EXPECT_EQ(list[7], 1u);
  EXPECT_EQ(list[8], 2u);
  EXPECT_EQ(list[9], 0u);

  cluster_.remove_load(0, 5);
  EXPECT_EQ(cluster_.load(0), 0.0);
  cluster_.remove_load(0, 100);  // clamped at zero
  EXPECT_EQ(cluster_.load(0), 0.0);
}

TEST_F(ClusterTest, SharedTrunkLimitsAggregateBandwidth) {
  // Five nodes on the same trunk can't exceed the trunk's 1250 MB/s.
  const auto src = scratch_.create("/src");
  ASSERT_TRUE(src.ok());
  ASSERT_EQ(scratch_.write_all("/src", kGB, 1), pfs::Errc::Ok);
  std::vector<sim::Tick> done(5);
  for (unsigned i = 0; i < 5; ++i) {
    const NodeId node = i * 2;  // all even nodes share trunk 0
    auto path = cluster_.copy_path(node, scratch_, src.value(), archive_,
                                   pfs::FileId{}, 0, kGB);
    net_.start_flow(std::move(path), 1000.0 * static_cast<double>(kMB),
                    [&done, i, this](const sim::FlowStats& s) {
                      done[i] = s.finished;
                    });
  }
  sim_.run();
  // 5 GB over a 1250 MB/s trunk >= 4 s even though each NIC could do it
  // alone in 0.8 s.
  for (const sim::Tick t : done) {
    EXPECT_GE(t, sim::secs(3.9));
  }
}

struct SingleFsCluster : ::testing::Test {
  SingleFsCluster()
      : fs_(sim_, archive_config()),
        cluster_(net_, ClusterConfig{}, fs_, fs_) {}
  sim::Simulation sim_;
  sim::FlowNetwork net_{sim_};
  pfs::FileSystem fs_;
  Cluster cluster_;
};

TEST_F(SingleFsCluster, ScratchAliasesArchivePools) {
  const auto fid = fs_.create("/f");
  ASSERT_TRUE(fid.ok());
  ASSERT_EQ(fs_.write_all("/f", 100 * kMB, 1), pfs::Errc::Ok);
  EXPECT_FALSE(cluster_.disk_path(fs_, fid.value(), 0, 100 * kMB).empty());
}

}  // namespace
}  // namespace cpa::cluster
