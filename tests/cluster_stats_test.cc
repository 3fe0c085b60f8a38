#include "core/cluster_stats.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/cluster.h"

namespace stdchk {
namespace {

TEST(ClusterStatsTest, FreshClusterIsEmpty) {
  ClusterOptions options;
  options.benefactor_count = 4;
  options.capacity_per_node = 1_GiB;
  StdchkCluster cluster(options);

  ClusterStats stats = CollectStats(cluster);
  EXPECT_EQ(stats.benefactors_total, 4u);
  EXPECT_EQ(stats.benefactors_online, 4u);
  EXPECT_EQ(stats.capacity_bytes, 4_GiB);
  EXPECT_EQ(stats.stored_bytes, 0u);
  EXPECT_EQ(stats.versions, 0u);
  EXPECT_EQ(stats.logical_bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.utilization(), 0.0);
  EXPECT_DOUBLE_EQ(stats.dedup_factor(), 1.0);
  EXPECT_EQ(stats.nodes.size(), 4u);
}

TEST(ClusterStatsTest, TracksWritesAndDedup) {
  ClusterOptions options;
  options.benefactor_count = 4;
  options.client.stripe_width = 2;
  options.client.chunk_size = 1024;
  options.client.incremental_fsch = true;
  StdchkCluster cluster(options);
  Rng rng(5);

  Bytes image = rng.RandomBytes(8 * 1024);
  ASSERT_TRUE(cluster.client().WriteFile(CheckpointName{"a", "n", 1}, image).ok());
  ASSERT_TRUE(cluster.client().WriteFile(CheckpointName{"a", "n", 2}, image).ok());

  ClusterStats stats = CollectStats(cluster);
  EXPECT_EQ(stats.versions, 2u);
  EXPECT_EQ(stats.applications, 1u);
  EXPECT_EQ(stats.logical_bytes, 16u * 1024);
  EXPECT_EQ(stats.unique_bytes, 8u * 1024);
  EXPECT_EQ(stats.stored_bytes, 8u * 1024);
  EXPECT_DOUBLE_EQ(stats.dedup_factor(), 2.0);
  EXPECT_GT(stats.rpcs, 0u);
  EXPECT_GE(stats.network_bytes, 8u * 1024);
}

TEST(ClusterStatsTest, CountsOfflineNodes) {
  ClusterOptions options;
  options.benefactor_count = 3;
  StdchkCluster cluster(options);
  cluster.benefactor(1).Crash();
  ClusterStats stats = CollectStats(cluster);
  EXPECT_EQ(stats.benefactors_online, 2u);
  EXPECT_FALSE(stats.nodes[1].online);
}

TEST(ClusterStatsTest, PendingReplicationsVisibleMidRepair) {
  ClusterOptions options;
  options.benefactor_count = 5;
  options.client.stripe_width = 2;
  options.client.chunk_size = 1024;
  options.client.replication_target = 3;
  StdchkCluster cluster(options);
  Rng rng(6);
  ASSERT_TRUE(cluster.client()
                  .WriteFile(CheckpointName{"a", "n", 1}, rng.RandomBytes(4096))
                  .ok());
  // Issue replication commands without executing them.
  auto cmds = cluster.manager().TickRepair();
  ASSERT_FALSE(cmds.empty());
  EXPECT_EQ(CollectStats(cluster).pending_repairs, cmds.size());
  for (const auto& cmd : cmds) {
    (void)cluster.manager().AckRepair(cmd, false);
  }

  // Shard repairs count too: an RS(2,1) file loses a shard holder, and the
  // next call issues its rebuild beside the replica commands again.
  ClientOptions coded = options.client;
  coded.erasure = {2, 1};
  CheckpointName name{"b", "n", 1};
  ASSERT_TRUE(
      cluster.MakeClient(coded)->WriteFile(name, rng.RandomBytes(1024)).ok());
  auto record = cluster.manager().GetVersion(name);
  ASSERT_TRUE(record.ok());
  NodeId holder = record.value().chunk_map.chunks[0].shards[0].node;
  ASSERT_TRUE(cluster.manager().registry_mutable().SetOffline(holder).ok());
  cmds = cluster.manager().TickRepair();
  ASSERT_TRUE(std::ranges::any_of(
      cmds, [](const RepairCommand& cmd) { return cmd.missing_index >= 0; }));
  EXPECT_EQ(CollectStats(cluster).pending_repairs, cmds.size());
  for (const auto& cmd : cmds) {
    (void)cluster.manager().AckRepair(cmd, false);
  }
}

TEST(ClusterStatsTest, MetadataPlaneCountersSurface) {
  ClusterOptions options;
  options.benefactor_count = 4;
  options.manager.catalog_shards = 4;
  options.client.stripe_width = 2;
  options.client.chunk_size = 1024;
  StdchkCluster cluster(options);
  Rng rng(7);

  for (std::uint64_t t = 1; t <= 6; ++t) {
    ASSERT_TRUE(cluster.client()
                    .WriteFile(CheckpointName{"app" + std::to_string(t % 3),
                                              "n", t},
                               rng.RandomBytes(4096))
                    .ok());
  }

  ClusterStats stats = CollectStats(cluster);
  EXPECT_EQ(stats.catalog_shards, 4u);
  ASSERT_EQ(stats.catalog_shard_stats.size(), 4u);
  std::uint64_t ops = 0, acquisitions = 0;
  for (const CatalogShardStats& shard : stats.catalog_shard_stats) {
    ops += shard.ops;
    acquisitions += shard.lock_acquisitions;
  }
  EXPECT_EQ(stats.catalog_ops, ops);
  EXPECT_EQ(stats.catalog_lock_acquisitions, acquisitions);
  EXPECT_GT(stats.catalog_ops, 0u);
  EXPECT_GE(stats.catalog_lock_acquisitions, stats.catalog_ops);

  // The manager picked one stripe per written file.
  EXPECT_EQ(stats.server_side_placements, 6u);
}

}  // namespace
}  // namespace stdchk
