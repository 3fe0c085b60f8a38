// Manager metadata snapshots and hot-standby failover (paper §IV.A: "A
// hot-standby manager as a failover is another option in such cases").
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cluster.h"

namespace stdchk {
namespace {

CheckpointName Name(std::uint64_t t) { return CheckpointName{"app", "n1", t}; }

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() {
    ClusterOptions options;
    options.benefactor_count = 4;
    options.client.stripe_width = 2;
    options.client.chunk_size = 1024;
    cluster_ = std::make_unique<StdchkCluster>(options);
  }

  std::unique_ptr<StdchkCluster> cluster_;
  Rng rng_{31};
};

TEST_F(SnapshotTest, RoundTripPreservesCatalogAndRegistry) {
  FolderPolicy policy;
  policy.retention = RetentionPolicy::kAutomatedPurge;
  policy.purge_age_us = 3'600'000'000;  // 1 hour — not reached in this test
  policy.replication_target = 2;
  ASSERT_TRUE(cluster_->manager().SetFolderPolicy("app", policy).ok());

  Bytes data = rng_.RandomBytes(6 * 1024);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), data).ok());
  cluster_->Settle();  // replication to 2 replicas

  Bytes snapshot = cluster_->manager().SaveSnapshot();
  auto before = cluster_->manager().GetVersion(Name(1));
  ASSERT_TRUE(before.ok());

  // Load into a *fresh* manager (the standby).
  VirtualClock clock;
  MetadataManager standby(&clock);
  ASSERT_TRUE(standby.LoadSnapshot(snapshot).ok());

  auto after = standby.GetVersion(Name(1));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().size, before.value().size);
  EXPECT_EQ(after.value().commit_time, before.value().commit_time);
  ASSERT_EQ(after.value().chunk_map.chunks.size(),
            before.value().chunk_map.chunks.size());
  for (std::size_t i = 0; i < after.value().chunk_map.chunks.size(); ++i) {
    EXPECT_EQ(after.value().chunk_map.chunks[i].replicas,
              before.value().chunk_map.chunks[i].replicas);
  }

  auto restored_policy = standby.GetFolderPolicy("app");
  ASSERT_TRUE(restored_policy.ok());
  EXPECT_EQ(restored_policy.value().retention,
            RetentionPolicy::kAutomatedPurge);
  EXPECT_EQ(restored_policy.value().purge_age_us, 3'600'000'000);

  EXPECT_EQ(standby.registry().online_count(),
            cluster_->manager().registry().online_count());
}

TEST_F(SnapshotTest, FailoverKeepsCommittedDataReadable) {
  Bytes data = rng_.RandomBytes(5 * 1024);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), data).ok());
  Bytes snapshot = cluster_->manager().SaveSnapshot();

  // Catastrophic manager loss: state replaced by the standby's snapshot.
  cluster_->manager().Crash();
  ASSERT_TRUE(cluster_->manager().LoadSnapshot(snapshot).ok());
  EXPECT_TRUE(cluster_->manager().IsUp());

  auto read_back = cluster_->client().ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);

  // Normal operation continues after failover.
  Bytes next = rng_.RandomBytes(2048);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(2), next).ok());
  cluster_->Settle();
}

TEST_F(SnapshotTest, PostSnapshotCommitsAreLostButConsistent) {
  Bytes kept = rng_.RandomBytes(4 * 1024);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), kept).ok());
  Bytes snapshot = cluster_->manager().SaveSnapshot();

  // This write happens after the snapshot and will be forgotten.
  Bytes lost = rng_.RandomBytes(4 * 1024);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(2), lost).ok());

  ASSERT_TRUE(cluster_->manager().LoadSnapshot(snapshot).ok());
  EXPECT_TRUE(cluster_->client().ReadFile(Name(1)).ok());
  EXPECT_FALSE(cluster_->client().ReadFile(Name(2)).ok());

  // The forgotten version's chunks are orphans; GC reclaims them and the
  // system converges to exactly the snapshot's contents.
  cluster_->Settle();
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    stored += cluster_->benefactor(i).BytesUsed();
  }
  EXPECT_EQ(stored, kept.size());
}

TEST_F(SnapshotTest, SnapshotClearsTransientState) {
  auto res = cluster_->manager().ReserveStripe(2, 1_MiB);
  ASSERT_TRUE(res.ok());
  Bytes snapshot = cluster_->manager().SaveSnapshot();
  ASSERT_TRUE(cluster_->manager().LoadSnapshot(snapshot).ok());
  // Reservations are transient: gone after failover.
  EXPECT_EQ(cluster_->manager().ExtendReservation(res.value().id, 1).code(),
            StatusCode::kNotFound);

  // So are in-flight repairs. An RS(2,1) group loses a shard holder, and
  // its rebuild is issued but never acked: the promoted standby must
  // forget it and issue it again, or the shard is never rebuilt.
  MetadataManager& manager = cluster_->manager();
  ClientOptions coded = cluster_->client().options();
  coded.erasure = {2, 1};
  ASSERT_TRUE(
      cluster_->MakeClient(coded)->WriteFile(Name(1), rng_.RandomBytes(1024))
          .ok());
  auto record = manager.GetVersion(Name(1));
  ASSERT_TRUE(record.ok());
  NodeId holder = record.value().chunk_map.chunks[0].shards[0].node;
  ASSERT_TRUE(manager.registry_mutable().SetOffline(holder).ok());
  ASSERT_EQ(manager.TickRepair().size(), 1u);
  snapshot = manager.SaveSnapshot();
  ASSERT_TRUE(manager.LoadSnapshot(snapshot).ok());
  EXPECT_EQ(manager.pending_shard_repairs(), 0u);
  EXPECT_EQ(manager.TickRepair().size(), 1u);
}

TEST_F(SnapshotTest, RejectsGarbageAndTruncation) {
  MetadataManager& manager = cluster_->manager();
  Bytes good = manager.SaveSnapshot();

  Bytes garbage = rng_.RandomBytes(64);
  EXPECT_FALSE(manager.LoadSnapshot(garbage).ok());

  Bytes truncated(good.begin(),
                  good.begin() + static_cast<std::ptrdiff_t>(good.size() / 2));
  EXPECT_FALSE(manager.LoadSnapshot(truncated).ok());

  Bytes trailing = good;
  trailing.push_back(0xAB);
  EXPECT_FALSE(manager.LoadSnapshot(trailing).ok());

  // A failed load must not have clobbered the live state.
  EXPECT_TRUE(manager.ListApps().ok());
  EXPECT_TRUE(manager.LoadSnapshot(good).ok());
}

TEST_F(SnapshotTest, EmptyManagerSnapshotRoundTrips) {
  VirtualClock clock;
  MetadataManager empty(&clock);
  Bytes snapshot = empty.SaveSnapshot();
  MetadataManager standby(&clock);
  ASSERT_TRUE(standby.LoadSnapshot(snapshot).ok());
  EXPECT_TRUE(standby.ListApps().value().empty());
}

TEST_F(SnapshotTest, DedupSharedChunksSurviveSnapshot) {
  ClientOptions options = cluster_->client().options();
  options.incremental_fsch = true;
  auto client = cluster_->MakeClient(options);
  Bytes image = rng_.RandomBytes(4 * 1024);
  ASSERT_TRUE(client->WriteFile(Name(1), image).ok());
  ASSERT_TRUE(client->WriteFile(Name(2), image).ok());  // fully deduped

  Bytes snapshot = cluster_->manager().SaveSnapshot();
  ASSERT_TRUE(cluster_->manager().LoadSnapshot(snapshot).ok());

  // Refcounts rebuilt correctly: deleting one version keeps the other.
  ASSERT_TRUE(cluster_->manager().DeleteVersion(Name(1)).ok());
  cluster_->Settle();
  auto read_back = client->ReadFile(Name(2));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), image);
}

}  // namespace
}  // namespace stdchk
