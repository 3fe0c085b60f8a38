#include "manager/file_catalog.h"

#include <gtest/gtest.h>

#include "common/hash.h"

namespace stdchk {
namespace {

ChunkId MakeChunkId(int i) {
  std::string s = "chunk-" + std::to_string(i);
  return ChunkId{Sha1(AsBytes(s))};
}

ChunkLocation Loc(int chunk, std::uint64_t offset, std::uint32_t size,
                  std::vector<NodeId> replicas) {
  return ChunkLocation{MakeChunkId(chunk), offset, size, std::move(replicas)};
}

VersionRecord MakeVersion(const std::string& app, const std::string& node,
                          std::uint64_t timestep,
                          std::vector<ChunkLocation> chunks) {
  VersionRecord record;
  record.name = CheckpointName{app, node, timestep};
  record.chunk_map.chunks = std::move(chunks);
  record.size = record.chunk_map.FileSize();
  record.replication_target = 1;
  return record;
}

class FileCatalogTest : public ::testing::Test {
 protected:
  FileCatalogTest() : catalog_(&clock_) {}
  VirtualClock clock_;
  FileCatalog catalog_;
};

TEST_F(FileCatalogTest, CommitAndGet) {
  auto v = MakeVersion("app", "n1", 1, {Loc(1, 0, 100, {1}), Loc(2, 100, 50, {2})});
  ASSERT_TRUE(catalog_.CommitVersion(v).ok());
  auto got = catalog_.GetVersion(v.name);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().size, 150u);
  EXPECT_EQ(got.value().chunk_map.chunks.size(), 2u);
}

TEST_F(FileCatalogTest, VersionsAreImmutable) {
  auto v = MakeVersion("app", "n1", 1, {Loc(1, 0, 10, {1})});
  ASSERT_TRUE(catalog_.CommitVersion(v).ok());
  EXPECT_EQ(catalog_.CommitVersion(v).code(), StatusCode::kAlreadyExists);
}

TEST_F(FileCatalogTest, CommitRejectsReplicalessChunks) {
  auto v = MakeVersion("app", "n1", 1, {Loc(1, 0, 10, {})});
  EXPECT_EQ(catalog_.CommitVersion(v).code(), StatusCode::kInvalidArgument);
}

TEST_F(FileCatalogTest, GetMissingVersion) {
  EXPECT_EQ(catalog_.GetVersion(CheckpointName{"a", "n", 1}).status().code(),
            StatusCode::kNotFound);
  auto v = MakeVersion("a", "n", 1, {Loc(1, 0, 10, {1})});
  ASSERT_TRUE(catalog_.CommitVersion(v).ok());
  EXPECT_EQ(catalog_.GetVersion(CheckpointName{"a", "n", 2}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog_.GetVersion(CheckpointName{"a", "m", 1}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(FileCatalogTest, GetLatestPicksHighestTimestep) {
  for (std::uint64_t t : {3u, 1u, 7u, 5u}) {
    ASSERT_TRUE(catalog_
                    .CommitVersion(MakeVersion("app", "n1", t,
                                               {Loc(static_cast<int>(t), 0, 10, {1})}))
                    .ok());
  }
  auto latest = catalog_.GetLatest("app", "n1");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().name.timestep, 7u);
}

TEST_F(FileCatalogTest, GetLatestIsPerNode) {
  ASSERT_TRUE(catalog_.CommitVersion(MakeVersion("app", "n1", 9, {Loc(1, 0, 10, {1})})).ok());
  ASSERT_TRUE(catalog_.CommitVersion(MakeVersion("app", "n2", 4, {Loc(2, 0, 10, {1})})).ok());
  auto latest = catalog_.GetLatest("app", "n2");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().name.timestep, 4u);
  EXPECT_FALSE(catalog_.GetLatest("app", "n3").ok());
}

TEST_F(FileCatalogTest, ListVersionsAndApps) {
  ASSERT_TRUE(catalog_.CommitVersion(MakeVersion("a", "n1", 1, {Loc(1, 0, 10, {1})})).ok());
  ASSERT_TRUE(catalog_.CommitVersion(MakeVersion("a", "n1", 2, {Loc(2, 0, 10, {1})})).ok());
  ASSERT_TRUE(catalog_.CommitVersion(MakeVersion("b", "n1", 1, {Loc(3, 0, 10, {1})})).ok());
  EXPECT_EQ(catalog_.ListVersions("a").size(), 2u);
  EXPECT_EQ(catalog_.ListApps(), (std::vector<std::string>{"a", "b"}));
}

TEST_F(FileCatalogTest, DeleteVersionUnrefsChunks) {
  auto v = MakeVersion("app", "n1", 1, {Loc(1, 0, 10, {1})});
  ASSERT_TRUE(catalog_.CommitVersion(v).ok());
  EXPECT_TRUE(catalog_.IsChunkLive(MakeChunkId(1)));
  ASSERT_TRUE(catalog_.DeleteVersion(v.name).ok());
  EXPECT_FALSE(catalog_.IsChunkLive(MakeChunkId(1)));
  EXPECT_EQ(catalog_.DeleteVersion(v.name).code(), StatusCode::kNotFound);
}

TEST_F(FileCatalogTest, SharedChunksSurviveUntilLastReference) {
  // Two versions share chunk 7 (copy-on-write dedup).
  ASSERT_TRUE(catalog_.CommitVersion(
      MakeVersion("app", "n1", 1, {Loc(7, 0, 10, {1})})).ok());
  ASSERT_TRUE(catalog_.CommitVersion(
      MakeVersion("app", "n1", 2, {Loc(7, 0, 10, {1}), Loc(8, 10, 10, {2})})).ok());

  ASSERT_TRUE(catalog_.DeleteVersion(CheckpointName{"app", "n1", 1}).ok());
  EXPECT_TRUE(catalog_.IsChunkLive(MakeChunkId(7)));  // still referenced by T2
  ASSERT_TRUE(catalog_.DeleteVersion(CheckpointName{"app", "n1", 2}).ok());
  EXPECT_FALSE(catalog_.IsChunkLive(MakeChunkId(7)));
  EXPECT_FALSE(catalog_.IsChunkLive(MakeChunkId(8)));
}

TEST_F(FileCatalogTest, DeleteAppRemovesEverything) {
  ASSERT_TRUE(catalog_.CommitVersion(MakeVersion("a", "n1", 1, {Loc(1, 0, 10, {1})})).ok());
  ASSERT_TRUE(catalog_.CommitVersion(MakeVersion("a", "n2", 1, {Loc(2, 0, 10, {1})})).ok());
  auto n = catalog_.DeleteApp("a");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 2u);
  EXPECT_TRUE(catalog_.ListApps().empty());
  EXPECT_FALSE(catalog_.IsChunkLive(MakeChunkId(1)));
}

TEST_F(FileCatalogTest, KnownChunksVector) {
  ASSERT_TRUE(catalog_.CommitVersion(MakeVersion("a", "n", 1, {Loc(1, 0, 10, {1})})).ok());
  EXPECT_EQ(catalog_.ChunkReplicas(MakeChunkId(1)), std::vector<NodeId>{1});
  EXPECT_TRUE(catalog_.ChunkReplicas(MakeChunkId(2)).empty());
}

TEST_F(FileCatalogTest, ReplicaTracking) {
  ASSERT_TRUE(catalog_.CommitVersion(
      MakeVersion("a", "n", 1, {Loc(1, 0, 10, {1, 2})})).ok());
  catalog_.AddReplica(MakeChunkId(1), 3);
  auto replicas = catalog_.ChunkReplicas(MakeChunkId(1));
  EXPECT_EQ(replicas.size(), 3u);

  // GetVersion folds in the refreshed replica list.
  auto got = catalog_.GetVersion(CheckpointName{"a", "n", 1});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().chunk_map.chunks[0].replicas.size(), 3u);
}

TEST_F(FileCatalogTest, RemoveNodeReplicasReportsDataLoss) {
  ASSERT_TRUE(catalog_.CommitVersion(
      MakeVersion("a", "n", 1, {Loc(1, 0, 10, {1}), Loc(2, 10, 10, {1, 2})})).ok());
  std::vector<ChunkId> lost = catalog_.RemoveNodeReplicas(1);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], MakeChunkId(1));  // chunk 2 still has node 2
}

TEST_F(FileCatalogTest, FindUnderReplicated) {
  VersionRecord v = MakeVersion("a", "n", 1, {Loc(1, 0, 10, {1})});
  v.replication_target = 3;
  ASSERT_TRUE(catalog_.CommitVersion(v).ok());

  auto under = catalog_.FindUnderReplicated({1, 2, 3});
  ASSERT_EQ(under.size(), 1u);
  EXPECT_EQ(under[0].have, 1);
  EXPECT_EQ(under[0].want, 3);

  catalog_.AddReplica(MakeChunkId(1), 2);
  catalog_.AddReplica(MakeChunkId(1), 3);
  EXPECT_TRUE(catalog_.FindUnderReplicated({1, 2, 3}).empty());
}

TEST_F(FileCatalogTest, UnderReplicationCountsOnlyOnlineNodes) {
  VersionRecord v = MakeVersion("a", "n", 1, {Loc(1, 0, 10, {1, 2})});
  v.replication_target = 2;
  ASSERT_TRUE(catalog_.CommitVersion(v).ok());
  EXPECT_TRUE(catalog_.FindUnderReplicated({1, 2}).empty());
  // Node 2 offline: only one live replica.
  auto under = catalog_.FindUnderReplicated({1});
  ASSERT_EQ(under.size(), 1u);
  EXPECT_EQ(under[0].have, 1);
}

TEST_F(FileCatalogTest, ChunksWithNoLiveReplicaAreNotRepairCandidates) {
  VersionRecord v = MakeVersion("a", "n", 1, {Loc(1, 0, 10, {5})});
  v.replication_target = 2;
  ASSERT_TRUE(catalog_.CommitVersion(v).ok());
  // Node 5 offline: zero sources — nothing the scheduler can do.
  EXPECT_TRUE(catalog_.FindUnderReplicated({1, 2}).empty());
}

TEST_F(FileCatalogTest, RetentionNoIntervention) {
  FolderPolicy policy;
  policy.retention = RetentionPolicy::kNoIntervention;
  catalog_.SetFolderPolicy("a", policy);
  for (std::uint64_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(catalog_.CommitVersion(
        MakeVersion("a", "n", t, {Loc(static_cast<int>(t), 0, 10, {1})})).ok());
  }
  EXPECT_TRUE(catalog_.ApplyRetention().empty());
  EXPECT_EQ(catalog_.ListVersions("a").size(), 5u);
}

TEST_F(FileCatalogTest, RetentionAutomatedReplaceKeepsNewest) {
  FolderPolicy policy;
  policy.retention = RetentionPolicy::kAutomatedReplace;
  policy.keep_last = 1;
  catalog_.SetFolderPolicy("a", policy);
  for (std::uint64_t t = 1; t <= 4; ++t) {
    ASSERT_TRUE(catalog_.CommitVersion(
        MakeVersion("a", "n", t, {Loc(static_cast<int>(t), 0, 10, {1})})).ok());
  }
  std::vector<CheckpointName> removed = catalog_.ApplyRetention();
  EXPECT_EQ(removed.size(), 3u);
  auto remaining = catalog_.ListVersions("a");
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0].timestep, 4u);
  // Old chunks are dead now.
  EXPECT_FALSE(catalog_.IsChunkLive(MakeChunkId(1)));
  EXPECT_TRUE(catalog_.IsChunkLive(MakeChunkId(4)));
}

TEST_F(FileCatalogTest, RetentionReplaceIsPerNodeLineage) {
  FolderPolicy policy;
  policy.retention = RetentionPolicy::kAutomatedReplace;
  catalog_.SetFolderPolicy("a", policy);
  ASSERT_TRUE(catalog_.CommitVersion(MakeVersion("a", "n1", 1, {Loc(1, 0, 10, {1})})).ok());
  ASSERT_TRUE(catalog_.CommitVersion(MakeVersion("a", "n1", 2, {Loc(2, 0, 10, {1})})).ok());
  ASSERT_TRUE(catalog_.CommitVersion(MakeVersion("a", "n2", 1, {Loc(3, 0, 10, {1})})).ok());
  catalog_.ApplyRetention();
  auto remaining = catalog_.ListVersions("a");
  // n1 keeps T2; n2 keeps its only T1.
  EXPECT_EQ(remaining.size(), 2u);
}

TEST_F(FileCatalogTest, RetentionReplaceKeepLastN) {
  FolderPolicy policy;
  policy.retention = RetentionPolicy::kAutomatedReplace;
  policy.keep_last = 2;
  catalog_.SetFolderPolicy("a", policy);
  for (std::uint64_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(catalog_.CommitVersion(
        MakeVersion("a", "n", t, {Loc(static_cast<int>(t), 0, 10, {1})})).ok());
  }
  catalog_.ApplyRetention();
  auto remaining = catalog_.ListVersions("a");
  ASSERT_EQ(remaining.size(), 2u);
  EXPECT_EQ(remaining[0].timestep, 4u);
  EXPECT_EQ(remaining[1].timestep, 5u);
}

TEST_F(FileCatalogTest, RetentionAutomatedPurgeByAge) {
  FolderPolicy policy;
  policy.retention = RetentionPolicy::kAutomatedPurge;
  policy.purge_age_us = 10'000'000;  // 10 s
  catalog_.SetFolderPolicy("a", policy);

  ASSERT_TRUE(catalog_.CommitVersion(MakeVersion("a", "n", 1, {Loc(1, 0, 10, {1})})).ok());
  clock_.AdvanceSeconds(6);
  ASSERT_TRUE(catalog_.CommitVersion(MakeVersion("a", "n", 2, {Loc(2, 0, 10, {1})})).ok());
  clock_.AdvanceSeconds(6);  // T1 is 12 s old, T2 is 6 s old

  std::vector<CheckpointName> removed = catalog_.ApplyRetention();
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].timestep, 1u);

  clock_.AdvanceSeconds(6);
  removed = catalog_.ApplyRetention();
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].timestep, 2u);
  EXPECT_TRUE(catalog_.ListVersions("a").empty());
}

TEST_F(FileCatalogTest, LiveChunksOnNode) {
  ASSERT_TRUE(catalog_.CommitVersion(
      MakeVersion("a", "n", 1, {Loc(1, 0, 10, {1, 2}), Loc(2, 10, 10, {2})})).ok());
  auto on1 = catalog_.LiveChunksOn(1);
  auto on2 = catalog_.LiveChunksOn(2);
  EXPECT_EQ(on1.size(), 1u);
  EXPECT_EQ(on2.size(), 2u);
}

TEST_F(FileCatalogTest, TotalsAccounting) {
  ASSERT_TRUE(catalog_.CommitVersion(
      MakeVersion("a", "n", 1, {Loc(1, 0, 100, {1})})).ok());
  // Second version shares chunk 1, adds chunk 2.
  ASSERT_TRUE(catalog_.CommitVersion(
      MakeVersion("a", "n", 2, {Loc(1, 0, 100, {1}), Loc(2, 100, 50, {1})})).ok());
  EXPECT_EQ(catalog_.TotalVersions(), 2u);
  EXPECT_EQ(catalog_.TotalLogicalBytes(), 250u);
  EXPECT_EQ(catalog_.TotalUniqueBytes(), 150u);  // dedup saves 100
}

}  // namespace
}  // namespace stdchk
