#include "manager/metadata_manager.h"

#include <gtest/gtest.h>

#include <set>

#include "common/hash.h"

namespace stdchk {
namespace {

ChunkId MakeChunkId(int i) {
  std::string s = "mm-chunk-" + std::to_string(i);
  return ChunkId{Sha1(AsBytes(s))};
}

class MetadataManagerTest : public ::testing::Test {
 protected:
  MetadataManagerTest() : manager_(&clock_) {
    for (int i = 0; i < 4; ++i) {
      BenefactorInfo info;
      info.host = "d" + std::to_string(i);
      info.total_bytes = 1_GiB;
      info.free_bytes = 1_GiB;
      nodes_.push_back(manager_.RegisterBenefactor(info).value());
    }
  }

  VersionRecord MakeVersion(const std::string& app, std::uint64_t timestep,
                            NodeId replica, int chunk_seed = 0) {
    VersionRecord record;
    record.name = CheckpointName{app, "n1", timestep};
    ChunkLocation loc;
    loc.id = MakeChunkId(chunk_seed + static_cast<int>(timestep) * 1000);
    loc.file_offset = 0;
    loc.size = 1024;
    loc.replicas = {replica};
    record.chunk_map.chunks.push_back(loc);
    record.size = 1024;
    return record;
  }

  VirtualClock clock_;
  MetadataManager manager_;
  std::vector<NodeId> nodes_;
};

TEST_F(MetadataManagerTest, ReserveStripeReturnsDistinctNodes) {
  auto res = manager_.ReserveStripe(4, 100_MiB);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().stripe.size(), 4u);
  EXPECT_NE(res.value().id, 0u);
}

TEST_F(MetadataManagerTest, ReserveStripeFailsBeyondPool) {
  EXPECT_FALSE(manager_.ReserveStripe(5, 1_MiB).ok());
}

TEST_F(MetadataManagerTest, ReservationAffectsStripeSelection) {
  auto res = manager_.ReserveStripe(1, 1_GiB);
  ASSERT_TRUE(res.ok());
  // The reserved node now has the least effective free space.
  auto next = manager_.ReserveStripe(1, 1_MiB);
  ASSERT_TRUE(next.ok());
  EXPECT_NE(next.value().stripe[0], res.value().stripe[0]);
}

TEST_F(MetadataManagerTest, ExtendAndReleaseReservation) {
  auto res = manager_.ReserveStripe(2, 10_MiB);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(manager_.ExtendReservation(res.value().id, 10_MiB).ok());
  EXPECT_TRUE(manager_.ReleaseReservation(res.value().id).ok());
  EXPECT_EQ(manager_.ReleaseReservation(res.value().id).code(),
            StatusCode::kNotFound);
}

// Release and failover hand back exactly what reserve and extend charged:
// each extension rounds its own per-member share up, so a share recomputed
// from the running total would strand bytes on every member.
TEST_F(MetadataManagerTest, ReservationAccountingReturnsToZero) {
  auto res = manager_.ReserveStripe(3, 256_MiB);
  ASSERT_TRUE(res.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(manager_.ExtendReservation(res.value().id, 256_MiB).ok());
  }
  ASSERT_TRUE(
      manager_.ReplaceReservationNode(res.value().id, res.value().stripe[0])
          .ok());
  ASSERT_TRUE(manager_.ReleaseReservation(res.value().id).ok());
  for (NodeId node : nodes_) {
    auto status = manager_.registry().Get(node);
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status.value().reserved_bytes, 0u) << "node " << node;
  }
}

TEST_F(MetadataManagerTest, ReservationGcReclaimsExpired) {
  auto res = manager_.ReserveStripe(2, 10_MiB);
  ASSERT_TRUE(res.ok());
  clock_.AdvanceSeconds(120);  // past the 60 s TTL
  manager_.TickReservationGc();
  EXPECT_EQ(manager_.ExtendReservation(res.value().id, 1).code(),
            StatusCode::kNotFound);
}

TEST_F(MetadataManagerTest, ReservationGcKeepsFreshOnes) {
  auto res = manager_.ReserveStripe(2, 10_MiB);
  ASSERT_TRUE(res.ok());
  clock_.AdvanceSeconds(30);
  manager_.TickReservationGc();
  EXPECT_TRUE(manager_.ExtendReservation(res.value().id, 1).ok());
}

TEST_F(MetadataManagerTest, CommitReleasesReservation) {
  auto res = manager_.ReserveStripe(1, 10_MiB);
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(manager_
                  .CommitVersion(res.value().id,
                                 MakeVersion("app", 1, res.value().stripe[0]))
                  .ok());
  EXPECT_EQ(manager_.ExtendReservation(res.value().id, 1).code(),
            StatusCode::kNotFound);
}

TEST_F(MetadataManagerTest, CommitInheritsFolderReplicationTarget) {
  FolderPolicy policy;
  policy.replication_target = 3;
  ASSERT_TRUE(manager_.SetFolderPolicy("app", policy).ok());
  VersionRecord v = MakeVersion("app", 1, nodes_[0]);
  v.replication_target = 0;  // inherit
  ASSERT_TRUE(manager_.CommitVersion(0, v).ok());
  EXPECT_EQ(manager_.GetVersion(v.name).value().replication_target, 3);
}

TEST_F(MetadataManagerTest, FilterAndLocateChunks) {
  VersionRecord v = MakeVersion("app", 1, nodes_[2]);
  ASSERT_TRUE(manager_.CommitVersion(0, v).ok());
  ChunkId known = v.chunk_map.chunks[0].id;
  ChunkId unknown = MakeChunkId(424242);

  auto locate = manager_.LocateChunks({known, unknown});
  ASSERT_TRUE(locate.ok());
  EXPECT_EQ(locate.value()[0], std::vector<NodeId>{nodes_[2]});
  EXPECT_TRUE(locate.value()[1].empty());
}

TEST_F(MetadataManagerTest, SetFolderPolicyValidates) {
  FolderPolicy policy;
  policy.replication_target = 0;
  EXPECT_EQ(manager_.SetFolderPolicy("a", policy).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MetadataManagerTest, CrashMakesRpcsUnavailable) {
  manager_.Crash();
  EXPECT_FALSE(manager_.IsUp());
  EXPECT_EQ(manager_.ReserveStripe(1, 1).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(manager_.Heartbeat(nodes_[0], 1).code(), StatusCode::kUnavailable);
  EXPECT_EQ(manager_.GetVersion(CheckpointName{"a", "n", 1}).status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(manager_.TickRepair().empty());
  EXPECT_TRUE(manager_.TickRetention().empty());
}

TEST_F(MetadataManagerTest, CommittedStateSurvivesRestart) {
  VersionRecord v = MakeVersion("app", 1, nodes_[0]);
  ASSERT_TRUE(manager_.CommitVersion(0, v).ok());
  manager_.Crash();
  manager_.Restart();
  EXPECT_TRUE(manager_.GetVersion(v.name).ok());
}

TEST_F(MetadataManagerTest, ExpiryDropsReplicasAndReportsLoss) {
  VersionRecord v = MakeVersion("app", 1, nodes_[0]);
  ASSERT_TRUE(manager_.CommitVersion(0, v).ok());

  // Only node 0 goes silent.
  clock_.AdvanceSeconds(11);
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    ASSERT_TRUE(manager_.Heartbeat(nodes_[i], 1_GiB).ok());
  }
  std::vector<NodeId> expired = manager_.TickExpiry();
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], nodes_[0]);

  std::vector<ChunkId> lost = manager_.TakeLostChunks();
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], v.chunk_map.chunks[0].id);
  EXPECT_TRUE(manager_.TakeLostChunks().empty());  // drained
}

TEST_F(MetadataManagerTest, GcExchangeIdentifiesOrphans) {
  VersionRecord v = MakeVersion("app", 1, nodes_[0]);
  ASSERT_TRUE(manager_.CommitVersion(0, v).ok());

  ChunkId live = v.chunk_map.chunks[0].id;
  ChunkId orphan = MakeChunkId(777);
  auto doomed = manager_.GcExchange(nodes_[0], {live, orphan});
  ASSERT_TRUE(doomed.ok());
  ASSERT_EQ(doomed.value().size(), 1u);
  EXPECT_EQ(doomed.value()[0], orphan);
}

TEST_F(MetadataManagerTest, GcDefersWhileNodeHasActiveReservation) {
  auto res = manager_.ReserveStripe(4, 10_MiB);  // covers all nodes
  ASSERT_TRUE(res.ok());
  ChunkId inflight = MakeChunkId(888);
  auto doomed = manager_.GcExchange(nodes_[0], {inflight});
  ASSERT_TRUE(doomed.ok());
  EXPECT_TRUE(doomed.value().empty());  // not collected mid-write

  ASSERT_TRUE(manager_.ReleaseReservation(res.value().id).ok());
  doomed = manager_.GcExchange(nodes_[0], {inflight});
  ASSERT_TRUE(doomed.ok());
  EXPECT_EQ(doomed.value().size(), 1u);  // now an orphan
}

TEST_F(MetadataManagerTest, GcExchangeReintegratesReturningNodesReplicas) {
  VersionRecord v = MakeVersion("app", 1, nodes_[0]);
  ASSERT_TRUE(manager_.CommitVersion(0, v).ok());
  ChunkId chunk = v.chunk_map.chunks[0].id;

  // Node 0 goes silent; its replicas are dropped (data loss for r=1).
  clock_.AdvanceSeconds(11);
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    ASSERT_TRUE(manager_.Heartbeat(nodes_[i], 1_GiB).ok());
  }
  manager_.TickExpiry();
  EXPECT_TRUE(manager_.LocateChunks({chunk}).value()[0].empty());

  // The desktop returns with its disk intact and runs a GC exchange: the
  // still-live chunk must be re-adopted, not deleted.
  ASSERT_TRUE(manager_.Heartbeat(nodes_[0], 1_GiB).ok());
  auto doomed = manager_.GcExchange(nodes_[0], {chunk});
  ASSERT_TRUE(doomed.ok());
  EXPECT_TRUE(doomed.value().empty());
  EXPECT_EQ(manager_.LocateChunks({chunk}).value()[0],
            std::vector<NodeId>{nodes_[0]});
}

TEST_F(MetadataManagerTest, RecoveryRequiresTwoThirdsConcurrence) {
  VersionRecord v = MakeVersion("app", 9, nodes_[0]);
  // Stripe width 3 -> need ceil(2/3 * 3) = 2 endorsements.
  ASSERT_TRUE(manager_.OfferRecoveredVersion(nodes_[0], v, 3).ok());
  EXPECT_FALSE(manager_.GetVersion(v.name).ok());
  ASSERT_TRUE(manager_.OfferRecoveredVersion(nodes_[1], v, 3).ok());
  EXPECT_TRUE(manager_.GetVersion(v.name).ok());
}

TEST_F(MetadataManagerTest, RecoveryIgnoresDuplicateEndorser) {
  VersionRecord v = MakeVersion("app", 9, nodes_[0]);
  ASSERT_TRUE(manager_.OfferRecoveredVersion(nodes_[0], v, 3).ok());
  ASSERT_TRUE(manager_.OfferRecoveredVersion(nodes_[0], v, 3).ok());
  EXPECT_FALSE(manager_.GetVersion(v.name).ok());  // same node twice != 2
}

TEST_F(MetadataManagerTest, RecoveryOffersWithDifferentMapsDoNotMix) {
  VersionRecord v1 = MakeVersion("app", 9, nodes_[0], /*chunk_seed=*/1);
  VersionRecord v2 = MakeVersion("app", 9, nodes_[1], /*chunk_seed=*/2);
  ASSERT_TRUE(manager_.OfferRecoveredVersion(nodes_[0], v1, 3).ok());
  ASSERT_TRUE(manager_.OfferRecoveredVersion(nodes_[1], v2, 3).ok());
  // Two endorsements but for different chunk maps: no commit.
  EXPECT_FALSE(manager_.GetVersion(v1.name).ok());
}

TEST_F(MetadataManagerTest, RecoveryOfferAfterCommitIsNoOp) {
  VersionRecord v = MakeVersion("app", 1, nodes_[0]);
  ASSERT_TRUE(manager_.CommitVersion(0, v).ok());
  EXPECT_TRUE(manager_.OfferRecoveredVersion(nodes_[1], v, 3).ok());
  EXPECT_EQ(manager_.catalog().TotalVersions(), 1u);
}

TEST_F(MetadataManagerTest, RepairCommandsForUnderReplicatedChunks) {
  VersionRecord v = MakeVersion("app", 1, nodes_[0]);
  v.replication_target = 3;
  ASSERT_TRUE(manager_.CommitVersion(0, v).ok());

  std::vector<RepairCommand> cmds = manager_.TickRepair();
  ASSERT_EQ(cmds.size(), 2u);
  for (const auto& cmd : cmds) {
    EXPECT_EQ(cmd.missing_index, -1);  // a whole replica
    EXPECT_EQ(cmd.chunk.replicas, std::vector<NodeId>{nodes_[0]});
    EXPECT_NE(cmd.target, nodes_[0]);
  }
  EXPECT_NE(cmds[0].target, cmds[1].target);
  EXPECT_EQ(manager_.pending_replications(), 2u);

  // No duplicate issuance while in flight.
  EXPECT_TRUE(manager_.TickRepair().empty());

  // Ack both; replica lists update; no further commands.
  for (const auto& cmd : cmds) {
    ASSERT_TRUE(manager_.AckRepair(cmd, true).ok());
  }
  EXPECT_EQ(manager_.pending_replications(), 0u);
  EXPECT_TRUE(manager_.TickRepair().empty());
  EXPECT_EQ(manager_.LocateChunks({v.chunk_map.chunks[0].id}).value()[0].size(),
            3u);
}

TEST_F(MetadataManagerTest, FailedReplicationIsRetried) {
  VersionRecord v = MakeVersion("app", 1, nodes_[0]);
  v.replication_target = 2;
  ASSERT_TRUE(manager_.CommitVersion(0, v).ok());

  auto cmds = manager_.TickRepair();
  ASSERT_EQ(cmds.size(), 1u);
  ASSERT_TRUE(manager_.AckRepair(cmds[0], false).ok());

  auto retry = manager_.TickRepair();
  ASSERT_EQ(retry.size(), 1u);  // re-issued
}

TEST_F(MetadataManagerTest, ReplicationRespectsPerTickBudget) {
  ManagerOptions options;
  options.max_replications_per_tick = 2;
  MetadataManager manager(&clock_, options);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    BenefactorInfo info;
    info.host = "x" + std::to_string(i);
    info.free_bytes = 1_GiB;
    nodes.push_back(manager.RegisterBenefactor(info).value());
  }
  // Five chunks each needing one extra replica.
  VersionRecord record;
  record.name = CheckpointName{"app", "n", 1};
  for (int c = 0; c < 5; ++c) {
    ChunkLocation loc;
    loc.id = MakeChunkId(5000 + c);
    loc.file_offset = static_cast<std::uint64_t>(c) * 100;
    loc.size = 100;
    loc.replicas = {nodes[0]};
    record.chunk_map.chunks.push_back(loc);
  }
  record.size = 500;
  record.replication_target = 2;
  ASSERT_TRUE(manager.CommitVersion(0, record).ok());

  EXPECT_EQ(manager.TickRepair().size(), 2u);
}

TEST_F(MetadataManagerTest, OneRepairTickIssuesBothKindsEachWithinItsBudget) {
  ManagerOptions options;
  options.max_replications_per_tick = 2;
  MetadataManager manager(&clock_, options);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    BenefactorInfo info;
    info.host = "x" + std::to_string(i);
    info.free_bytes = 1_GiB;
    nodes.push_back(manager.RegisterBenefactor(info).value());
  }
  // Three chunks each needing one extra replica, and three RS(2,1) groups
  // that each lose their parity shard when nodes[3] departs.
  VersionRecord replicated;
  replicated.name = CheckpointName{"app", "n", 1};
  for (int c = 0; c < 3; ++c) {
    replicated.chunk_map.chunks.emplace_back(
        MakeChunkId(8000 + c), static_cast<std::uint64_t>(c) * 100, 100,
        std::vector<NodeId>{nodes[0]});
  }
  replicated.size = 300;
  replicated.replication_target = 2;
  VersionRecord coded;
  coded.name = CheckpointName{"app", "n", 2};
  for (int g = 0; g < 3; ++g) {
    ChunkLocation loc(MakeChunkId(8100 + 10 * g),
                      static_cast<std::uint64_t>(g) * 1024, 1024, {});
    loc.ec_k = 2;
    loc.ec_m = 1;
    for (std::size_t s = 0; s < 3; ++s) {
      loc.shards.push_back(ShardLocation{
          MakeChunkId(8101 + 10 * g + static_cast<int>(s)), nodes[1 + s]});
    }
    coded.chunk_map.chunks.push_back(loc);
  }
  coded.size = 3 * 1024;
  ASSERT_TRUE(manager.CommitVersion(0, replicated).ok());
  ASSERT_TRUE(manager.CommitVersion(0, coded).ok());
  ASSERT_TRUE(manager.registry_mutable().SetOffline(nodes[3]).ok());

  // One call issues both kinds, replica commands first, each kind capped
  // by its own budget; what is in flight is never issued again.
  std::set<ChunkId> replicas, groups;
  for (std::size_t issued : {2u, 1u}) {
    std::vector<RepairCommand> cmds = manager.TickRepair();
    ASSERT_EQ(cmds.size(), 2 * issued);
    for (std::size_t c = 0; c < cmds.size(); ++c) {
      EXPECT_EQ(cmds[c].missing_index, c < issued ? -1 : 2);
      (c < issued ? replicas : groups).insert(cmds[c].chunk.id);
    }
  }
  EXPECT_TRUE(manager.TickRepair().empty());
  EXPECT_EQ(replicas.size(), 3u);
  EXPECT_EQ(groups.size(), 3u);
  EXPECT_EQ(manager.pending_replications(), 3u);
  EXPECT_EQ(manager.pending_shard_repairs(), 3u);
}

// A retried shard must not land on the donor still receiving a sibling
// shard of its group: two shards on one donor would let one death cost the
// group two. The cluster's tick acks every repair within the tick, so only
// a caller that acks later reaches this; a concurrent repair engine that
// collects its rebuilds across ticks would be such a caller.
TEST_F(MetadataManagerTest, ShardRebuildNeverTargetsASiblingsInFlightTarget) {
  MetadataManager manager(&clock_);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    BenefactorInfo info;
    info.host = "x" + std::to_string(i);
    // The spare donors have the most free space, the last one most of all.
    info.free_bytes = i == 5 ? 3_GiB : i == 4 ? 2_GiB : 1_GiB;
    nodes.push_back(manager.RegisterBenefactor(info).value());
  }
  VersionRecord record;
  record.name = CheckpointName{"app", "n", 1};
  ChunkLocation loc(MakeChunkId(7000), 0, 1024, {});
  loc.ec_k = 2;
  loc.ec_m = 2;
  for (int s = 0; s < 4; ++s) {
    loc.shards.push_back(ShardLocation{MakeChunkId(7001 + s),
                                       nodes[static_cast<std::size_t>(s)]});
  }
  record.chunk_map.chunks.push_back(loc);
  record.size = 1024;
  ASSERT_TRUE(manager.CommitVersion(0, record).ok());
  ASSERT_TRUE(manager.registry_mutable().SetOffline(nodes[0]).ok());
  ASSERT_TRUE(manager.registry_mutable().SetOffline(nodes[1]).ok());

  std::vector<RepairCommand> cmds = manager.TickRepair();
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].missing_index, 0);
  EXPECT_EQ(cmds[0].target, nodes[5]);
  EXPECT_EQ(cmds[1].missing_index, 1);
  EXPECT_EQ(cmds[1].target, nodes[4]);

  // Shard 1's rebuild fails while shard 0's is still in flight.
  ASSERT_TRUE(manager.AckRepair(cmds[1], false).ok());
  std::vector<RepairCommand> retry = manager.TickRepair();
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_EQ(retry[0].missing_index, 1);
  EXPECT_EQ(retry[0].target, nodes[4]);
}

TEST_F(MetadataManagerTest, CountersTrackManagerPlacements) {
  ManagerCounters before = manager_.Counters();
  EXPECT_EQ(before.server_side_placements, 0u);
  ASSERT_EQ(before.catalog_shards.size(), 1u);  // default: one shard

  auto res = manager_.ReserveStripe(2, 1_MiB);
  ASSERT_TRUE(res.ok());
  // A failover replacement is a manager placement too.
  ASSERT_TRUE(
      manager_.ReplaceReservationNode(res.value().id, res.value().stripe[0])
          .ok());
  EXPECT_EQ(manager_.Counters().server_side_placements, 2u);
}

TEST_F(MetadataManagerTest, CommitDropsDepartedReplicas) {
  auto res = manager_.ReserveStripe(2, 1_MiB);
  ASSERT_TRUE(res.ok());
  std::vector<NodeId> stripe = res.value().stripe;
  VersionRecord record = MakeVersion("app", 1, stripe[0]);
  record.chunk_map.chunks[0].replicas = stripe;

  // A donor the client wrote to departs between placement and commit.
  ASSERT_TRUE(manager_.registry_mutable().SetOffline(stripe[1]).ok());
  ASSERT_TRUE(manager_.CommitVersion(res.value().id, record).ok());

  // The committed map never names the departed donor.
  auto got = manager_.GetVersion(CheckpointName{"app", "n1", 1});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().chunk_map.chunks[0].replicas,
            (std::vector<NodeId>{stripe[0]}));
}

TEST_F(MetadataManagerTest, CommitRejectedWhenAllReplicasDeparted) {
  auto res = manager_.ReserveStripe(1, 1_MiB);
  ASSERT_TRUE(res.ok());
  VersionRecord record = MakeVersion("app", 1, res.value().stripe[0]);

  ASSERT_TRUE(
      manager_.registry_mutable().SetOffline(res.value().stripe[0]).ok());
  Status status = manager_.CommitVersion(res.value().id, record);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(manager_.GetVersion(CheckpointName{"app", "n1", 1}).ok());
}

TEST_F(MetadataManagerTest, CommitKeepsErasureChunkWhileKShardsLive) {
  // RS(2,1) over three donors: one departed holder is tolerated (its shard
  // is marked lost in place), two leave fewer than k and fail the commit.
  auto make_record = [this](std::uint64_t timestep) {
    VersionRecord record;
    record.name = CheckpointName{"app", "n1", timestep};
    ChunkLocation loc;
    loc.id = MakeChunkId(static_cast<int>(timestep) * 1000);
    loc.size = 1024;
    loc.ec_k = 2;
    loc.ec_m = 1;
    for (int s = 0; s < 3; ++s) {
      loc.shards.push_back(ShardLocation{
          MakeChunkId(static_cast<int>(timestep) * 1000 + 1 + s),
          nodes_[static_cast<std::size_t>(s)]});
    }
    record.chunk_map.chunks.push_back(loc);
    record.size = 1024;
    return record;
  };

  ASSERT_TRUE(manager_.registry_mutable().SetOffline(nodes_[1]).ok());
  ASSERT_TRUE(manager_.CommitVersion(0, make_record(1)).ok());
  auto got = manager_.GetVersion(CheckpointName{"app", "n1", 1});
  ASSERT_TRUE(got.ok());
  const std::vector<ShardLocation>& shards =
      got.value().chunk_map.chunks[0].shards;
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].node, nodes_[0]);
  EXPECT_EQ(shards[1].node, kInvalidNode);
  EXPECT_EQ(shards[2].node, nodes_[2]);

  ASSERT_TRUE(manager_.registry_mutable().SetOffline(nodes_[2]).ok());
  EXPECT_EQ(manager_.CommitVersion(0, make_record(2)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(manager_.GetVersion(CheckpointName{"app", "n1", 2}).ok());
}

TEST_F(MetadataManagerTest, ShardedCatalogCountsPerShardOps) {
  ManagerOptions options;
  options.catalog_shards = 4;
  MetadataManager manager(&clock_, options);
  BenefactorInfo info;
  info.host = "d0";
  info.free_bytes = 1_GiB;
  NodeId node = manager.RegisterBenefactor(info).value();

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        manager.CommitVersion(0, MakeVersion("app" + std::to_string(i), 1, node))
            .ok());
  }
  std::vector<CatalogShardStats> shards = manager.Counters().catalog_shards;
  ASSERT_EQ(shards.size(), 4u);
  std::uint64_t total_ops = 0;
  std::size_t active = 0;
  for (const CatalogShardStats& s : shards) {
    total_ops += s.ops;
    if (s.ops > 0) ++active;
    EXPECT_GE(s.lock_acquisitions, s.ops);
  }
  EXPECT_GE(total_ops, 8u);
  EXPECT_GT(active, 1u);  // eight distinct apps must spread across shards
}

}  // namespace
}  // namespace stdchk
