#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "common/rng.h"
#include "core/cluster.h"
#include "disk_tamper.h"

namespace stdchk {
namespace {

CheckpointName Name(std::uint64_t t) { return CheckpointName{"app", "n1", t}; }

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest() {
    ClusterOptions options;
    options.benefactor_count = 6;
    options.client.stripe_width = 2;
    options.client.chunk_size = 1024;
    cluster_ = std::make_unique<StdchkCluster>(options);
  }

  int CountReplicas(const CheckpointName& name) {
    auto record = cluster_->manager().GetVersion(name);
    EXPECT_TRUE(record.ok());
    int min_replicas = INT32_MAX;
    for (const auto& loc : record.value().chunk_map.chunks) {
      min_replicas = std::min(min_replicas,
                              static_cast<int>(loc.replicas.size()));
    }
    return min_replicas;
  }

  std::unique_ptr<StdchkCluster> cluster_;
  Rng rng_{3};
};

// The donors holding `name`'s chunks, in ascending id order, when every
// chunk sits on the same ones (a write whose stripe is as wide as its
// replication target).
std::vector<NodeId> SharedHolders(StdchkCluster& cluster,
                                  const CheckpointName& name) {
  auto record = cluster.manager().GetVersion(name);
  EXPECT_TRUE(record.ok());
  if (!record.ok()) return {};
  std::vector<NodeId> holders = record.value().chunk_map.chunks[0].replicas;
  std::sort(holders.begin(), holders.end());
  for (const ChunkLocation& loc : record.value().chunk_map.chunks) {
    std::vector<NodeId> mine = loc.replicas;
    std::sort(mine.begin(), mine.end());
    EXPECT_EQ(mine, holders) << "chunk " << loc.id.ToHex();
  }
  return holders;
}

// Listed holders of each of `name`'s chunks whose copy passes the content
// check, in chunk order.
std::vector<int> VerifiedHolders(StdchkCluster& cluster,
                                 const CheckpointName& name) {
  auto record = cluster.manager().GetVersion(name);
  EXPECT_TRUE(record.ok());
  if (!record.ok()) return {};
  std::vector<int> out;
  for (const ChunkLocation& loc : record.value().chunk_map.chunks) {
    int verified = 0;
    for (NodeId node : loc.replicas) {
      Benefactor* holder = cluster.FindBenefactor(node);
      if (holder == nullptr) continue;
      auto got = holder->ReadChunk(loc.id);
      if (got.ok() && Benefactor::VerifyChunk(loc.id, got.value()).ok()) {
        ++verified;
      }
    }
    out.push_back(verified);
  }
  return out;
}

// What the ticks up to and including the one that expires a donor did.
struct UntilExpiry {
  StdchkCluster::TickReport last;  // the expiring tick's report
  std::uint64_t last_rpcs = 0;     // transport RPCs in that tick
  std::size_t failures = 0;        // failed replica repairs, all ticks
};

UntilExpiry TickUntilExpiry(StdchkCluster& cluster) {
  UntilExpiry out;
  for (int i = 0; i < 30 && out.last.expired.empty(); ++i) {
    std::uint64_t before = cluster.transport().rpc_count();
    out.last = cluster.Tick(1.0);
    out.last_rpcs = cluster.transport().rpc_count() - before;
    out.failures += out.last.replication_failures;
  }
  return out;
}

TEST_F(ReplicationTest, BackgroundReplicationReachesTarget) {
  ClientOptions options = cluster_->client().options();
  options.semantics = WriteSemantics::kOptimistic;
  options.replication_target = 3;
  auto client = cluster_->MakeClient(options);

  ASSERT_TRUE(client->WriteFile(Name(1), rng_.RandomBytes(8 * 1024)).ok());
  EXPECT_EQ(CountReplicas(Name(1)), 1);  // optimistic: one replica at close

  cluster_->Settle();
  EXPECT_EQ(CountReplicas(Name(1)), 3);
}

TEST_F(ReplicationTest, ReplicationRepairsNodeLoss) {
  ClientOptions options = cluster_->client().options();
  options.semantics = WriteSemantics::kPessimistic;
  options.replication_target = 2;
  auto client = cluster_->MakeClient(options);
  Bytes data = rng_.RandomBytes(6 * 1024);
  ASSERT_TRUE(client->WriteFile(Name(1), data).ok());

  // Kill one node; after heartbeat expiry + repair, every chunk is back to
  // two replicas on live nodes.
  cluster_->benefactor(0).Crash();
  for (int i = 0; i < 20; ++i) cluster_->Tick(1.0);
  cluster_->Settle();

  auto record = cluster_->manager().GetVersion(Name(1));
  ASSERT_TRUE(record.ok());
  NodeId dead = cluster_->benefactor(0).id();
  for (const auto& loc : record.value().chunk_map.chunks) {
    int live = 0;
    for (NodeId node : loc.replicas) {
      if (node != dead) ++live;
    }
    EXPECT_GE(live, 2) << "chunk " << loc.id.ToHex();
  }

  // And the data is still readable.
  auto read_back = client->ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);
}

TEST_F(ReplicationTest, LosingEveryReplicaIsReportedAsDataLoss) {
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), rng_.RandomBytes(2048)).ok());
  auto record = cluster_->manager().GetVersion(Name(1));
  ASSERT_TRUE(record.ok());

  // Replication target is 1: killing the single holder loses the chunk.
  std::set<NodeId> holders;
  for (const auto& loc : record.value().chunk_map.chunks) {
    for (NodeId node : loc.replicas) holders.insert(node);
  }
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    if (holders.contains(cluster_->benefactor(i).id())) {
      cluster_->benefactor(i).Crash();
    }
  }
  for (int i = 0; i < 20; ++i) cluster_->Tick(1.0);

  EXPECT_FALSE(cluster_->manager().TakeLostChunks().empty() ||
               cluster_->client().ReadFile(Name(1)).ok());
}

TEST_F(ReplicationTest, DedupedVersionsShareReplicas) {
  ClientOptions options = cluster_->client().options();
  options.incremental_fsch = true;
  options.replication_target = 2;
  options.semantics = WriteSemantics::kOptimistic;
  auto client = cluster_->MakeClient(options);

  Bytes image = rng_.RandomBytes(4 * 1024);
  ASSERT_TRUE(client->WriteFile(Name(1), image).ok());
  ASSERT_TRUE(client->WriteFile(Name(2), image).ok());
  cluster_->Settle();

  // Both versions reference the same chunks; storage holds target x unique.
  EXPECT_EQ(CountReplicas(Name(1)), 2);
  EXPECT_EQ(CountReplicas(Name(2)), 2);
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    stored += cluster_->benefactor(i).BytesUsed();
  }
  EXPECT_EQ(stored, 2u * 4 * 1024);
}

TEST_F(ReplicationTest, SettleConvergesAndStops) {
  ClientOptions options = cluster_->client().options();
  options.replication_target = 2;
  auto client = cluster_->MakeClient(options);
  ASSERT_TRUE(client->WriteFile(Name(1), rng_.RandomBytes(4096)).ok());

  cluster_->Settle();
  // After convergence a further tick issues no replication commands.
  auto report = cluster_->Tick(1.0);
  EXPECT_EQ(report.replication_commands, 0u);
  EXPECT_EQ(cluster_->manager().pending_replications(), 0u);
}

TEST_F(ReplicationTest, ReplicationSurvivesTargetNodeFailure) {
  ClientOptions options = cluster_->client().options();
  options.replication_target = 3;
  auto client = cluster_->MakeClient(options);
  ASSERT_TRUE(client->WriteFile(Name(1), rng_.RandomBytes(2048)).ok());

  // Crash a non-holding node so some replication copies fail, then recover.
  auto record = cluster_->manager().GetVersion(Name(1));
  ASSERT_TRUE(record.ok());
  std::set<NodeId> holders;
  for (const auto& loc : record.value().chunk_map.chunks) {
    for (NodeId node : loc.replicas) holders.insert(node);
  }
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    if (!holders.contains(cluster_->benefactor(i).id())) {
      cluster_->benefactor(i).Crash();
      break;
    }
  }
  cluster_->Settle(128);
  // Remaining pool is 5 nodes; target 3 is still reachable.
  EXPECT_EQ(CountReplicas(Name(1)), 3);
}

TEST_F(ReplicationTest, ReplicaRepairFailsOverAroundACutSource) {
  ClientOptions options = cluster_->client().options();
  options.semantics = WriteSemantics::kPessimistic;
  options.stripe_width = 3;
  options.replication_target = 3;
  auto client = cluster_->MakeClient(options);
  Bytes data = rng_.RandomBytes(4 * 1024);
  ASSERT_TRUE(client->WriteFile(Name(1), data).ok());

  // Every chunk sits on the same three donors. The highest-id one crashes,
  // and the link to the lowest-id one, the first one a repair reads, is
  // cut.
  std::vector<NodeId> holders = SharedHolders(*cluster_, Name(1));
  ASSERT_EQ(holders.size(), 3u);
  const NodeId cut = holders.front();
  const NodeId crashed = holders.back();
  cluster_->FindBenefactor(crashed)->Crash();
  cluster_->transport().SetUnreachable(cut, true);

  // In the tick that expires the crashed holder, each of the 4 chunks is
  // read once, failing over from the cut GET to the other holder, and
  // PUT once: 3 RPCs a chunk, and no copy fails.
  UntilExpiry ticks = TickUntilExpiry(*cluster_);
  ASSERT_EQ(ticks.last.expired, std::vector<NodeId>{crashed});
  EXPECT_EQ(ticks.last.replication_commands, 4u);
  EXPECT_EQ(ticks.failures, 0u);
  EXPECT_EQ(ticks.last_rpcs, 12u);
  EXPECT_EQ(cluster_->manager().pending_replications(), 0u);
  for (int verified : VerifiedHolders(*cluster_, Name(1))) {
    EXPECT_EQ(verified, 3);
  }

  cluster_->transport().SetUnreachable(cut, false);
  auto read_back = client->ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(read_back.value(), data);
}

TEST(ReplicaRepairTest, FailsOverAroundACorruptDiskSource) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "stdchk_replication_corrupt_source";
  fs::remove_all(dir);
  ClusterOptions options;
  options.benefactor_count = 6;
  options.disk_root = dir.string();
  options.client.stripe_width = 3;
  options.client.chunk_size = 1024;
  options.client.semantics = WriteSemantics::kPessimistic;
  options.client.replication_target = 3;
  {
    StdchkCluster cluster(options);
    Rng rng(5);
    Bytes data = rng.RandomBytes(4 * 1024);
    ASSERT_TRUE(cluster.client().WriteFile(Name(1), data).ok());

    // The lowest-id holder, the first one a repair reads, flips one byte
    // of its copy of chunk 0 on disk; the highest-id holder crashes.
    std::vector<NodeId> holders = SharedHolders(cluster, Name(1));
    ASSERT_EQ(holders.size(), 3u);
    const Benefactor* corrupt = cluster.FindBenefactor(holders.front());
    ASSERT_TRUE(FlipStoredByte(dir / corrupt->host(),
                               ByteSpan(data).subspan(0, 1024)));
    cluster.FindBenefactor(holders.back())->Crash();

    // Chunk 0's read fails over from the corrupt copy to the intact one:
    // two GETs and the PUT. Each other chunk costs a GET of the lowest-id
    // holder and a PUT.
    UntilExpiry ticks = TickUntilExpiry(cluster);
    ASSERT_EQ(ticks.last.expired, std::vector<NodeId>{holders.back()});
    EXPECT_EQ(ticks.last.replication_commands, 4u);
    EXPECT_EQ(ticks.last_rpcs, 9u);
    std::size_t failures = ticks.failures;
    for (int i = 0; i < 5; ++i) {
      failures += cluster.Tick(1.0).replication_failures;
    }
    EXPECT_EQ(failures, 0u);
    EXPECT_EQ(cluster.manager().pending_replications(), 0u);

    // Every chunk has two verified copies besides the crashed holder's.
    // Chunk 0 still lists the corrupt copy: a holder list shrinks only
    // when a donor expires.
    std::vector<int> verified = VerifiedHolders(cluster, Name(1));
    ASSERT_EQ(verified.size(), 4u);
    EXPECT_EQ(verified[0], 2);
    for (std::size_t c = 1; c < verified.size(); ++c) {
      EXPECT_EQ(verified[c], 3) << "chunk " << c;
    }
    auto read_back = cluster.client().ReadFile(Name(1));
    ASSERT_TRUE(read_back.ok()) << read_back.status();
    EXPECT_EQ(read_back.value(), data);
  }
  fs::remove_all(dir);
}

TEST_F(ReplicationTest, AChunkMissingTwoReplicasIsReadOnce) {
  ClientOptions options = cluster_->client().options();
  options.semantics = WriteSemantics::kOptimistic;
  options.replication_target = 3;
  auto client = cluster_->MakeClient(options);
  ASSERT_TRUE(client->WriteFile(Name(1), rng_.RandomBytes(1024)).ok());
  ASSERT_EQ(CountReplicas(Name(1)), 1);

  // One GET of the chunk, then one PUT to each of the two targets.
  LocalTransport& transport = cluster_->transport();
  const std::uint64_t rpcs = transport.rpc_count();
  const std::uint64_t moved = transport.bytes_moved();
  auto report = cluster_->Tick(1.0);
  EXPECT_EQ(report.replication_commands, 2u);
  EXPECT_EQ(report.replication_failures, 0u);
  EXPECT_EQ(transport.rpc_count() - rpcs, 3u);
  EXPECT_EQ(transport.bytes_moved() - moved, 3u * 1024);
  EXPECT_EQ(CountReplicas(Name(1)), 3);
}

TEST_F(ReplicationTest, AChunkMissingOneReplicaCostsAGetAndAPut) {
  ClientOptions options = cluster_->client().options();
  options.semantics = WriteSemantics::kOptimistic;
  options.replication_target = 2;
  auto client = cluster_->MakeClient(options);
  ASSERT_TRUE(client->WriteFile(Name(1), rng_.RandomBytes(1024)).ok());
  ASSERT_EQ(CountReplicas(Name(1)), 1);

  LocalTransport& transport = cluster_->transport();
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    transport.SetLinkModel(cluster_->benefactor(i).id(),
                           sim::LinkModel{Milliseconds(5), 0.0});
  }
  const std::uint64_t rpcs = transport.rpc_count();
  const std::uint64_t moved = transport.bytes_moved();
  const SimTime start = transport.now();
  auto report = cluster_->Tick(1.0);
  EXPECT_EQ(report.replication_commands, 1u);
  EXPECT_EQ(report.replication_failures, 0u);
  EXPECT_EQ(transport.rpc_count() - rpcs, 2u);
  EXPECT_EQ(transport.bytes_moved() - moved, 2u * 1024);
  // A source-link leg, then a target-link leg.
  EXPECT_EQ(transport.now() - start, Milliseconds(10));
  EXPECT_EQ(CountReplicas(Name(1)), 2);
}

}  // namespace
}  // namespace stdchk
