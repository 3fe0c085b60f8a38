// End-to-end tests of the erasure-coded write/read path: striping k+m
// shards across distinct benefactors at write time, reconstructing from any
// k survivors at read time, k-survivor accounting in the manager (repair,
// loss, GC) and snapshot round-tripping of shard groups.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "common/rng.h"
#include "core/cluster.h"
#include "disk_tamper.h"

namespace stdchk {
namespace {

CheckpointName Name(std::uint64_t t) { return CheckpointName{"app", "n1", t}; }

class ErasureClusterTest : public ::testing::Test {
 protected:
  static constexpr int kK = 4;
  static constexpr int kM = 2;

  ErasureClusterTest() {
    ClusterOptions options;
    options.benefactor_count = 9;
    options.client.chunk_size = 4096;
    options.client.erasure = {kK, kM};
    cluster_ = std::make_unique<StdchkCluster>(options);
  }

  // The cluster index of the benefactor owning `node`.
  std::size_t IndexOf(NodeId node) {
    for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
      if (cluster_->benefactor(i).id() == node) return i;
    }
    ADD_FAILURE() << "no benefactor with id " << node;
    return 0;
  }

  VersionRecord Record(const CheckpointName& name) {
    auto record = cluster_->manager().GetVersion(name);
    EXPECT_TRUE(record.ok()) << record.status().ToString();
    return record.ok() ? record.value() : VersionRecord{};
  }

  std::unique_ptr<StdchkCluster> cluster_;
  Rng rng_{42};
};

TEST_F(ErasureClusterTest, CommitsShardGroupsWithZeroFullReplicas) {
  Bytes data = rng_.RandomBytes(3 * 4096 + 1234);  // tail chunk too
  auto session = cluster_->client().CreateFile(Name(1));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Write(ByteSpan(data.data(), data.size())).ok());
  ASSERT_TRUE(session.value()->Close().ok());

  const WriteStats& ws = session.value()->stats();
  EXPECT_EQ(ws.erasure_encoded_chunks, 4u);
  EXPECT_EQ(ws.parity_shards_written, 4u * kM);
  EXPECT_EQ(ws.data_shards_written, 4u * kK);
  EXPECT_GT(ws.erasure_encode_ns, 0u);

  VersionRecord record = Record(Name(1));
  ASSERT_EQ(record.chunk_map.chunks.size(), 4u);
  for (const ChunkLocation& loc : record.chunk_map.chunks) {
    EXPECT_TRUE(loc.erasure_coded());
    EXPECT_EQ(loc.ec_k, kK);
    EXPECT_EQ(loc.ec_m, kM);
    EXPECT_TRUE(loc.replicas.empty()) << "EC chunks store zero full copies";
    ASSERT_EQ(loc.shards.size(), static_cast<std::size_t>(kK + kM));
    std::set<NodeId> nodes;
    for (const ShardLocation& sl : loc.shards) {
      ASSERT_NE(sl.node, kInvalidNode);
      nodes.insert(sl.node);
    }
    EXPECT_EQ(nodes.size(), loc.shards.size())
        << "shards of one group must land on distinct benefactors";
  }

  // Healthy path: reads reassemble from the k data shards, no parity, no
  // reconstruction, no whole-replica fallback.
  auto reader = cluster_->client().OpenFile(Name(1));
  ASSERT_TRUE(reader.ok());
  auto read_back = reader.value()->ReadAll();
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);
  ReadStats rs = reader.value()->stats();
  EXPECT_EQ(rs.shard_fetches, 4u * kK);
  EXPECT_EQ(rs.parity_shard_fetches, 0u);
  EXPECT_EQ(rs.reconstructions, 0u);
  EXPECT_EQ(rs.full_replica_fallbacks, 0u);
}

TEST_F(ErasureClusterTest, ReadsReconstructAfterMBenefactorDeaths) {
  Bytes data = rng_.RandomBytes(5 * 4096 + 77);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), ByteSpan(data.data(),
                                                             data.size()))
                  .ok());

  // Kill m holders of the first chunk's data shards — the worst allowed
  // case. No ticks in between: the catalog still points at the dead nodes,
  // so the read path itself must fail over to parity.
  VersionRecord record = Record(Name(1));
  const ChunkLocation& first = record.chunk_map.chunks.front();
  for (int i = 0; i < kM; ++i) {
    ASSERT_TRUE(
        cluster_->CrashBenefactor(IndexOf(first.shards[i].node)).ok());
  }

  auto reader = cluster_->client().OpenFile(Name(1));
  ASSERT_TRUE(reader.ok());
  auto read_back = reader.value()->ReadAll();
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);

  ReadStats rs = reader.value()->stats();
  EXPECT_GT(rs.reconstructions, 0u);
  EXPECT_GT(rs.parity_shard_fetches, 0u);
  // Zero full-replica fallback: there are no full replicas to fall back to.
  EXPECT_EQ(rs.full_replica_fallbacks, 0u);
}

TEST_F(ErasureClusterTest, ShardRepairRestoresFullWidth) {
  Bytes data = rng_.RandomBytes(4 * 4096);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), ByteSpan(data.data(),
                                                             data.size()))
                  .ok());
  VersionRecord before = Record(Name(1));
  NodeId dead = before.chunk_map.chunks.front().shards[0].node;
  ASSERT_TRUE(cluster_->CrashBenefactor(IndexOf(dead)).ok());

  // Let the heartbeat expire, then let repair run.
  std::size_t repairs = 0;
  std::size_t repair_failures = 0;
  for (int i = 0; i < 30; ++i) {
    StdchkCluster::TickReport report = cluster_->Tick(1.0);
    repairs += report.shard_repair_commands;
    repair_failures += report.shard_repair_failures;
  }
  EXPECT_GT(repairs, 0u);
  EXPECT_EQ(repair_failures, 0u);

  // Every group is back to k+m shards on distinct, live benefactors, and
  // the rebuilt shards kept their content addresses.
  VersionRecord after = Record(Name(1));
  ASSERT_EQ(after.chunk_map.chunks.size(), before.chunk_map.chunks.size());
  for (std::size_t c = 0; c < after.chunk_map.chunks.size(); ++c) {
    const ChunkLocation& loc = after.chunk_map.chunks[c];
    std::set<NodeId> nodes;
    for (std::size_t s = 0; s < loc.shards.size(); ++s) {
      EXPECT_EQ(loc.shards[s].id, before.chunk_map.chunks[c].shards[s].id);
      ASSERT_NE(loc.shards[s].node, kInvalidNode);
      EXPECT_NE(loc.shards[s].node, dead);
      nodes.insert(loc.shards[s].node);
    }
    EXPECT_EQ(nodes.size(), loc.shards.size());
  }

  // And no data was lost along the way.
  EXPECT_TRUE(cluster_->manager().TakeLostChunks().empty());
  auto read_back = cluster_->client().ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);
}

// A rebuild moves its shards through the transport like any client op, so
// cut links that leave fewer than k shards reachable fail it until they
// heal.
TEST_F(ErasureClusterTest, ShardRepairWaitsForACutSourceLinkToHeal) {
  Bytes data = rng_.RandomBytes(4 * 4096);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), ByteSpan(data.data(),
                                                             data.size()))
                  .ok());
  VersionRecord before = Record(Name(1));
  const ChunkLocation& first = before.chunk_map.chunks.front();
  NodeId dead = first.shards[0].node;
  // One holder dead and two cut leave 3 of the 6 shards reachable, one
  // short of k.
  NodeId cut = first.shards[1].node;
  NodeId cut_too = first.shards[2].node;
  ASSERT_TRUE(cluster_->CrashBenefactor(IndexOf(dead)).ok());
  cluster_->transport().SetUnreachable(cut, true);
  cluster_->transport().SetUnreachable(cut_too, true);

  std::size_t repair_failures = 0;
  for (int i = 0; i < 30; ++i) {
    repair_failures += cluster_->Tick(1.0).shard_repair_failures;
  }
  EXPECT_GT(repair_failures, 0u);
  EXPECT_EQ(Record(Name(1)).chunk_map.chunks.front().shards[0].node,
            kInvalidNode);

  cluster_->transport().SetUnreachable(cut, false);
  cluster_->transport().SetUnreachable(cut_too, false);
  repair_failures = 0;
  for (int i = 0; i < 30; ++i) {
    repair_failures += cluster_->Tick(1.0).shard_repair_failures;
  }
  EXPECT_EQ(repair_failures, 0u);
  VersionRecord after = Record(Name(1));
  const ShardLocation& rebuilt = after.chunk_map.chunks.front().shards[0];
  EXPECT_EQ(rebuilt.id, first.shards[0].id);
  EXPECT_NE(rebuilt.node, kInvalidNode);
  EXPECT_NE(rebuilt.node, dead);
  auto read_back = cluster_->client().ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);
}

// A rebuild reads the group like any client, so parity covers a cut holder:
// the lost shard comes back while the link is still cut.
TEST_F(ErasureClusterTest, ShardRepairFailsOverAroundOneCutSource) {
  Bytes data = rng_.RandomBytes(4 * 4096);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), ByteSpan(data.data(),
                                                             data.size()))
                  .ok());
  VersionRecord before = Record(Name(1));
  const ChunkLocation& first = before.chunk_map.chunks.front();
  NodeId dead = first.shards[0].node;
  NodeId cut = first.shards[1].node;
  ASSERT_TRUE(cluster_->CrashBenefactor(IndexOf(dead)).ok());
  cluster_->transport().SetUnreachable(cut, true);

  for (int i = 0; i < 30; ++i) cluster_->Tick(1.0);
  VersionRecord after = Record(Name(1));
  const ShardLocation& rebuilt = after.chunk_map.chunks.front().shards[0];
  EXPECT_EQ(rebuilt.id, first.shards[0].id);
  ASSERT_NE(rebuilt.node, kInvalidNode);
  EXPECT_NE(rebuilt.node, dead);
  EXPECT_NE(rebuilt.node, cut);
  auto read_back = cluster_->client().ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);
}

// A chunk shorter than (k-1) shard widths has an empty tail data shard,
// which a reader treats as present without a GET; it is still rebuilt and
// stored when its holder departs.
TEST_F(ErasureClusterTest, ShardRepairRestoresAnEmptyTailShard) {
  Bytes data = rng_.RandomBytes(4096 + 5);  // chunk 2's data shards: 2,2,1,0
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), ByteSpan(data.data(),
                                                             data.size()))
                  .ok());
  VersionRecord before = Record(Name(1));
  ASSERT_EQ(before.chunk_map.chunks.size(), 2u);
  const ChunkLocation& tail = before.chunk_map.chunks[1];
  ASSERT_EQ(tail.size, 5u);
  ASSERT_EQ(ErasureShardLength(tail.size, kK, kK - 1), 0u);
  NodeId dead = tail.shards[kK - 1].node;
  ASSERT_TRUE(cluster_->CrashBenefactor(IndexOf(dead)).ok());

  std::size_t repairs = 0;
  std::size_t repair_failures = 0;
  for (int i = 0; i < 30; ++i) {
    StdchkCluster::TickReport report = cluster_->Tick(1.0);
    repairs += report.shard_repair_commands;
    repair_failures += report.shard_repair_failures;
  }
  EXPECT_GT(repairs, 0u);
  EXPECT_EQ(repair_failures, 0u);
  VersionRecord after = Record(Name(1));
  const ShardLocation& rebuilt = after.chunk_map.chunks[1].shards[kK - 1];
  EXPECT_EQ(rebuilt.id, tail.shards[kK - 1].id);
  ASSERT_NE(rebuilt.node, kInvalidNode);
  EXPECT_NE(rebuilt.node, dead);
  auto read_back = cluster_->client().ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);
}

// One rebuild is k shard GETs plus one shard PUT on the transport.
TEST_F(ErasureClusterTest, ShardRepairTrafficShowsOnTheTransport) {
  Bytes data = rng_.RandomBytes(4096);  // one chunk: shards of 1 KiB
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), ByteSpan(data.data(),
                                                             data.size()))
                  .ok());
  VersionRecord record = Record(Name(1));
  ASSERT_EQ(record.chunk_map.chunks.size(), 1u);
  NodeId dead = record.chunk_map.chunks.front().shards[0].node;
  ASSERT_TRUE(cluster_->CrashBenefactor(IndexOf(dead)).ok());

  const std::uint64_t shard_bytes = ErasureShardSize(4096, kK);
  LocalTransport& transport = cluster_->transport();
  std::size_t rebuilds = 0;
  for (int i = 0; i < 30 && rebuilds == 0; ++i) {
    std::uint64_t rpcs = transport.rpc_count();
    std::uint64_t moved = transport.bytes_moved();
    StdchkCluster::TickReport report = cluster_->Tick(1.0);
    if (report.shard_repair_commands == 0) continue;
    rebuilds = report.shard_repair_commands;
    EXPECT_EQ(report.shard_repair_failures, 0u);
    EXPECT_EQ(report.replication_commands, 0u);
    EXPECT_EQ(transport.rpc_count() - rpcs, kK + 1u);
    EXPECT_EQ(transport.bytes_moved() - moved, (kK + 1u) * shard_bytes);
  }
  EXPECT_EQ(rebuilds, 1u);
}

// A group that lost two shards is read once: k shard GETs (parity standing
// in for the lost data shards) and one PUT per rebuilt shard.
TEST_F(ErasureClusterTest, ShardRepairReadsAGroupOnceForAllItsLostShards) {
  Bytes data = rng_.RandomBytes(4096);  // one chunk: shards of 1 KiB
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), ByteSpan(data.data(),
                                                             data.size()))
                  .ok());
  VersionRecord before = Record(Name(1));
  ASSERT_EQ(before.chunk_map.chunks.size(), 1u);
  const ChunkLocation& group = before.chunk_map.chunks.front();
  const NodeId dead[] = {group.shards[0].node, group.shards[1].node};
  for (NodeId node : dead) {
    ASSERT_TRUE(cluster_->CrashBenefactor(IndexOf(node)).ok());
  }

  const std::uint64_t shard_bytes = ErasureShardSize(4096, kK);
  LocalTransport& transport = cluster_->transport();
  std::size_t rebuilds = 0;
  for (int i = 0; i < 30 && rebuilds == 0; ++i) {
    std::uint64_t rpcs = transport.rpc_count();
    std::uint64_t moved = transport.bytes_moved();
    StdchkCluster::TickReport report = cluster_->Tick(1.0);
    if (report.shard_repair_commands == 0) continue;
    rebuilds = report.shard_repair_commands;
    EXPECT_EQ(report.shard_repair_failures, 0u);
    EXPECT_EQ(report.replication_commands, 0u);
    EXPECT_EQ(transport.rpc_count() - rpcs, kK + 2u);
    EXPECT_EQ(transport.bytes_moved() - moved, (kK + 2u) * shard_bytes);
  }
  EXPECT_EQ(rebuilds, 2u);

  VersionRecord after = Record(Name(1));
  const ChunkLocation& repaired = after.chunk_map.chunks.front();
  std::set<NodeId> targets;
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(repaired.shards[s].id, group.shards[s].id);
    ASSERT_NE(repaired.shards[s].node, kInvalidNode);
    EXPECT_NE(repaired.shards[s].node, dead[0]);
    EXPECT_NE(repaired.shards[s].node, dead[1]);
    targets.insert(repaired.shards[s].node);
  }
  EXPECT_EQ(targets.size(), 2u);
  auto read_back = cluster_->client().ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);
}

TEST_F(ErasureClusterTest, LosingMoreThanMShardsReportsTheGroupLost) {
  Bytes data = rng_.RandomBytes(2 * 4096);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), ByteSpan(data.data(),
                                                             data.size()))
                  .ok());
  VersionRecord record = Record(Name(1));
  const ChunkLocation& first = record.chunk_map.chunks.front();
  // m+1 deaths in one group exceed the loss budget.
  for (int i = 0; i < kM + 1; ++i) {
    ASSERT_TRUE(
        cluster_->CrashBenefactor(IndexOf(first.shards[i].node)).ok());
  }
  for (int i = 0; i < 15; ++i) cluster_->Tick(1.0);

  std::vector<ChunkId> lost = cluster_->manager().TakeLostChunks();
  EXPECT_TRUE(std::find(lost.begin(), lost.end(), first.id) != lost.end())
      << "the group head (whole-chunk id) is the loss signal, not shard ids";
}

TEST_F(ErasureClusterTest, DeletingTheVersionReclaimsShardGroups) {
  Bytes data = rng_.RandomBytes(3 * 4096);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), ByteSpan(data.data(),
                                                             data.size()))
                  .ok());
  cluster_->Settle();
  EXPECT_EQ(cluster_->manager().Counters().shard_records_released, 0u);

  ASSERT_TRUE(cluster_->manager().DeleteVersion(Name(1)).ok());
  // Metadata half: every shard record of the three groups was released.
  EXPECT_EQ(cluster_->manager().Counters().shard_records_released,
            3u * (kK + kM));

  // Physical half: the GC exchange collects the orphaned shards.
  std::size_t reclaimed = 0;
  for (int i = 0; i < 10; ++i) {
    reclaimed += cluster_->Tick(1.0).gc_reclaimed_chunks;
  }
  EXPECT_EQ(reclaimed, 3u * (kK + kM));
}

TEST_F(ErasureClusterTest, SnapshotRoundTripsShardGroups) {
  Bytes data = rng_.RandomBytes(2 * 4096 + 500);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), ByteSpan(data.data(),
                                                             data.size()))
                  .ok());
  VersionRecord before = Record(Name(1));

  Bytes snapshot = cluster_->manager().SaveSnapshot();
  ASSERT_TRUE(cluster_->manager()
                  .LoadSnapshot(ByteSpan(snapshot.data(), snapshot.size()))
                  .ok());

  VersionRecord after = Record(Name(1));
  ASSERT_EQ(after.chunk_map.chunks.size(), before.chunk_map.chunks.size());
  for (std::size_t c = 0; c < after.chunk_map.chunks.size(); ++c) {
    const ChunkLocation& a = after.chunk_map.chunks[c];
    const ChunkLocation& b = before.chunk_map.chunks[c];
    EXPECT_EQ(a.ec_k, b.ec_k);
    EXPECT_EQ(a.ec_m, b.ec_m);
    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
      EXPECT_EQ(a.shards[s].id, b.shards[s].id);
      EXPECT_EQ(a.shards[s].node, b.shards[s].node);
    }
  }

  // The promoted standby serves erasure-coded reads.
  auto read_back = cluster_->client().ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);
}

TEST_F(ErasureClusterTest, MixedModeMapsDedupAgainstReplicatedChunks) {
  // A replicated write first; an erasure-coded writer with dedup enabled
  // then reuses those chunks — its map mixes replicated entries (reused)
  // with erasure-coded ones (novel), and the read path serves both.
  Bytes shared = rng_.RandomBytes(2 * 4096);
  Bytes novel = rng_.RandomBytes(2 * 4096);

  ClientOptions plain = cluster_->client().options();
  plain.erasure = {};  // replication mode
  auto replicated_writer = cluster_->MakeClient(plain);
  ASSERT_TRUE(replicated_writer
                  ->WriteFile(Name(1), ByteSpan(shared.data(), shared.size()))
                  .ok());

  ClientOptions dedup = cluster_->client().options();
  dedup.incremental_fsch = true;
  auto ec_writer = cluster_->MakeClient(dedup);
  Bytes both = shared;
  both.insert(both.end(), novel.begin(), novel.end());
  ASSERT_TRUE(
      ec_writer->WriteFile(Name(2), ByteSpan(both.data(), both.size())).ok());

  VersionRecord record = Record(Name(2));
  ASSERT_EQ(record.chunk_map.chunks.size(), 4u);
  int replicated = 0, erasure_coded = 0;
  for (const ChunkLocation& loc : record.chunk_map.chunks) {
    loc.erasure_coded() ? ++erasure_coded : ++replicated;
  }
  EXPECT_EQ(replicated, 2);
  EXPECT_EQ(erasure_coded, 2);

  auto read_back = ec_writer->ReadFile(Name(2));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), both);
}

// A chunk stored both ways (shards for one version, whole copies for a
// later one without dedup) can lose a whole copy and a shard at once. One
// tick then issues both kinds for the chunk back to back, and each kind is
// rebuilt as its own run: the replica from any copy, the shard decoded.
TEST_F(ErasureClusterTest, MixedModeChunkRepairsBothKindsInOneTick) {
  Bytes data = rng_.RandomBytes(4096);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), data).ok());
  ClientOptions plain = cluster_->client().options();
  plain.erasure = {};
  plain.semantics = WriteSemantics::kPessimistic;
  plain.replication_target = 2;
  ASSERT_TRUE(cluster_->MakeClient(plain)->WriteFile(Name(2), data).ok());
  const ChunkLocation coded = Record(Name(1)).chunk_map.chunks.at(0);
  const ChunkLocation whole = Record(Name(2)).chunk_map.chunks.at(0);
  ASSERT_EQ(coded.id, whole.id);
  ASSERT_EQ(whole.replicas.size(), 2u);

  // One whole-copy holder and one shard holder (maybe the same) crash.
  std::set<NodeId> dead = {whole.replicas[0]};
  for (const ShardLocation& sl : coded.shards) {
    if (sl.node != whole.replicas[1]) {
      dead.insert(sl.node);
      break;
    }
  }
  for (NodeId node : dead) {
    ASSERT_TRUE(cluster_->CrashBenefactor(IndexOf(node)).ok());
  }
  StdchkCluster::TickReport report;
  for (int i = 0; i < 30 && report.replication_commands == 0; ++i) {
    report = cluster_->Tick(1.0);
  }
  EXPECT_EQ(report.replication_commands, 1u);
  EXPECT_EQ(report.replication_failures, 0u);
  EXPECT_GE(report.shard_repair_commands, 1u);
  EXPECT_EQ(report.shard_repair_failures, 0u);

  // Every listed holder of either kind holds what the catalog says.
  VersionRecord replicated = Record(Name(2));
  ASSERT_EQ(replicated.chunk_map.chunks[0].replicas.size(), 2u);
  for (NodeId node : replicated.chunk_map.chunks[0].replicas) {
    EXPECT_TRUE(cluster_->FindBenefactor(node)->HasChunk(whole.id));
  }
  VersionRecord rebuilt = Record(Name(1));
  for (const ShardLocation& sl : rebuilt.chunk_map.chunks[0].shards) {
    ASSERT_NE(sl.node, kInvalidNode);
    EXPECT_FALSE(dead.contains(sl.node));
    EXPECT_TRUE(cluster_->FindBenefactor(sl.node)->HasChunk(sl.id));
  }
  for (std::uint64_t t : {1, 2}) {
    auto read_back = cluster_->client().ReadFile(Name(t));
    ASSERT_TRUE(read_back.ok()) << read_back.status();
    EXPECT_EQ(read_back.value(), data);
  }
}

// Erasure-coded chunks are read ahead like replicated ones: the data shards
// of the window's chunks that share a node share one GET, so fewer GETs
// than shards go out, with several chunks in flight at once.
TEST_F(ErasureClusterTest, ErasureChunksRideTheReadWindow) {
  Bytes data = rng_.RandomBytes(8 * 4096);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), data).ok());

  ClientOptions options = cluster_->client().options();
  options.read_ahead_chunks = 3;
  auto client = cluster_->MakeClient(options);
  auto reader = client->OpenFile(Name(1));
  ASSERT_TRUE(reader.ok());
  auto read_back = reader.value()->ReadAll();
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(read_back.value(), data);

  ReadStats rs = reader.value()->stats();
  EXPECT_EQ(rs.shard_fetches, 8u * kK);
  EXPECT_GE(rs.inflight_peak, 4u);
  EXPECT_LT(rs.single_gets + rs.batch_gets, 8u * kK);
  EXPECT_EQ(rs.parity_shard_fetches, 0u);
  EXPECT_EQ(rs.reconstructions, 0u);
}

// A healthy erasure-coded chunk is cached as its data shards and copied
// once, straight from them into the image: no reassembly copy.
TEST_F(ErasureClusterTest, HealthyErasureReadAllCopiesNoPayload) {
  Bytes data = rng_.RandomBytes(4 * 4096 + 1234);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), data).ok());
  auto reader = cluster_->client().OpenFile(Name(1));
  ASSERT_TRUE(reader.ok());

  const std::uint64_t copies = copy_stats::Snapshot().payload_copies;
  auto read_back = reader.value()->ReadAll();
  EXPECT_EQ(copy_stats::Snapshot().payload_copies - copies, 0u);
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(read_back.value(), data);
  EXPECT_EQ(reader.value()->stats().reconstructions, 0u);
}

// A crashed (not yet expired) data-shard holder costs each chunk it holds a
// shard of exactly one parity shard and one decode; every other shard is a
// direct data shard.
TEST_F(ErasureClusterTest, DegradedReadCostsOneParityShardPerAffectedChunk) {
  constexpr std::size_t kChunks = 8;
  Bytes data = rng_.RandomBytes(kChunks * 4096);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), data).ok());
  VersionRecord record = Record(Name(1));
  ASSERT_EQ(record.chunk_map.chunks.size(), kChunks);
  const NodeId dead = record.chunk_map.chunks.front().shards[0].node;
  std::uint64_t affected = 0;
  for (const ChunkLocation& loc : record.chunk_map.chunks) {
    for (int s = 0; s < kK; ++s) {
      if (loc.shards[static_cast<std::size_t>(s)].node == dead) ++affected;
    }
  }
  ASSERT_TRUE(cluster_->CrashBenefactor(IndexOf(dead)).ok());

  auto reader = cluster_->client().OpenFile(Name(1));
  ASSERT_TRUE(reader.ok());
  auto read_back = reader.value()->ReadAll();
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(read_back.value(), data);
  ReadStats rs = reader.value()->stats();
  EXPECT_EQ(rs.shard_fetches, kChunks * kK);
  EXPECT_GE(affected, 1u);
  EXPECT_EQ(rs.parity_shard_fetches, affected);
  EXPECT_EQ(rs.reconstructions, affected);
  EXPECT_EQ(rs.full_replica_fallbacks, 0u);
}

// A data shard flipped on a donor's disk fails the transport's content
// check. Only that shard costs parity: the others sharing its GET are
// retried alone and arrive intact.
TEST(ErasureDiskReadTest, FlippedDiskShardCostsOneParityShard) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "stdchk_erasure_flipped";
  fs::remove_all(dir);
  ClusterOptions options;
  options.benefactor_count = 9;
  options.disk_root = dir.string();
  options.client.chunk_size = 4096;
  options.client.erasure = {4, 2};
  options.client.read_ahead_chunks = 3;
  {
    StdchkCluster cluster(options);
    Bytes data = Rng(7).RandomBytes(8 * 4096);
    const CheckpointName name{"app", "n1", 1};
    ASSERT_TRUE(cluster.client().WriteFile(name, data).ok());
    auto record = cluster.manager().GetVersion(name);
    ASSERT_TRUE(record.ok());
    const ChunkLocation& first = record.value().chunk_map.chunks.front();
    const std::size_t shard = ErasureShardSize(first.size, 4);
    const Benefactor* holder = cluster.FindBenefactor(first.shards[1].node);
    ASSERT_NE(holder, nullptr);
    ASSERT_TRUE(FlipStoredByte(dir / holder->host(),
                               ByteSpan(data).subspan(shard, shard)));

    auto reader = cluster.client().OpenFile(name);
    ASSERT_TRUE(reader.ok());
    auto read_back = reader.value()->ReadAll();
    ASSERT_TRUE(read_back.ok()) << read_back.status();
    EXPECT_EQ(read_back.value(), data);
    ReadStats rs = reader.value()->stats();
    EXPECT_EQ(rs.reconstructions, 1u);
    EXPECT_EQ(rs.parity_shard_fetches, 1u);
    EXPECT_EQ(rs.shard_fetches, 8u * 4u);
  }
  fs::remove_all(dir);
}

// Every gathered chunk passes the whole-chunk check against its id before
// any of its bytes reach the caller: a record whose chunk id is off by one
// byte fails the read, though every shard passes its own check.
TEST_F(ErasureClusterTest, WholeChunkCheckFailsAReadWithIntactShards) {
  Bytes data = rng_.RandomBytes(3 * 4096);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), data).ok());
  VersionRecord record = Record(Name(1));
  ASSERT_EQ(record.chunk_map.chunks.size(), 3u);
  record.chunk_map.chunks[1].id.digest.bytes[7] ^= 0x01;

  ReadSession whole(&cluster_->transport(), record,
                    cluster_->client().options());
  auto read_back = whole.ReadAll();
  ASSERT_FALSE(read_back.ok());
  EXPECT_EQ(read_back.status().code(), StatusCode::kDataLoss);

  // A read of the altered chunk alone fails too; the one before it reads.
  ReadSession ranged(&cluster_->transport(), record,
                     cluster_->client().options());
  Bytes out(4096);
  auto first = ranged.ReadAt(0, MutableByteSpan(out));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(out, Bytes(data.begin(), data.begin() + 4096));
  auto second = ranged.ReadAt(4096, MutableByteSpan(out));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace stdchk
