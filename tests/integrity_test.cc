// Content-addressing as an integrity mechanism (paper §IV.C: "prevent
// faulty or malicious storage nodes from tampering with the chunks they
// store"): corrupt stored bytes and verify detection end to end.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "benefactor/benefactor.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "disk_tamper.h"
#include "submit_and_wait.h"

namespace stdchk {
namespace {

namespace fs = std::filesystem;

TEST(IntegrityTest, TamperedDiskChunkIsDetectedOnRead) {
  auto dir = fs::temp_directory_path() / "stdchk_integrity_test";
  fs::remove_all(dir);

  VirtualClock clock;
  MetadataManager manager(&clock);
  auto store = MakeDiskChunkStore((dir / "node0").string());
  ASSERT_TRUE(store.ok());
  Benefactor benefactor("node0", std::move(store).value(), 1_GiB);
  ASSERT_TRUE(benefactor.JoinPool(manager).ok());

  Rng rng(1);
  Bytes data = rng.RandomBytes(4096);
  ChunkId id = ChunkId::For(data);
  std::vector<ChunkPut> put{{id, BufferSlice::Copy(data)}};
  ASSERT_TRUE(benefactor.PutChunkBatch(put).ok());

  // A "malicious donor" flips bits in the stored chunk file.
  fs::path chunk_file;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) chunk_file = entry.path();
  }
  ASSERT_FALSE(chunk_file.empty());
  {
    std::fstream f(chunk_file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    char evil = 0x66;
    f.write(&evil, 1);
  }

  // The lookup serves the tampered bytes; the content check rejects them.
  auto got = benefactor.ReadChunk(id);
  ASSERT_TRUE(got.ok()) << got.status();
  Status verified = Benefactor::VerifyChunk(id, got.value());
  EXPECT_FALSE(verified.ok());
  EXPECT_EQ(verified.code(), StatusCode::kDataLoss);

  fs::remove_all(dir);
}

TEST(IntegrityTest, ReaderFailsOverFromCorruptReplicaToGoodOne) {
  // Two replicas on memory donors, and the link to the first replica of
  // every chunk is cut: the reader must fail over to the second. A memory
  // donor's bytes cannot be altered through the public API (PutChunkBatch's
  // content check is the guard), so this case models the bad replica as
  // unreachable. Disk donors can be corrupted for real: see
  // ReadAllFailsOverFromATamperedDiskReplica.
  ClusterOptions options;
  options.benefactor_count = 3;
  options.client.stripe_width = 2;
  options.client.chunk_size = 1024;
  options.client.semantics = WriteSemantics::kPessimistic;
  options.client.replication_target = 2;
  StdchkCluster cluster(options);
  Rng rng(2);
  Bytes data = rng.RandomBytes(4096);
  ASSERT_TRUE(
      cluster.client().WriteFile(CheckpointName{"a", "n", 1}, data).ok());

  // Make the first replica of every chunk unreachable.
  auto record = cluster.manager().GetVersion(CheckpointName{"a", "n", 1});
  ASSERT_TRUE(record.ok());
  NodeId first = record.value().chunk_map.chunks[0].replicas[0];
  cluster.transport().SetUnreachable(first, true);

  auto read_back = cluster.client().ReadFile(CheckpointName{"a", "n", 1});
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);
}

TEST(IntegrityTest, ReadAllFailsOverFromATamperedDiskReplica) {
  auto dir = fs::temp_directory_path() / "stdchk_integrity_tampered_replica";
  fs::remove_all(dir);
  constexpr std::size_t kChunk = 64 * 1024;
  ClusterOptions options;
  options.benefactor_count = 4;
  options.disk_root = dir.string();
  options.client.stripe_width = 2;
  options.client.chunk_size = kChunk;
  options.client.semantics = WriteSemantics::kPessimistic;
  options.client.replication_target = 2;
  {
    StdchkCluster cluster(options);
    CheckpointName name{"a", "disk", 1};
    Rng rng(3);
    Bytes data = rng.RandomBytes(8 * kChunk);
    ASSERT_TRUE(cluster.client().WriteFile(name, data).ok());

    // The reader's first pick for chunk 0 is its first replica: a donor
    // flips one byte of that copy on disk.
    auto record = cluster.manager().GetVersion(name);
    ASSERT_TRUE(record.ok());
    const ChunkLocation& chunk0 = record.value().chunk_map.chunks[0];
    ASSERT_EQ(chunk0.replicas.size(), 2u);
    NodeId bad = chunk0.replicas[0];
    const Benefactor* donor = nullptr;
    for (std::size_t i = 0; i < 4; ++i) {
      if (cluster.benefactor(i).id() == bad) donor = &cluster.benefactor(i);
    }
    ASSERT_NE(donor, nullptr);
    ASSERT_TRUE(FlipStoredByte(dir / donor->host(),
                               ByteSpan(data).subspan(0, chunk0.size)));

    auto session = cluster.client().OpenFile(name);
    ASSERT_TRUE(session.ok());
    auto read_back = session.value()->ReadAll();
    ASSERT_TRUE(read_back.ok()) << read_back.status();
    EXPECT_EQ(read_back.value(), data);
    EXPECT_GT(session.value()->stats().failovers, 0u);

    // Asked directly, the bad donor serves no bytes for the chunk.
    LocalTransport& transport = cluster.transport();
    auto single =
        transport.Wait(transport.Submit(ChunkOp::GetBatch(bad, {chunk0.id})));
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single.value().status.code(), StatusCode::kDataLoss);
    EXPECT_TRUE(single.value().batch.empty());
    auto batch =
        transport.Wait(transport.Submit(ChunkOp::GetBatch(bad, {chunk0.id})));
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch.value().status.code(), StatusCode::kDataLoss);
    EXPECT_TRUE(batch.value().batch.empty());
    EXPECT_EQ(SubmitAndWait(transport, ChunkOp::GetBatch(bad, {chunk0.id}))
                  .status.code(),
              StatusCode::kDataLoss);
    std::vector<ChunkId> ids{chunk0.id};
    EXPECT_EQ(
        SubmitAndWait(transport, ChunkOp::GetBatch(bad, ids)).status.code(),
        StatusCode::kDataLoss);
  }
  fs::remove_all(dir);
}

TEST(IntegrityTest, PutRejectsMismatchedContentEvenViaTransport) {
  ClusterOptions options;
  options.benefactor_count = 1;
  StdchkCluster cluster(options);
  Bytes data = ToBytes("legit");
  ChunkId wrong = ChunkId::For(ToBytes("other"));
  ChunkOp put = ChunkOp::PutBatch(cluster.benefactor(0).id(),
                                  {{wrong, BufferSlice::Copy(data)}});
  EXPECT_EQ(SubmitAndWait(cluster.transport(), std::move(put)).status.code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace stdchk
