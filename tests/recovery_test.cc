// Manager-failure recovery (paper §IV.A): a manager crash before the client
// pushes its final chunk map must not lose the write — the client stashes
// the map on the stripe's benefactors, and the recovered manager commits it
// once two-thirds of the stripe concur.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/rng.h"
#include "core/cluster.h"

namespace stdchk {
namespace {

CheckpointName Name(std::uint64_t t) { return CheckpointName{"app", "n1", t}; }

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() {
    ClusterOptions options;
    options.benefactor_count = 4;
    options.client.stripe_width = 3;
    options.client.chunk_size = 1024;
    cluster_ = std::make_unique<StdchkCluster>(options);
  }

  std::unique_ptr<StdchkCluster> cluster_;
  Rng rng_{5};
};

TEST_F(RecoveryTest, ManagerCrashAtCommitStashesOnBenefactors) {
  auto session = cluster_->client().CreateFile(Name(1));
  ASSERT_TRUE(session.ok());
  Bytes data = rng_.RandomBytes(6 * 1024);
  ASSERT_TRUE(session.value()->Write(data).ok());

  cluster_->manager().Crash();
  auto outcome = session.value()->Close();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome.value(), CloseOutcome::kStashedForRecovery);

  // At least the stripe width of benefactors hold the stashed map.
  std::size_t stashed = 0;
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    stashed += cluster_->benefactor(i).stashed_count();
  }
  EXPECT_GE(stashed, 3u);
}

TEST_F(RecoveryTest, RecoveredManagerCommitsStashedVersion) {
  auto session = cluster_->client().CreateFile(Name(1));
  ASSERT_TRUE(session.ok());
  Bytes data = rng_.RandomBytes(6 * 1024);
  ASSERT_TRUE(session.value()->Write(data).ok());
  cluster_->manager().Crash();
  ASSERT_TRUE(session.value()->Close().ok());

  cluster_->manager().Restart();
  cluster_->Tick(1.0);  // benefactors offer stashed maps

  auto read_back = cluster_->client().ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(read_back.value(), data);

  // Stashes are dropped once committed.
  cluster_->Tick(1.0);
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    EXPECT_EQ(cluster_->benefactor(i).stashed_count(), 0u);
  }
}

TEST_F(RecoveryTest, RecoveryNeedsTwoThirdsOfStripe) {
  auto session = cluster_->client().CreateFile(Name(1));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Write(rng_.RandomBytes(6 * 1024)).ok());
  cluster_->manager().Crash();
  ASSERT_TRUE(session.value()->Close().ok());

  // Find which benefactors hold a stash; keep only one alive.
  std::vector<std::size_t> stash_holders;
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    if (cluster_->benefactor(i).stashed_count() > 0) stash_holders.push_back(i);
  }
  ASSERT_GE(stash_holders.size(), 3u);
  for (std::size_t i = 1; i < stash_holders.size(); ++i) {
    cluster_->benefactor(stash_holders[i]).Crash();
  }

  cluster_->manager().Restart();
  cluster_->Tick(1.0);
  // One endorsement of a width-3 stripe: below quorum, not committed.
  EXPECT_FALSE(cluster_->manager().GetVersion(Name(1)).ok());

  // Second holder returns: quorum reached and the version commits.
  cluster_->benefactor(stash_holders[1]).Restart();
  cluster_->Tick(1.0);
  cluster_->Tick(1.0);
  EXPECT_TRUE(cluster_->manager().GetVersion(Name(1)).ok());

  // With every stripe member back, the data itself is readable too.
  for (std::size_t idx : stash_holders) {
    (void)cluster_->RestartBenefactor(idx);
  }
  EXPECT_TRUE(cluster_->client().ReadFile(Name(1)).ok());
}

TEST_F(RecoveryTest, RecoveredVersionSupportsFurtherWrites) {
  auto session = cluster_->client().CreateFile(Name(1));
  ASSERT_TRUE(session.ok());
  Bytes v1 = rng_.RandomBytes(3 * 1024);
  ASSERT_TRUE(session.value()->Write(v1).ok());
  cluster_->manager().Crash();
  ASSERT_TRUE(session.value()->Close().ok());
  cluster_->manager().Restart();
  cluster_->Tick(1.0);

  // Normal operation continues: next timestep commits directly.
  Bytes v2 = rng_.RandomBytes(3 * 1024);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(2), v2).ok());
  EXPECT_EQ(cluster_->manager().catalog().TotalVersions(), 2u);
}

TEST_F(RecoveryTest, CommittedDataUnaffectedByManagerBounce) {
  Bytes data = rng_.RandomBytes(4 * 1024);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), data).ok());
  cluster_->manager().Crash();
  EXPECT_FALSE(cluster_->client().ReadFile(Name(1)).ok());  // manager down
  cluster_->manager().Restart();
  auto read_back = cluster_->client().ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);
}

// A disk-donating benefactor process dies and comes back: a fresh store
// over the same directory recovers the segment log, and the rebuilt node
// re-offers every surviving chunk to the manager's GC exchange (the
// paper's soft-state re-registration story, now backed by real recovery).
TEST(BenefactorRestartTest, DiskBenefactorRejoinsWithRecoveredChunks) {
  auto dir = std::filesystem::temp_directory_path() /
             ("stdchk_benefactor_restart_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  Rng rng(23);
  std::vector<std::pair<ChunkId, Bytes>> chunks;
  std::vector<ChunkPut> batch;
  for (int i = 0; i < 6; ++i) {
    Bytes data = rng.RandomBytes(2048);
    chunks.emplace_back(ChunkId::For(data), data);
    batch.push_back(ChunkPut{chunks.back().first, BufferSlice::Copy(data)});
  }

  {  // First life: admit a generation, then the process dies (no cleanup).
    auto store = MakeDiskChunkStore(dir.string());
    ASSERT_TRUE(store.ok());
    Benefactor node("desk0", std::move(store).value(), 1_GiB);
    ASSERT_TRUE(node.PutChunkBatch(batch).ok());
  }

  // Second life: a new store over the same directory, a new registration.
  VirtualClock clock;
  MetadataManager manager(&clock);
  auto store = MakeDiskChunkStore(dir.string());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->Stats().recovered_chunks, chunks.size());
  Benefactor reborn("desk0", std::move(store).value(), 1_GiB);
  ASSERT_TRUE(reborn.JoinPool(manager).ok());
  EXPECT_EQ(reborn.ChunkCount(), chunks.size());
  for (const auto& [id, data] : chunks) {
    auto got = reborn.ReadChunk(id);  // served
    ASSERT_TRUE(got.ok()) << got.status();
    // SHA-1-verified.
    EXPECT_TRUE(Benefactor::VerifyChunk(id, got.value()).ok());
    EXPECT_EQ(got.value(), data);
  }

  // The GC exchange sees the recovered holdings; with no live catalog
  // entries they are orphans, so the manager reclaims all of them.
  auto reclaimed = reborn.RunGc(manager);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(reclaimed.value(), chunks.size());
  EXPECT_EQ(reborn.ChunkCount(), 0u);

  std::filesystem::remove_all(dir);
}

TEST_F(RecoveryTest, GcDoesNotCollectStashedDataBeforeRecovery) {
  auto session = cluster_->client().CreateFile(Name(1));
  ASSERT_TRUE(session.ok());
  Bytes data = rng_.RandomBytes(6 * 1024);
  ASSERT_TRUE(session.value()->Write(data).ok());
  cluster_->manager().Crash();
  ASSERT_TRUE(session.value()->Close().ok());

  cluster_->manager().Restart();
  // Many GC rounds; recovery offers happen in the same Tick loop, so data
  // must survive and become readable.
  for (int i = 0; i < 80; ++i) cluster_->Tick(1.0);
  auto read_back = cluster_->client().ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(read_back.value(), data);
}

}  // namespace
}  // namespace stdchk
