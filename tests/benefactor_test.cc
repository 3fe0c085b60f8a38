#include "benefactor/benefactor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/hash_pool.h"
#include "common/rng.h"

namespace stdchk {
namespace {

// One chunk as a batch of one, the only put a benefactor admits.
Status PutOne(Benefactor& node, const ChunkId& id, ByteSpan data) {
  ChunkPut put{id, BufferSlice::Copy(data)};
  return node.PutChunkBatch(std::span<const ChunkPut>(&put, 1));
}

class BenefactorTest : public ::testing::Test {
 protected:
  BenefactorTest()
      : manager_(&clock_),
        benefactor_("desk0", MakeMemoryChunkStore(), /*capacity=*/4096) {}

  VirtualClock clock_;
  MetadataManager manager_;
  Benefactor benefactor_;
};

TEST_F(BenefactorTest, JoinPoolAssignsId) {
  EXPECT_EQ(benefactor_.id(), kInvalidNode);
  ASSERT_TRUE(benefactor_.JoinPool(manager_).ok());
  EXPECT_NE(benefactor_.id(), kInvalidNode);
  EXPECT_TRUE(manager_.registry().IsOnline(benefactor_.id()));
}

TEST_F(BenefactorTest, PutVerifiesContentAddress) {
  Bytes data = ToBytes("checkpoint chunk data");
  ChunkId right = ChunkId::For(data);
  ChunkId wrong = ChunkId::For(ToBytes("other"));
  EXPECT_TRUE(PutOne(benefactor_, right, data).ok());
  EXPECT_EQ(PutOne(benefactor_, wrong, data).code(), StatusCode::kDataLoss);
}

TEST_F(BenefactorTest, GetVerifiesIntegrity) {
  Bytes data = ToBytes("some bytes");
  ChunkId id = ChunkId::For(data);
  ASSERT_TRUE(PutOne(benefactor_, id, data).ok());
  auto got = benefactor_.ReadChunk(id);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(Benefactor::VerifyChunk(id, got.value()).ok());
  EXPECT_EQ(got.value(), data);
}

TEST_F(BenefactorTest, CapacityEnforced) {
  Rng rng(1);
  Bytes big = rng.RandomBytes(3000);
  Bytes more = rng.RandomBytes(2000);
  ASSERT_TRUE(PutOne(benefactor_, ChunkId::For(big), big).ok());
  EXPECT_EQ(PutOne(benefactor_, ChunkId::For(more), more).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(benefactor_.FreeBytes(), 4096u - 3000u);
}

TEST_F(BenefactorTest, RePutOfExistingChunkBypassesCapacityCheck) {
  Rng rng(2);
  Bytes data = rng.RandomBytes(4000);
  ChunkId id = ChunkId::For(data);
  ASSERT_TRUE(PutOne(benefactor_, id, data).ok());
  // Same chunk again: no additional space needed.
  EXPECT_TRUE(PutOne(benefactor_, id, data).ok());
  EXPECT_EQ(benefactor_.ChunkCount(), 1u);
}

TEST_F(BenefactorTest, CrashRejectsOperationsButKeepsData) {
  Bytes data = ToBytes("persist me");
  ChunkId id = ChunkId::For(data);
  ASSERT_TRUE(PutOne(benefactor_, id, data).ok());

  benefactor_.Crash();
  EXPECT_FALSE(benefactor_.online());
  EXPECT_EQ(PutOne(benefactor_, id, data).code(), StatusCode::kUnavailable);
  EXPECT_EQ(benefactor_.ReadChunk(id).status().code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(benefactor_.HasChunk(id));  // unavailable while down

  benefactor_.Restart();
  EXPECT_TRUE(benefactor_.HasChunk(id));
  auto got = benefactor_.ReadChunk(id);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(Benefactor::VerifyChunk(id, got.value()).ok());
}

TEST_F(BenefactorTest, WipeDestroysData) {
  Bytes data = ToBytes("gone");
  ChunkId id = ChunkId::For(data);
  ASSERT_TRUE(PutOne(benefactor_, id, data).ok());
  benefactor_.Wipe();
  benefactor_.Restart();
  EXPECT_FALSE(benefactor_.HasChunk(id));
  EXPECT_EQ(benefactor_.BytesUsed(), 0u);
}

TEST_F(BenefactorTest, HeartbeatRequiresJoin) {
  EXPECT_EQ(benefactor_.SendHeartbeat(manager_).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(benefactor_.JoinPool(manager_).ok());
  EXPECT_TRUE(benefactor_.SendHeartbeat(manager_).ok());
}

TEST_F(BenefactorTest, RunGcDeletesWhatManagerSays) {
  ASSERT_TRUE(benefactor_.JoinPool(manager_).ok());
  Bytes orphan = ToBytes("orphan chunk");
  ASSERT_TRUE(PutOne(benefactor_, ChunkId::For(orphan), orphan).ok());

  auto reclaimed = benefactor_.RunGc(manager_);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(reclaimed.value(), 1u);
  EXPECT_EQ(benefactor_.ChunkCount(), 0u);
}

TEST_F(BenefactorTest, StashAndOfferRecoveredVersions) {
  ASSERT_TRUE(benefactor_.JoinPool(manager_).ok());
  Benefactor peer("desk1", MakeMemoryChunkStore(), 4096);
  ASSERT_TRUE(peer.JoinPool(manager_).ok());

  VersionRecord record;
  record.name = CheckpointName{"app", "n", 1};
  ChunkLocation loc;
  loc.id = ChunkId::For(ToBytes("c"));
  loc.size = 1;
  loc.replicas = {benefactor_.id()};
  record.chunk_map.chunks.push_back(loc);
  record.size = 1;

  ASSERT_TRUE(benefactor_.StashChunkMap(record, /*stripe_width=*/2).ok());
  ASSERT_TRUE(peer.StashChunkMap(record, 2).ok());
  EXPECT_EQ(benefactor_.stashed_count(), 1u);

  // First offer: 1 of 2 endorsements — version not yet committed, and the
  // benefactor keeps the stash until it is.
  ASSERT_TRUE(benefactor_.OfferStashedVersions(manager_).ok());
  EXPECT_FALSE(manager_.GetVersion(record.name).ok());

  ASSERT_TRUE(peer.OfferStashedVersions(manager_).ok());
  EXPECT_TRUE(manager_.GetVersion(record.name).ok());
}

// Receive-side verify fan-out: batch admission re-hashes unstamped chunks
// on the shared HashPool. Runs `body` on an idle pool, then again while
// three threads loop ParallelFor on it, so admission checks run both on
// pool workers and on the caller; the outcome must not depend on which.
template <typename Body>
void OnIdleAndBusyPool(const Body& body) {
  {
    SCOPED_TRACE("idle pool");
    body();
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> hogs;
  for (int t = 0; t < 3; ++t) {
    hogs.emplace_back([&stop] {
      std::vector<std::uint64_t> sink(64);
      auto spin = [&sink](std::size_t i) {
        std::uint64_t x = i;
        for (int r = 0; r < 20000; ++r) x = x * 6364136223846793005ull + 1;
        sink[i] = x;
      };
      while (!stop.load(std::memory_order_relaxed)) {
        HashPool::Shared().ParallelFor(sink.size(),
                                       static_cast<int>(sink.size()), spin);
      }
    });
  }
  {
    SCOPED_TRACE("busy pool");
    body();
  }
  stop.store(true);
  for (std::thread& t : hogs) t.join();
}

// BufferSlice::Copy drops any stamp: every chunk pays the re-hash, like a
// batch that crossed a re-materializing boundary.
std::vector<ChunkPut> UnstampedBatch(const std::vector<Bytes>& payloads) {
  std::vector<ChunkPut> batch;
  for (const Bytes& data : payloads) {
    batch.push_back(ChunkPut{ChunkId::For(data), BufferSlice::Copy(data)});
  }
  return batch;
}

TEST(BenefactorVerifyFanOutTest, UnstampedBatchAdmittedOnIdleAndBusyPool) {
  Rng rng(41);
  std::vector<Bytes> payloads;
  for (int i = 0; i < 32; ++i) payloads.push_back(rng.RandomBytes(1024));

  OnIdleAndBusyPool([&payloads] {
    Benefactor node("donor", MakeMemoryChunkStore(), 1_GiB);
    Status status = node.PutChunkBatch(UnstampedBatch(payloads));
    ASSERT_TRUE(status.ok()) << status;
    ASSERT_EQ(node.ChunkCount(), payloads.size());
    for (const Bytes& data : payloads) {
      const ChunkId id = ChunkId::For(data);
      auto got = node.ReadChunk(id);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_TRUE(Benefactor::VerifyChunk(id, got.value()).ok());
      EXPECT_EQ(got.value(), data);
    }
  });
}

TEST(BenefactorVerifyFanOutTest, CorruptBatchRejectedOnIdleAndBusyPool) {
  Rng rng(42);
  std::vector<Bytes> payloads;
  for (int i = 0; i < 16; ++i) payloads.push_back(rng.RandomBytes(512));

  OnIdleAndBusyPool([&payloads] {
    Benefactor node("donor", MakeMemoryChunkStore(), 1_GiB);
    std::vector<ChunkPut> batch = UnstampedBatch(payloads);
    // Mispair one chunk's content address, mid-batch.
    batch[7].id = ChunkId::For(ToBytes("not those bytes"));

    EXPECT_EQ(node.PutChunkBatch(batch).code(), StatusCode::kDataLoss);
    // Whole-batch admission: nothing landed.
    EXPECT_EQ(node.ChunkCount(), 0u);
    EXPECT_EQ(node.BytesUsed(), 0u);
  });
}

TEST_F(BenefactorTest, StashWhileOfflineFails) {
  benefactor_.Crash();
  VersionRecord record;
  record.name = CheckpointName{"a", "n", 1};
  EXPECT_EQ(benefactor_.StashChunkMap(record, 1).code(),
            StatusCode::kUnavailable);
}

}  // namespace
}  // namespace stdchk
