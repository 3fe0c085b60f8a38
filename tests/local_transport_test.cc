#include "core/local_transport.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "common/rng.h"
#include "manager/virtual_clock.h"

namespace stdchk {
namespace {

class LocalTransportTest : public ::testing::Test {
 protected:
  LocalTransportTest() : manager_(&clock_) {
    for (int i = 0; i < 2; ++i) {
      auto b = std::make_unique<Benefactor>("d" + std::to_string(i),
                                            MakeMemoryChunkStore(), 1_GiB);
      EXPECT_TRUE(b->JoinPool(manager_).ok());
      transport_.AddEndpoint(b.get());
      benefactors_.push_back(std::move(b));
    }
  }

  VirtualClock clock_;
  MetadataManager manager_;
  LocalTransport transport_;
  std::vector<std::unique_ptr<Benefactor>> benefactors_;
};

TEST_F(LocalTransportTest, RoutesPutAndGet) {
  Bytes data = ToBytes("transported chunk");
  ChunkId id = ChunkId::For(data);
  NodeId node = benefactors_[0]->id();
  ASSERT_TRUE(transport_.PutChunk(node, id, data).ok());
  auto got = transport_.GetChunk(node, id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), data);
  EXPECT_EQ(transport_.bytes_moved(), 2 * data.size());
  EXPECT_GE(transport_.rpc_count(), 2u);
}

TEST_F(LocalTransportTest, UnknownNodeIsUnroutable) {
  Bytes data = ToBytes("x");
  EXPECT_EQ(transport_.PutChunk(777, ChunkId::For(data), data).code(),
            StatusCode::kUnavailable);
}

TEST_F(LocalTransportTest, UnreachableCutsTheLink) {
  Bytes data = ToBytes("y");
  ChunkId id = ChunkId::For(data);
  NodeId node = benefactors_[0]->id();
  transport_.SetUnreachable(node, true);
  EXPECT_EQ(transport_.PutChunk(node, id, data).code(),
            StatusCode::kUnavailable);
  // The node itself is fine — it is the network that is down.
  EXPECT_TRUE(benefactors_[0]->online());

  transport_.SetUnreachable(node, false);
  EXPECT_TRUE(transport_.PutChunk(node, id, data).ok());
}

TEST_F(LocalTransportTest, LossRateDropsSomeRpcs) {
  Bytes data = ToBytes("z");
  ChunkId id = ChunkId::For(data);
  NodeId node = benefactors_[0]->id();
  transport_.SetLossRate(node, 0.5);
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    if (!transport_.PutChunk(node, id, data).ok()) ++failures;
  }
  EXPECT_GT(failures, 50);
  EXPECT_LT(failures, 150);
}

TEST_F(LocalTransportTest, CopyChunkMovesBetweenNodes) {
  Bytes data = ToBytes("replicate me");
  ChunkId id = ChunkId::For(data);
  NodeId a = benefactors_[0]->id();
  NodeId b = benefactors_[1]->id();
  ASSERT_TRUE(transport_.PutChunk(a, id, data).ok());
  ASSERT_TRUE(transport_.CopyChunk(id, a, b).ok());
  EXPECT_TRUE(benefactors_[1]->HasChunk(id));

  // Copy from a node that lacks the chunk fails.
  ChunkId missing = ChunkId::For(ToBytes("missing"));
  EXPECT_FALSE(transport_.CopyChunk(missing, a, b).ok());
}

TEST_F(LocalTransportTest, StashRoutedToNode) {
  VersionRecord record;
  record.name = CheckpointName{"a", "n", 1};
  NodeId node = benefactors_[0]->id();
  ASSERT_TRUE(transport_.StashChunkMap(node, record, 2).ok());
  EXPECT_EQ(benefactors_[0]->stashed_count(), 1u);
}

// ---- Concurrent clients ----------------------------------------------------
// The transport lock covers only routing and bookkeeping: benefactor calls
// from different threads run side by side, and each donor serializes its
// own admission.

// A memory store whose first PutBatch blocks until the test releases it —
// a donor stuck in a slow append + fsync.
class GatedStore final : public ChunkStore {
 public:
  GatedStore(std::promise<void>* entered, std::shared_future<void> release)
      : entered_(entered), release_(std::move(release)) {}

  using ChunkStore::Put;
  Status Put(const ChunkId& id, BufferSlice data) override {
    return inner_->Put(id, std::move(data));
  }
  Status PutBatch(std::span<const ChunkPut> puts) override {
    if (!gated_.exchange(true)) {
      entered_->set_value();
      release_.wait();
    }
    return inner_->PutBatch(puts);
  }
  Result<BufferSlice> Get(const ChunkId& id) const override {
    return inner_->Get(id);
  }
  bool Contains(const ChunkId& id) const override {
    return inner_->Contains(id);
  }
  Status Delete(const ChunkId& id) override { return inner_->Delete(id); }
  std::vector<ChunkId> List() const override { return inner_->List(); }
  std::uint64_t BytesUsed() const override { return inner_->BytesUsed(); }
  std::size_t ChunkCount() const override { return inner_->ChunkCount(); }

 private:
  std::unique_ptr<ChunkStore> inner_ = MakeMemoryChunkStore();
  std::promise<void>* entered_;
  std::shared_future<void> release_;
  std::atomic<bool> gated_{false};
};

TEST(LocalTransportConcurrencyTest, BlockedPutOnOneDonorDoesNotStallAnother) {
  using std::chrono::seconds;
  std::promise<void> entered;
  std::promise<void> release;
  std::future<void> put_entered = entered.get_future();
  VirtualClock clock;
  MetadataManager manager(&clock);
  LocalTransport transport;
  Benefactor slow("slow", std::make_unique<GatedStore>(
                              &entered, release.get_future().share()),
                  1_GiB);
  Benefactor fast("fast", MakeMemoryChunkStore(), 1_GiB);
  ASSERT_TRUE(slow.JoinPool(manager).ok());
  ASSERT_TRUE(fast.JoinPool(manager).ok());
  transport.AddEndpoint(&slow);
  transport.AddEndpoint(&fast);

  Bytes stored = ToBytes("already on the fast donor");
  ChunkId stored_id = ChunkId::For(stored);
  ASSERT_TRUE(transport.PutChunk(fast.id(), stored_id, stored).ok());

  Bytes stuck = ToBytes("stuck behind a slow fsync");
  std::vector<ChunkPut> puts{ChunkPut{ChunkId::For(stuck),
                                      BufferSlice::Copy(stuck)}};
  auto put = std::async(std::launch::async, [&] {
    return transport.PutChunkBatch(slow.id(), puts);
  });
  bool put_blocked =
      put_entered.wait_for(seconds(5)) == std::future_status::ready;
  auto get = std::async(std::launch::async, [&] {
    return transport.GetChunk(fast.id(), stored_id);
  });
  bool get_done = get.wait_for(seconds(5)) == std::future_status::ready;
  release.set_value();  // before any assertion, so a failing run still ends

  ASSERT_TRUE(put_blocked) << "the put never reached the slow donor's store";
  EXPECT_TRUE(get_done)
      << "a GET to one donor waited for a put blocked on another";
  Result<BufferSlice> got = get.get();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value(), stored);
  EXPECT_TRUE(put.get().ok());
  EXPECT_TRUE(slow.HasChunk(ChunkId::For(stuck)));
}

TEST(LocalTransportConcurrencyTest, RacingBatchesNeverOvercommitADonor) {
  constexpr std::size_t kChunkBytes = 1024;
  constexpr std::size_t kChunksPerBatch = 4;
  constexpr int kIterations = 200;
  VirtualClock clock;
  MetadataManager manager(&clock);
  LocalTransport transport;
  // Room for one batch and a half: either batch fits, both do not.
  Benefactor donor("d0", MakeMemoryChunkStore(),
                   3 * kChunksPerBatch * kChunkBytes / 2);
  ASSERT_TRUE(donor.JoinPool(manager).ok());
  transport.AddEndpoint(&donor);

  Rng rng(17);
  for (int iter = 0; iter < kIterations; ++iter) {
    std::array<std::vector<ChunkPut>, 2> batches;
    for (std::vector<ChunkPut>& batch : batches) {
      for (std::size_t c = 0; c < kChunksPerBatch; ++c) {
        Bytes data = rng.RandomBytes(kChunkBytes);
        batch.push_back(ChunkPut{ChunkId::For(data), BufferSlice::Copy(data)});
      }
    }
    std::array<Status, 2> results;
    std::atomic<int> arrived{0};
    auto submit = [&](std::size_t b) {
      arrived.fetch_add(1);
      while (arrived.load() < 2) std::this_thread::yield();
      results[b] = transport.PutChunkBatch(donor.id(), batches[b]);
    };
    std::thread first(submit, 0);
    std::thread second(submit, 1);
    first.join();
    second.join();

    int admitted = static_cast<int>(results[0].ok()) +
                   static_cast<int>(results[1].ok());
    ASSERT_EQ(admitted, 1) << "iteration " << iter;
    const Status& loser = results[0].ok() ? results[1] : results[0];
    EXPECT_EQ(loser.code(), StatusCode::kResourceExhausted);
    ASSERT_LE(donor.BytesUsed(), donor.capacity()) << "iteration " << iter;
    EXPECT_EQ(donor.ChunkCount(), kChunksPerBatch);

    donor.Wipe();
    donor.Restart();
  }
}

}  // namespace
}  // namespace stdchk
