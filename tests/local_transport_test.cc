#include "core/local_transport.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <thread>

#include "common/rng.h"
#include "disk_tamper.h"
#include "manager/virtual_clock.h"
#include "submit_and_wait.h"

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
  ChunkOp put = ChunkOp::PutBatch(node, {{id, BufferSlice::Copy(data)}});
  ASSERT_TRUE(SubmitAndWait(transport_, std::move(put)).status.ok());
  OpCompletion got = SubmitAndWait(transport_, ChunkOp::GetBatch(node, {id}));
  ASSERT_TRUE(got.status.ok());
  ASSERT_EQ(got.batch.size(), 1u);
  EXPECT_EQ(got.batch[0], data);
  EXPECT_EQ(transport_.bytes_moved(), 2 * data.size());
  EXPECT_GE(transport_.rpc_count(), 2u);
}

TEST_F(LocalTransportTest, UnknownNodeIsUnroutable) {
  Bytes data = ToBytes("x");
  ChunkOp put =
      ChunkOp::PutBatch(777, {{ChunkId::For(data), BufferSlice::Copy(data)}});
  EXPECT_EQ(SubmitAndWait(transport_, std::move(put)).status.code(),
            StatusCode::kUnavailable);
}

TEST_F(LocalTransportTest, UnreachableCutsTheLink) {
  Bytes data = ToBytes("y");
  ChunkId id = ChunkId::For(data);
  NodeId node = benefactors_[0]->id();
  transport_.SetUnreachable(node, true);
  ChunkOp put = ChunkOp::PutBatch(node, {{id, BufferSlice::Copy(data)}});
  EXPECT_EQ(SubmitAndWait(transport_, std::move(put)).status.code(),
            StatusCode::kUnavailable);
  // The node itself is fine — it is the network that is down.
  EXPECT_TRUE(benefactors_[0]->online());

  transport_.SetUnreachable(node, false);
  put = ChunkOp::PutBatch(node, {{id, BufferSlice::Copy(data)}});
  EXPECT_TRUE(SubmitAndWait(transport_, std::move(put)).status.ok());
}

TEST_F(LocalTransportTest, LossRateDropsSomeRpcs) {
  Bytes data = ToBytes("z");
  ChunkId id = ChunkId::For(data);
  NodeId node = benefactors_[0]->id();
  transport_.SetLossRate(node, 0.5);
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    ChunkOp put = ChunkOp::PutBatch(node, {{id, BufferSlice::Copy(data)}});
    if (!SubmitAndWait(transport_, std::move(put)).status.ok()) ++failures;
  }
  EXPECT_GT(failures, 50);
  EXPECT_LT(failures, 150);
}

TEST_F(LocalTransportTest, StashRoutedToNode) {
  VersionRecord record;
  record.name = CheckpointName{"a", "n", 1};
  NodeId node = benefactors_[0]->id();
  ASSERT_TRUE(
      SubmitAndWait(transport_, ChunkOp::Stash(node, record, 2)).status.ok());
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
  ASSERT_TRUE(SubmitAndWait(transport, ChunkOp::PutBatch(
                                 fast.id(),
                                 {{stored_id, BufferSlice::Copy(stored)}}))
                  .status.ok());

  Bytes stuck = ToBytes("stuck behind a slow fsync");
  std::vector<ChunkPut> puts{ChunkPut{ChunkId::For(stuck),
                                      BufferSlice::Copy(stuck)}};
  auto put = std::async(std::launch::async, [&] {
    return SubmitAndWait(transport, ChunkOp::PutBatch(slow.id(), puts)).status;
  });
  bool put_blocked =
      put_entered.wait_for(seconds(5)) == std::future_status::ready;
  auto get = std::async(std::launch::async, [&] {
    return SubmitAndWait(transport, ChunkOp::GetBatch(fast.id(), {stored_id}));
  });
  bool get_done = get.wait_for(seconds(5)) == std::future_status::ready;
  release.set_value();  // before any assertion, so a failing run still ends

  ASSERT_TRUE(put_blocked) << "the put never reached the slow donor's store";
  EXPECT_TRUE(get_done)
      << "a GET to one donor waited for a put blocked on another";
  OpCompletion got = get.get();
  ASSERT_TRUE(got.status.ok()) << got.status;
  ASSERT_EQ(got.batch.size(), 1u);
  EXPECT_EQ(got.batch[0], stored);
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
      ChunkOp put = ChunkOp::PutBatch(donor.id(), batches[b]);
      results[b] = SubmitAndWait(transport, std::move(put)).status;
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

// ---- Deferred read checks --------------------------------------------------
// A disk donor's reads come back unstamped: their lookup runs at Submit, in
// order, and their content check runs on the shared HashPool until the
// completion is delivered. One stored record is tampered with on disk.

class DeferredReadCheckTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kChunk = 64 * 1024;

  DeferredReadCheckTest()
      : dir_(std::filesystem::temp_directory_path() /
             ("stdchk_deferred_check_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()))),
        manager_(&clock_) {
    std::filesystem::remove_all(dir_);
    auto store = MakeDiskChunkStore(dir_.string());
    EXPECT_TRUE(store.ok());
    donor_ = std::make_unique<Benefactor>("disk", std::move(store).value(),
                                          1_GiB);
    EXPECT_TRUE(donor_->JoinPool(manager_).ok());
    transport_.AddEndpoint(donor_.get());

    Rng rng(5);
    for (Bytes& data : clean_) {
      data = rng.RandomBytes(kChunk);
      std::vector<ChunkPut> put{{ChunkId::For(data), BufferSlice::Copy(data)}};
      EXPECT_TRUE(donor_->PutChunkBatch(put).ok());
    }
    Bytes tampered = rng.RandomBytes(kChunk);
    tampered_ = ChunkId::For(tampered);
    std::vector<ChunkPut> put{{tampered_, BufferSlice::Copy(tampered)}};
    EXPECT_TRUE(donor_->PutChunkBatch(put).ok());
    EXPECT_TRUE(FlipStoredByte(dir_, tampered));
    missing_ = ChunkId::For(rng.RandomBytes(kChunk));
  }
  ~DeferredReadCheckTest() override {
    std::filesystem::remove_all(dir_);
  }

  NodeId node() const { return donor_->id(); }
  ChunkId clean(std::size_t i) const { return ChunkId::For(clean_[i]); }
  OpHandle Get(const ChunkId& id) {
    return transport_.Submit(ChunkOp::GetBatch(node(), {id}));
  }

  std::filesystem::path dir_;
  VirtualClock clock_;
  MetadataManager manager_;
  LocalTransport transport_;
  std::unique_ptr<Benefactor> donor_;
  std::array<Bytes, 2> clean_;
  ChunkId tampered_;
  ChunkId missing_;
};

TEST_F(DeferredReadCheckTest, WaitDeliversDataLossWithoutPayload) {
  auto c = transport_.Wait(Get(tampered_));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().status.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(c.value().batch.empty());
  EXPECT_EQ(transport_.InFlight(), 0u);
}

TEST_F(DeferredReadCheckTest, WaitAnyDeliversDataLossWithoutPayload) {
  OpHandle h = Get(tampered_);
  auto c = transport_.WaitAny(std::span<const OpHandle>(&h, 1));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().handle, h);
  EXPECT_EQ(c.value().status.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(c.value().batch.empty());
}

TEST_F(DeferredReadCheckTest, PollDeliversDataLossWithoutPayload) {
  // Zero-cost links: the op is finished at the modeled clock at once.
  OpHandle h = Get(tampered_);
  std::optional<OpCompletion> c =
      transport_.Poll(std::span<const OpHandle>(&h, 1));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->status.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(c->batch.empty());
  EXPECT_EQ(transport_.InFlight(), 0u);
}

TEST_F(DeferredReadCheckTest, WaitAnyDeliversInSubmissionOrder) {
  std::vector<OpHandle> handles = {Get(clean(0)), Get(tampered_),
                                   Get(clean(1))};
  std::vector<OpHandle> open = handles;
  for (std::size_t k = 0; k < handles.size(); ++k) {
    auto c = transport_.WaitAny(open);
    ASSERT_TRUE(c.ok());
    ASSERT_EQ(c.value().handle, handles[k]) << k;
    open.erase(std::find(open.begin(), open.end(), handles[k]));
    if (k == 1) {
      EXPECT_EQ(c.value().status.code(), StatusCode::kDataLoss);
      EXPECT_TRUE(c.value().batch.empty());
    } else {
      ASSERT_TRUE(c.value().status.ok()) << c.value().status;
      ASSERT_EQ(c.value().batch.size(), 1u);
      EXPECT_EQ(c.value().batch[0], clean_[k == 0 ? 0 : 1]);
    }
  }
}

TEST_F(DeferredReadCheckTest, CancelDropsAnUncheckedGet) {
  OpHandle bad = Get(tampered_);
  OpHandle good = Get(clean(0));
  EXPECT_TRUE(transport_.Cancel(bad));
  EXPECT_TRUE(transport_.Cancel(good));
  EXPECT_FALSE(transport_.Cancel(bad));
  EXPECT_EQ(transport_.Wait(good).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(transport_.InFlight(), 0u);
}

TEST_F(DeferredReadCheckTest, BatchDeliversTheFirstFailureInIdOrder) {
  auto batch = [&](std::vector<ChunkId> ids) {
    auto c = transport_.Wait(
        transport_.Submit(ChunkOp::GetBatch(node(), std::move(ids))));
    EXPECT_TRUE(c.ok());
    return std::move(c).value();
  };
  OpCompletion checked_first = batch({clean(0), tampered_, missing_});
  EXPECT_EQ(checked_first.status.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(checked_first.batch.empty());
  OpCompletion missing_first = batch({clean(0), missing_, tampered_});
  EXPECT_EQ(missing_first.status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(missing_first.batch.empty());

  OpCompletion clean_batch = batch({clean(1), clean(0)});
  ASSERT_TRUE(clean_batch.status.ok()) << clean_batch.status;
  ASSERT_EQ(clean_batch.batch.size(), 2u);
  EXPECT_EQ(clean_batch.batch[0], clean_[1]);
  EXPECT_EQ(clean_batch.batch[1], clean_[0]);
}

TEST_F(DeferredReadCheckTest, RejectedGetIsChargedLikeARejectedPut) {
  std::uint64_t before = transport_.bytes_moved();
  EXPECT_EQ(SubmitAndWait(transport_, ChunkOp::GetBatch(node(), {tampered_}))
                .status.code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(transport_.bytes_moved() - before, kChunk);

  before = transport_.bytes_moved();
  Bytes data = ToBytes("not the chunk its id names");
  ChunkOp put =
      ChunkOp::PutBatch(node(), {{missing_, BufferSlice::Copy(data)}});
  EXPECT_EQ(SubmitAndWait(transport_, std::move(put)).status.code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(transport_.bytes_moved() - before, data.size());

  // A failed lookup still moves nothing.
  before = transport_.bytes_moved();
  EXPECT_EQ(SubmitAndWait(transport_, ChunkOp::GetBatch(node(), {missing_}))
                .status.code(),
            StatusCode::kNotFound);
  EXPECT_EQ(transport_.bytes_moved(), before);
}

TEST_F(DeferredReadCheckTest, ConcurrentReadersGetTheirOwnVerdicts) {
  constexpr int kReaders = 3;
  constexpr int kRounds = 40;
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<OpHandle> handles = {Get(clean(0)), Get(tampered_),
                                         Get(clean(1))};
        std::vector<OpHandle> open = handles;
        for (std::size_t k = 0; k < handles.size(); ++k) {
          auto c = transport_.WaitAny(open);
          if (!c.ok() || c.value().handle != handles[k]) {
            wrong.fetch_add(1);
            return;
          }
          open.erase(std::find(open.begin(), open.end(), handles[k]));
          bool right = k == 1 ? c.value().status.code() ==
                                        StatusCode::kDataLoss &&
                                    c.value().batch.empty()
                              : c.value().status.ok() &&
                                    c.value().batch.size() == 1 &&
                                    c.value().batch[0] == clean_[k / 2];
          if (!right) wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(transport_.InFlight(), 0u);
}

// A memory donor's payloads keep the writer's stamp, so their check is an
// O(1) compare at Submit. This store serves another chunk's stamped bytes
// for one id, as a donor returning the wrong record would, and counts its
// lookups.
class SwappingStore final : public ChunkStore {
 public:
  SwappingStore(ChunkId swapped, ChunkId served)
      : swapped_(swapped), served_(served) {}

  using ChunkStore::Put;
  Status Put(const ChunkId& id, BufferSlice data) override {
    return inner_->Put(id, std::move(data));
  }
  Result<BufferSlice> Get(const ChunkId& id) const override {
    gets_.fetch_add(1);
    return inner_->Get(id == swapped_ ? served_ : id);
  }
  bool Contains(const ChunkId& id) const override {
    return inner_->Contains(id);
  }
  Status Delete(const ChunkId& id) override { return inner_->Delete(id); }
  std::vector<ChunkId> List() const override { return inner_->List(); }
  std::uint64_t BytesUsed() const override { return inner_->BytesUsed(); }
  std::size_t ChunkCount() const override { return inner_->ChunkCount(); }

  int gets() const { return gets_.load(); }

 private:
  std::unique_ptr<ChunkStore> inner_ = MakeMemoryChunkStore();
  ChunkId swapped_;
  ChunkId served_;
  mutable std::atomic<int> gets_{0};
};

TEST(StampedReadCheckTest, FailedCompareEndsABatchsLookups) {
  VirtualClock clock;
  MetadataManager manager(&clock);
  LocalTransport transport;
  std::array<ChunkId, 2> stored;
  std::array<Bytes, 2> bytes = {ToBytes("first stored chunk"),
                                ToBytes("second stored chunk")};
  for (std::size_t i = 0; i < stored.size(); ++i) {
    stored[i] = ChunkId::For(bytes[i]);
  }
  ChunkId swapped = ChunkId::For(ToBytes("served the first chunk's bytes"));
  auto owned = std::make_unique<SwappingStore>(swapped, stored[0]);
  SwappingStore& store = *owned;
  Benefactor donor("memory", std::move(owned), 1_GiB);
  ASSERT_TRUE(donor.JoinPool(manager).ok());
  transport.AddEndpoint(&donor);
  for (std::size_t i = 0; i < stored.size(); ++i) {
    BufferSlice slice = BufferSlice::Copy(bytes[i]);
    slice.StampDigest(stored[i].digest);
    std::vector<ChunkPut> put{{stored[i], std::move(slice)}};
    ASSERT_TRUE(donor.PutChunkBatch(put).ok());
  }

  auto batch = [&](std::vector<ChunkId> ids) {
    auto c = transport.Wait(
        transport.Submit(ChunkOp::GetBatch(donor.id(), std::move(ids))));
    EXPECT_TRUE(c.ok());
    return std::move(c).value().status.code();
  };
  // The looked-up prefix ends at the failed compare, as it ends at a failed
  // lookup: the store never sees the ids after it.
  int before = store.gets();
  EXPECT_EQ(batch({stored[0], swapped, stored[1]}), StatusCode::kDataLoss);
  EXPECT_EQ(store.gets() - before, 2);
  before = store.gets();
  EXPECT_EQ(batch({swapped, stored[0], stored[1]}), StatusCode::kDataLoss);
  EXPECT_EQ(store.gets() - before, 1);
  before = store.gets();
  EXPECT_EQ(batch({stored[1], stored[0]}), StatusCode::kOk);
  EXPECT_EQ(store.gets() - before, 2);
}

}  // namespace
}  // namespace stdchk
