// Unit coverage for the staged write engine's layers: ChunkPlanner sealing,
// the batched multi-chunk PUT path, and the manager's reservation-stripe
// repair. The uploader's round-robin walks are pinned in
// upload_drain_test.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "benefactor/benefactor.h"
#include "chunk/chunk_store.h"
#include "client/chunk_planner.h"
#include "common/rng.h"
#include "core/local_transport.h"
#include "manager/metadata_manager.h"
#include "manager/virtual_clock.h"
#include "submit_and_wait.h"

namespace stdchk {
namespace {

// ---- ChunkPlanner -----------------------------------------------------------

std::vector<ChunkId> PlanIds(const std::vector<StagedChunk>& chunks) {
  std::vector<ChunkId> ids;
  for (const StagedChunk& c : chunks) ids.push_back(c.id);
  return ids;
}

TEST(ChunkPlannerTest, FixedSizeSealsFullChunksImmediately) {
  ChunkPlanner planner(std::make_shared<FixedSizeChunker>(1024));
  Rng rng(1);
  Bytes data = rng.RandomBytes(2048 + 100);
  planner.Append(data);

  auto sealed = planner.Drain(/*final=*/false);
  EXPECT_EQ(sealed.size(), 2u);  // two full chunks; the 100-byte tail waits
  EXPECT_EQ(planner.buffered_bytes(), 100u);

  auto tail = planner.Drain(/*final=*/true);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].data.size(), 100u);
  EXPECT_EQ(planner.buffered_bytes(), 0u);
}

TEST(ChunkPlannerTest, ChunkIdsMatchContent) {
  ChunkPlanner planner(std::make_shared<FixedSizeChunker>(256));
  Rng rng(2);
  Bytes data = rng.RandomBytes(1000);
  planner.Append(data);
  auto chunks = planner.Drain(/*final=*/true);
  std::size_t offset = 0;
  for (const StagedChunk& c : chunks) {
    EXPECT_EQ(c.id, ChunkId::For(c.data.span()));
    EXPECT_TRUE(std::equal(c.data.span().begin(), c.data.span().end(),
                           data.begin() + static_cast<std::ptrdiff_t>(offset)));
    offset += c.data.size();
  }
  EXPECT_EQ(offset, data.size());
}

TEST(ChunkPlannerTest, BoundariesInvariantToWriteGranularity) {
  // The engine's protocol-equivalence guarantee rests on this: however the
  // bytes arrive and drain, the sealed boundary sequence is a pure
  // function of content.
  auto chunker = std::make_shared<ContentBasedChunker>(
      CbchParams{.window_m = 20, .boundary_bits_k = 10, .advance_p = 1});
  Rng rng(3);
  Bytes data = rng.RandomBytes(96 * 1024);

  // Reference: the whole image in one final drain.
  ChunkPlanner whole(chunker);
  whole.Append(data);
  auto reference = PlanIds(whole.Drain(/*final=*/true));
  ASSERT_GT(reference.size(), 10u);

  // Streamed: odd piece sizes, draining after every append.
  for (std::size_t piece : {1u, 7u, 999u, 4096u, 40000u}) {
    ChunkPlanner streamed(chunker);
    std::vector<ChunkId> ids;
    std::size_t pos = 0;
    while (pos < data.size()) {
      std::size_t n = std::min(piece, data.size() - pos);
      streamed.Append(ByteSpan(data.data() + pos, n));
      pos += n;
      for (auto& c : streamed.Drain(/*final=*/false)) ids.push_back(c.id);
    }
    for (auto& c : streamed.Drain(/*final=*/true)) ids.push_back(c.id);
    EXPECT_EQ(ids, reference) << "piece=" << piece;
  }
}

// ---- Batched multi-chunk PUT ------------------------------------------------

class BatchPutTest : public ::testing::Test {
 protected:
  BatchPutTest() : manager_(&clock_) {}

  Benefactor* AddNode(std::uint64_t capacity) {
    auto b = std::make_unique<Benefactor>("d" + std::to_string(nodes_.size()),
                                          MakeMemoryChunkStore(), capacity);
    EXPECT_TRUE(b->JoinPool(manager_).ok());
    transport_.AddEndpoint(b.get());
    nodes_.push_back(std::move(b));
    return nodes_.back().get();
  }

  std::vector<ChunkPut> MakeBatch(const std::vector<Bytes>& payloads) {
    std::vector<ChunkPut> batch;
    for (const Bytes& p : payloads) {
      batch.push_back(ChunkPut{ChunkId::For(p), BufferSlice::Copy(p)});
    }
    return batch;
  }

  VirtualClock clock_;
  MetadataManager manager_;
  LocalTransport transport_;
  std::vector<std::unique_ptr<Benefactor>> nodes_;
  Rng rng_{9};
};

TEST_F(BatchPutTest, BatchIsOneRpcOnTheTransport) {
  Benefactor* node = AddNode(1_GiB);
  std::vector<Bytes> payloads{rng_.RandomBytes(100), rng_.RandomBytes(200),
                              rng_.RandomBytes(300)};
  auto batch = MakeBatch(payloads);

  std::uint64_t rpcs_before = transport_.rpc_count();
  ASSERT_TRUE(SubmitAndWait(transport_, ChunkOp::PutBatch(node->id(), batch))
                  .status.ok());
  EXPECT_EQ(transport_.rpc_count(), rpcs_before + 1);
  EXPECT_EQ(node->ChunkCount(), 3u);
  EXPECT_EQ(transport_.bytes_moved(), 600u);
  for (const ChunkPut& put : batch) EXPECT_TRUE(node->HasChunk(put.id));
}

TEST_F(BatchPutTest, RejectedBatchStoresNothing) {
  // Capacity admits either chunk alone but not both: the whole batch must
  // bounce so the client can re-route it wholesale.
  Benefactor* node = AddNode(500);
  std::vector<Bytes> payloads{rng_.RandomBytes(300), rng_.RandomBytes(300)};
  auto batch = MakeBatch(payloads);

  EXPECT_EQ(SubmitAndWait(transport_, ChunkOp::PutBatch(node->id(), batch))
                .status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(node->ChunkCount(), 0u);

  ASSERT_TRUE(
      SubmitAndWait(transport_, ChunkOp::PutBatch(node->id(), {batch[0]}))
          .status.ok());
  EXPECT_EQ(node->ChunkCount(), 1u);
}

TEST_F(BatchPutTest, CorruptChunkPoisonsTheBatch) {
  Benefactor* node = AddNode(1_GiB);
  Bytes good = rng_.RandomBytes(100);
  Bytes evil = rng_.RandomBytes(100);
  std::vector<ChunkPut> batch{
      ChunkPut{ChunkId::For(good), BufferSlice::Copy(good)},
      // content does not match address
      ChunkPut{ChunkId::For(evil), BufferSlice::Copy(good)},
  };
  EXPECT_EQ(SubmitAndWait(transport_, ChunkOp::PutBatch(node->id(), batch))
                .status.code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(node->ChunkCount(), 0u);
}

TEST_F(BatchPutTest, BatchToOfflineNodeFails) {
  Benefactor* node = AddNode(1_GiB);
  node->Crash();
  std::vector<Bytes> payloads{rng_.RandomBytes(64)};
  auto batch = MakeBatch(payloads);
  EXPECT_EQ(SubmitAndWait(transport_, ChunkOp::PutBatch(node->id(), batch))
                .status.code(),
            StatusCode::kUnavailable);
}

// ---- Manager: reservation stripe repair ------------------------------------

TEST_F(BatchPutTest, ReplaceReservationNodeSwapsInFreshDonor) {
  for (int i = 0; i < 4; ++i) AddNode(1_GiB);

  auto reservation = manager_.ReserveStripe(2, 1000);
  ASSERT_TRUE(reservation.ok());
  NodeId dead = reservation.value().stripe[0];

  auto fresh = manager_.ReplaceReservationNode(reservation.value().id, dead);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh.value(), dead);
  // The replacement came from outside the original stripe.
  for (NodeId member : reservation.value().stripe) {
    EXPECT_NE(fresh.value(), member);
  }

  // The dead node's reserved accounting moved to the replacement.
  for (const BenefactorStatus& status : manager_.registry().Export()) {
    if (status.id == dead) {
      EXPECT_EQ(status.reserved_bytes, 0u);
    }
    if (status.id == fresh.value()) {
      EXPECT_GT(status.reserved_bytes, 0u);
    }
  }

  // Swapping a non-member fails cleanly.
  EXPECT_EQ(manager_.ReplaceReservationNode(reservation.value().id, dead)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      manager_.ReplaceReservationNode(999999, fresh.value()).status().code(),
      StatusCode::kNotFound);
}

}  // namespace
}  // namespace stdchk
