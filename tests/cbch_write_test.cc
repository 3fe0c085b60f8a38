// Content-defined (CbCH) dedup on the write path — variable-size chunk
// maps, shift-resilient cross-version sharing.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cluster.h"

namespace stdchk {
namespace {

CheckpointName Name(std::uint64_t t) { return CheckpointName{"vm", "n0", t}; }

class CbchWriteTest : public ::testing::Test {
 protected:
  CbchWriteTest() {
    ClusterOptions options;
    options.benefactor_count = 5;
    options.client.stripe_width = 3;
    cluster_ = std::make_unique<StdchkCluster>(options);
  }

  std::unique_ptr<StdchkCluster> cluster_;
  Rng rng_{61};
  ContentBasedChunker chunker_{CbchParams{20, 11, 1}};  // ~2 KB chunks
};

TEST_F(CbchWriteTest, FirstVersionUploadsEverything) {
  Bytes image = rng_.RandomBytes(256 * 1024);
  auto plan = cluster_->client().WriteFileDeduped(Name(1), image, chunker_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->total_bytes, image.size());
  EXPECT_EQ(plan->novel_bytes, image.size());
  ASSERT_FALSE(plan->chunks.empty());
  std::uint64_t offset = 0;
  for (const PlannedChunk& pc : plan->chunks) {
    EXPECT_TRUE(pc.novel);
    EXPECT_EQ(pc.span.offset, offset);
    offset += pc.span.size;
  }
  EXPECT_EQ(offset, image.size());

  auto read_back = cluster_->client().ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), image);
}

TEST_F(CbchWriteTest, EmptyImagePlansNoChunks) {
  auto plan =
      cluster_->client().WriteFileDeduped(Name(1), ByteSpan{}, chunker_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->chunks.empty());
  EXPECT_EQ(plan->total_bytes, 0u);
}

// The plan under FsCH: spans are named by their own bytes, and a short tail
// is its own chunk.
TEST_F(CbchWriteTest, FixedSizePlanNamesEverySpan) {
  FixedSizeChunker fsch(1024);
  Bytes image = rng_.RandomBytes(8 * 1024 + 17);
  auto plan = cluster_->client().WriteFileDeduped(Name(1), image, fsch);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->reused_bytes(), 0u);
  EXPECT_DOUBLE_EQ(plan->dedup_ratio(), 0.0);
  ASSERT_EQ(plan->chunks.size(), 9u);
  for (const PlannedChunk& pc : plan->chunks) {
    EXPECT_EQ(pc.id, ChunkId::For(ByteSpan(image.data() + pc.span.offset,
                                           pc.span.size)));
  }
  EXPECT_EQ(plan->chunks.back().span.size, 17u);
}

TEST_F(CbchWriteTest, FixedSizePlanReusesUnchangedChunks) {
  FixedSizeChunker fsch(1024);
  Bytes v1 = rng_.RandomBytes(8 * 1024);
  ASSERT_TRUE(cluster_->client().WriteFileDeduped(Name(1), v1, fsch).ok());
  // v2 changes every odd 1 KiB chunk and keeps the even ones.
  Bytes v2 = v1;
  for (std::size_t chunk = 1; chunk < 8; chunk += 2) {
    v2[chunk * 1024] ^= 0xff;
  }
  auto plan = cluster_->client().WriteFileDeduped(Name(2), v2, fsch);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->total_bytes, v2.size());
  EXPECT_DOUBLE_EQ(plan->dedup_ratio(), 0.5);
  ASSERT_EQ(plan->chunks.size(), 8u);
  for (std::size_t i = 0; i < plan->chunks.size(); ++i) {
    EXPECT_EQ(plan->chunks[i].novel, i % 2 == 1) << i;
  }
}

TEST_F(CbchWriteTest, ShiftedVersionTransfersOnlyTheInsertion) {
  Bytes v1 = rng_.RandomBytes(256 * 1024);
  ASSERT_TRUE(cluster_->client().WriteFileDeduped(Name(1), v1, chunker_).ok());

  // v2 = v1 with 1000 bytes inserted near the front — the FsCH killer.
  Bytes v2;
  Append(v2, ByteSpan(v1.data(), 10'000));
  Bytes inserted = rng_.RandomBytes(1000);
  Append(v2, inserted);
  Append(v2, ByteSpan(v1.data() + 10'000, v1.size() - 10'000));

  auto plan = cluster_->client().WriteFileDeduped(Name(2), v2, chunker_);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->dedup_ratio(), 0.9);  // nearly everything reused
  EXPECT_LT(plan->novel_bytes, 20'000u);
  // The per-chunk plan marks the reused spans.
  std::size_t reused_chunks = 0;
  for (const PlannedChunk& pc : plan->chunks) reused_chunks += !pc.novel;
  EXPECT_GT(reused_chunks, plan->chunks.size() / 2);

  auto read_back = cluster_->client().ReadFile(Name(2));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), v2);
  // The unmodified original remains readable as well.
  auto v1_back = cluster_->client().ReadFile(Name(1));
  ASSERT_TRUE(v1_back.ok());
  EXPECT_EQ(v1_back.value(), v1);
}

TEST_F(CbchWriteTest, IdenticalVersionTransfersNothing) {
  Bytes image = rng_.RandomBytes(128 * 1024);
  ASSERT_TRUE(
      cluster_->client().WriteFileDeduped(Name(1), image, chunker_).ok());
  std::uint64_t moved_before = cluster_->transport().bytes_moved();
  auto plan = cluster_->client().WriteFileDeduped(Name(2), image, chunker_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->novel_bytes, 0u);
  EXPECT_EQ(cluster_->transport().bytes_moved(), moved_before);
}

TEST_F(CbchWriteTest, VariableSizeChunkMapReadsAtArbitraryOffsets) {
  Bytes image = rng_.RandomBytes(200 * 1024 + 77);
  ASSERT_TRUE(
      cluster_->client().WriteFileDeduped(Name(1), image, chunker_).ok());
  auto session = cluster_->client().OpenFile(Name(1));
  ASSERT_TRUE(session.ok());
  for (std::uint64_t offset : {0ull, 777ull, 99'999ull, 200ull * 1024}) {
    Bytes buf(1234);
    auto n = session.value()->ReadAt(offset, MutableByteSpan(buf));
    ASSERT_TRUE(n.ok());
    std::size_t expected = std::min<std::size_t>(1234, image.size() - offset);
    ASSERT_EQ(n.value(), expected);
    EXPECT_TRUE(std::equal(buf.begin(),
                           buf.begin() + static_cast<std::ptrdiff_t>(expected),
                           image.begin() + static_cast<std::ptrdiff_t>(offset)));
  }
}

TEST_F(CbchWriteTest, DuplicateVersionRejected) {
  Bytes image = rng_.RandomBytes(64 * 1024);
  ASSERT_TRUE(
      cluster_->client().WriteFileDeduped(Name(1), image, chunker_).ok());
  auto again = cluster_->client().WriteFileDeduped(Name(1), image, chunker_);
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(CbchWriteTest, FailsCleanlyWhenPoolIsDown) {
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    cluster_->benefactor(i).Crash();
  }
  Bytes image = rng_.RandomBytes(64 * 1024);
  auto plan = cluster_->client().WriteFileDeduped(Name(1), image, chunker_);
  EXPECT_FALSE(plan.ok());
  EXPECT_FALSE(cluster_->client().ReadFile(Name(1)).ok());
}

TEST_F(CbchWriteTest, SharedChunksRefcountedAcrossDeletion) {
  Bytes image = rng_.RandomBytes(128 * 1024);
  ASSERT_TRUE(
      cluster_->client().WriteFileDeduped(Name(1), image, chunker_).ok());
  ASSERT_TRUE(
      cluster_->client().WriteFileDeduped(Name(2), image, chunker_).ok());
  ASSERT_TRUE(cluster_->client().Delete(Name(1)).ok());
  cluster_->Settle();
  auto read_back = cluster_->client().ReadFile(Name(2));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), image);
}

}  // namespace
}  // namespace stdchk
