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

  // Writes `image` as version `t` in one session the way an incremental
  // checkpointer does: CLW, compare-by-hash dedup, `chunker`'s boundaries.
  // The closed session's chunk map, reuse flags and stats say what moved.
  Result<std::unique_ptr<WriteSession>> WriteDeduped(
      std::uint64_t t, ByteSpan image,
      std::shared_ptr<const Chunker> chunker) {
    ClientOptions options = cluster_->client().options();
    options.protocol = WriteProtocol::kCompleteLocal;
    options.incremental_fsch = true;
    options.chunker = std::move(chunker);
    STDCHK_ASSIGN_OR_RETURN(
        auto session, cluster_->client().CreateFileWith(Name(t), options));
    STDCHK_RETURN_IF_ERROR(session->Write(image));
    STDCHK_RETURN_IF_ERROR(session->Close().status());
    return session;
  }

  std::unique_ptr<StdchkCluster> cluster_;
  Rng rng_{61};
  std::shared_ptr<const Chunker> chunker_ =
      std::make_shared<ContentBasedChunker>(CbchParams{20, 11, 1});  // ~2 KB
};

TEST_F(CbchWriteTest, FirstVersionUploadsEverything) {
  Bytes image = rng_.RandomBytes(256 * 1024);
  auto written = WriteDeduped(1, image, chunker_);
  ASSERT_TRUE(written.ok()) << written.status();
  const WriteSession& session = *written.value();
  const WriteStats& stats = session.stats();
  EXPECT_EQ(stats.bytes_written, image.size());
  EXPECT_EQ(stats.bytes_written - stats.bytes_deduplicated, image.size());
  const std::vector<ChunkLocation>& chunks = session.chunk_map().chunks;
  ASSERT_FALSE(chunks.empty());
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_FALSE(session.chunk_reused()[i]);
    EXPECT_EQ(chunks[i].file_offset, offset);
    offset += chunks[i].size;
  }
  EXPECT_EQ(offset, image.size());

  auto read_back = cluster_->client().ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), image);
}

TEST_F(CbchWriteTest, EmptyImagePlansNoChunks) {
  auto written = WriteDeduped(1, ByteSpan{}, chunker_);
  ASSERT_TRUE(written.ok()) << written.status();
  EXPECT_TRUE(written.value()->chunk_map().chunks.empty());
  EXPECT_EQ(written.value()->stats().bytes_written, 0u);
}

// Under FsCH: spans are named by their own bytes, and a short tail is its
// own chunk.
TEST_F(CbchWriteTest, FixedSizePlanNamesEverySpan) {
  auto fsch = std::make_shared<FixedSizeChunker>(1024);
  Bytes image = rng_.RandomBytes(8 * 1024 + 17);
  auto written = WriteDeduped(1, image, fsch);
  ASSERT_TRUE(written.ok()) << written.status();
  const WriteStats& stats = written.value()->stats();
  EXPECT_EQ(stats.bytes_deduplicated, 0u);
  EXPECT_DOUBLE_EQ(static_cast<double>(stats.bytes_deduplicated) /
                       static_cast<double>(stats.bytes_written),
                   0.0);
  const std::vector<ChunkLocation>& chunks =
      written.value()->chunk_map().chunks;
  ASSERT_EQ(chunks.size(), 9u);
  for (const ChunkLocation& c : chunks) {
    EXPECT_EQ(c.id, ChunkId::For(ByteSpan(image.data() + c.file_offset,
                                          c.size)));
  }
  EXPECT_EQ(chunks.back().size, 17u);
}

TEST_F(CbchWriteTest, FixedSizePlanReusesUnchangedChunks) {
  auto fsch = std::make_shared<FixedSizeChunker>(1024);
  Bytes v1 = rng_.RandomBytes(8 * 1024);
  ASSERT_TRUE(WriteDeduped(1, v1, fsch).ok());
  // v2 changes every odd 1 KiB chunk and keeps the even ones.
  Bytes v2 = v1;
  for (std::size_t chunk = 1; chunk < 8; chunk += 2) {
    v2[chunk * 1024] ^= 0xff;
  }
  auto written = WriteDeduped(2, v2, fsch);
  ASSERT_TRUE(written.ok()) << written.status();
  const WriteStats& stats = written.value()->stats();
  EXPECT_EQ(stats.bytes_written, v2.size());
  EXPECT_DOUBLE_EQ(static_cast<double>(stats.bytes_deduplicated) /
                       static_cast<double>(stats.bytes_written),
                   0.5);
  const std::vector<bool>& reused = written.value()->chunk_reused();
  ASSERT_EQ(written.value()->chunk_map().chunks.size(), 8u);
  for (std::size_t i = 0; i < reused.size(); ++i) {
    EXPECT_EQ(!reused[i], i % 2 == 1) << i;
  }
}

TEST_F(CbchWriteTest, ShiftedVersionTransfersOnlyTheInsertion) {
  Bytes v1 = rng_.RandomBytes(256 * 1024);
  ASSERT_TRUE(WriteDeduped(1, v1, chunker_).ok());

  // v2 = v1 with 1000 bytes inserted near the front — the FsCH killer.
  Bytes v2;
  Append(v2, ByteSpan(v1.data(), 10'000));
  Bytes inserted = rng_.RandomBytes(1000);
  Append(v2, inserted);
  Append(v2, ByteSpan(v1.data() + 10'000, v1.size() - 10'000));

  auto written = WriteDeduped(2, v2, chunker_);
  ASSERT_TRUE(written.ok());
  const WriteStats& stats = written.value()->stats();
  EXPECT_GT(static_cast<double>(stats.bytes_deduplicated) /
                static_cast<double>(stats.bytes_written),
            0.9);  // nearly everything reused
  EXPECT_LT(stats.bytes_written - stats.bytes_deduplicated, 20'000u);
  // The per-chunk reuse flags mark the reused spans.
  const std::vector<bool>& reused = written.value()->chunk_reused();
  std::size_t reused_chunks = 0;
  for (bool r : reused) reused_chunks += r;
  EXPECT_GT(reused_chunks, written.value()->chunk_map().chunks.size() / 2);

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
  ASSERT_TRUE(WriteDeduped(1, image, chunker_).ok());
  std::uint64_t moved_before = cluster_->transport().bytes_moved();
  auto written = WriteDeduped(2, image, chunker_);
  ASSERT_TRUE(written.ok());
  const WriteStats& stats = written.value()->stats();
  EXPECT_EQ(stats.bytes_written - stats.bytes_deduplicated, 0u);
  EXPECT_EQ(cluster_->transport().bytes_moved(), moved_before);
}

TEST_F(CbchWriteTest, VariableSizeChunkMapReadsAtArbitraryOffsets) {
  Bytes image = rng_.RandomBytes(200 * 1024 + 77);
  ASSERT_TRUE(WriteDeduped(1, image, chunker_).ok());
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
  ASSERT_TRUE(WriteDeduped(1, image, chunker_).ok());
  auto again = WriteDeduped(1, image, chunker_);
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(CbchWriteTest, FailsCleanlyWhenPoolIsDown) {
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    cluster_->benefactor(i).Crash();
  }
  Bytes image = rng_.RandomBytes(64 * 1024);
  auto written = WriteDeduped(1, image, chunker_);
  EXPECT_FALSE(written.ok());
  EXPECT_FALSE(cluster_->client().ReadFile(Name(1)).ok());
}

TEST_F(CbchWriteTest, SharedChunksRefcountedAcrossDeletion) {
  Bytes image = rng_.RandomBytes(128 * 1024);
  ASSERT_TRUE(WriteDeduped(1, image, chunker_).ok());
  ASSERT_TRUE(WriteDeduped(2, image, chunker_).ok());
  ASSERT_TRUE(cluster_->client().Delete(Name(1)).ok());
  cluster_->Settle();
  auto read_back = cluster_->client().ReadFile(Name(2));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), image);
}

}  // namespace
}  // namespace stdchk
