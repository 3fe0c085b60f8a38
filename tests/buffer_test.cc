// BufferRef/BufferSlice semantics and the zero-copy data-path invariants:
// slices alias (never duplicate) their backing buffer, survive the backing
// owner letting go, and CopyStats sees exactly the copies that happen.
#include "common/buffer.h"

#include <gtest/gtest.h>

#include <thread>

#include "benefactor/benefactor.h"
#include "chunk/chunk_store.h"
#include "common/rng.h"

namespace stdchk {
namespace {

Bytes MakeData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return rng.RandomBytes(n);
}

// One chunk as a batch of one, the only put a benefactor admits.
Status PutOne(Benefactor& node, const ChunkId& id, BufferSlice data) {
  ChunkPut put{id, std::move(data)};
  return node.PutChunkBatch(std::span<const ChunkPut>(&put, 1));
}

TEST(BufferRefTest, TakeAdoptsWithoutCopy) {
  Bytes data = MakeData(1024, 1);
  const std::uint8_t* raw = data.data();
  copy_stats::Reset();
  BufferRef ref = BufferRef::Take(std::move(data));
  EXPECT_EQ(ref.data(), raw);  // same storage, no reallocation
  EXPECT_EQ(ref.size(), 1024u);
  EXPECT_EQ(copy_stats::Snapshot().payload_copies, 0u);
  EXPECT_EQ(copy_stats::Snapshot().materializations, 0u);
}

TEST(BufferRefTest, MaterializeCountsOnce) {
  Bytes data = MakeData(64, 2);
  copy_stats::Reset();
  BufferRef ref = BufferRef::Materialize(data);
  EXPECT_EQ(ref.span().size(), 64u);
  CopyStatsSnapshot s = copy_stats::Snapshot();
  EXPECT_EQ(s.materializations, 1u);
  EXPECT_EQ(s.materialized_bytes, 64u);
  EXPECT_EQ(s.payload_copies, 0u);
}

TEST(BufferSliceTest, SlicesAliasTheBacking) {
  Bytes data = MakeData(100, 3);
  BufferRef ref = BufferRef::Take(std::move(data));
  const std::uint8_t* base = ref.data();

  copy_stats::Reset();
  BufferSlice whole(ref);
  BufferSlice mid(ref, 10, 50);
  BufferSlice sub = mid.Subslice(5, 20);
  EXPECT_EQ(whole.data(), base);
  EXPECT_EQ(mid.data(), base + 10);
  EXPECT_EQ(sub.data(), base + 15);
  EXPECT_TRUE(whole.SharesBufferWith(mid));
  EXPECT_TRUE(mid.SharesBufferWith(sub));
  EXPECT_EQ(copy_stats::Snapshot().payload_copies, 0u);
}

TEST(BufferSliceTest, SliceOutlivesTheRef) {
  BufferSlice slice;
  Bytes expected = MakeData(256, 4);
  {
    BufferRef ref = BufferRef::Take(Bytes(expected));
    slice = BufferSlice(ref, 16, 100);
  }  // ref dropped; the slice keeps the backing alive
  EXPECT_EQ(slice.size(), 100u);
  EXPECT_TRUE(std::equal(slice.span().begin(), slice.span().end(),
                         expected.begin() + 16));
}

TEST(BufferSliceTest, CopyAndToBytesAreCounted) {
  Bytes data = MakeData(128, 5);
  copy_stats::Reset();
  BufferSlice copied = BufferSlice::Copy(data);
  Bytes back = copied.ToBytes();
  EXPECT_EQ(back, data);
  CopyStatsSnapshot s = copy_stats::Snapshot();
  EXPECT_EQ(s.payload_copies, 2u);
  EXPECT_EQ(s.payload_copy_bytes, 256u);
}

TEST(BufferSliceTest, EqualityComparesContent) {
  Bytes data = MakeData(64, 6);
  BufferSlice a = BufferSlice::Copy(data);
  BufferSlice b = BufferSlice::Copy(data);
  EXPECT_FALSE(a.SharesBufferWith(b));
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a == ByteSpan(data));
  Bytes other = MakeData(64, 7);
  EXPECT_FALSE(a == ByteSpan(other));
  EXPECT_TRUE(BufferSlice() == BufferSlice());
}

// ---- Store lifetime: the heart of the zero-copy contract -------------------

TEST(BufferSliceTest, DigestStampSharedByCopiesDroppedBySubslice) {
  Bytes data = MakeData(256, 21);
  BufferSlice slice(BufferRef::Take(std::move(data)));
  EXPECT_EQ(slice.stamped_digest(), nullptr);

  Sha1Digest digest = Sha1(slice.span());
  slice.StampDigest(digest);
  ASSERT_NE(slice.stamped_digest(), nullptr);
  EXPECT_EQ(*slice.stamped_digest(), digest);

  // Copies carry the stamp (same bytes); sub-views and payload copies via
  // Copy() must not (different bytes / fresh unverified buffer).
  BufferSlice copy = slice;
  ASSERT_NE(copy.stamped_digest(), nullptr);
  EXPECT_EQ(*copy.stamped_digest(), digest);
  EXPECT_EQ(slice.Subslice(1, 100).stamped_digest(), nullptr);
  EXPECT_EQ(BufferSlice::Copy(slice.span()).stamped_digest(), nullptr);
}

TEST(BufferRefTest, BackingHandleExpiresWithTheLastOwner) {
  // The non-owning liveness handle the disk store uses to account
  // mapped-but-unlinked bytes: it must track the backing's real lifetime
  // without extending it.
  BufferRef ref = BufferRef::Take(MakeData(128, 23));
  std::weak_ptr<const void> handle = ref.backing_handle();
  EXPECT_FALSE(handle.expired());

  // A slice keeps the backing alive after the ref itself drops...
  BufferSlice slice(ref, 16, 32);
  ref = BufferRef();
  EXPECT_FALSE(handle.expired());

  // ...and the handle flips exactly when the last slice does.
  slice = BufferSlice();
  EXPECT_TRUE(handle.expired());
}

TEST(BufferSliceTest, StampedSliceShortCircuitsChunkIdFor) {
  Bytes data = MakeData(512, 22);
  ChunkId true_id = ChunkId::For(data);
  BufferSlice slice(BufferRef::Take(std::move(data)));
  EXPECT_EQ(ChunkId::For(slice), true_id);  // unstamped: full hash

  slice.StampDigest(true_id.digest);
  EXPECT_EQ(ChunkId::For(slice), true_id);  // stamped: memo answers
}

TEST(StampedVerificationTest, BenefactorStillRejectsUnstampedMismatch) {
  // The stamp is an optimization, not a bypass: unstamped payloads (the
  // only kind an external/deserialized sender can produce) are re-hashed
  // and rejected on mismatch, stamped ones sail through by compare.
  Benefactor node("donor", MakeMemoryChunkStore(), 1_GiB);
  Bytes good = MakeData(300, 23);
  Bytes evil = MakeData(300, 24);
  ChunkId good_id = ChunkId::For(good);

  EXPECT_EQ(PutOne(node, good_id, BufferSlice::Copy(evil)).code(),
            StatusCode::kDataLoss);

  BufferSlice stamped = BufferSlice::Copy(good);
  stamped.StampDigest(good_id.digest);
  EXPECT_TRUE(PutOne(node, good_id, stamped).ok());

  // Read-back of the memory store's stamped slice verifies by compare and
  // returns the original bytes.
  auto got = node.ReadChunk(good_id);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(Benefactor::VerifyChunk(good_id, got.value()).ok());
  EXPECT_TRUE(got.value() == ByteSpan(good));
  ASSERT_NE(got.value().stamped_digest(), nullptr);
}

TEST(StoreBufferLifetimeTest, ReaderHeldSliceSurvivesDelete) {
  auto store = MakeMemoryChunkStore();
  Bytes data = MakeData(4096, 8);
  ChunkId id = ChunkId::For(data);
  ASSERT_TRUE(store->Put(id, BufferSlice::Copy(data)).ok());

  auto got = store->Get(id);
  ASSERT_TRUE(got.ok());
  BufferSlice held = got.value();

  // GC reclaims the chunk while the reader still holds the slice.
  ASSERT_TRUE(store->Delete(id).ok());
  EXPECT_FALSE(store->Contains(id));
  EXPECT_TRUE(held == ByteSpan(data));  // still valid, still correct
}

TEST(StoreBufferLifetimeTest, ConcurrentGetsShareOneBuffer) {
  auto store = MakeMemoryChunkStore();
  Bytes data = MakeData(1024, 9);
  ChunkId id = ChunkId::For(data);
  ASSERT_TRUE(store->Put(id, BufferSlice::Copy(data)).ok());

  copy_stats::Reset();
  std::vector<BufferSlice> seen(4);
  std::vector<std::thread> readers;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    readers.emplace_back([&store, &seen, i, id] {
      auto got = store->Get(id);
      ASSERT_TRUE(got.ok());
      seen[i] = std::move(got).value();
    });
  }
  for (std::thread& t : readers) t.join();

  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].data(), seen[0].data());  // same storage
    EXPECT_TRUE(seen[i].SharesBufferWith(seen[0]));
  }
  EXPECT_EQ(copy_stats::Snapshot().payload_copies, 0u);
}

TEST(StoreBufferLifetimeTest, PutAliasesTheCallersSlice) {
  auto store = MakeMemoryChunkStore();
  Bytes data = MakeData(2048, 10);
  ChunkId id = ChunkId::For(data);
  BufferSlice staged = BufferSlice::Copy(data);
  const std::uint8_t* raw = staged.data();

  copy_stats::Reset();
  ASSERT_TRUE(store->Put(id, staged).ok());
  auto got = store->Get(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().data(), raw);  // store holds the caller's buffer
  EXPECT_EQ(copy_stats::Snapshot().payload_copies, 0u);
}

TEST(StoreBufferLifetimeTest, BenefactorGetSurvivesWipe) {
  Benefactor node("donor", MakeMemoryChunkStore(), 1_GiB);
  Bytes data = MakeData(512, 11);
  ChunkId id = ChunkId::For(data);
  ASSERT_TRUE(PutOne(node, id, BufferSlice::Copy(data)).ok());

  auto got = node.ReadChunk(id);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(Benefactor::VerifyChunk(id, got.value()).ok());
  BufferSlice held = got.value();
  node.Wipe();  // donor disk scavenged under the reader
  EXPECT_TRUE(held == ByteSpan(data));
}

}  // namespace
}  // namespace stdchk
