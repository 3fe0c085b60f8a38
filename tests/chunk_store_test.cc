#include "chunk/chunk_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "common/rng.h"

namespace stdchk {
namespace {

enum class StoreKind { kMemory, kDisk };

class ChunkStoreTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    if (GetParam() == StoreKind::kMemory) {
      store_ = MakeMemoryChunkStore();
    } else {
      // A parameterized test is named "<Case>/<param>": flatten the slash,
      // or the directory would nest and TearDown would leave its parent.
      std::string name =
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
      std::replace(name.begin(), name.end(), '/', '_');
      dir_ = std::filesystem::temp_directory_path() /
             ("stdchk_store_test_" + std::to_string(::getpid()) + "_" + name);
      std::filesystem::remove_all(dir_);
      auto store = MakeDiskChunkStore(dir_.string());
      ASSERT_TRUE(store.ok()) << store.status();
      store_ = std::move(store).value();
    }
  }

  void TearDown() override {
    store_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  static Bytes MakeData(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    return rng.RandomBytes(n);
  }

  std::unique_ptr<ChunkStore> store_;
  std::filesystem::path dir_;
};

TEST_P(ChunkStoreTest, PutThenGetRoundTrips) {
  Bytes data = MakeData(1000, 1);
  ChunkId id = ChunkId::For(data);
  ASSERT_TRUE(store_->Put(id, data).ok());
  auto got = store_->Get(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), data);
}

TEST_P(ChunkStoreTest, GetMissingIsNotFound) {
  ChunkId id = ChunkId::For(AsBytes(std::string("nothing")));
  EXPECT_EQ(store_->Get(id).status().code(), StatusCode::kNotFound);
}

TEST_P(ChunkStoreTest, ContainsReflectsState) {
  Bytes data = MakeData(64, 2);
  ChunkId id = ChunkId::For(data);
  EXPECT_FALSE(store_->Contains(id));
  ASSERT_TRUE(store_->Put(id, data).ok());
  EXPECT_TRUE(store_->Contains(id));
}

TEST_P(ChunkStoreTest, PutIsIdempotent) {
  Bytes data = MakeData(128, 3);
  ChunkId id = ChunkId::For(data);
  ASSERT_TRUE(store_->Put(id, data).ok());
  ASSERT_TRUE(store_->Put(id, data).ok());
  EXPECT_EQ(store_->ChunkCount(), 1u);
  EXPECT_EQ(store_->BytesUsed(), 128u);
}

TEST_P(ChunkStoreTest, DeleteRemovesAndAccounts) {
  Bytes data = MakeData(256, 4);
  ChunkId id = ChunkId::For(data);
  ASSERT_TRUE(store_->Put(id, data).ok());
  ASSERT_TRUE(store_->Delete(id).ok());
  EXPECT_FALSE(store_->Contains(id));
  EXPECT_EQ(store_->BytesUsed(), 0u);
  EXPECT_EQ(store_->ChunkCount(), 0u);
  EXPECT_EQ(store_->Delete(id).code(), StatusCode::kNotFound);
}

TEST_P(ChunkStoreTest, ListReturnsAllChunks) {
  std::set<std::string> expected;
  for (int i = 0; i < 10; ++i) {
    Bytes data = MakeData(100 + static_cast<std::size_t>(i), 100 + i);
    ChunkId id = ChunkId::For(data);
    expected.insert(id.ToHex());
    ASSERT_TRUE(store_->Put(id, data).ok());
  }
  std::set<std::string> got;
  for (const ChunkId& id : store_->List()) got.insert(id.ToHex());
  EXPECT_EQ(got, expected);
}

TEST_P(ChunkStoreTest, BytesUsedSumsSizes) {
  for (std::size_t n : {10u, 20u, 30u}) {
    Bytes data = MakeData(n, n);
    ASSERT_TRUE(store_->Put(ChunkId::For(data), data).ok());
  }
  EXPECT_EQ(store_->BytesUsed(), 60u);
}

TEST_P(ChunkStoreTest, EmptyChunkSupported) {
  Bytes empty;
  ChunkId id = ChunkId::For(empty);
  ASSERT_TRUE(store_->Put(id, empty).ok());
  auto got = store_->Get(id);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().empty());
}

TEST_P(ChunkStoreTest, PutBatchStoresWholeGeneration) {
  std::vector<Bytes> payloads;
  std::vector<ChunkPut> batch;
  for (int i = 0; i < 8; ++i) {
    payloads.push_back(MakeData(100 + static_cast<std::size_t>(i), 900 + i));
    batch.push_back(
        ChunkPut{ChunkId::For(payloads.back()), BufferSlice::Copy(payloads.back())});
  }
  // Duplicate id within the batch (repeated content): stored once.
  batch.push_back(batch.front());
  ASSERT_TRUE(store_->PutBatch(batch).ok());
  EXPECT_EQ(store_->ChunkCount(), 8u);
  for (const Bytes& data : payloads) {
    auto got = store_->Get(ChunkId::For(data));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), data);
  }
  // Re-batching is idempotent.
  ASSERT_TRUE(store_->PutBatch(batch).ok());
  EXPECT_EQ(store_->ChunkCount(), 8u);
}

TEST_P(ChunkStoreTest, WipeDropsEverythingButHeldSlicesStayValid) {
  Bytes data = MakeData(2048, 31);
  ChunkId id = ChunkId::For(data);
  ASSERT_TRUE(store_->Put(id, data).ok());
  auto held = store_->Get(id);
  ASSERT_TRUE(held.ok());

  ASSERT_TRUE(store_->Wipe().ok());
  EXPECT_EQ(store_->ChunkCount(), 0u);
  EXPECT_EQ(store_->BytesUsed(), 0u);
  EXPECT_FALSE(store_->Contains(id));
  EXPECT_EQ(held.value(), data);  // the slice outlives the wipe

  // The store remains usable after a wipe.
  ASSERT_TRUE(store_->Put(id, data).ok());
  EXPECT_EQ(store_->ChunkCount(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ChunkStoreTest,
                         ::testing::Values(StoreKind::kMemory,
                                           StoreKind::kDisk),
                         [](const auto& info) {
                           return info.param == StoreKind::kMemory ? "Memory"
                                                                   : "Disk";
                         });

// Randomized op-sequence driven against the memory and disk stores in
// lockstep: the two backends must be observationally identical — same
// status codes, same visible bytes, same accounting — and disk slices
// handed out along the way (zero-copy views of mmap'd segments) must stay
// byte-stable across every later Delete/Wipe/segment reclamation.
TEST(ChunkStorePropertyTest, MemoryAndDiskStoresAgreeUnderRandomOps) {
  auto dir = std::filesystem::temp_directory_path() /
             ("stdchk_lockstep_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  auto memory = MakeMemoryChunkStore();
  DiskStoreOptions small;
  small.segment_target_bytes = 2048;  // force frequent rolls + reclamation
  auto disk_result = MakeDiskChunkStore(dir.string(), small);
  ASSERT_TRUE(disk_result.ok()) << disk_result.status();
  auto disk = std::move(disk_result).value();

  Rng rng(0xC0FFEE);
  std::vector<std::pair<ChunkId, Bytes>> universe;  // ids ops draw from
  auto random_chunk = [&]() {
    Bytes data = rng.RandomBytes(rng.NextBelow(700));  // includes empty
    universe.emplace_back(ChunkId::For(data), data);
    return universe.back();
  };
  auto known_id = [&]() {
    return universe[rng.NextBelow(universe.size())].first;
  };
  random_chunk();  // never draw from an empty universe

  struct HeldSlice {
    BufferSlice slice;
    Bytes expected;
  };
  std::vector<HeldSlice> held;

  for (int op = 0; op < 600; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    double dice = rng.NextDouble();
    if (dice < 0.30) {  // Put (fresh or re-put)
      auto [id, data] = rng.NextBool(0.7) ? random_chunk()
                                          : universe[rng.NextBelow(
                                                universe.size())];
      Status m = memory->Put(id, BufferSlice::Copy(data));
      Status d = disk->Put(id, BufferSlice::Copy(data));
      EXPECT_EQ(m.code(), d.code());
    } else if (dice < 0.45) {  // PutBatch of a small generation
      // Pack the generation into ONE shared backing for the memory store
      // (the real drain shape): later deletes then strand dead bytes in
      // the backing, which is what memory CompactStep exists to reclaim.
      std::size_t n = 1 + rng.NextBelow(6);
      std::vector<std::pair<ChunkId, Bytes>> gen;
      Bytes packed;
      for (std::size_t i = 0; i < n; ++i) {
        gen.push_back(random_chunk());
        packed.insert(packed.end(), gen.back().second.begin(),
                      gen.back().second.end());
      }
      BufferRef backing = BufferRef::Take(std::move(packed));
      std::vector<ChunkPut> mem_batch, disk_batch;
      std::size_t off = 0;
      for (const auto& [id, data] : gen) {
        mem_batch.push_back(
            ChunkPut{id, BufferSlice(backing, off, data.size())});
        disk_batch.push_back(ChunkPut{id, BufferSlice::Copy(data)});
        off += data.size();
      }
      Status m = memory->PutBatch(mem_batch);
      Status d = disk->PutBatch(disk_batch);
      EXPECT_EQ(m.code(), d.code());
    } else if (dice < 0.70) {  // Get, occasionally holding the disk slice
      ChunkId id = known_id();
      auto m = memory->Get(id);
      auto d = disk->Get(id);
      ASSERT_EQ(m.status().code(), d.status().code());
      if (m.ok()) {
        EXPECT_EQ(m.value(), d.value());
        if (rng.NextBool(0.5)) {
          held.push_back(HeldSlice{d.value(), d.value().ToBytes()});
        }
      }
    } else if (dice < 0.88) {  // Delete
      ChunkId id = known_id();
      Status m = memory->Delete(id);
      Status d = disk->Delete(id);
      EXPECT_EQ(m.code(), d.code());
    } else if (dice < 0.91) {  // Wipe (rare)
      EXPECT_TRUE(memory->Wipe().ok());
      EXPECT_TRUE(disk->Wipe().ok());
    } else if (dice < 0.97) {  // CompactStep interleaved with the traffic
      CompactionPolicy policy;
      // Eager threshold: any segment/backing with one dead record and one
      // survivor is a victim, so compaction interleaves with everything
      // else as often as the mix allows.
      policy.utilization_threshold = 0.9;
      policy.max_bytes_per_step = 4096;
      auto m = memory->CompactStep(policy);
      auto d = disk->CompactStep(policy);
      EXPECT_TRUE(m.ok()) << m.status();
      EXPECT_TRUE(d.ok()) << d.status();
    } else {  // Contains
      ChunkId id = known_id();
      EXPECT_EQ(memory->Contains(id), disk->Contains(id));
    }

    ASSERT_EQ(memory->BytesUsed(), disk->BytesUsed());
    ASSERT_EQ(memory->ChunkCount(), disk->ChunkCount());
  }

  // Visible state is identical chunk for chunk.
  std::set<std::string> memory_ids, disk_ids;
  for (const ChunkId& id : memory->List()) memory_ids.insert(id.ToHex());
  for (const ChunkId& id : disk->List()) disk_ids.insert(id.ToHex());
  EXPECT_EQ(memory_ids, disk_ids);
  for (const ChunkId& id : memory->List()) {
    auto m = memory->Get(id);
    auto d = disk->Get(id);
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(m.value(), d.value());
  }

  // Every slice held across subsequent deletes, wipes and segment
  // reclamations still reads its original bytes (the mmap backing lives
  // until the last slice drops, unlinked files included).
  EXPECT_GE(held.size(), 5u);  // the op mix must actually exercise this
  for (std::size_t i = 0; i < held.size(); ++i) {
    SCOPED_TRACE("held slice " + std::to_string(i));
    EXPECT_EQ(held[i].slice, ByteSpan(held[i].expected));
  }
  EXPECT_GT(disk->Stats().segments_reclaimed, 0u);
  // The interleaved CompactStep ops must have actually compacted — on both
  // backends — while every invariant above held.
  EXPECT_GT(disk->Stats().segments_compacted, 0u);
  EXPECT_GT(memory->Stats().generations_released, 0u);

  held.clear();
  memory.reset();
  disk.reset();
  std::filesystem::remove_all(dir);
}

TEST(DiskChunkStoreTest, SurvivesReopen) {
  auto dir = std::filesystem::temp_directory_path() / "stdchk_reopen_test";
  std::filesystem::remove_all(dir);

  Rng rng(5);
  Bytes data = rng.RandomBytes(512);
  ChunkId id = ChunkId::For(data);
  {
    auto store = MakeDiskChunkStore(dir.string());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Put(id, data).ok());
  }
  {
    auto store = MakeDiskChunkStore(dir.string());
    ASSERT_TRUE(store.ok());
    EXPECT_TRUE(store.value()->Contains(id));
    EXPECT_EQ(store.value()->BytesUsed(), 512u);
    auto got = store.value()->Get(id);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), data);
  }
  std::filesystem::remove_all(dir);
}

// The over-retention gap ResidentBytes() exists to expose: slices aliasing
// one drain generation pin the whole backing buffer, so a memory store
// retaining a small fraction of the generation's chunks still holds the
// full generation resident while BytesUsed() reports only the fraction.
TEST(MemoryStoreResidencyTest, RetainedSlicePinsWholeGeneration) {
  auto store = MakeMemoryChunkStore();
  constexpr std::size_t kGeneration = 1 << 20;  // one 1 MiB drain
  constexpr std::size_t kChunk = 64 << 10;
  Rng rng(77);
  BufferRef backing = BufferRef::Take(rng.RandomBytes(kGeneration));

  std::vector<ChunkId> ids;
  for (std::size_t off = 0; off < kGeneration; off += kChunk) {
    BufferSlice slice(backing, off, kChunk);
    ChunkId id = ChunkId::For(slice.span());
    ids.push_back(id);
    ASSERT_TRUE(store->Put(id, std::move(slice)).ok());
  }
  backing = BufferRef();  // the store is now the only owner

  EXPECT_EQ(store->BytesUsed(), kGeneration);
  EXPECT_EQ(store->ResidentBytes(), kGeneration);

  // Dedup-style retention: keep one chunk, delete the rest. BytesUsed
  // drops to one chunk; the resident footprint stays the whole generation.
  for (std::size_t i = 1; i < ids.size(); ++i) {
    ASSERT_TRUE(store->Delete(ids[i]).ok());
  }
  EXPECT_EQ(store->BytesUsed(), kChunk);
  EXPECT_EQ(store->ResidentBytes(), kGeneration);
  EXPECT_GE(store->ResidentBytes(), 16 * store->BytesUsed());

  // Dropping the last chunk unpins the generation.
  ASSERT_TRUE(store->Delete(ids[0]).ok());
  EXPECT_EQ(store->BytesUsed(), 0u);
  EXPECT_EQ(store->ResidentBytes(), 0u);
}

// CompactStep closes the over-retention gap: survivors of a mostly-dead
// generation move into a fresh tightly-packed backing, the store's pin on
// the old generation drops, and reader-held slices of the old generation
// stay byte-stable (their pin, not the store's).
TEST(MemoryStoreResidencyTest, CompactStepClosesTheGap) {
  auto store = MakeMemoryChunkStore();
  constexpr std::size_t kGeneration = 1 << 20;
  constexpr std::size_t kChunk = 64 << 10;
  Rng rng(80);
  BufferRef backing = BufferRef::Take(rng.RandomBytes(kGeneration));

  std::vector<ChunkId> ids;
  for (std::size_t off = 0; off < kGeneration; off += kChunk) {
    BufferSlice slice(backing, off, kChunk);
    ChunkId id = ChunkId::For(slice.span());
    // The planner stamps what it names: the pre-compaction slices carry
    // digest stamps that the compacted copies must NOT inherit.
    slice.StampDigest(id.digest);
    ids.push_back(id);
    ASSERT_TRUE(store->Put(id, std::move(slice)).ok());
  }
  backing = BufferRef();

  // Keep one chunk, delete the rest: the classic dedup-retention shape.
  for (std::size_t i = 1; i < ids.size(); ++i) {
    ASSERT_TRUE(store->Delete(ids[i]).ok());
  }
  ASSERT_EQ(store->BytesUsed(), kChunk);
  ASSERT_EQ(store->ResidentBytes(), kGeneration);

  // A reader holds the old-generation slice across the move.
  auto held = store->Get(ids[0]);
  ASSERT_TRUE(held.ok());
  Bytes expected = held.value().ToBytes();
  EXPECT_NE(held.value().stamped_digest(), nullptr);  // original is stamped

  CompactionPolicy policy;  // threshold 0.5; utilization here is 1/16
  auto step = store->CompactStep(policy);
  ASSERT_TRUE(step.ok()) << step.status();
  EXPECT_EQ(step.value().generations_released, 1u);
  EXPECT_EQ(step.value().bytes_rewritten, kChunk);
  EXPECT_EQ(step.value().bytes_reclaimed, kGeneration - kChunk);

  // The store now pins only the packed copy...
  EXPECT_EQ(store->BytesUsed(), kChunk);
  EXPECT_EQ(store->ResidentBytes(), kChunk);
  EXPECT_EQ(store->Stats().generations_released, 1u);
  EXPECT_EQ(store->Stats().compacted_bytes_rewritten, kChunk);

  // ...the moved chunk reads the same bytes from a NEW, UNSTAMPED backing
  // (no stale-stamp shortcut on moved bytes)...
  auto got = store->Get(ids[0]);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), ByteSpan(expected));
  EXPECT_FALSE(got.value().SharesBufferWith(held.value()));
  EXPECT_EQ(got.value().stamped_digest(), nullptr);

  // ...and the reader's old-generation slice is byte-stable throughout.
  EXPECT_EQ(held.value(), ByteSpan(expected));

  // Fully-live backings are left alone: compaction converges.
  auto idle = store->CompactStep(policy);
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle.value().generations_released, 0u);
}

TEST(MemoryStoreResidencyTest, IndependentBackingsCountedOnce) {
  auto store = MakeMemoryChunkStore();
  Rng rng(78);
  // Two generations; two chunks each. Resident = sum of distinct backings.
  for (int g = 0; g < 2; ++g) {
    BufferRef backing = BufferRef::Take(rng.RandomBytes(4096));
    for (std::size_t off = 0; off < 4096; off += 2048) {
      BufferSlice slice(backing, off, 2048);
      ASSERT_TRUE(store->Put(ChunkId::For(slice.span()), slice).ok());
    }
  }
  EXPECT_EQ(store->BytesUsed(), 8192u);
  EXPECT_EQ(store->ResidentBytes(), 8192u);
}

TEST(DiskStoreResidencyTest, PinsNothing) {
  auto dir = std::filesystem::temp_directory_path() /
             ("stdchk_residency_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  auto store = MakeDiskChunkStore(dir.string());
  ASSERT_TRUE(store.ok());
  Rng rng(79);
  Bytes data = rng.RandomBytes(4096);
  ASSERT_TRUE(store.value()->Put(ChunkId::For(data), data).ok());
  EXPECT_EQ(store.value()->BytesUsed(), 4096u);
  EXPECT_EQ(store.value()->ResidentBytes(), 0u);
  std::filesystem::remove_all(dir);
}

// Satellite bugfix: ResidentBytes() used to hard-code 0, hiding the disk
// space reader-held mmap slices keep alive after their segment is
// unlinked (reclaim or compaction). Those bytes are invisible to `du` —
// the store must report them or the compaction invariant is unmeasurable.
TEST(DiskStoreResidencyTest, UnlinkedMappingsCountUntilReadersDrop) {
  auto dir = std::filesystem::temp_directory_path() /
             ("stdchk_residency_unlinked_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  DiskStoreOptions small;
  small.segment_target_bytes = 1;  // roll per batch
  auto store = MakeDiskChunkStore(dir.string(), small);
  ASSERT_TRUE(store.ok());
  Rng rng(81);

  std::vector<ChunkId> gen_a;
  std::vector<ChunkPut> batch;
  for (int i = 0; i < 4; ++i) {
    Bytes data = rng.RandomBytes(1024);
    gen_a.push_back(ChunkId::For(data));
    batch.push_back(ChunkPut{gen_a.back(), BufferSlice::Copy(data)});
  }
  ASSERT_TRUE(store.value()->PutBatch(batch).ok());
  Bytes b = rng.RandomBytes(256);
  ASSERT_TRUE(store.value()->Put(ChunkId::For(b), b).ok());  // rolls

  // Reading maps the segment, but a mapping of a *linked* file is page
  // cache the kernel can drop — not pinned space.
  auto held = store.value()->Get(gen_a[0]);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(store.value()->ResidentBytes(), 0u);

  // Kill the generation: its segment unlinks, but the reader's slice
  // keeps the whole mapped segment (and its disk blocks) alive.
  for (const ChunkId& id : gen_a) {
    ASSERT_TRUE(store.value()->Delete(id).ok());
  }
  ASSERT_EQ(store.value()->Stats().segments_reclaimed, 1u);
  EXPECT_GE(store.value()->ResidentBytes(), 4u * 1024u);
  EXPECT_EQ(held.value().size(), 1024u);  // still serving the dead segment

  // Dropping the last slice releases the mapping; the accounting follows.
  held.value() = BufferSlice();
  EXPECT_EQ(store.value()->ResidentBytes(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ChunkIdTest, ContentAddressing) {
  Bytes a = ToBytes("same content");
  Bytes b = ToBytes("same content");
  Bytes c = ToBytes("other content");
  EXPECT_EQ(ChunkId::For(a), ChunkId::For(b));
  EXPECT_NE(ChunkId::For(a), ChunkId::For(c));
}

TEST(ChunkMapTest, FileSizeFromChunks) {
  ChunkMap map;
  EXPECT_EQ(map.FileSize(), 0u);
  map.chunks.push_back(ChunkLocation{ChunkId{}, 0, 100, {1}});
  map.chunks.push_back(ChunkLocation{ChunkId{}, 100, 50, {2}});
  EXPECT_EQ(map.FileSize(), 150u);
}

}  // namespace
}  // namespace stdchk
