// Crash/corruption battery for the log-structured segment disk store:
// simulate crashes by truncating the last segment at every record boundary
// and mid-record, and silent media corruption by flipping bits in headers
// and payloads; every reopen must recover exactly the intact prefix, drop
// torn/corrupt tails, and never serve bytes that fail SHA-1 verification.
//
// The Walk* helpers re-derive record boundaries from the on-disk format
// (mirroring disk_chunk_store.cc's layout), so a format drift breaks this
// battery loudly instead of silently weakening it.
#include "chunk/chunk_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "benefactor/benefactor.h"
#include "common/hash.h"
#include "common/rng.h"

namespace stdchk {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kHeaderSize = 32;
constexpr std::size_t kRecordAlign = 8;

struct RecordInfo {
  std::uint64_t start = 0;    // header offset within the segment
  std::uint64_t payload = 0;  // payload offset
  std::uint32_t length = 0;
  ChunkId id;
  std::uint64_t end = 0;  // aligned end = next record's start
};

Bytes ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

// Walks a segment file's records using the published layout (magic,
// length, crc, id, payload, pad-to-8). CRCs are not re-verified here —
// the store under test owns that judgement.
std::vector<RecordInfo> WalkSegment(const fs::path& path) {
  Bytes file = ReadFileBytes(path);
  std::vector<RecordInfo> records;
  std::uint64_t off = 0;
  while (off + kHeaderSize <= file.size()) {
    RecordInfo rec;
    rec.start = off;
    std::uint32_t length = 0;
    std::memcpy(&length, file.data() + off + 4, 4);  // little-endian host
    rec.length = length;
    rec.payload = off + kHeaderSize;
    std::memcpy(rec.id.digest.bytes.data(), file.data() + off + 12, 20);
    std::uint64_t body = kHeaderSize + length;
    rec.end = off + body + (kRecordAlign - body % kRecordAlign) % kRecordAlign;
    if (rec.payload + length > file.size()) break;
    records.push_back(rec);
    off = rec.end;
  }
  return records;
}

std::vector<fs::path> SegmentFiles(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().starts_with("seg-")) {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void TruncateFile(const fs::path& path, std::uint64_t size) {
  std::error_code ec;
  fs::resize_file(path, size, ec);
  ASSERT_FALSE(ec) << ec.message();
}

void FlipBit(const fs::path& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

void CopyTree(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

class DiskSegmentRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("stdchk_segrec_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    pristine_ = root_ / "pristine";
    scratch_ = root_ / "scratch";
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override { fs::remove_all(root_); }

  // Writes `generations` PutBatches of `per_gen` random chunks each and
  // closes the store. Returns the chunks in record order.
  std::vector<std::pair<ChunkId, Bytes>> WriteCorpus(
      const fs::path& dir, int generations, int per_gen,
      const DiskStoreOptions& options = {}) {
    std::vector<std::pair<ChunkId, Bytes>> corpus;
    auto store = MakeDiskChunkStore(dir.string(), options);
    EXPECT_TRUE(store.ok()) << store.status();
    for (int g = 0; g < generations; ++g) {
      std::vector<ChunkPut> batch;
      std::vector<Bytes> payloads;
      for (int c = 0; c < per_gen; ++c) {
        payloads.push_back(
            rng_.RandomBytes(1 + rng_.NextBelow(4096)));
      }
      for (Bytes& payload : payloads) {
        ChunkId id = ChunkId::For(payload);
        corpus.emplace_back(id, payload);
        batch.push_back(
            ChunkPut{id, BufferSlice(BufferRef::Take(std::move(payload)))});
      }
      EXPECT_TRUE(store.value()->PutBatch(batch).ok());
    }
    return corpus;
  }

  // Reopens `dir` and asserts the store holds exactly corpus[0..intact) —
  // every intact chunk readable and SHA-1-clean, everything else gone.
  void ExpectRecoversPrefix(
      const fs::path& dir,
      const std::vector<std::pair<ChunkId, Bytes>>& corpus,
      std::size_t intact, const DiskStoreOptions& options = {}) {
    auto reopened = MakeDiskChunkStore(dir.string(), options);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    ChunkStore& store = *reopened.value();
    std::uint64_t expect_bytes = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const auto& [id, data] = corpus[i];
      if (i < intact) {
        ASSERT_TRUE(store.Contains(id)) << "chunk " << i << " lost";
        auto got = store.Get(id);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(got.value(), data) << "chunk " << i << " corrupt";
        expect_bytes += data.size();
      } else {
        EXPECT_FALSE(store.Contains(id)) << "chunk " << i << " resurrected";
        EXPECT_EQ(store.Get(id).status().code(), StatusCode::kNotFound);
      }
    }
    EXPECT_EQ(store.ChunkCount(), intact);
    EXPECT_EQ(store.BytesUsed(), expect_bytes);
    EXPECT_EQ(store.Stats().recovered_chunks, intact);
    VerifyEverythingServable(store);
  }

  // The battery's core guarantee: whatever survived recovery, reading it
  // back yields bytes whose SHA-1 is the content address.
  void VerifyEverythingServable(ChunkStore& store) {
    for (const ChunkId& id : store.List()) {
      auto got = store.Get(id);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(ChunkId::For(got.value().span()), id)
          << "served bytes fail SHA-1 verification";
    }
  }

  fs::path root_, pristine_, scratch_;
  Rng rng_{0x5EC7};
};

TEST_F(DiskSegmentRecoveryTest, CleanReopenRecoversEverything) {
  auto corpus = WriteCorpus(pristine_, /*generations=*/3, /*per_gen=*/5);
  ExpectRecoversPrefix(pristine_, corpus, corpus.size());
}

TEST_F(DiskSegmentRecoveryTest, TruncationAtEveryRecordBoundary) {
  auto corpus = WriteCorpus(pristine_, 3, 4);
  auto segments = SegmentFiles(pristine_);
  ASSERT_EQ(segments.size(), 1u);  // default target: one segment
  auto records = WalkSegment(segments[0]);
  ASSERT_EQ(records.size(), corpus.size());

  for (std::size_t k = 0; k <= records.size(); ++k) {
    SCOPED_TRACE("records kept: " + std::to_string(k));
    CopyTree(pristine_, scratch_);
    std::uint64_t cut = k == 0 ? 0 : records[k - 1].end;
    TruncateFile(SegmentFiles(scratch_)[0], cut);
    ExpectRecoversPrefix(scratch_, corpus, k);
  }
}

TEST_F(DiskSegmentRecoveryTest, TruncationMidRecord) {
  auto corpus = WriteCorpus(pristine_, 2, 4);
  auto records = WalkSegment(SegmentFiles(pristine_)[0]);
  ASSERT_EQ(records.size(), corpus.size());

  for (std::size_t k = 0; k < records.size(); ++k) {
    // Three torn shapes per record: a sliver of header, a full header with
    // missing payload, and a payload cut in half.
    const std::uint64_t cuts[] = {
        records[k].start + 1, records[k].start + kHeaderSize - 1,
        records[k].payload + records[k].length / 2};
    for (std::uint64_t cut : cuts) {
      SCOPED_TRACE("record " + std::to_string(k) + " cut at " +
                   std::to_string(cut));
      CopyTree(pristine_, scratch_);
      TruncateFile(SegmentFiles(scratch_)[0], cut);

      // The first reopen cuts the torn tail back to the record boundary...
      {
        auto reopened = MakeDiskChunkStore(scratch_.string());
        ASSERT_TRUE(reopened.ok());
        EXPECT_EQ(reopened.value()->Stats().torn_tails_truncated, 1u);
      }
      // ...so a second reopen sees a clean log and the intact prefix.
      ExpectRecoversPrefix(scratch_, corpus, k);
    }
  }
}

TEST_F(DiskSegmentRecoveryTest, BitFlipsDropTheTailFromTheCorruptRecord) {
  auto corpus = WriteCorpus(pristine_, 2, 4);
  auto records = WalkSegment(SegmentFiles(pristine_)[0]);
  ASSERT_EQ(records.size(), corpus.size());

  for (std::size_t k = 0; k < records.size(); ++k) {
    // Corruption targets: magic, length field, CRC field, chunk id, and
    // mid-payload. The record CRC covers all of them, so each flip must
    // drop record k and everything after it — in particular a flipped id
    // byte must NOT index good bytes under a wrong address.
    const std::uint64_t targets[] = {
        records[k].start,       records[k].start + 5, records[k].start + 8,
        records[k].start + 15,  // inside the chunk id
        records[k].payload + records[k].length / 2};
    for (std::uint64_t offset : targets) {
      SCOPED_TRACE("record " + std::to_string(k) + " flip at " +
                   std::to_string(offset));
      CopyTree(pristine_, scratch_);
      FlipBit(SegmentFiles(scratch_)[0], offset);
      ExpectRecoversPrefix(scratch_, corpus, k);
    }
  }
}

TEST_F(DiskSegmentRecoveryTest, CorruptionInOneSegmentSparesTheOthers) {
  DiskStoreOptions small;
  small.segment_target_bytes = 1;  // every generation rolls a new segment
  auto corpus = WriteCorpus(pristine_, 3, 4, small);
  auto segments = SegmentFiles(pristine_);
  ASSERT_EQ(segments.size(), 3u);

  // Flip a bit in the middle segment's first record payload: generation 0
  // and generation 2 must survive untouched; generation 1 loses everything
  // from its first record on.
  auto mid_records = WalkSegment(segments[1]);
  CopyTree(pristine_, scratch_);
  FlipBit(SegmentFiles(scratch_)[1], mid_records[0].payload);

  auto reopened = MakeDiskChunkStore(scratch_.string(), small);
  ASSERT_TRUE(reopened.ok());
  ChunkStore& store = *reopened.value();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    bool in_corrupt_gen = i >= 4 && i < 8;
    EXPECT_EQ(store.Contains(corpus[i].first), !in_corrupt_gen)
        << "chunk " << i;
  }
  EXPECT_EQ(store.Stats().torn_tails_truncated, 1u);
  VerifyEverythingServable(store);
}

TEST_F(DiskSegmentRecoveryTest, AppendsContinueCleanlyAfterTornTailRecovery) {
  auto corpus = WriteCorpus(pristine_, 2, 3);
  auto records = WalkSegment(SegmentFiles(pristine_)[0]);
  // Tear the last record mid-payload...
  TruncateFile(SegmentFiles(pristine_)[0],
               records.back().payload + records.back().length / 2);
  // ...recover, then write a fresh generation into the recovered store.
  {
    auto store = MakeDiskChunkStore(pristine_.string());
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store.value()->Stats().torn_tails_truncated, 1u);
    corpus.pop_back();
    Bytes extra = rng_.RandomBytes(2000);
    ChunkId id = ChunkId::For(extra);
    ASSERT_TRUE(store.value()->Put(id, extra).ok());
    corpus.emplace_back(id, std::move(extra));
  }
  // A second reopen must see the intact prefix plus the new chunk.
  ExpectRecoversPrefix(pristine_, corpus, corpus.size());
}

TEST_F(DiskSegmentRecoveryTest, OneDataSyscallPerDrainGeneration) {
  auto store = MakeDiskChunkStore(pristine_.string());
  ASSERT_TRUE(store.ok());

  std::vector<ChunkPut> batch;
  std::vector<Bytes> keep;
  for (int i = 0; i < 16; ++i) keep.push_back(rng_.RandomBytes(2048));
  for (const Bytes& data : keep) {
    batch.push_back(ChunkPut{ChunkId::For(data), BufferSlice::Copy(data)});
  }
  ASSERT_TRUE(store.value()->PutBatch(batch).ok());

  ChunkStoreStats stats = store.value()->Stats();
  EXPECT_EQ(stats.put_batches, 1u);
  EXPECT_EQ(stats.data_syscalls, 1u);  // the whole generation: one pwritev
  EXPECT_EQ(stats.fsyncs, 1u);
  EXPECT_EQ(stats.segments_created, 1u);

  // Re-putting the same generation is a no-op — no I/O at all.
  ASSERT_TRUE(store.value()->PutBatch(batch).ok());
  EXPECT_EQ(store.value()->Stats().data_syscalls, 1u);

  // A second distinct generation costs exactly one more.
  Bytes extra = rng_.RandomBytes(512);
  ASSERT_TRUE(store.value()->Put(ChunkId::For(extra), extra).ok());
  EXPECT_EQ(store.value()->Stats().data_syscalls, 2u);
}

TEST_F(DiskSegmentRecoveryTest, DeadSegmentsAreReclaimedAndSlicesSurvive) {
  DiskStoreOptions small;
  small.segment_target_bytes = 1;  // roll per batch
  auto store = MakeDiskChunkStore(pristine_.string(), small);
  ASSERT_TRUE(store.ok());

  std::vector<ChunkId> gen_a;
  std::vector<Bytes> payloads;
  std::vector<ChunkPut> batch;
  for (int i = 0; i < 4; ++i) {
    payloads.push_back(rng_.RandomBytes(1024));
    gen_a.push_back(ChunkId::For(payloads.back()));
    batch.push_back(ChunkPut{gen_a.back(), BufferSlice::Copy(payloads[i])});
  }
  ASSERT_TRUE(store.value()->PutBatch(batch).ok());
  Bytes other = rng_.RandomBytes(1024);
  ASSERT_TRUE(store.value()->Put(ChunkId::For(other), other).ok());
  ASSERT_EQ(SegmentFiles(pristine_).size(), 2u);

  // Hold a zero-copy slice of generation A across its segment's death.
  auto held = store.value()->Get(gen_a[0]);
  ASSERT_TRUE(held.ok());

  for (const ChunkId& id : gen_a) {
    ASSERT_TRUE(store.value()->Delete(id).ok());
  }
  EXPECT_EQ(store.value()->Stats().segments_reclaimed, 1u);
  EXPECT_EQ(SegmentFiles(pristine_).size(), 1u);  // seg A unlinked

  // The mapping outlives the unlink: the held slice still reads clean.
  EXPECT_EQ(held.value(), payloads[0]);
  EXPECT_EQ(ChunkId::For(held.value().span()), gen_a[0]);

  // The survivor is untouched, and the store keeps serving writes.
  auto got = store.value()->Get(ChunkId::For(other));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), other);
}

// Regression: a segment whose records all die while it is still the
// *active* (append) segment used to be skipped by Delete-time reclaim and
// never revisited — the dead file leaked until Wipe. Rolling to a fresh
// segment must reclaim the fully-dead one it leaves behind.
TEST_F(DiskSegmentRecoveryTest, FullyDeadActiveSegmentIsReclaimedAtRoll) {
  DiskStoreOptions small;
  small.segment_target_bytes = 1;  // roll per batch
  auto store = MakeDiskChunkStore(pristine_.string(), small);
  ASSERT_TRUE(store.ok());

  Bytes a = rng_.RandomBytes(1024);
  ChunkId id_a = ChunkId::For(a);
  ASSERT_TRUE(store.value()->Put(id_a, a).ok());
  // Kill the only record while its segment is still the active one:
  // Delete cannot reclaim it (appends may still land there)...
  ASSERT_TRUE(store.value()->Delete(id_a).ok());
  EXPECT_EQ(store.value()->Stats().segments_reclaimed, 0u);
  ASSERT_EQ(SegmentFiles(pristine_).size(), 1u);

  // ...but the roll triggered by the next batch must, or the dead file
  // leaks forever.
  Bytes b = rng_.RandomBytes(1024);
  ASSERT_TRUE(store.value()->Put(ChunkId::For(b), b).ok());
  EXPECT_EQ(store.value()->Stats().segments_reclaimed, 1u);
  EXPECT_EQ(SegmentFiles(pristine_).size(), 1u);  // only the new segment

  // The reclaimed state survives a reopen.
  store.value().reset();
  ExpectRecoversPrefix(pristine_, {{ChunkId::For(b), b}}, 1, small);
}

TEST_F(DiskSegmentRecoveryTest, CompactStepRewritesLiveRecordsAndUnlinks) {
  DiskStoreOptions small;
  small.segment_target_bytes = 1;  // roll per batch
  auto store = MakeDiskChunkStore(pristine_.string(), small);
  ASSERT_TRUE(store.ok());

  // Generation A: four chunks in one segment; generation B rolls it cold.
  std::vector<Bytes> gen_a;
  std::vector<ChunkPut> batch;
  for (int i = 0; i < 4; ++i) {
    gen_a.push_back(rng_.RandomBytes(1024));
    batch.push_back(
        ChunkPut{ChunkId::For(gen_a.back()), BufferSlice::Copy(gen_a.back())});
  }
  ASSERT_TRUE(store.value()->PutBatch(batch).ok());
  Bytes b = rng_.RandomBytes(512);
  ASSERT_TRUE(store.value()->Put(ChunkId::For(b), b).ok());
  ASSERT_EQ(SegmentFiles(pristine_).size(), 2u);

  // Kill 3 of A's 4 records: utilization 1/4 < 1/2 makes A a victim. Hold
  // a reader slice of the survivor across the move.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.value()->Delete(ChunkId::For(gen_a[i])).ok());
  }
  ChunkId survivor = ChunkId::For(gen_a[3]);
  auto held = store.value()->Get(survivor);
  ASSERT_TRUE(held.ok());

  CompactionPolicy policy;  // threshold 0.5
  auto step = store.value()->CompactStep(policy);
  ASSERT_TRUE(step.ok()) << step.status();
  EXPECT_EQ(step.value().segments_compacted, 1u);
  EXPECT_EQ(step.value().bytes_rewritten, gen_a[3].size());
  EXPECT_GT(step.value().bytes_reclaimed, 0u);

  // The victim is gone from disk; the survivor reads clean from its new
  // home and the held slice of the old mapping is byte-stable.
  EXPECT_EQ(SegmentFiles(pristine_).size(), 2u);  // gen B + compacted out
  auto got = store.value()->Get(survivor);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), gen_a[3]);
  EXPECT_EQ(held.value(), gen_a[3]);
  EXPECT_FALSE(got.value().SharesBufferWith(held.value()));  // new mapping

  ChunkStoreStats stats = store.value()->Stats();
  EXPECT_EQ(stats.segments_compacted, 1u);
  EXPECT_EQ(stats.compacted_bytes_rewritten, gen_a[3].size());
  EXPECT_EQ(stats.compaction_steps, 1u);

  // A second step finds nothing below threshold: compaction converges.
  auto idle = store.value()->CompactStep(policy);
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle.value().segments_compacted, 0u);

  // The compacted layout recovers: survivor + gen B, nothing resurrected.
  store.value().reset();
  ExpectRecoversPrefix(pristine_,
                       {{survivor, gen_a[3]}, {ChunkId::For(b), b}}, 2, small);
}

// Crash injected after the compacted segment is durable but before the
// index repoints and the victims unlink: both copies are on disk. Recovery
// must keep the first copy (sequence order), count the duplicate as dead
// bytes, and lose nothing.
TEST_F(DiskSegmentRecoveryTest, CrashBeforeCompactionPublishLosesNothing) {
  DiskStoreOptions crashy;
  crashy.segment_target_bytes = 1;
  crashy.testing_compaction_abort_before_publish = true;

  std::vector<std::pair<ChunkId, Bytes>> live;
  {
    auto store = MakeDiskChunkStore(pristine_.string(), crashy);
    ASSERT_TRUE(store.ok());
    std::vector<ChunkPut> batch;
    std::vector<Bytes> gen_a;
    for (int i = 0; i < 4; ++i) {
      gen_a.push_back(rng_.RandomBytes(1024));
      batch.push_back(ChunkPut{ChunkId::For(gen_a.back()),
                               BufferSlice::Copy(gen_a.back())});
    }
    ASSERT_TRUE(store.value()->PutBatch(batch).ok());
    Bytes b = rng_.RandomBytes(512);
    ASSERT_TRUE(store.value()->Put(ChunkId::For(b), b).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(store.value()->Delete(ChunkId::For(gen_a[i])).ok());
    }
    live.emplace_back(ChunkId::For(gen_a[3]), gen_a[3]);
    live.emplace_back(ChunkId::For(b), b);

    auto step = store.value()->CompactStep(CompactionPolicy{});
    EXPECT_FALSE(step.ok());  // the injected crash
    // Both copies of the survivor now sit on disk, and the still-open
    // store keeps serving the originals untouched.
    EXPECT_EQ(SegmentFiles(pristine_).size(), 3u);
    for (const auto& [id, data] : live) {
      auto got = store.value()->Get(id);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), data);
    }
  }

  // Recovery: the store has no delete tombstones, so the three deleted
  // records of generation A legitimately resurrect — what must hold is
  // that every committed chunk is readable, the duplicated survivor is
  // indexed exactly once (first copy wins), and nothing fails SHA-1.
  auto reopened = MakeDiskChunkStore(pristine_.string());
  ASSERT_TRUE(reopened.ok());
  ChunkStore& store = *reopened.value();
  EXPECT_EQ(store.ChunkCount(), 5u);  // 4 of gen A + gen B; dup collapsed
  EXPECT_EQ(store.Stats().recovered_chunks, 5u);
  for (const auto& [id, data] : live) {
    auto got = store.Get(id);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.value(), data);
  }
  VerifyEverythingServable(store);

  // The duplicate record is dead weight a later CompactStep can reclaim.
  auto cleanup = store.CompactStep(CompactionPolicy{});
  ASSERT_TRUE(cleanup.ok());
  VerifyEverythingServable(store);
}

// The compacted output segment itself can be torn by the crash (it was
// mid-write): recovery must cut it back without touching the originals.
TEST_F(DiskSegmentRecoveryTest, TornCompactedOutputSparesTheOriginals) {
  DiskStoreOptions crashy;
  crashy.segment_target_bytes = 1;
  crashy.testing_compaction_abort_before_publish = true;

  std::vector<std::pair<ChunkId, Bytes>> live;
  {
    auto store = MakeDiskChunkStore(pristine_.string(), crashy);
    ASSERT_TRUE(store.ok());
    std::vector<ChunkPut> batch;
    std::vector<Bytes> gen_a;
    for (int i = 0; i < 4; ++i) {
      gen_a.push_back(rng_.RandomBytes(1024));
      batch.push_back(ChunkPut{ChunkId::For(gen_a.back()),
                               BufferSlice::Copy(gen_a.back())});
    }
    ASSERT_TRUE(store.value()->PutBatch(batch).ok());
    Bytes b = rng_.RandomBytes(512);
    ASSERT_TRUE(store.value()->Put(ChunkId::For(b), b).ok());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(store.value()->Delete(ChunkId::For(gen_a[i])).ok());
    }
    live.emplace_back(ChunkId::For(gen_a[2]), gen_a[2]);
    live.emplace_back(ChunkId::For(gen_a[3]), gen_a[3]);
    live.emplace_back(ChunkId::For(b), b);
    // Utilization is exactly 0.5 after two deletes; raise the threshold so
    // the half-dead segment qualifies and the crash hits mid-move of TWO
    // records (a multi-record torn tail).
    CompactionPolicy eager;
    eager.utilization_threshold = 0.75;
    EXPECT_FALSE(store.value()->CompactStep(eager).ok());
  }

  // Tear the compacted output (the newest segment) mid-record.
  auto segments = SegmentFiles(pristine_);
  ASSERT_EQ(segments.size(), 3u);
  auto out_records = WalkSegment(segments.back());
  ASSERT_EQ(out_records.size(), 2u);  // the two survivors were being moved
  TruncateFile(segments.back(),
               out_records[0].payload + out_records[0].length / 2);

  auto reopened = MakeDiskChunkStore(pristine_.string());
  ASSERT_TRUE(reopened.ok());
  ChunkStore& store = *reopened.value();
  EXPECT_EQ(store.Stats().torn_tails_truncated, 1u);
  for (const auto& [id, data] : live) {
    auto got = store.Get(id);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.value(), data);
  }
  VerifyEverythingServable(store);
}

// Satellite: no stale-stamp shortcut on moved bytes. Compacted records are
// re-read from disk through an unstamped mapping, so a benefactor read
// must re-hash — and a flipped byte in the compacted segment must surface
// as DataLoss, never as a clean read vouched for by a stamp the original
// buffer earned.
TEST_F(DiskSegmentRecoveryTest, TamperedCompactedBytesFailVerification) {
  DiskStoreOptions small;
  small.segment_target_bytes = 1;
  auto made = MakeDiskChunkStore(pristine_.string(), small);
  ASSERT_TRUE(made.ok());
  ChunkStore* store = made.value().get();
  Benefactor donor("tamper-host", std::move(made).value(), 1_GiB);

  std::vector<Bytes> gen_a;
  std::vector<ChunkPut> batch;
  for (int i = 0; i < 4; ++i) {
    gen_a.push_back(rng_.RandomBytes(1024));
    batch.push_back(
        ChunkPut{ChunkId::For(gen_a.back()), BufferSlice::Copy(gen_a.back())});
  }
  ASSERT_TRUE(donor.PutChunkBatch(batch).ok());
  Bytes b = rng_.RandomBytes(512);
  std::vector<ChunkPut> put_b{{ChunkId::For(b), BufferSlice::Copy(b)}};
  ASSERT_TRUE(donor.PutChunkBatch(put_b).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store->Delete(ChunkId::For(gen_a[i])).ok());
  }
  ChunkId survivor = ChunkId::For(gen_a[3]);

  auto step = store->CompactStep(CompactionPolicy{});
  ASSERT_TRUE(step.ok());
  ASSERT_EQ(step.value().segments_compacted, 1u);

  // The moved record carries no digest stamp: verification re-hashes.
  auto raw = store->Get(survivor);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw.value().stamped_digest(), nullptr);
  auto intact = donor.ReadChunk(survivor);
  ASSERT_TRUE(intact.ok());
  // Intact bytes verify fine.
  ASSERT_TRUE(Benefactor::VerifyChunk(survivor, intact.value()).ok());

  // Flip one payload byte in the compacted segment. The reopened store
  // maps the tampered file fresh — and the benefactor's read must catch it.
  auto segments = SegmentFiles(pristine_);
  auto records = WalkSegment(segments.back());
  ASSERT_EQ(records.size(), 1u);
  const std::uint64_t flip_at = records[0].payload + records[0].length / 2;

  auto reopened = MakeDiskChunkStore(pristine_.string(), small);
  ASSERT_TRUE(reopened.ok());
  // Recovery CRC-checks records, so tampering after recovery models the
  // bit rot the paper's benefactors must catch at read time (§IV.C).
  ChunkStore* tampered_store = reopened.value().get();
  Benefactor tampered("tamper-host", std::move(reopened).value(), 1_GiB);
  FlipBit(segments.back(), flip_at);
  ASSERT_TRUE(tampered_store->Contains(survivor));
  auto read = tampered.ReadChunk(survivor);
  ASSERT_TRUE(read.ok()) << read.status();
  Status verified = Benefactor::VerifyChunk(survivor, read.value());
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.code(), StatusCode::kDataLoss);
}

TEST_F(DiskSegmentRecoveryTest, WipeUnlinksEverythingButHeldSlicesLive) {
  auto store = MakeDiskChunkStore(pristine_.string());
  ASSERT_TRUE(store.ok());
  Bytes data = rng_.RandomBytes(3000);
  ChunkId id = ChunkId::For(data);
  ASSERT_TRUE(store.value()->Put(id, data).ok());

  auto held = store.value()->Get(id);
  ASSERT_TRUE(held.ok());

  ASSERT_TRUE(store.value()->Wipe().ok());
  EXPECT_EQ(store.value()->ChunkCount(), 0u);
  EXPECT_EQ(store.value()->BytesUsed(), 0u);
  EXPECT_TRUE(SegmentFiles(pristine_).empty());
  EXPECT_EQ(held.value(), data);  // mmap'd pages survive the unlink

  // The wiped store starts a fresh segment on the next write.
  ASSERT_TRUE(store.value()->Put(id, data).ok());
  auto again = store.value()->Get(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), data);
}

TEST_F(DiskSegmentRecoveryTest, GetIsZeroCopyFromTheMapping) {
  auto store = MakeDiskChunkStore(pristine_.string());
  ASSERT_TRUE(store.ok());
  Bytes data = rng_.RandomBytes(4096);
  ChunkId id = ChunkId::For(data);
  ASSERT_TRUE(store.value()->Put(id, data).ok());

  CopyStatsSnapshot before = copy_stats::Snapshot();
  auto a = store.value()->Get(id);
  auto b = store.value()->Get(id);
  CopyStatsSnapshot after = copy_stats::Snapshot();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(after.materializations, before.materializations);
  EXPECT_EQ(after.payload_copies, before.payload_copies);
  EXPECT_TRUE(a.value().SharesBufferWith(b.value()));  // one mapping
  EXPECT_EQ(store.value()->Stats().mmap_reads, 2u);
}

}  // namespace
}  // namespace stdchk
