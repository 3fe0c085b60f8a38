#include "chkpt/chunker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <unordered_set>

#include "common/hash_pool.h"
#include "common/rng.h"
#include "gear_oracle.h"
#include "workload/trace_generators.h"

namespace stdchk {
namespace {

// Invariant shared by every chunker: spans are contiguous, non-empty, and
// cover [0, size) exactly.
void ExpectFullCoverage(const std::vector<ChunkSpan>& spans,
                        std::size_t size) {
  std::uint64_t expected_offset = 0;
  for (const ChunkSpan& span : spans) {
    ASSERT_EQ(span.offset, expected_offset);
    ASSERT_GT(span.size, 0u);
    expected_offset += span.size;
  }
  EXPECT_EQ(expected_offset, size);
}

TEST(FixedSizeChunkerTest, ExactMultiple) {
  FixedSizeChunker chunker(100);
  Rng rng(1);
  Bytes data = rng.RandomBytes(500);
  auto spans = chunker.Split(data);
  ASSERT_EQ(spans.size(), 5u);
  for (const auto& s : spans) EXPECT_EQ(s.size, 100u);
  ExpectFullCoverage(spans, data.size());
}

TEST(FixedSizeChunkerTest, TrailingPartialChunk) {
  FixedSizeChunker chunker(100);
  Rng rng(2);
  Bytes data = rng.RandomBytes(250);
  auto spans = chunker.Split(data);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans.back().size, 50u);
  ExpectFullCoverage(spans, data.size());
}

TEST(FixedSizeChunkerTest, EmptyInput) {
  FixedSizeChunker chunker(100);
  EXPECT_TRUE(chunker.Split(ByteSpan{}).empty());
}

TEST(FixedSizeChunkerTest, InputSmallerThanChunk) {
  FixedSizeChunker chunker(1_MiB);
  Rng rng(3);
  Bytes data = rng.RandomBytes(10);
  auto spans = chunker.Split(data);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].size, 10u);
}

TEST(FixedSizeChunkerTest, NameIncludesSize) {
  EXPECT_EQ(FixedSizeChunker(1024).name(), "FsCH(1024)");
}

struct CbchCase {
  std::size_t m;
  int k;
  std::size_t p;
};

class CbchCoverageTest : public ::testing::TestWithParam<CbchCase> {};

TEST_P(CbchCoverageTest, CoversInputExactly) {
  const CbchCase& c = GetParam();
  ContentBasedChunker chunker(
      CbchParams{c.m, c.k, c.p, /*max_chunk=*/1u << 20});
  Rng rng(c.m * 1000 + static_cast<std::uint64_t>(c.k));
  for (std::size_t size : {0u, 1u, 5u, 100u, 4096u, 65536u, 300000u}) {
    Bytes data = rng.RandomBytes(size);
    auto spans = chunker.Split(data);
    ExpectFullCoverage(spans, size);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, CbchCoverageTest,
    ::testing::Values(CbchCase{20, 14, 1}, CbchCase{20, 14, 20},
                      CbchCase{32, 10, 32}, CbchCase{64, 8, 64},
                      CbchCase{128, 12, 128}, CbchCase{256, 10, 256},
                      CbchCase{20, 8, 1}, CbchCase{48, 10, 16}));

class CbchRecomputeCoverageTest : public ::testing::TestWithParam<CbchCase> {};

TEST_P(CbchRecomputeCoverageTest, PaperStyleScanCoversInputExactly) {
  const CbchCase& c = GetParam();
  CbchParams params{c.m, c.k, c.p, /*max_chunk=*/1u << 20,
                    /*recompute=*/true};
  ContentBasedChunker chunker(params);
  Rng rng(c.m * 7 + static_cast<std::uint64_t>(c.k));
  for (std::size_t size : {0u, 1u, 100u, 4096u, 100000u}) {
    Bytes data = rng.RandomBytes(size);
    ExpectFullCoverage(chunker.Split(data), size);
  }
}

INSTANTIATE_TEST_SUITE_P(Params, CbchRecomputeCoverageTest,
                         ::testing::Values(CbchCase{20, 14, 1},
                                           CbchCase{20, 10, 20},
                                           CbchCase{32, 8, 32}));

TEST(CbchRecomputeTest, ShiftResilienceHoldsForPaperStyleOverlap) {
  Rng rng(77);
  Bytes original = rng.RandomBytes(1 << 17);
  Bytes shifted;
  shifted.push_back('Q');
  Append(shifted, original);

  CbchParams params{20, 10, 1, 1u << 20, /*recompute=*/true};
  ContentBasedChunker chunker(params);
  auto spans_a = chunker.Split(original);
  auto ids_a = HashChunks(original, spans_a);
  std::unordered_set<std::uint64_t> set_a;
  for (const auto& id : ids_a) set_a.insert(id.digest.Prefix64());
  auto spans_b = chunker.Split(shifted);
  auto ids_b = HashChunks(shifted, spans_b);
  std::uint64_t shared = 0;
  for (std::size_t i = 0; i < ids_b.size(); ++i) {
    if (set_a.contains(ids_b[i].digest.Prefix64())) shared += spans_b[i].size;
  }
  EXPECT_GT(static_cast<double>(shared) / static_cast<double>(shifted.size()),
            0.85);
}

TEST(CbchTest, DeterministicAcrossCalls) {
  ContentBasedChunker chunker(CbchParams{20, 10, 1});
  Rng rng(11);
  Bytes data = rng.RandomBytes(100000);
  EXPECT_EQ(chunker.Split(data), chunker.Split(data));
}

TEST(CbchTest, SmallerKMakesSmallerChunks) {
  Rng rng(12);
  Bytes data = rng.RandomBytes(1 << 20);
  ContentBasedChunker small_k(CbchParams{32, 8, 32, 0});
  ContentBasedChunker large_k(CbchParams{32, 12, 32, 0});
  auto s1 = ComputeChunkSizeStats(small_k.Split(data));
  auto s2 = ComputeChunkSizeStats(large_k.Split(data));
  EXPECT_LT(s1.avg_bytes, s2.avg_bytes);
}

TEST(CbchTest, MaxChunkBoundIsRespected) {
  // Content with no natural boundaries: constant bytes.
  Bytes data(1 << 20, 0x42);
  ContentBasedChunker chunker(CbchParams{20, 30, 20, /*max_chunk=*/4096});
  auto spans = chunker.Split(data);
  for (const auto& s : spans) EXPECT_LE(s.size, 4096u + 20u);
  ExpectFullCoverage(spans, data.size());
}

TEST(CbchTest, TinyInputIsOneChunk) {
  ContentBasedChunker chunker(CbchParams{20, 14, 1});
  Bytes data = ToBytes("short");
  auto spans = chunker.Split(data);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].size, 5u);
}

// The core CbCH property the paper relies on (§IV.C): after inserting bytes
// near the start, most chunk *hashes* still match, because boundaries are
// content-defined. FsCH, by contrast, loses everything past the insertion.
TEST(CbchTest, InsertionShiftResilience) {
  Rng rng(13);
  Bytes original = rng.RandomBytes(1 << 19);  // 512 KB
  Bytes shifted;
  shifted.reserve(original.size() + 3);
  shifted.push_back('X');
  shifted.push_back('Y');
  shifted.push_back('Z');
  Append(shifted, original);

  auto count_shared_bytes = [](const Chunker& chunker, ByteSpan a,
                               ByteSpan b) {
    auto spans_a = chunker.Split(a);
    auto ids_a = HashChunks(a, spans_a);
    std::unordered_set<std::uint64_t> set_a;
    for (const auto& id : ids_a) set_a.insert(id.digest.Prefix64());

    auto spans_b = chunker.Split(b);
    auto ids_b = HashChunks(b, spans_b);
    std::uint64_t shared = 0;
    for (std::size_t i = 0; i < ids_b.size(); ++i) {
      if (set_a.contains(ids_b[i].digest.Prefix64())) {
        shared += spans_b[i].size;
      }
    }
    return static_cast<double>(shared) / static_cast<double>(b.size());
  };

  ContentBasedChunker cbch(CbchParams{20, 11, 1});
  FixedSizeChunker fsch(4096);
  double cbch_shared = count_shared_bytes(cbch, original, shifted);
  double fsch_shared = count_shared_bytes(fsch, original, shifted);

  EXPECT_GT(cbch_shared, 0.85);  // almost everything survives the shift
  EXPECT_LT(fsch_shared, 0.05);  // fixed-grid chunking loses everything
}

TEST(CbchTest, OverlapDetectsMoreOrEqualSimilarityThanNoOverlap) {
  // p=1 inspects every offset; p=m only multiples of m from the last
  // boundary — overlap should never be (materially) worse.
  Rng rng(14);
  Bytes v1 = rng.RandomBytes(1 << 18);
  Bytes v2 = v1;
  // Mutate a 4 KB region in the middle.
  for (std::size_t i = 100000; i < 104096; ++i) v2[i] ^= 0xFF;

  auto shared_ratio = [&](const Chunker& chunker) {
    auto spans1 = chunker.Split(v1);
    auto ids1 = HashChunks(v1, spans1);
    std::unordered_set<std::uint64_t> set1;
    for (const auto& id : ids1) set1.insert(id.digest.Prefix64());
    auto spans2 = chunker.Split(v2);
    auto ids2 = HashChunks(v2, spans2);
    std::uint64_t shared = 0;
    for (std::size_t i = 0; i < ids2.size(); ++i) {
      if (set1.contains(ids2[i].digest.Prefix64())) shared += spans2[i].size;
    }
    return static_cast<double>(shared) / static_cast<double>(v2.size());
  };

  double overlap = shared_ratio(ContentBasedChunker(CbchParams{20, 11, 1}));
  double no_overlap =
      shared_ratio(ContentBasedChunker(CbchParams{20, 11, 20}));
  EXPECT_GE(overlap + 0.05, no_overlap);
  EXPECT_GT(overlap, 0.8);
}

// ---- Streaming scanners ----------------------------------------------------
// A scanner fed the stream in arbitrary piece sizes must report exactly the
// boundaries of the whole-file Split — the invariant the planner's
// no-rescan drain discipline rests on.

std::vector<std::uint64_t> SplitEnds(const Chunker& chunker, ByteSpan data) {
  std::vector<std::uint64_t> ends;
  for (const ChunkSpan& span : chunker.Split(data)) {
    ends.push_back(span.offset + span.size);
  }
  return ends;
}

std::vector<std::uint64_t> ScanEnds(const Chunker& chunker, ByteSpan data,
                                    std::uint64_t seed) {
  Rng rng(seed);
  auto scanner = chunker.MakeScanner();
  std::vector<std::uint64_t> ends;
  std::size_t pos = 0;
  while (pos < data.size()) {
    std::size_t n = 1 + rng.Next() % 997;  // irregular feed sizes
    n = std::min(n, data.size() - pos);
    scanner->Feed(data.subspan(pos, n), ends);
    pos += n;
  }
  EXPECT_EQ(scanner->consumed(), data.size());
  scanner->Finish(ends);
  return ends;
}

TEST(ChunkScannerTest, FixedSizeStreamingMatchesSplit) {
  Rng rng(31);
  Bytes data = rng.RandomBytes(100000 + 123);
  FixedSizeChunker chunker(4096);
  EXPECT_EQ(ScanEnds(chunker, data, 1), SplitEnds(chunker, data));
}

class CbchScannerTest : public ::testing::TestWithParam<CbchParams> {};

TEST_P(CbchScannerTest, StreamingMatchesSplit) {
  Rng rng(32);
  Bytes data = rng.RandomBytes(200000);
  ContentBasedChunker chunker(GetParam());
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_EQ(ScanEnds(chunker, data, seed), SplitEnds(chunker, data))
        << chunker.name() << " feed seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, CbchScannerTest,
    ::testing::Values(
        CbchParams{20, 10, 1},                       // gear overlap (default)
        CbchParams{20, 10, 20},                      // no-overlap hop
        CbchParams{32, 9, 8},                        // partial-overlap hop
        CbchParams{20, 8, 1, /*max_chunk=*/4096},    // gear, forced boundaries
        CbchParams{20, 10, 1, 16u << 20,
                   /*min_chunk=*/2048},              // gear min-chunk skip
        CbchParams{20, 12, 1, 16u << 20, 0, true},   // paper-style recompute
        CbchParams{20, 12, 20, 16u << 20, 0, true}   // recompute, hopping
        ));

// The content-defined contract on density: a boundary fires with
// probability 2^-k per inspected byte, so on random content the average
// chunk is about 2^k + m bytes.
TEST(CbchGearTest, GearDensityMatchesMask) {
  Rng rng(36);
  Bytes data = rng.RandomBytes(1 << 20);
  ContentBasedChunker gear(CbchParams{20, 10, 1});
  const double expected = 1024 + 20;
  ChunkSizeStats stats = ComputeChunkSizeStats(gear.Split(data));
  EXPECT_GT(stats.avg_bytes, expected / 2);
  EXPECT_LT(stats.avg_bytes, expected * 2);
}

TEST(CbchGearTest, GearShiftResilienceMatchesContentDefinedContract) {
  // The paper's §IV.C property must survive the hash swap: inserting bytes
  // near the start leaves most gear chunk hashes intact.
  Rng rng(37);
  Bytes original = rng.RandomBytes(1 << 18);
  Bytes shifted;
  shifted.push_back('G');
  Append(shifted, original);

  ContentBasedChunker gear(CbchParams{20, 11, 1});
  auto spans_a = gear.Split(original);
  auto ids_a = HashChunks(original, spans_a);
  std::unordered_set<std::uint64_t> set_a;
  for (const auto& id : ids_a) set_a.insert(id.digest.Prefix64());
  auto spans_b = gear.Split(shifted);
  auto ids_b = HashChunks(shifted, spans_b);
  std::uint64_t shared = 0;
  for (std::size_t i = 0; i < ids_b.size(); ++i) {
    if (set_a.contains(ids_b[i].digest.Prefix64())) shared += spans_b[i].size;
  }
  EXPECT_GT(static_cast<double>(shared) / static_cast<double>(shifted.size()),
            0.85);
}

TEST(ChunkScannerTest, ByteAtATimeFeedMatchesSplit) {
  Rng rng(33);
  Bytes data = rng.RandomBytes(5000);
  ContentBasedChunker chunker(CbchParams{8, 6, 1});
  auto scanner = chunker.MakeScanner();
  std::vector<std::uint64_t> ends;
  for (std::size_t i = 0; i < data.size(); ++i) {
    scanner->Feed(ByteSpan(data.data() + i, 1), ends);
  }
  scanner->Finish(ends);
  EXPECT_EQ(ends, SplitEnds(chunker, data));
}

TEST(ChunkScannerTest, MinChunkEnforcesLowerBound) {
  Rng rng(34);
  Bytes data = rng.RandomBytes(300000);
  CbchParams params{20, 8, 1};
  params.min_chunk = 1024;
  ContentBasedChunker chunker(params);
  auto spans = chunker.Split(data);
  ASSERT_GT(spans.size(), 1u);
  for (std::size_t i = 0; i + 1 < spans.size(); ++i) {  // tail may be short
    EXPECT_GE(spans[i].size, params.min_chunk);
  }
}

// ---- Gear scanner against the serial oracle --------------------------------
// The gear scanner marks candidates in 64 KiB segments on the shared pool
// and applies the boundary rules in stream order. Its boundaries must equal
// the one-byte serial loop's for any piece sizes, across segment edges,
// Feed edges and every rule that depends on the previous boundary.

struct OracleInput {
  const char* name;
  Bytes data;
};

std::vector<OracleInput> OracleInputs() {
  constexpr std::size_t kSize = (1u << 20) + (100u << 10) + 7;
  Rng rng(4242);
  Bytes random = rng.RandomBytes(kSize);
  BlcrTraceOptions blcr;
  blcr.initial_pages = kSize / blcr.page_bytes;
  blcr.zero_page_fraction = 0.3;  // long zero runs between random pages
  blcr.seed = 17;
  Bytes half_zero = random;
  std::fill(half_zero.begin() + kSize / 4, half_zero.begin() + 3 * kSize / 4,
            0);
  // In a 0x05 run every position is a candidate for k <= 10.
  Bytes run = random;
  std::fill(run.begin() + kSize / 8, run.begin() + 7 * kSize / 8, 0x05);
  return {{"random", random},
          {"blcr", MakeBlcrLikeTrace(blcr)->Next()},
          {"half-zero", half_zero},
          {"0x05-run", run}};
}

std::vector<std::uint64_t> FeedInPieces(const Chunker& chunker, ByteSpan data,
                                        std::size_t piece) {
  auto scanner = chunker.MakeScanner();
  std::vector<std::uint64_t> ends;
  for (std::size_t pos = 0; pos < data.size(); pos += piece) {
    scanner->Feed(data.subspan(pos, std::min(piece, data.size() - pos)),
                  ends);
  }
  EXPECT_EQ(scanner->consumed(), data.size());
  scanner->Finish(ends);
  return ends;
}

// max_chunk 70 and 90 lie below window_m plus the min_chunk skip for most
// draws, so the forced boundary falls on the first checked position.
CbchParams DrawGearParams(Rng& rng) {
  static constexpr std::size_t kWindows[] = {8, 20, 64, 100};
  static constexpr int kBits[] = {4, 8, 10, 14};
  static constexpr std::uint32_t kMins[] = {0, 50, 2048, 5000};
  static constexpr std::uint32_t kMaxes[] = {0, 70, 90, 4096, 1u << 20,
                                             16u << 20};
  CbchParams params;
  params.window_m = kWindows[rng.NextBelow(std::size(kWindows))];
  params.boundary_bits_k = kBits[rng.NextBelow(std::size(kBits))];
  params.min_chunk = kMins[rng.NextBelow(std::size(kMins))];
  params.max_chunk = kMaxes[rng.NextBelow(std::size(kMaxes))];
  return params;
}

// For every input and piece size of `pieces`, draws `draws` seeded
// parameter sets, and compares those drawn for the pieces in `checked`.
// Drawing for every piece gives each (input, piece) the same params
// whichever pieces a case checks. Pieces under 4 KiB feed only a 200 KiB
// prefix, to keep the byte-at-a-time cases short.
void ExpectGearMatchesOracle(std::uint64_t seed,
                             const std::vector<std::size_t>& pieces,
                             int draws,
                             const std::set<std::size_t>& checked) {
  Rng rng(seed);
  for (const OracleInput& input : OracleInputs()) {
    for (std::size_t piece : pieces) {
      ByteSpan data(input.data);
      if (piece < 4096) data = data.first(200u << 10);
      for (int d = 0; d < draws; ++d) {
        CbchParams params = DrawGearParams(rng);
        if (!checked.contains(piece)) continue;
        ContentBasedChunker chunker(params);
        ASSERT_EQ(FeedInPieces(chunker, data, piece),
                  SerialGearEnds(params, data))
            << chunker.name() << " max=" << params.max_chunk << " on "
            << input.name << " in pieces of " << piece;
      }
    }
  }
}

// 64 KiB is the scanner's segment size; the last piece is the whole input.
const std::vector<std::size_t> kOraclePieces = {
    1, 997, (64u << 10) - 1, 64u << 10, (64u << 10) + 1, 256u << 10, 1u << 20,
    1u << 30};

// Pieces above one segment: the scanner marks their segments on the shared
// HashPool.
TEST(CbchGearOracleTest, MatchesSerialLoopOverSeededGrid) {
  ExpectGearMatchesOracle(7, kOraclePieces, 8,
                          {(64u << 10) + 1, 256u << 10, 1u << 20, 1u << 30});
}

// Pieces of at most one segment: each Feed marks on the calling thread,
// without touching the pool.
TEST(CbchGearOracleTest, MatchesSerialLoopInOneSegmentPieces) {
  ExpectGearMatchesOracle(7, kOraclePieces, 8,
                          {1, 997, (64u << 10) - 1, 64u << 10});
}

// A boundary a few bytes before a piece's end leaves the min_chunk skip and
// the reset-state warm-up to finish in the next Feed.
TEST(CbchGearOracleTest, BoundaryInTheLast63BytesOfAPiece) {
  Rng rng(8);
  Bytes data = rng.RandomBytes(600u << 10);
  for (std::size_t m : {8u, 20u, 64u, 100u}) {
    for (std::uint32_t min_chunk : {0u, 50u}) {
      CbchParams params{m, 8, 1};
      params.min_chunk = min_chunk;
      std::vector<std::uint64_t> oracle = SerialGearEnds(params, data);
      auto past_segment = std::find_if(
          oracle.begin(), oracle.end(),
          [](std::uint64_t end) { return end > (64u << 10) + 100; });
      ASSERT_NE(past_segment, oracle.end());
      ContentBasedChunker chunker(params);
      for (std::size_t before_end : {1u, 30u, 63u}) {
        std::size_t piece = static_cast<std::size_t>(*past_segment) +
                            before_end;
        EXPECT_EQ(FeedInPieces(chunker, data, piece), oracle)
            << chunker.name() << " boundary " << before_end
            << " bytes before the end of a " << piece << "-byte piece";
      }
    }
  }
}

// With every pool worker taken by other batches, the scanner's segments run
// on the calling thread.
TEST(CbchGearOracleTest, MatchesSerialLoopWhileThePoolIsBusy) {
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
  const std::vector<std::size_t> pieces = {(64u << 10) + 1, 1u << 20,
                                           1u << 30};
  ExpectGearMatchesOracle(9, pieces, 3, {pieces.begin(), pieces.end()});
  stop.store(true);
  for (std::thread& t : hogs) t.join();
}

TEST(ChunkSizeStatsTest, ComputesMinMaxAvg) {
  std::vector<ChunkSpan> spans{{0, 100}, {100, 300}, {400, 200}};
  ChunkSizeStats stats = ComputeChunkSizeStats(spans);
  EXPECT_EQ(stats.count, 3u);
  EXPECT_EQ(stats.min_bytes, 100u);
  EXPECT_EQ(stats.max_bytes, 300u);
  EXPECT_DOUBLE_EQ(stats.avg_bytes, 200.0);
}

TEST(ChunkSizeStatsTest, EmptyInput) {
  ChunkSizeStats stats = ComputeChunkSizeStats({});
  EXPECT_EQ(stats.count, 0u);
}

TEST(HashChunksTest, HashesMatchManualSha1) {
  Bytes data = ToBytes("hello world checkpoint");
  FixedSizeChunker chunker(5);
  auto spans = chunker.Split(data);
  auto ids = HashChunks(data, spans);
  ASSERT_EQ(ids.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(ids[i],
              ChunkId::For(ByteSpan(data.data() + spans[i].offset,
                                    spans[i].size)));
  }
}

}  // namespace
}  // namespace stdchk
