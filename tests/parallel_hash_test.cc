// The parallel drain hashing engine: HashPool mechanics, and the
// determinism contract — for any worker count N, any drain timing, and any
// chunker, the planner's chunk names, their order, and the committed chunk
// map must be byte-identical to the serial (N=1) path and to boundaries
// computed without the planner.
#include "common/hash_pool.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "client/chunk_planner.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "gear_oracle.h"

namespace stdchk {
namespace {

// ---- HashPool ---------------------------------------------------------------

TEST(HashPoolTest, RunsEveryIndexExactlyOnce) {
  HashPool pool(4);
  for (std::size_t n : {0u, 1u, 3u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, 4, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(HashPoolTest, SerialWhenMaxWorkersIsOne) {
  HashPool pool(8);
  // max_workers=1 must run entirely on the calling thread, in order.
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  int used = pool.ParallelFor(100, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // safe: single-threaded by contract
  });
  EXPECT_EQ(used, 1);
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(HashPoolTest, ReportsActualEngagementWithinBounds) {
  HashPool pool(4);
  for (int round = 0; round < 20; ++round) {
    int used = pool.ParallelFor(64, 8, [](std::size_t) {});
    EXPECT_GE(used, 1);
    EXPECT_LE(used, 4);  // caller + 3 workers
  }
}

TEST(HashPoolTest, ZeroThreadPoolDegradesToSerial) {
  HashPool pool(0);  // no workers at all
  EXPECT_EQ(pool.worker_threads(), 0);
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelFor(50, 8, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(HashPoolTest, ConcurrentBatchesFromMultipleCallers) {
  HashPool pool(4);
  constexpr int kCallers = 4;
  constexpr std::size_t kPer = 300;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& v : hits) v = std::vector<std::atomic<int>>(kPer);

  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(kPer, 3, [&, c](std::size_t i) {
        hits[static_cast<std::size_t>(c)][i].fetch_add(
            1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kPer; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(c)][i].load(), 1);
    }
  }
}

// A thread pinned to one CPU resolves the default fan-out to 1, not to the
// host's CPU count, so a pinned process does not time-slice pool workers
// on that CPU.
TEST(HashPoolTest, ResolveThreadsCountsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int pinned_cpu = 0;
  while (!CPU_ISSET(pinned_cpu, &saved)) ++pinned_cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(pinned_cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    GTEST_SKIP() << "sched_setaffinity refused";
  }
  const int pinned = HashPool::ResolveThreads(0);
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
  EXPECT_EQ(pinned, 1);
  EXPECT_EQ(HashPool::ResolveThreads(0), CPU_COUNT(&saved));
  EXPECT_EQ(HashPool::ResolveThreads(3), 3);
}

TEST(HashPoolTest, JoinRunsEveryIndexOnTheCallerOfAZeroWorkerPool) {
  HashPool pool(0);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(64);
  HashPool::Batch batch = pool.Spawn(
      ran.size(), 8,
      [&ran](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  EXPECT_EQ(pool.Join(std::move(batch)), 1);
  for (std::thread::id id : ran) EXPECT_EQ(id, caller);
  EXPECT_EQ(pool.Join(pool.Spawn(0, 8, [](std::size_t) {})), 0);
}

TEST(HashPoolTest, WorkerResultsAreVisibleAfterJoin) {
  HashPool pool(4);
  std::thread::id caller = std::this_thread::get_id();
  std::size_t ran_by_workers = 0;
  for (int round = 0; round < 20; ++round) {
    // Plain slots: only Join orders the workers' writes before the reads.
    std::vector<std::uint64_t> out(257, 0);
    std::vector<std::thread::id> by(out.size());
    HashPool::Batch batch =
        pool.Spawn(out.size(), 3, [&out, &by](std::size_t i) {
          out[i] = i * i + 1;
          by[i] = std::this_thread::get_id();
        });
    // Let the workers claim indices before the caller joins in.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    int used = pool.Join(std::move(batch));
    EXPECT_GE(used, 1);
    EXPECT_LE(used, 4);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], i * i + 1) << "round " << round << " i=" << i;
      if (by[i] != caller) ++ran_by_workers;
    }
  }
  EXPECT_GT(ran_by_workers, 0u);
}

TEST(HashPoolTest, SpawnOwnsATemporaryFn) {
  HashPool pool(4);
  std::vector<std::uint64_t> out(100, 0);
  HashPool::Batch batch;
  {
    // The fn and its captured copy die here, before the batch is joined.
    std::vector<std::uint64_t> weights(out.size(), 3);
    batch = pool.Spawn(out.size(), 3, [&out, weights](std::size_t i) {
      out[i] = weights[i] * i;
    });
  }
  pool.Join(std::move(batch));
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i);
}

TEST(HashPoolTest, SpawnersAndAParallelForShareThePool) {
  HashPool pool(4);
  constexpr std::size_t kN = 200;
  constexpr int kRounds = 30;
  std::atomic<int> wrong{0};
  auto check = [&wrong](const std::vector<int>& hits) {
    for (int h : hits) {
      if (h != 1) wrong.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<int> hits(kN, 0);
        HashPool::Batch batch =
            pool.Spawn(kN, 3, [&hits](std::size_t i) { ++hits[i]; });
        pool.Join(std::move(batch));
        check(hits);
      }
    });
  }
  threads.emplace_back([&] {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<int> hits(kN, 0);
      pool.ParallelFor(kN, 4, [&hits](std::size_t i) { ++hits[i]; });
      check(hits);
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

// ---- Planner determinism ----------------------------------------------------

struct PlannedChunk {
  ChunkId id;
  std::size_t size;
  bool operator==(const PlannedChunk&) const = default;
};

// Streams `data` into a planner in `piece`-sized appends, draining every
// `drain_every` appends (0 = only the final drain). Every staged slice must
// carry its name's digest as a stamp, whichever thread named it.
std::vector<PlannedChunk> Plan(std::shared_ptr<const Chunker> chunker,
                               int hash_workers, ByteSpan data,
                               std::size_t piece, std::size_t drain_every) {
  ChunkPlanner planner(std::move(chunker), hash_workers);
  std::vector<PlannedChunk> out;
  std::size_t unstamped = 0;
  auto take = [&](std::vector<StagedChunk> chunks) {
    for (StagedChunk& c : chunks) {
      out.push_back({c.id, c.data.size()});
      const Sha1Digest* stamp = c.data.stamped_digest();
      if (stamp == nullptr || *stamp != c.id.digest) ++unstamped;
    }
  };
  std::size_t pos = 0, appends = 0;
  while (pos < data.size()) {
    std::size_t n = std::min(piece, data.size() - pos);
    planner.Append(data.subspan(pos, n));
    pos += n;
    if (drain_every != 0 && ++appends % drain_every == 0) {
      take(planner.Drain(/*final=*/false));
    }
  }
  take(planner.Drain(/*final=*/true));
  EXPECT_EQ(unstamped, 0u) << "N=" << hash_workers;
  return out;
}

// Names and sizes of `data` cut at `ends`: the planner's expected output,
// computed without a planner.
std::vector<PlannedChunk> CutAt(ByteSpan data,
                                const std::vector<std::uint64_t>& ends) {
  std::vector<PlannedChunk> out;
  std::uint64_t start = 0;
  for (std::uint64_t end : ends) {
    ByteSpan chunk = data.subspan(static_cast<std::size_t>(start),
                                  static_cast<std::size_t>(end - start));
    out.push_back({ChunkId::For(chunk), chunk.size()});
    start = end;
  }
  return out;
}

std::vector<std::uint64_t> FixedEnds(std::size_t size, std::size_t chunk) {
  std::vector<std::uint64_t> ends;
  for (std::size_t end = chunk; end < size; end += chunk) ends.push_back(end);
  ends.push_back(size);
  return ends;
}

std::vector<std::uint64_t> SplitEnds(const Chunker& chunker, ByteSpan data) {
  std::vector<std::uint64_t> ends;
  for (const ChunkSpan& span : chunker.Split(data)) {
    ends.push_back(span.offset + span.size);
  }
  return ends;
}

TEST(ParallelHashDeterminismTest, PlannerMatchesSerialAcrossWorkersAndTiming) {
  Rng rng(2026);
  Bytes data = rng.RandomBytes(512 * 1024);

  CbchParams gear;
  gear.boundary_bits_k = 10;
  CbchParams hop = gear;
  hop.advance_p = 20;

  // Each reference comes from outside the planner: the serial gear oracle,
  // fixed-size arithmetic, and the hopping scan's one-shot split.
  auto hop_chunker = std::make_shared<ContentBasedChunker>(hop);
  struct Case {
    std::shared_ptr<const Chunker> chunker;
    std::vector<std::uint64_t> ends;
  };
  std::vector<Case> cases = {
      {std::make_shared<FixedSizeChunker>(8192), FixedEnds(data.size(), 8192)},
      {std::make_shared<ContentBasedChunker>(gear),
       SerialGearEnds(gear, data)},
      {hop_chunker, SplitEnds(*hop_chunker, data)},
  };

  for (const Case& c : cases) {
    std::vector<PlannedChunk> reference = CutAt(data, c.ends);
    ASSERT_GT(reference.size(), 4u) << c.chunker->name();

    for (int workers : {1, 2, 8}) {
      for (std::size_t piece : {4097u, 64u * 1024u}) {
        for (std::size_t drain_every : {0u, 1u, 3u}) {
          EXPECT_EQ(Plan(c.chunker, workers, data, piece, drain_every),
                    reference)
              << c.chunker->name() << " N=" << workers << " piece=" << piece
              << " drain_every=" << drain_every;
        }
      }
    }
  }
}

// Application-sized appends drained every append and every fourth one, so
// each drain feeds the gear scanner a span of several 64 KiB segments.
TEST(ParallelHashDeterminismTest, PlannerMatchesOracleOnMultiSegmentDrains) {
  Rng rng(2027);
  Bytes data = rng.RandomBytes((2u << 20) + 4321);
  CbchParams min_max;
  min_max.boundary_bits_k = 12;
  min_max.min_chunk = 2048;
  min_max.max_chunk = 8192;
  for (const CbchParams& params : {CbchParams{}, min_max}) {
    auto chunker = std::make_shared<ContentBasedChunker>(params);
    std::vector<PlannedChunk> reference =
        CutAt(data, SerialGearEnds(params, data));
    for (int workers : {1, 8}) {
      for (std::size_t drain_every : {1u, 4u}) {
        EXPECT_EQ(Plan(chunker, workers, data, 256u << 10, drain_every),
                  reference)
            << chunker->name() << " N=" << workers
            << " drain_every=" << drain_every;
      }
    }
  }
}

// ---- End-to-end: committed chunk maps ---------------------------------------

ChunkMap CommitWithWorkers(int hash_workers, ByteSpan data,
                           std::shared_ptr<const Chunker> chunker) {
  ClusterOptions options;
  options.benefactor_count = 6;
  options.client.chunk_size = 8192;
  options.client.protocol = WriteProtocol::kSlidingWindow;
  options.client.hash_workers = hash_workers;
  options.client.chunker = std::move(chunker);
  StdchkCluster cluster(options);

  CheckpointName name{"app", "par", 1};
  auto session = cluster.client().CreateFile(name);
  EXPECT_TRUE(session.ok());
  std::size_t pos = 0;
  while (pos < data.size()) {
    std::size_t n = std::min<std::size_t>(10000, data.size() - pos);
    EXPECT_TRUE(session.value()->Write(data.subspan(pos, n)).ok());
    pos += n;
  }
  EXPECT_TRUE(session.value()->Close().ok());
  if (hash_workers > 1) {
    // hash_workers_peak is a measurement of threads that actually joined —
    // at least the caller, never more than requested or the pool can give.
    const WriteStats& stats = session.value()->stats();
    EXPECT_GE(stats.hash_workers_peak, 1u);
    EXPECT_LE(stats.hash_workers_peak,
              static_cast<std::uint64_t>(
                  std::max(1, HashPool::Shared().worker_threads() + 1)));
    EXPECT_GT(stats.hash_chunks, 0u);
  }

  auto record = cluster.manager().GetVersion(name);
  EXPECT_TRUE(record.ok());
  auto read_back = cluster.client().ReadFile(name);
  EXPECT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), Bytes(data.begin(), data.end()));
  return record.value().chunk_map;
}

void ExpectSameMap(const ChunkMap& a, const ChunkMap& b) {
  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  for (std::size_t i = 0; i < a.chunks.size(); ++i) {
    EXPECT_EQ(a.chunks[i].id, b.chunks[i].id) << i;
    EXPECT_EQ(a.chunks[i].file_offset, b.chunks[i].file_offset) << i;
    EXPECT_EQ(a.chunks[i].size, b.chunks[i].size) << i;
  }
}

TEST(ParallelHashDeterminismTest, CommittedChunkMapsIdenticalToSerial) {
  Rng rng(99);
  Bytes data = rng.RandomBytes(300 * 1024);

  for (bool cbch : {false, true}) {
    std::shared_ptr<const Chunker> chunker;
    if (cbch) {
      CbchParams params;
      params.boundary_bits_k = 11;
      chunker = std::make_shared<ContentBasedChunker>(params);
    }
    ChunkMap serial = CommitWithWorkers(1, data, chunker);
    ExpectSameMap(serial, CommitWithWorkers(2, data, chunker));
    ExpectSameMap(serial, CommitWithWorkers(8, data, chunker));
  }
}

}  // namespace
}  // namespace stdchk
