// Live compaction end to end: the cluster tick drives throttled
// CompactStep passes that hand dead bytes back while foreground traffic —
// including traffic from other threads — keeps running against the same
// stores. The store-level mechanics (victim selection, crash atomicity,
// slice stability) are covered in chunk_store_test.cc and
// disk_segment_recovery_test.cc; this file covers the wiring above them
// and the only-under-TSan races of compacting while the data path is hot.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/background_driver.h"
#include "core/cluster.h"
#include "core/cluster_stats.h"

namespace stdchk {
namespace {

// Incremental checkpointing + retention is exactly the workload that
// strands dead bytes: version t+1 dedups against version t's drain
// generations, so purging version t kills only the chunks t+1 did not
// re-use — the generation backing stays pinned by the survivors until
// compaction repacks them.
TEST(ClusterCompactionTest, TickReclaimsDeadGenerationBytes) {
  ClusterOptions options;
  options.benefactor_count = 4;
  options.client.chunk_size = 1024;
  options.client.stripe_width = 2;
  options.compaction_enabled = true;
  StdchkCluster cluster(options);

  FolderPolicy policy;
  policy.retention = RetentionPolicy::kAutomatedReplace;  // keep latest only
  ASSERT_TRUE(cluster.manager().SetFolderPolicy("ckpt", policy).ok());

  Rng rng(0xD0C5);
  Bytes image = rng.RandomBytes(64 * 1024);
  for (std::uint64_t t = 1; t <= 6; ++t) {
    // Mutate ~25% of the image: the rest dedups against the prior version.
    for (int m = 0; m < 16; ++m) {
      std::size_t off = rng.NextBelow(image.size() - 1024);
      Bytes patch = rng.RandomBytes(1024);
      std::copy(patch.begin(), patch.end(), image.begin() + off);
    }
    ASSERT_TRUE(
        cluster.client().WriteFile(CheckpointName{"ckpt", "n0", t}, image).ok());
    cluster.Tick(1.0);
  }
  cluster.Settle();
  // Settle() stops once background work drains, but compaction may still
  // have sub-threshold work; pump a few more explicit ticks.
  for (int i = 0; i < 8; ++i) cluster.Tick(1.0);

  // Compaction ran, its progress is visible in the store totals, and the
  // gap between pinned memory and stored bytes is actually closed.
  ClusterStats stats = CollectStats(cluster);
  EXPECT_GT(stats.generations_released, 0u);
  EXPECT_GT(stats.compacted_bytes_rewritten, 0u);
  ASSERT_GT(stats.stored_bytes, 0u);
  EXPECT_LE(stats.resident_bytes, 2 * stats.stored_bytes)
      << "dead generation bytes were not handed back";

  // The surviving (latest) checkpoint reads back bit for bit — compaction
  // moved its dedup'd chunks without corrupting or losing any.
  auto read_back = cluster.client().ReadFile(CheckpointName{"ckpt", "n0", 6});
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(read_back.value(), image);
}

// Without the opt-in, Tick never calls CompactStep: existing deployments
// and byte-exact bench baselines see identical segment layouts.
TEST(ClusterCompactionTest, DisabledByDefault) {
  ClusterOptions options;
  options.benefactor_count = 2;
  options.client.chunk_size = 1024;
  options.client.stripe_width = 2;
  StdchkCluster cluster(options);
  Rng rng(0xD0C6);
  Bytes data = rng.RandomBytes(8 * 1024);
  ASSERT_TRUE(
      cluster.client().WriteFile(CheckpointName{"app", "n0", 1}, data).ok());
  cluster.Tick(1.0);
  EXPECT_EQ(CollectStats(cluster).generations_released, 0u);
}

// The BackgroundDriver's ticks compact, and their progress shows in the
// store totals — the monitoring surface a wall-clock deployment watches.
TEST(ClusterCompactionTest, BackgroundDriverSurfacesCompactionTotals) {
  ClusterOptions options;
  options.benefactor_count = 2;
  options.client.chunk_size = 1024;
  options.client.stripe_width = 2;
  options.compaction_enabled = true;
  StdchkCluster cluster(options);
  FolderPolicy policy;
  policy.retention = RetentionPolicy::kAutomatedReplace;
  ASSERT_TRUE(cluster.manager().SetFolderPolicy("drv", policy).ok());

  Rng rng(0xD0C7);
  Bytes image = rng.RandomBytes(32 * 1024);
  {
    BackgroundDriver driver(&cluster, /*period_seconds=*/0.001);
    for (std::uint64_t t = 1; t <= 5; ++t) {
      for (int m = 0; m < 8; ++m) {
        std::size_t off = rng.NextBelow(image.size() - 1024);
        Bytes patch = rng.RandomBytes(1024);
        std::copy(patch.begin(), patch.end(), image.begin() + off);
      }
      ASSERT_TRUE(cluster.client()
                      .WriteFile(CheckpointName{"drv", "n0", t}, image)
                      .ok());
    }
    // Spin until the driver's ticks have purged + GC'd + compacted the
    // stranded generations (bounded by the test timeout).
    while (CollectStats(cluster).generations_released == 0 &&
           driver.ticks() < 20000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    driver.Stop();
    ClusterStats stats = CollectStats(cluster);
    EXPECT_GT(stats.generations_released, 0u);
    EXPECT_GT(stats.compacted_bytes_rewritten, 0u);
  }
  auto read_back = cluster.client().ReadFile(CheckpointName{"drv", "n0", 5});
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(read_back.value(), image);
}

// TSan battery: hammer one disk store from put/get/delete threads while a
// dedicated thread runs CompactStep in a tight loop. Every foreground op
// must succeed (or be a legitimate NotFound), every read must return the
// chunk's true bytes, and the run must be free of data races and lock-rank
// violations.
TEST(CompactionStressTest, CompactionNeverStallsOrCorruptsTheDataPath) {
  auto dir = std::filesystem::temp_directory_path() /
             ("stdchk_compact_stress_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  DiskStoreOptions small;
  small.segment_target_bytes = 8 * 1024;  // frequent rolls
  auto made = MakeDiskChunkStore(dir.string(), small);
  ASSERT_TRUE(made.ok());
  ChunkStore& store = *made.value();

  constexpr int kWriters = 3;
  constexpr int kChunksPerWriter = 60;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Pre-compute each writer's corpus so reader threads can verify bytes.
  std::vector<std::vector<std::pair<ChunkId, Bytes>>> corpus(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    Rng rng(static_cast<std::uint64_t>(w) + 101);
    for (int c = 0; c < kChunksPerWriter; ++c) {
      Bytes data = rng.RandomBytes(512 + rng.NextBelow(2048));
      corpus[w].emplace_back(ChunkId::For(data), std::move(data));
    }
  }

  std::thread compactor([&] {
    CompactionPolicy policy;
    policy.utilization_threshold = 0.8;  // aggressive: maximize interleaving
    policy.max_bytes_per_step = 16 * 1024;
    while (!stop.load()) {
      auto step = store.CompactStep(policy);
      if (!step.ok()) ++failures;
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(static_cast<std::uint64_t>(w) + 201);
      for (int round = 0; round < 3; ++round) {
        // Put everything (in small batches), read it back, delete most.
        for (std::size_t at = 0; at < corpus[w].size(); at += 5) {
          std::vector<ChunkPut> batch;
          for (std::size_t i = at;
               i < std::min(at + 5, corpus[w].size()); ++i) {
            batch.push_back(ChunkPut{corpus[w][i].first,
                                     BufferSlice::Copy(corpus[w][i].second)});
          }
          if (!store.PutBatch(batch).ok()) ++failures;
        }
        for (const auto& [id, data] : corpus[w]) {
          auto got = store.Get(id);
          if (!got.ok() || !(got.value() == ByteSpan(data))) ++failures;
        }
        for (std::size_t i = 0; i < corpus[w].size(); ++i) {
          if (i % 5 == static_cast<std::size_t>(round)) continue;  // keep some
          if (!store.Delete(corpus[w][i].first).ok()) ++failures;
        }
        for (std::size_t i = 0; i < corpus[w].size(); ++i) {
          if (i % 5 != static_cast<std::size_t>(round)) continue;
          auto got = store.Get(corpus[w][i].first);
          if (!got.ok() || !(got.value() == ByteSpan(corpus[w][i].second))) {
            ++failures;
          }
          if (!store.Delete(corpus[w][i].first).ok()) ++failures;
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true);
  compactor.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.ChunkCount(), 0u);
  EXPECT_EQ(store.BytesUsed(), 0u);
  // The churn left far more dead bytes than live; compaction (plus
  // roll/delete reclaim) must have kept the on-disk footprint from being
  // the sum of everything ever written.
  std::uintmax_t on_disk = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) on_disk += entry.file_size();
  }
  std::uintmax_t written = 0;
  for (const auto& per_writer : corpus) {
    for (const auto& [id, data] : per_writer) written += 3 * data.size();
  }
  EXPECT_LT(on_disk, written / 2);
  made.value().reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace stdchk
