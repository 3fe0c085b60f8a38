// Thread-safety of the shared control plane: multiple application threads
// checkpoint through their own client proxies while the background driver
// pumps replication/GC/retention from another thread.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "common/rng.h"
#include "core/background_driver.h"
#include "core/cluster.h"

namespace stdchk {
namespace {

TEST(ConcurrencyTest, ParallelWritersWithBackgroundDriver) {
  ClusterOptions options;
  options.benefactor_count = 8;
  options.capacity_per_node = 1_GiB;
  options.client.stripe_width = 3;
  options.client.chunk_size = 4096;
  StdchkCluster cluster(options);

  constexpr int kThreads = 4;
  constexpr int kFilesPerThread = 8;
  std::atomic<int> failures{0};

  {
    BackgroundDriver driver(&cluster, /*period_seconds=*/0.002);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&cluster, &failures, t] {
        auto client = cluster.MakeClient(cluster.client().options());
        Rng rng(static_cast<std::uint64_t>(t) + 1);
        for (int f = 0; f < kFilesPerThread; ++f) {
          CheckpointName name{"par", "w" + std::to_string(t),
                              static_cast<std::uint64_t>(f + 1)};
          Bytes data = rng.RandomBytes(16 * 1024 + rng.NextBelow(16 * 1024));
          auto outcome = client->WriteFile(name, data);
          if (!outcome.ok()) {
            ++failures;
            continue;
          }
          auto read_back = client->ReadFile(name);
          if (!read_back.ok() || read_back.value() != data) ++failures;
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cluster.manager().catalog().TotalVersions(),
            static_cast<std::size_t>(kThreads * kFilesPerThread));
}

TEST(ConcurrencyTest, ReadersAndWritersShareTheGrid) {
  ClusterOptions options;
  options.benefactor_count = 6;
  options.client.stripe_width = 2;
  options.client.chunk_size = 4096;
  StdchkCluster cluster(options);
  Rng rng(9);

  // Seed with committed data.
  Bytes seed_data = rng.RandomBytes(64 * 1024);
  ASSERT_TRUE(cluster.client()
                  .WriteFile(CheckpointName{"shared", "seed", 1}, seed_data)
                  .ok());

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    auto client = cluster.MakeClient(cluster.client().options());
    while (!stop.load()) {
      auto read_back = client->ReadFile(CheckpointName{"shared", "seed", 1});
      if (!read_back.ok() || read_back.value() != seed_data) ++failures;
    }
  });

  {
    BackgroundDriver driver(&cluster, 0.002);
    auto writer = cluster.MakeClient(cluster.client().options());
    Rng wrng(10);
    for (int f = 1; f <= 20; ++f) {
      Bytes data = wrng.RandomBytes(32 * 1024);
      auto outcome = writer->WriteFile(
          CheckpointName{"shared", "w", static_cast<std::uint64_t>(f)}, data);
      if (!outcome.ok()) ++failures;
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, ManagerSnapshotWhileClientsRun) {
  ClusterOptions options;
  options.benefactor_count = 4;
  options.client.stripe_width = 2;
  options.client.chunk_size = 4096;
  StdchkCluster cluster(options);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    auto client = cluster.MakeClient(cluster.client().options());
    Rng rng(11);
    std::uint64_t t = 1;
    while (!stop.load()) {
      auto outcome = client->WriteFile(CheckpointName{"snap", "w", t++},
                                       rng.RandomBytes(8 * 1024));
      if (!outcome.ok()) ++failures;
    }
  });

  // Take snapshots concurrently with the writes; each must parse back.
  for (int i = 0; i < 20; ++i) {
    Bytes snapshot = cluster.manager().SaveSnapshot();
    VirtualClock clock;
    MetadataManager standby(&clock);
    if (!standby.LoadSnapshot(snapshot).ok()) ++failures;
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0);
}

// Clients' transport ops run outside the transport lock, so the disk
// segment store sees concurrent appends, mmap gets, GC deletes and
// compaction passes from several threads at once.
TEST(ConcurrencyTest, MultiClientDiskStoresWithGcAndCompaction) {
  auto dir = std::filesystem::temp_directory_path() /
             ("stdchk_concurrency_disk_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ClusterOptions options;
  options.benefactor_count = 4;
  options.disk_root = dir.string();
  options.compaction_enabled = true;
  options.client.stripe_width = 2;
  options.client.chunk_size = 4096;

  constexpr int kClients = 3;
  constexpr std::uint64_t kVersions = 8;
  {
    StdchkCluster cluster(options);
    std::vector<std::vector<Bytes>> images(kClients);
    std::atomic<int> failures{0};
    {
      BackgroundDriver driver(&cluster, /*period_seconds=*/0.002);
      std::vector<std::thread> clients;
      for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&cluster, &images, &failures, t] {
          auto client = cluster.MakeClient(cluster.client().options());
          Rng rng(static_cast<std::uint64_t>(t) + 31);
          const std::string node = "c" + std::to_string(t);
          for (std::uint64_t v = 1; v <= kVersions; ++v) {
            Bytes data = rng.RandomBytes(24 * 1024 + rng.NextBelow(24 * 1024));
            if (!client->WriteFile(CheckpointName{"disk", node, v}, data)
                     .ok()) {
              ++failures;
            }
            auto read_back = client->ReadFile(CheckpointName{"disk", node, v});
            if (!read_back.ok() || read_back.value() != data) ++failures;
            images[t].push_back(std::move(data));
            // Keep two versions: the rest becomes garbage for GC.
            if (v > 2 &&
                !client->Delete(CheckpointName{"disk", node, v - 2}).ok()) {
              ++failures;
            }
          }
        });
      }
      for (std::thread& c : clients) c.join();
    }
    EXPECT_EQ(failures.load(), 0);

    cluster.Settle();
    EXPECT_EQ(cluster.manager().catalog().TotalVersions(),
              static_cast<std::size_t>(kClients * 2));
    std::size_t live_replicas = 0;
    for (int t = 0; t < kClients; ++t) {
      for (std::uint64_t v = kVersions - 1; v <= kVersions; ++v) {
        CheckpointName name{"disk", "c" + std::to_string(t), v};
        auto read_back = cluster.client().ReadFile(name);
        ASSERT_TRUE(read_back.ok()) << read_back.status();
        EXPECT_EQ(read_back.value(), images[t][v - 1]);
        auto record = cluster.manager().GetVersion(name);
        ASSERT_TRUE(record.ok()) << record.status();
        for (const ChunkLocation& loc : record.value().chunk_map.chunks) {
          live_replicas += loc.replicas.size();
        }
      }
    }
    // GC reclaimed every chunk of the deleted versions from disk.
    std::size_t stored = 0;
    ChunkStoreStats disk;
    for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
      stored += cluster.benefactor(i).ChunkCount();
      ChunkStoreStats s = cluster.benefactor(i).StoreStats();
      disk.fsyncs += s.fsyncs;
      disk.mmap_reads += s.mmap_reads;
    }
    EXPECT_EQ(stored, live_replicas);
    EXPECT_GT(disk.fsyncs, 0u);
    EXPECT_GT(disk.mmap_reads, 0u);
  }
  std::filesystem::remove_all(dir);
}

// A client stashes a chunk map through the transport (manager down at its
// commit) while the background pump offers the donor's stash to the
// manager. Both sides touch the stash: it needs the benefactor's lock, and
// the offer must not hold that lock into the manager RPC.
TEST(ConcurrencyTest, StashWhileOfferingStashedVersions) {
  ClusterOptions options;
  options.benefactor_count = 1;
  StdchkCluster cluster(options);
  Benefactor& donor = cluster.benefactor(0);
  const NodeId node = donor.id();
  constexpr std::uint64_t kVersions = 200;

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread stasher([&] {
    for (std::uint64_t v = 1; v <= kVersions; ++v) {
      VersionRecord record;
      record.name = CheckpointName{"stash", "n", v};
      ChunkLocation loc;
      loc.id = ChunkId::For(ToBytes("stashed " + std::to_string(v)));
      loc.size = 1;
      loc.replicas = {node};
      record.chunk_map.chunks.push_back(loc);
      record.size = 1;
      Transport& transport = cluster.transport();
      auto stashed = transport.Wait(
          transport.Submit(ChunkOp::Stash(node, record, /*stripe_width=*/1)));
      if (!stashed.ok() || !stashed.value().status.ok()) ++failures;
    }
    done.store(true);
  });
  // Tick's step 2, in a tight loop.
  while (!done.load()) {
    if (donor.stashed_count() > 0) {
      (void)donor.OfferStashedVersions(cluster.manager());
    }
  }
  stasher.join();
  ASSERT_TRUE(donor.OfferStashedVersions(cluster.manager()).ok());

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(donor.stashed_count(), 0u);
  for (std::uint64_t v = 1; v <= kVersions; ++v) {
    EXPECT_TRUE(
        cluster.manager().GetVersion(CheckpointName{"stash", "n", v}).ok())
        << "version " << v;
  }
}

}  // namespace
}  // namespace stdchk
