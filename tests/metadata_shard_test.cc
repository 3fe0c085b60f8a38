// Shard-equivalence battery: a sharded FileCatalog must be an invisible
// optimization. shards=1 is pinned bit-for-bit to the historical single-map
// catalog; shards=N must produce the same observable state — committed
// chunk maps, catalog walks, GC victims, retention purges — under both a
// randomized single-threaded workload and a multi-threaded stress run.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "manager/metadata_manager.h"

namespace stdchk {
namespace {

ChunkId ShardChunkId(int i) {
  std::string s = "shard-chunk-" + std::to_string(i);
  return ChunkId::For(AsBytes(s));
}

// Canonical textual form of everything a client can observe about a
// catalog. Two managers in the same logical state must render identically
// regardless of shard count or operation interleaving.
std::string Canonicalize(const MetadataManager& manager) {
  std::ostringstream out;
  FileCatalog::ExportedState state = manager.catalog().Export();
  out << "policies:\n";
  for (const auto& [app, policy] : state.policies) {
    out << "  " << app << " r=" << static_cast<int>(policy.retention)
        << " keep=" << policy.keep_last << " rep=" << policy.replication_target
        << "\n";
  }
  out << "versions:\n";
  for (const VersionRecord& record : state.versions) {
    out << "  " << record.name.ToString() << " size=" << record.size
        << " chunks=[";
    for (const ChunkLocation& loc : record.chunk_map.chunks) {
      std::vector<NodeId> replicas = loc.replicas;
      std::sort(replicas.begin(), replicas.end());
      out << loc.id.ToHex().substr(0, 12) << "@" << loc.file_offset << "+"
          << loc.size << "{";
      for (NodeId node : replicas) out << node << ",";
      out << "} ";
    }
    out << "]\n";
  }
  out << "chunks:\n";
  for (const auto& [id, replicas] : state.chunk_replicas) {
    out << "  " << id.ToHex().substr(0, 12) << " -> ";
    for (NodeId node : replicas) out << node << ",";
    out << "\n";
  }
  out << "totals: v=" << manager.catalog().TotalVersions()
      << " logical=" << manager.catalog().TotalLogicalBytes()
      << " unique=" << manager.catalog().TotalUniqueBytes() << "\n";
  return out.str();
}

std::vector<std::string> SortedNames(const std::vector<CheckpointName>& names) {
  std::vector<std::string> out;
  out.reserve(names.size());
  for (const CheckpointName& name : names) out.push_back(name.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

// ---- single-threaded randomized equivalence --------------------------------

// Drives an identical randomized op mix (commit / delete / policy /
// retention / GC exchange) against shards=1 and shards=7 managers sharing
// one clock, asserting every observable output matches at each step.
TEST(MetadataShardTest, RandomizedWorkloadMatchesSingleShard) {
  VirtualClock clock;
  ManagerOptions base, sharded;
  sharded.catalog_shards = 7;
  MetadataManager m1(&clock, base);
  MetadataManager m7(&clock, sharded);

  std::vector<NodeId> nodes1, nodes7;
  for (int i = 0; i < 6; ++i) {
    BenefactorInfo info;
    info.host = "d" + std::to_string(i);
    info.total_bytes = 1_GiB;
    info.free_bytes = 1_GiB;
    nodes1.push_back(m1.RegisterBenefactor(info).value());
    nodes7.push_back(m7.RegisterBenefactor(info).value());
  }
  ASSERT_EQ(nodes1, nodes7);

  Rng rng(42);
  std::vector<CheckpointName> live;
  std::set<int> committed_chunks;
  std::uint64_t next_timestep = 1;

  for (int step = 0; step < 400; ++step) {
    int op = static_cast<int>(rng.NextBelow(10));
    if (op < 5) {  // commit a fresh version
      VersionRecord record;
      record.name = CheckpointName{
          "app" + std::to_string(rng.NextBelow(12)), "n", next_timestep++};
      int chunk_count = 1 + static_cast<int>(rng.NextBelow(3));
      for (int c = 0; c < chunk_count; ++c) {
        ChunkLocation loc;
        int seed = static_cast<int>(rng.NextBelow(64));  // pool => dedup
        loc.id = ShardChunkId(seed);
        loc.file_offset = static_cast<std::uint64_t>(c) * 512;
        loc.size = 512;
        loc.replicas = {nodes1[rng.NextBelow(nodes1.size())]};
        record.chunk_map.chunks.push_back(loc);
        committed_chunks.insert(seed);
      }
      record.size = static_cast<std::uint64_t>(chunk_count) * 512;
      Status s1 = m1.CommitVersion(0, record);
      Status s7 = m7.CommitVersion(0, record);
      ASSERT_EQ(s1.code(), s7.code());
      if (s1.ok()) live.push_back(record.name);
    } else if (op < 7 && !live.empty()) {  // delete a random version
      std::size_t victim = rng.NextBelow(live.size());
      CheckpointName name = live[victim];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      ASSERT_EQ(m1.DeleteVersion(name).code(), m7.DeleteVersion(name).code());
    } else if (op == 7) {  // tighten a folder's retention, then run it
      FolderPolicy policy;
      policy.retention = RetentionPolicy::kAutomatedReplace;
      policy.keep_last = 1 + static_cast<int>(rng.NextBelow(3));
      std::string app = "app" + std::to_string(rng.NextBelow(12));
      ASSERT_TRUE(m1.SetFolderPolicy(app, policy).ok());
      ASSERT_TRUE(m7.SetFolderPolicy(app, policy).ok());
      std::vector<CheckpointName> p1 = m1.TickRetention();
      std::vector<CheckpointName> p7 = m7.TickRetention();
      // Purge *sets* must match; ordering may differ across shard layouts.
      std::vector<std::string> sorted1 = SortedNames(p1);
      ASSERT_EQ(sorted1, SortedNames(p7));
      std::set<std::string> purged(sorted1.begin(), sorted1.end());
      std::erase_if(live, [&](const CheckpointName& name) {
        return purged.count(name.ToString()) > 0;
      });
    } else {  // GC exchange: held set = some live chunks + some orphans
      std::vector<ChunkId> held;
      for (int seed : committed_chunks) {
        if (rng.NextBelow(2) == 0) held.push_back(ShardChunkId(seed));
      }
      held.push_back(ShardChunkId(100'000 + static_cast<int>(rng.NextBelow(8))));
      NodeId reporter = nodes1[rng.NextBelow(nodes1.size())];
      auto gc1 = m1.GcExchange(reporter, held);
      auto gc7 = m7.GcExchange(reporter, held);
      ASSERT_TRUE(gc1.ok());
      ASSERT_TRUE(gc7.ok());
      // GC victims — the heart of "GC consistency across shards".
      ASSERT_EQ(gc1.value(), gc7.value());
    }
  }

  // Final observable state must be identical.
  std::vector<std::string> apps = m1.ListApps().value();
  ASSERT_EQ(apps, m7.ListApps().value());
  for (const std::string& app : apps) {
    ASSERT_EQ(SortedNames(m1.ListVersions(app).value()),
              SortedNames(m7.ListVersions(app).value()))
        << "app " << app;
  }
  for (const CheckpointName& name : live) {
    auto v1 = m1.GetVersion(name);
    auto v7 = m7.GetVersion(name);
    ASSERT_EQ(v1.ok(), v7.ok());
  }
  EXPECT_EQ(Canonicalize(m1), Canonicalize(m7));
}

// ---- multi-threaded stress equivalence --------------------------------------

// One thread's worth of write/read/delete traffic against `manager`,
// confined to its own app namespace so cross-thread ordering cannot change
// the final catalog. Every write reserves its stripe from the manager, but
// the committed replicas are a fixed function of (thread, iteration):
// which donors SelectStripe picks depends on the interleaving, and the
// catalogs under comparison must not. The clock is frozen.
void RunShardWorker(MetadataManager* manager, int thread_idx, int iterations) {
  std::vector<NodeId> nodes = manager->registry().OnlineNodes();
  ASSERT_GE(nodes.size(), 2u);
  std::string app = "stress-t" + std::to_string(thread_idx);
  for (int i = 0; i < iterations; ++i) {
    CheckpointName name{app, "n", static_cast<std::uint64_t>(i + 1)};
    auto reservation = manager->ReserveStripe(/*width=*/2, 2048);
    ASSERT_TRUE(reservation.ok());
    std::size_t first =
        static_cast<std::size_t>(thread_idx + i) % nodes.size();
    std::vector<NodeId> replicas = {nodes[first],
                                    nodes[(first + 1) % nodes.size()]};

    VersionRecord record;
    record.name = name;
    for (int c = 0; c < 2; ++c) {
      ChunkLocation loc;
      // Every 4th chunk comes from a small shared pool: cross-thread dedup
      // traffic exercising concurrent refcounting on the same chunk shard.
      int seed = (i % 4 == 0) ? 500'000 + (i / 4) % 8
                              : thread_idx * 1'000'000 + i * 10 + c;
      loc.id = ShardChunkId(seed);
      loc.file_offset = static_cast<std::uint64_t>(c) * 1024;
      loc.size = 1024;
      loc.replicas = replicas;
      record.chunk_map.chunks.push_back(loc);
    }
    record.size = 2048;
    ASSERT_TRUE(manager->CommitVersion(reservation.value().id, record).ok());

    if (i % 3 == 0) {
      ASSERT_TRUE(manager->GetVersion(name).ok());
      (void)manager->LocateChunks({record.chunk_map.chunks[0].id});
    }
    // Delete an older version of this thread's own app — but never one
    // referencing the shared dedup pool: erasing a shared chunk's last ref
    // drops its merged replica set, and whether another thread's commit
    // re-creates it before or after is interleaving-dependent. Keeping
    // shared chunks referenced makes their replica sets pure unions, which
    // are order-independent.
    if (i % 7 == 6 && (i - 6) % 4 != 0) {
      CheckpointName old{app, "n", static_cast<std::uint64_t>(i - 5)};
      ASSERT_TRUE(manager->DeleteVersion(old).ok());
    }
  }
}

TEST(MetadataShardTest, ConcurrentWorkloadMatchesSerialSingleShard) {
  constexpr int kThreads = 4;
  constexpr int kIterations = 64;

  VirtualClock clock;  // frozen: commit_time identical everywhere
  ManagerOptions sharded;
  sharded.catalog_shards = 4;
  MetadataManager concurrent(&clock, sharded);
  MetadataManager serial(&clock);  // shards=1 reference

  for (int i = 0; i < 8; ++i) {
    BenefactorInfo info;
    info.host = "d" + std::to_string(i);
    info.total_bytes = 8_GiB;
    info.free_bytes = 8_GiB;
    NodeId a = concurrent.RegisterBenefactor(info).value();
    NodeId b = serial.RegisterBenefactor(info).value();
    ASSERT_EQ(a, b);
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(RunShardWorker, &concurrent, t, kIterations);
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    RunShardWorker(&serial, t, kIterations);
  }

  // Same logical workload, wildly different interleavings: the catalogs
  // must be indistinguishable.
  EXPECT_EQ(Canonicalize(concurrent), Canonicalize(serial));
  EXPECT_EQ(concurrent.Counters().server_side_placements,
            static_cast<std::uint64_t>(kThreads * kIterations));

  // Sharding actually spread the load: every shard saw traffic.
  std::vector<CatalogShardStats> shards = concurrent.Counters().catalog_shards;
  ASSERT_EQ(shards.size(), 4u);
  for (const CatalogShardStats& shard : shards) EXPECT_GT(shard.ops, 0u);
}

}  // namespace
}  // namespace stdchk
