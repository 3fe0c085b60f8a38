// The lock-rank runtime validator (src/common/annotated_mutex.h) is the
// dynamic half of the concurrency contracts: Clang's -Wthread-safety proves
// lock *possession* at compile time, the validator proves lock *ordering*
// at run time. This battery pins both directions: legal ascending chains
// (including the deepest real one, a catalog snapshot Export over every
// shard) run silently, and each violation class — rank inversion, same-rank
// sequence inversion, recursive relock, holding a high rank into a real
// manager RPC — aborts with a report.
#include <gtest/gtest.h>

#include <thread>

#include "common/annotated_mutex.h"
#include "common/bytes.h"
#include "common/hash.h"
#include "manager/metadata_manager.h"
#include "manager/virtual_clock.h"

// The death tests below are only meaningful while the validator is
// compiled in. Guard at build level: a configuration that silently
// disabled the checks for the default (tested) build would otherwise turn
// this whole file into a vacuous pass.
#if !STDCHK_LOCK_RANK_CHECKS
#error "lock_rank_test requires STDCHK_LOCK_RANK_CHECKS (default-on); \
build with -DSTDCHK_LOCK_RANK_CHECKS=ON"
#endif

namespace stdchk {
namespace {

ChunkId MakeChunkId(int i) {
  std::string s = "rank-chunk-" + std::to_string(i);
  return ChunkId{Sha1(AsBytes(s))};
}

// ---- Legal orders run silently ---------------------------------------------

TEST(LockRankTest, AscendingRanksAreLegal) {
  Mutex low(LockRank::kManager, 0, "test_low");
  Mutex high(LockRank::kChunkStore, 0, "test_high");
  MutexLock l1(low);
  MutexLock l2(high);
  EXPECT_EQ(lockrank::HeldDepth(), 2u);
}

TEST(LockRankTest, AscendingSequenceWithinOneRankIsLegal) {
  // The shard pattern: same rank, strictly ascending sequence numbers.
  Mutex s0(LockRank::kCatalogFolder, 0, "test_shard");
  Mutex s1(LockRank::kCatalogFolder, 1, "test_shard");
  Mutex s2(LockRank::kCatalogFolder, 2, "test_shard");
  MutexLock l0(s0);
  MutexLock l1(s1);
  MutexLock l2(s2);
  EXPECT_EQ(lockrank::HeldDepth(), 3u);
}

TEST(LockRankTest, SequentialReacquisitionIsLegal) {
  // Dropping back to a lower rank after releasing the higher one is fine:
  // only *currently held* locks constrain the next acquisition.
  Mutex low(LockRank::kManager, 0, "test_low");
  Mutex high(LockRank::kChunkStore, 0, "test_high");
  { MutexLock l(high); }
  { MutexLock l(low); }
  { MutexLock l(high); }
  EXPECT_EQ(lockrank::HeldDepth(), 0u);
}

TEST(LockRankTest, UnrankedMutexesAreExempt) {
  Mutex ranked(LockRank::kChunkStore, 0, "test_ranked");
  Mutex unranked;
  MutexLock l1(ranked);
  MutexLock l2(unranked);  // would invert if it were ranked below
  EXPECT_EQ(lockrank::HeldDepth(), 1u);  // unranked never enters the stack
}

TEST(LockRankTest, FailedTryLockLeavesNoResidue) {
  Mutex mu(LockRank::kChunkStore, 0, "test_try");
  mu.lock();
  std::thread t([&mu] {
    EXPECT_FALSE(mu.try_lock());
    // The failed attempt must not leave a phantom entry that would poison
    // this thread's later ordering checks.
    EXPECT_EQ(lockrank::HeldDepth(), 0u);
  });
  t.join();
  mu.unlock();
}

// The deepest real chain in the system: SaveSnapshot holds the manager's
// control lock, reads the registry, then Exports the catalog holding every
// folder shard followed by every chunk shard, all ascending. GcExchange
// nests manager → registry → chunk shards. If any of those walks were
// mis-ordered the validator would abort this (default-build) test.
TEST(LockRankTest, ManagerSnapshotAndGcWalkTheFullHierarchy) {
  VirtualClock clock;
  ManagerOptions options;
  options.catalog_shards = 4;
  MetadataManager manager(&clock, options);

  BenefactorInfo info;
  info.host = "d0";
  info.total_bytes = 1_GiB;
  info.free_bytes = 1_GiB;
  NodeId node = manager.RegisterBenefactor(info).value();

  VersionRecord record;
  record.name = CheckpointName{"rank", "n1", 1};
  ChunkLocation loc;
  loc.id = MakeChunkId(1);
  loc.file_offset = 0;
  loc.size = 1024;
  loc.replicas = {node};
  record.chunk_map.chunks.push_back(loc);
  record.size = 1024;
  ASSERT_TRUE(manager.CommitVersion(0, record).ok());

  Bytes snapshot = manager.SaveSnapshot();
  EXPECT_FALSE(snapshot.empty());
  ASSERT_TRUE(manager.LoadSnapshot(snapshot).ok());

  auto gc = manager.GcExchange(node, {MakeChunkId(1), MakeChunkId(2)});
  ASSERT_TRUE(gc.ok());
  EXPECT_EQ(gc.value().size(), 1u);  // the uncommitted chunk is the orphan

  EXPECT_EQ(lockrank::HeldDepth(), 0u);  // everything released on the way out
}

// ---- Violations abort with a report ----------------------------------------

using LockRankDeathTest = ::testing::Test;

TEST(LockRankDeathTest, RankInversionAborts) {
  Mutex folder(LockRank::kCatalogFolder, 0, "test_folder");
  Mutex chunk(LockRank::kCatalogChunk, 0, "test_chunk");
  EXPECT_DEATH(
      {
        MutexLock l1(chunk);
        MutexLock l2(folder);  // folder ranks below chunk: inversion
      },
      "out-of-order acquisition");
}

TEST(LockRankDeathTest, DescendingSequenceWithinOneRankAborts) {
  Mutex s0(LockRank::kCatalogChunk, 0, "test_shard");
  Mutex s1(LockRank::kCatalogChunk, 1, "test_shard");
  EXPECT_DEATH(
      {
        MutexLock l1(s1);
        MutexLock l2(s0);  // same rank, lower seq: shard-order inversion
      },
      "out-of-order acquisition");
}

TEST(LockRankDeathTest, RecursiveAcquisitionAborts) {
  Mutex mu(LockRank::kManager, 0, "test_recursive");
  EXPECT_DEATH(
      {
        mu.lock();
        mu.lock();  // std::mutex would deadlock here; the validator reports
      },
      "recursive acquisition");
}

TEST(LockRankDeathTest, HoldingChunkShardIntoManagerRpcAborts) {
  // The real-code shape the validator exists to catch: entering a manager
  // RPC (which takes the kManager control lock) while already holding a
  // catalog-shard-ranked lock. With plain mutexes this is a latent
  // deadlock against SaveSnapshot's manager → catalog walk; with the
  // validator it dies deterministically on first execution.
  VirtualClock clock;
  MetadataManager manager(&clock);
  BenefactorInfo info;
  info.host = "d0";
  info.total_bytes = 1_GiB;
  info.free_bytes = 1_GiB;
  NodeId node = manager.RegisterBenefactor(info).value();

  Mutex shard(LockRank::kCatalogChunk, 0, "test_chunk_shard");
  EXPECT_DEATH(
      {
        MutexLock held(shard);
        (void)manager.Heartbeat(node, 1_GiB);
      },
      "out-of-order acquisition");
}

TEST(LockRankDeathTest, HoldingBenefactorLockIntoManagerRpcAborts) {
  // Why Benefactor::OfferStashedVersions copies its stash and releases the
  // lock before offering it: kBenefactor ranks above every manager lock,
  // so a manager RPC made while holding it dies on first execution.
  VirtualClock clock;
  MetadataManager manager(&clock);
  BenefactorInfo info;
  info.host = "d0";
  info.total_bytes = 1_GiB;
  info.free_bytes = 1_GiB;
  NodeId node = manager.RegisterBenefactor(info).value();

  Mutex benefactor(LockRank::kBenefactor, 0, "test_benefactor");
  EXPECT_DEATH(
      {
        MutexLock held(benefactor);
        (void)manager.Heartbeat(node, 1_GiB);
      },
      "out-of-order acquisition");
}

}  // namespace
}  // namespace stdchk
