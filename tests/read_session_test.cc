#include "client/read_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "core/cluster.h"

namespace stdchk {
namespace {

CheckpointName Name(std::uint64_t t) { return CheckpointName{"app", "n1", t}; }

// The VmFlags line of the /proc/self/smaps mapping that holds `addr`, or
// "" if no mapping does.
std::string VmFlagsAt(std::uintptr_t addr) {
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    std::uintptr_t lo = 0, hi = 0;
    char dash = 0;
    std::istringstream range(line);
    if (range >> std::hex >> lo >> dash >> hi && dash == '-') {
      inside = lo <= addr && addr < hi;
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      return line;
    }
  }
  return "";
}

class ReadSessionTest : public ::testing::Test {
 protected:
  ReadSessionTest() {
    ClusterOptions options;
    options.benefactor_count = 5;
    options.client.stripe_width = 3;
    options.client.chunk_size = 1024;
    cluster_ = std::make_unique<StdchkCluster>(options);
    data_ = rng_.RandomBytes(10 * 1024 + 500);
    auto outcome = cluster_->client().WriteFile(Name(1), data_);
    EXPECT_TRUE(outcome.ok());
  }

  std::unique_ptr<StdchkCluster> cluster_;
  Rng rng_{42};
  Bytes data_;
};

TEST_F(ReadSessionTest, ReadAllMatches) {
  auto session = cluster_->client().OpenFile(Name(1));
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.value()->size(), data_.size());
  auto all = session.value()->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value(), data_);
}

TEST_F(ReadSessionTest, ReadAtArbitraryOffsets) {
  auto session = cluster_->client().OpenFile(Name(1));
  ASSERT_TRUE(session.ok());
  for (std::uint64_t offset : {0ull, 1ull, 1023ull, 1024ull, 5000ull,
                               10ull * 1024}) {
    Bytes buf(777);
    auto n = session.value()->ReadAt(offset, MutableByteSpan(buf));
    ASSERT_TRUE(n.ok());
    std::size_t expected =
        std::min<std::size_t>(777, data_.size() - offset);
    ASSERT_EQ(n.value(), expected);
    EXPECT_TRUE(std::equal(buf.begin(),
                           buf.begin() + static_cast<std::ptrdiff_t>(expected),
                           data_.begin() + static_cast<std::ptrdiff_t>(offset)));
  }
}

TEST_F(ReadSessionTest, ReadPastEofReturnsZero) {
  auto session = cluster_->client().OpenFile(Name(1));
  ASSERT_TRUE(session.ok());
  Bytes buf(100);
  auto n = session.value()->ReadAt(data_.size(), MutableByteSpan(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);
  n = session.value()->ReadAt(data_.size() + 5000, MutableByteSpan(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);
}

TEST_F(ReadSessionTest, EmptyBufferReadsNothing) {
  auto session = cluster_->client().OpenFile(Name(1));
  ASSERT_TRUE(session.ok());
  auto n = session.value()->ReadAt(0, MutableByteSpan{});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);
}

TEST_F(ReadSessionTest, SequentialReadsUseReadAheadCache) {
  auto session = cluster_->client().OpenFile(Name(1));
  ASSERT_TRUE(session.ok());
  Bytes buf(512);  // half a chunk per read
  std::uint64_t offset = 0;
  while (true) {
    auto n = session.value()->ReadAt(offset, MutableByteSpan(buf));
    ASSERT_TRUE(n.ok());
    if (n.value() == 0) break;
    offset += n.value();
  }
  // Every chunk is fetched exactly once thanks to caching + read-ahead.
  EXPECT_EQ(session.value()->chunks_fetched(), 11u);
  EXPECT_GT(session.value()->cache_hits(), 0u);
}

TEST_F(ReadSessionTest, ReadAllAfterPartialReadAtUsesTheCache) {
  auto session = cluster_->client().OpenFile(Name(1));
  ASSERT_TRUE(session.ok());
  Bytes head(512);
  auto n = session.value()->ReadAt(0, MutableByteSpan(head));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), head.size());
  auto all = session.value()->ReadAll();
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all.value(), data_);
  // Chunk 0 and its read-ahead were cached by the ReadAt.
  EXPECT_GT(session.value()->cache_hits(), 0u);
  EXPECT_EQ(session.value()->chunks_fetched(), 11u);
}

TEST_F(ReadSessionTest, ReadAllFailsWithTheLostChunksError) {
  // Three chunks on a stripe of three: losing the middle chunk's donors
  // leaves the first and last readable.
  Bytes data = rng_.RandomBytes(3 * 1024);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(60), data).ok());
  auto record = cluster_->manager().GetVersion(Name(60));
  ASSERT_TRUE(record.ok());
  const auto& chunks = record.value().chunk_map.chunks;
  ASSERT_EQ(chunks.size(), 3u);
  for (NodeId node : chunks[1].replicas) {
    for (std::size_t c : {0u, 2u}) {
      ASSERT_EQ(std::count(chunks[c].replicas.begin(),
                           chunks[c].replicas.end(), node),
                0);
    }
    for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
      if (cluster_->benefactor(i).id() == node) {
        cluster_->benefactor(i).Crash();
      }
    }
  }

  auto all = cluster_->client().ReadFile(Name(60));
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(all.status().message().find(chunks[1].id.ToHex()),
            std::string::npos)
      << all.status();
}

TEST_F(ReadSessionTest, ReadAllOfEmptyFileIssuesNoGet) {
  ASSERT_TRUE(cluster_->client().WriteFile(Name(70), Bytes{}).ok());
  auto session = cluster_->client().OpenFile(Name(70));
  ASSERT_TRUE(session.ok()) << session.status();
  std::uint64_t rpcs = cluster_->transport().rpc_count();
  auto all = session.value()->ReadAll();
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_TRUE(all.value().empty());
  EXPECT_EQ(cluster_->transport().rpc_count(), rpcs);
  ReadStats stats = session.value()->stats();
  EXPECT_EQ(stats.single_gets + stats.batch_gets, 0u);
  EXPECT_EQ(stats.chunks_fetched, 0u);
}

TEST_F(ReadSessionTest, ReadAllImageIsHugePageEligible) {
  if (!std::filesystem::exists("/sys/kernel/mm/transparent_hugepage")) {
    GTEST_SKIP() << "kernel without transparent huge pages";
  }
  ClientOptions options = cluster_->client().options();
  options.chunk_size = 1 << 20;
  auto client = cluster_->MakeClient(options);
  Bytes data = rng_.RandomBytes((5 << 20) + 123);
  ASSERT_TRUE(client->WriteFile(Name(80), data).ok());
  auto all = client->ReadFile(Name(80));
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all.value(), data);

  // Any 4 MiB range holds a whole 2 MiB page; its first one must sit in a
  // mapping advised for huge pages ("hg").
  constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
  auto start = reinterpret_cast<std::uintptr_t>(all.value().data());
  std::uintptr_t interior = (start + kHugePage - 1) & ~(kHugePage - 1);
  ASSERT_LE(interior + kHugePage, start + all.value().size());
  std::string flags = VmFlagsAt(interior);
  ASSERT_FALSE(flags.empty()) << "no smaps mapping holds the image";
  EXPECT_NE(flags.find(" hg"), std::string::npos) << flags;
}

TEST_F(ReadSessionTest, OpenMissingVersionFails) {
  EXPECT_FALSE(cluster_->client().OpenFile(Name(99)).ok());
}

TEST_F(ReadSessionTest, OpenLatestPicksNewestTimestep) {
  Bytes newer = rng_.RandomBytes(2048);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(7), newer).ok());
  auto session = cluster_->client().OpenLatest("app", "n1");
  ASSERT_TRUE(session.ok());
  auto all = session.value()->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value(), newer);
}

TEST_F(ReadSessionTest, FailsOverToSurvivingReplica) {
  // Write with 2 replicas, then kill one node. Every chunk keeps at least
  // one live replica, so reads must succeed via failover.
  ClientOptions options = cluster_->client().options();
  options.semantics = WriteSemantics::kPessimistic;
  options.replication_target = 2;
  auto client = cluster_->MakeClient(options);
  Bytes data = rng_.RandomBytes(6 * 1024);
  ASSERT_TRUE(client->WriteFile(Name(50), data).ok());

  // Kill a node that holds data, to make the failover real.
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    if (cluster_->benefactor(i).BytesUsed() > 0) {
      cluster_->benefactor(i).Crash();
      break;
    }
  }

  auto read_back = client->ReadFile(Name(50));
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(read_back.value(), data);
}

TEST_F(ReadSessionTest, ReadFailsWhenEveryReplicaGone) {
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    cluster_->benefactor(i).Crash();
  }
  auto read_back = cluster_->client().ReadFile(Name(1));
  EXPECT_FALSE(read_back.ok());
  EXPECT_EQ(read_back.status().code(), StatusCode::kUnavailable);
}

TEST_F(ReadSessionTest, RestartScenarioReadLatestAfterNodeLoss) {
  // The process-migration use case: node writes checkpoints, dies, another
  // client restarts from the latest image.
  ClientOptions options = cluster_->client().options();
  options.semantics = WriteSemantics::kPessimistic;
  options.replication_target = 2;
  auto writer = cluster_->MakeClient(options);
  Bytes t1 = rng_.RandomBytes(3000), t2 = rng_.RandomBytes(3500);
  ASSERT_TRUE(writer->WriteFile(CheckpointName{"job", "w1", 1}, t1).ok());
  ASSERT_TRUE(writer->WriteFile(CheckpointName{"job", "w1", 2}, t2).ok());

  cluster_->benefactor(2).Crash();

  auto reader = cluster_->MakeClient(cluster_->client().options());
  auto session = reader->OpenLatest("job", "w1");
  ASSERT_TRUE(session.ok());
  auto all = session.value()->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value(), t2);
}

}  // namespace
}  // namespace stdchk
