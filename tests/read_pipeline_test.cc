// The pipelined read engine: byte-for-byte equivalence with serial reads,
// overlapping fetches across benefactors, batch GETs inside the prefetch
// window, a window sized in bytes in which small chunks share GETs,
// failover on mid-read benefactor death, dead-replica skipping, the
// read-ahead byte budget, and in-flight-window backpressure.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "client/read_session.h"
#include "common/rng.h"
#include "core/cluster.h"

namespace stdchk {
namespace {

constexpr std::size_t kChunk = 1024;

CheckpointName Name(std::uint64_t t) { return CheckpointName{"app", "n1", t}; }

class ReadPipelineTest : public ::testing::Test {
 protected:
  ReadPipelineTest() {
    ClusterOptions options;
    options.benefactor_count = 6;
    options.client.stripe_width = 4;
    options.client.chunk_size = kChunk;
    cluster_ = std::make_unique<StdchkCluster>(options);
  }

  ClientOptions ReaderOptions(int read_ahead) {
    ClientOptions o = cluster_->client().options();
    o.read_ahead_chunks = read_ahead;
    return o;
  }

  Bytes Write(std::uint64_t t, std::size_t size) {
    Bytes data = rng_.RandomBytes(size);
    EXPECT_TRUE(cluster_->client().WriteFile(Name(t), data).ok());
    return data;
  }

  std::unique_ptr<StdchkCluster> cluster_;
  Rng rng_{1234};
};

// A writer that cuts chunks at 1/16 of the transfer chunk size, standing in
// for content-defined chunks: a reader's byte window holds 16 times as many
// of them as of chunk_size chunks.
std::unique_ptr<ClientProxy> SmallChunkWriter(StdchkCluster& cluster) {
  ClientOptions options = cluster.client().options();
  options.chunker =
      std::make_shared<FixedSizeChunker>(options.chunk_size / 16);
  return cluster.MakeClient(options);
}

// Writes each corpus image to `cluster`, cut into chunk_size chunks and into
// small ones, and reads it back at several read-ahead depths.
void ExpectPipelinedEqualsSerial(StdchkCluster& cluster, Rng& rng) {
  // Seed corpus: empty-ish, sub-chunk, chunk-aligned, off-by-one, large.
  const std::size_t chunk = cluster.client().options().chunk_size;
  const std::size_t sizes[] = {1,         chunk / 2,     chunk,
                               chunk + 1, 10 * chunk + 500,
                               37 * chunk + 7};
  auto small_chunks = SmallChunkWriter(cluster);
  std::uint64_t t = 1;
  for (ClientProxy* writer : {&cluster.client(), small_chunks.get()}) {
    for (std::size_t size : sizes) {
      Bytes data = rng.RandomBytes(size);
      ASSERT_TRUE(writer->WriteFile(Name(t), data).ok());
      for (int read_ahead : {0, 2, 8}) {
        ClientOptions options = cluster.client().options();
        options.read_ahead_chunks = read_ahead;
        auto reader = cluster.MakeClient(options);
        auto got = reader->ReadFile(Name(t));
        ASSERT_TRUE(got.ok()) << "size " << size << " ra " << read_ahead
                              << ": " << got.status();
        EXPECT_EQ(got.value(), data) << "size " << size << " ra "
                                     << read_ahead;
      }
      ++t;
    }
  }
}

TEST_F(ReadPipelineTest, PipelinedEqualsSerialAcrossCorpus) {
  ExpectPipelinedEqualsSerial(*cluster_, rng_);
}

TEST_F(ReadPipelineTest, PipelinedEqualsSerialOnDiskDonors) {
  // Disk reads come back unstamped, so every GET's content check is
  // spawned on the shared HashPool and joined when the window delivers it.
  auto dir = std::filesystem::temp_directory_path() /
             "stdchk_read_pipeline_disk";
  std::filesystem::remove_all(dir);
  {
    ClusterOptions options;
    options.benefactor_count = 6;
    options.disk_root = dir.string();
    options.client.stripe_width = 4;
    options.client.chunk_size = 64 * 1024;
    StdchkCluster disk(options);
    ExpectPipelinedEqualsSerial(disk, rng_);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ReadPipelineTest, ReadAllOverlapsFetchesAcrossBenefactors) {
  Bytes data = Write(1, 24 * kChunk);
  auto reader = cluster_->MakeClient(ReaderOptions(3));
  auto session = reader->OpenFile(Name(1));
  ASSERT_TRUE(session.ok());

  // Attribute the transport's overlap watermark to this read alone.
  cluster_->transport().ResetInflightPeak();
  auto all = session.value()->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value(), data);

  // The engine kept several chunk fetches in flight at once, and the
  // transport saw them simultaneously (the window spans distinct nodes —
  // stripe width 4 > window 4 spread round-robin).
  EXPECT_GE(session.value()->stats().inflight_peak, 3u);
  EXPECT_GE(cluster_->transport().inflight_peak(), 2u);
}

TEST_F(ReadPipelineTest, PrefetchWindowCoalescesBatchGets) {
  // Stripe 2: a window of 6 chunks lands 3 chunks per node, so the engine
  // must coalesce them into GetChunkBatch ops.
  ClusterOptions options;
  options.benefactor_count = 2;
  options.client.stripe_width = 2;
  options.client.chunk_size = kChunk;
  StdchkCluster narrow(options);
  Bytes data = rng_.RandomBytes(16 * kChunk);
  ASSERT_TRUE(narrow.client().WriteFile(Name(1), data).ok());

  ClientOptions reader_options = narrow.client().options();
  reader_options.read_ahead_chunks = 5;
  auto reader = narrow.MakeClient(reader_options);
  auto session = reader->OpenFile(Name(1));
  ASSERT_TRUE(session.ok());
  auto all = session.value()->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value(), data);
  EXPECT_GT(session.value()->stats().batch_gets, 0u);
  // Batching shrank the RPC bill below one per chunk.
  EXPECT_LT(session.value()->stats().batch_gets +
                session.value()->stats().single_gets,
            16u);
}

TEST_F(ReadPipelineTest, SmallChunksShareGetsInAByteWindow) {
  // 1,024 chunks of kChunk / 16 bytes. The window spans 3 * kChunk bytes
  // (48 chunks) and refills a kChunk's worth at a time, so each refill is
  // about one GET per stripe node instead of one per chunk.
  const std::size_t size = 64 * kChunk;
  Bytes data = rng_.RandomBytes(size);
  ASSERT_TRUE(SmallChunkWriter(*cluster_)->WriteFile(Name(1), data).ok());

  const ClientOptions o = ReaderOptions(2);
  auto reader = cluster_->MakeClient(o);
  auto session = reader->OpenFile(Name(1));
  ASSERT_TRUE(session.ok());
  auto all = session.value()->ReadAll();
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all.value(), data);

  const ReadStats stats = session.value()->stats();
  EXPECT_EQ(stats.chunks_fetched, 1024u);
  EXPECT_LE(stats.single_gets + stats.batch_gets,
            2u * static_cast<std::size_t>(o.stripe_width) * size /
                o.chunk_size);
  EXPECT_GT(stats.inflight_peak,
            static_cast<std::size_t>(o.read_ahead_chunks) + 1);
}

TEST_F(ReadPipelineTest, FailsOverWhenBenefactorDiesMidRead) {
  ClientOptions writer_options = cluster_->client().options();
  writer_options.semantics = WriteSemantics::kPessimistic;
  writer_options.replication_target = 2;
  auto writer = cluster_->MakeClient(writer_options);
  Bytes data = rng_.RandomBytes(20 * kChunk);
  ASSERT_TRUE(writer->WriteFile(Name(1), data).ok());

  auto reader = cluster_->MakeClient(ReaderOptions(2));
  auto session = reader->OpenFile(Name(1));
  ASSERT_TRUE(session.ok());

  // Read the first chunk, then kill a node that holds data. Every chunk
  // has a second replica, so the rest of the read must fail over.
  Bytes head(kChunk);
  auto n = session.value()->ReadAt(0, MutableByteSpan(head));
  ASSERT_TRUE(n.ok());
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    if (cluster_->benefactor(i).BytesUsed() > 0) {
      cluster_->benefactor(i).Crash();
      break;
    }
  }

  Bytes rest(data.size() - kChunk);
  std::uint64_t offset = kChunk;
  while (offset < data.size()) {
    auto r = session.value()->ReadAt(
        offset, MutableByteSpan(rest.data() + (offset - kChunk),
                                rest.size() - (offset - kChunk)));
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_GT(r.value(), 0u);
    offset += r.value();
  }
  EXPECT_TRUE(std::equal(head.begin(), head.end(), data.begin()));
  EXPECT_TRUE(std::equal(rest.begin(), rest.end(), data.begin() + kChunk));
  // The dead node was hit at least once, then skipped without paying
  // further doomed RPCs.
  const ReadStats& stats = session.value()->stats();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(stats.dead_replica_skips, 1u);
}

TEST_F(ReadPipelineTest, TransientDropDoesNotStrandAChunk) {
  // Single-replica chunks whose fetch fails once must stay readable: the
  // per-chunk blacklist is a failover hint, not a verdict. Cut every link,
  // observe the failure, heal the links — the same session recovers.
  Bytes data = Write(1, 8 * kChunk);
  auto reader = cluster_->MakeClient(ReaderOptions(2));
  auto session = reader->OpenFile(Name(1));
  ASSERT_TRUE(session.ok());

  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    cluster_->transport().SetUnreachable(cluster_->benefactor(i).id(), true);
  }
  Bytes buf(kChunk);
  EXPECT_FALSE(session.value()->ReadAt(0, MutableByteSpan(buf)).ok());

  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    cluster_->transport().SetUnreachable(cluster_->benefactor(i).id(), false);
  }
  auto all = session.value()->ReadAll();
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all.value(), data);
}

TEST_F(ReadPipelineTest, CacheBudgetEvictsConsumedChunks) {
  Bytes data = Write(1, 20 * kChunk);
  ClientOptions o = ReaderOptions(2);
  o.read_cache_budget_bytes = 3 * kChunk;
  auto reader = cluster_->MakeClient(o);
  auto session = reader->OpenFile(Name(1));
  ASSERT_TRUE(session.ok());
  auto all = session.value()->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value(), data);

  const ReadStats& stats = session.value()->stats();
  EXPECT_GT(stats.cache_evictions, 0u);
  // Window chunks are never evicted, so the peak may exceed the budget by
  // at most one in-flight window.
  EXPECT_LE(stats.cache_bytes_peak, o.read_cache_budget_bytes + 3 * kChunk);
  // Every chunk still fetched exactly once: eviction only sheds consumed
  // chunks on this sequential scan.
  EXPECT_EQ(stats.chunks_fetched, 20u);
}

TEST_F(ReadPipelineTest, UnboundedBudgetNeverEvicts) {
  Bytes data = Write(1, 12 * kChunk);
  ClientOptions o = ReaderOptions(2);
  o.read_cache_budget_bytes = 0;
  auto reader = cluster_->MakeClient(o);
  auto session = reader->OpenFile(Name(1));
  ASSERT_TRUE(session.ok());
  auto all = session.value()->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value(), data);
  EXPECT_EQ(session.value()->stats().cache_evictions, 0u);
  EXPECT_EQ(session.value()->stats().cache_bytes_peak, 12 * kChunk);
}

TEST_F(ReadPipelineTest, WindowBoundsInflightBackpressure) {
  Bytes data = Write(1, 30 * kChunk);
  auto reader = cluster_->MakeClient(ReaderOptions(3));
  auto session = reader->OpenFile(Name(1));
  ASSERT_TRUE(session.ok());

  cluster_->transport().ResetInflightPeak();
  auto all = session.value()->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value(), data);
  // Demand chunk + 3 read-ahead: never more than 4 chunk fetches in
  // flight, from the engine's view and the transport's.
  EXPECT_LE(session.value()->stats().inflight_peak, 4u);
  EXPECT_LE(cluster_->transport().inflight_peak(), 4u);
}

TEST_F(ReadPipelineTest, RandomAccessStaysCorrectUnderPipelining) {
  Bytes data = Write(1, 25 * kChunk + 123);
  auto reader = cluster_->MakeClient(ReaderOptions(4));
  auto session = reader->OpenFile(Name(1));
  ASSERT_TRUE(session.ok());

  Rng jump(99);
  for (int i = 0; i < 40; ++i) {
    std::uint64_t offset = jump.NextBelow(data.size());
    std::size_t want = 1 + static_cast<std::size_t>(jump.NextBelow(4000));
    Bytes buf(want);
    auto n = session.value()->ReadAt(offset, MutableByteSpan(buf));
    ASSERT_TRUE(n.ok());
    std::size_t expected =
        std::min<std::size_t>(want, data.size() - offset);
    ASSERT_EQ(n.value(), expected);
    EXPECT_TRUE(std::equal(
        buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(expected),
        data.begin() + static_cast<std::ptrdiff_t>(offset)));
  }
}

TEST_F(ReadPipelineTest, PipelinedReadBeatsSerialUnderModeledLatency) {
  // With a 1 ms per-op link on every node, a serial reader pays the
  // latency once per chunk; the pipelined window overlaps them across the
  // stripe. This is the functional engine measured on the modeled clock —
  // the same arithmetic bench_read_pipeline reports at LAN scale.
  Bytes data = Write(1, 24 * kChunk);
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    cluster_->transport().SetLinkModel(cluster_->benefactor(i).id(),
                                       sim::LinkModel{Milliseconds(1), 0.0});
  }

  auto serial = cluster_->MakeClient(ReaderOptions(0));
  SimTime t0 = cluster_->transport().now();
  auto serial_read = serial->ReadFile(Name(1));
  ASSERT_TRUE(serial_read.ok());
  SimTime serial_elapsed = cluster_->transport().now() - t0;

  auto pipelined = cluster_->MakeClient(ReaderOptions(7));
  SimTime t1 = cluster_->transport().now();
  auto pipelined_read = pipelined->ReadFile(Name(1));
  ASSERT_TRUE(pipelined_read.ok());
  SimTime pipelined_elapsed = cluster_->transport().now() - t1;

  EXPECT_EQ(serial_read.value(), data);
  EXPECT_EQ(pipelined_read.value(), data);
  EXPECT_EQ(serial_elapsed, Milliseconds(24));
  // The window spans the stripe (4 nodes): ≥ 3x faster than serial.
  EXPECT_LE(pipelined_elapsed * 3, serial_elapsed);
}

}  // namespace
}  // namespace stdchk
