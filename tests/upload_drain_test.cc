// Pins the uploader's drain end to end. Each scenario drives one write
// session through a recording transport and checks three things:
//   - every batched PUT in submission order: target node, the chunk-map
//     slot (and shard index, for erasure shards) of each put, and whether
//     the batch completed;
//   - the replica and shard nodes of the committed chunk map;
//   - the session's WriteStats counters.
// Replication and erasure-coded flushes, failover under RPC loss and
// mid-write crashes, per-node batch splitting and retries after a failed
// Close() are covered, so any change to placement order, batching or
// failover shows up as a diff in these strings.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "client/write_session.h"
#include "common/rng.h"
#include "core/cluster.h"

namespace stdchk {
namespace {

constexpr std::size_t kChunk = 1024;

// Forwards every op to `inner` and records each batched PUT with its
// completion. A hook runs just before each batched PUT is forwarded, so a
// scenario can crash or degrade that PUT's target at an exact point of the
// drain.
class RecordingTransport final : public Transport {
 public:
  struct BatchPut {
    NodeId node = kInvalidNode;
    // (whole-chunk id, shard index); shard index -1 for a whole chunk.
    std::vector<std::pair<ChunkId, int>> puts;
    std::optional<bool> ok;  // empty until the completion is delivered
  };
  using Hook = std::function<void(std::size_t batch, NodeId node)>;

  explicit RecordingTransport(Transport* inner) : inner_(inner) {}

  void set_hook(Hook hook) { hook_ = std::move(hook); }
  const std::vector<BatchPut>& batches() const { return batches_; }

  OpHandle Submit(ChunkOp op) override {
    if (op.type != ChunkOpType::kPutChunkBatch) {
      return inner_->Submit(std::move(op));
    }
    BatchPut record;
    record.node = op.node;
    for (const ChunkPut& put : op.puts) {
      record.puts.emplace_back(put.shard_index < 0 ? put.id : put.group,
                               put.shard_index);
    }
    if (hook_) hook_(batches_.size(), op.node);
    OpHandle handle = inner_->Submit(std::move(op));
    batch_of_[handle] = batches_.size();
    batches_.push_back(std::move(record));
    return handle;
  }
  Result<OpCompletion> Wait(OpHandle handle) override {
    return Note(inner_->Wait(handle));
  }
  Result<OpCompletion> WaitAny(std::span<const OpHandle> handles) override {
    return Note(inner_->WaitAny(handles));
  }
  std::optional<OpCompletion> Poll(
      std::span<const OpHandle> handles) override {
    std::optional<OpCompletion> done = inner_->Poll(handles);
    if (done.has_value()) Record(*done);
    return done;
  }
  bool Cancel(OpHandle handle) override { return inner_->Cancel(handle); }
  std::size_t InFlight() const override { return inner_->InFlight(); }

 private:
  Result<OpCompletion> Note(Result<OpCompletion> done) {
    if (done.ok()) Record(done.value());
    return done;
  }
  void Record(const OpCompletion& done) {
    auto it = batch_of_.find(done.handle);
    if (it == batch_of_.end()) return;
    batches_[it->second].ok = done.status.ok();
    batch_of_.erase(it);
  }

  Transport* inner_;
  Hook hook_;
  std::vector<BatchPut> batches_;
  std::map<OpHandle, std::size_t> batch_of_;
};

// Renders ascending runs of three or more evenly spaced slots as
// "first..last/step" so a 64-chunk batch stays one short token.
std::string FormatSlots(const std::vector<std::size_t>& slots) {
  std::ostringstream out;
  for (std::size_t i = 0; i < slots.size();) {
    std::size_t j = i + 1;
    if (j < slots.size() && slots[j] > slots[i]) {
      const std::size_t step = slots[j] - slots[i];
      while (j + 1 < slots.size() && slots[j + 1] == slots[j] + step) ++j;
      if (j - i >= 2) {
        if (i > 0) out << ',';
        out << slots[i] << ".." << slots[j];
        if (step != 1) out << '/' << step;
        i = j + 1;
        continue;
      }
    }
    if (i > 0) out << ',';
    out << slots[i];
    i = i + 1;
  }
  return out.str();
}

class UploadDrainTest : public ::testing::Test {
 protected:
  const CheckpointName kName{"app", "n1", 1};

  // A cluster of `donors` memory benefactors and one write session on it
  // whose transport is recorded.
  void Open(int donors, ClientOptions options) {
    ClusterOptions cluster_options;
    cluster_options.benefactor_count = donors;
    cluster_ = std::make_unique<StdchkCluster>(cluster_options);
    recorder_ = std::make_unique<RecordingTransport>(&cluster_->transport());
    options.chunk_size = kChunk;
    options.hash_workers = 1;
    session_ = std::make_unique<WriteSession>(
        &cluster_->manager(), recorder_.get(), kName, std::move(options));
  }

  // Before batched PUT number `batch` is submitted, its target crashes.
  void CrashTargetOf(std::size_t batch) {
    recorder_->set_hook([this, batch](std::size_t index, NodeId node) {
      if (index == batch) cluster_->FindBenefactor(node)->Crash();
    });
  }

  // Before batched PUT number `batch` is submitted, every later RPC to its
  // target fails with probability `loss`.
  void DegradeTargetOf(std::size_t batch, double loss) {
    recorder_->set_hook([this, batch, loss](std::size_t index, NodeId node) {
      if (index == batch) cluster_->transport().SetLossRate(node, loss);
    });
  }

  void RestartCrashed() {
    for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
      if (!cluster_->benefactor(i).online()) {
        ASSERT_TRUE(cluster_->RestartBenefactor(i).ok());
      }
    }
  }

  // Writes `chunks` chunk-sized pieces of fresh random data, then a
  // `tail`-byte piece; returns the first failed Write().
  Status Write(std::size_t chunks, std::size_t tail = 0) {
    for (std::size_t i = 0; i <= chunks; ++i) {
      const std::size_t n = i < chunks ? kChunk : tail;
      if (n == 0) continue;
      STDCHK_RETURN_IF_ERROR(session_->Write(rng_.RandomBytes(n)));
    }
    return OkStatus();
  }

  Status Close() { return session_->Close().status(); }

  // Every batched PUT in submission order, space separated:
  // "<node>:<puts>" with "!" appended when the batch failed and "?" when
  // its completion was never harvested. A whole-chunk put is its map slot;
  // a shard put is "<slot>.<shard index>".
  std::string Puts() const {
    std::map<ChunkId, std::size_t> slot_of;
    const auto& chunks = session_->chunk_map().chunks;
    for (std::size_t i = 0; i < chunks.size(); ++i) slot_of[chunks[i].id] = i;

    std::ostringstream out;
    for (const auto& batch : recorder_->batches()) {
      if (out.tellp() > 0) out << ' ';
      out << batch.node << ':';
      std::vector<std::size_t> whole;
      std::vector<std::string> shards;
      for (const auto& [id, shard] : batch.puts) {
        if (shard < 0) {
          whole.push_back(slot_of.at(id));
        } else {
          shards.push_back(std::to_string(slot_of.at(id)) + "." +
                           std::to_string(shard));
        }
      }
      out << FormatSlots(whole);
      for (std::size_t i = 0; i < shards.size(); ++i) {
        out << (i > 0 ? "," : "") << shards[i];
      }
      if (!batch.ok.has_value()) {
        out << '?';
      } else if (!*batch.ok) {
        out << '!';
      }
    }
    return out.str();
  }

  // The committed chunk map's nodes: the slots that share one ordered node
  // list, as "r<replicas>:<slots>" or "s<shard nodes>:<slots>" (nodes
  // joined by ","), listed by first slot. "none" when nothing is committed.
  std::string Committed() const {
    auto record = cluster_->manager().GetVersion(kName);
    if (!record.ok()) return "none";
    std::vector<std::pair<std::string, std::vector<std::size_t>>> groups;
    const auto& chunks = record.value().chunk_map.chunks;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      std::ostringstream key;
      if (chunks[i].shards.empty()) {
        key << 'r';
        for (std::size_t r = 0; r < chunks[i].replicas.size(); ++r) {
          key << (r > 0 ? "," : "") << chunks[i].replicas[r];
        }
      } else {
        key << 's';
        for (std::size_t s = 0; s < chunks[i].shards.size(); ++s) {
          key << (s > 0 ? "," : "") << chunks[i].shards[s].node;
        }
      }
      auto group = std::find_if(
          groups.begin(), groups.end(),
          [&](const auto& g) { return g.first == key.str(); });
      if (group == groups.end()) {
        groups.push_back({key.str(), {i}});
      } else {
        group->second.push_back(i);
      }
    }
    std::ostringstream out;
    for (const auto& [nodes, slots] : groups) {
      if (out.tellp() > 0) out << ' ';
      out << nodes << ':' << FormatSlots(slots);
    }
    return out.str();
  }

  // Every deterministic WriteStats counter (the *_ns timers and the
  // naming fan-out are machine dependent and left out).
  std::string Stats() const {
    const WriteStats& s = session_->stats();
    std::ostringstream out;
    out << "written=" << s.bytes_written << " sent=" << s.bytes_transferred
        << " chunks=" << s.chunks_total << " dedup=" << s.chunks_deduplicated
        << "/" << s.bytes_deduplicated << " puts=" << s.replica_puts
        << " flushes=" << s.flushes << " batches=" << s.batched_puts
        << " spilled=" << s.bytes_spilled_local
        << " buffered=" << s.max_buffered_bytes
        << " inflight=" << s.inflight_put_peak
        << " shards=" << s.data_shards_written << "+"
        << s.parity_shards_written << " parity_bytes=" << s.parity_bytes_written
        << " encoded=" << s.erasure_encoded_chunks
        << " named=" << s.hash_chunks << "/" << s.hash_bytes;
    return out.str();
  }

  std::unique_ptr<StdchkCluster> cluster_;
  std::unique_ptr<RecordingTransport> recorder_;
  std::unique_ptr<WriteSession> session_;
  Rng rng_{41};
};

ClientOptions Options(WriteProtocol protocol, int stripe_width) {
  ClientOptions options;
  options.protocol = protocol;
  options.stripe_width = stripe_width;
  options.increment_size = 4 * kChunk;
  return options;
}

ClientOptions Pessimistic(WriteProtocol protocol, int stripe_width,
                          int replicas) {
  ClientOptions options = Options(protocol, stripe_width);
  options.semantics = WriteSemantics::kPessimistic;
  options.replication_target = replicas;
  return options;
}

ClientOptions Erasure(WriteProtocol protocol, int k, int m) {
  ClientOptions options = Options(protocol, k + m);
  options.erasure = {k, m};
  return options;
}

// ---- Replication --------------------------------------------------------

TEST_F(UploadDrainTest, OptimisticSlidingWindowWalksStripeRoundRobin) {
  Open(6, Options(WriteProtocol::kSlidingWindow, 3));
  ASSERT_TRUE(Write(7, 100).ok());
  ASSERT_TRUE(Close().ok());

  // The walk starts at the cursor and the cursor advances one stripe
  // member per chunk: chunk i lands on stripe[i % 3].
  const auto& batches = recorder_->batches();
  ASSERT_EQ(batches.size(), 8u);
  EXPECT_NE(batches[0].node, batches[1].node);
  EXPECT_NE(batches[1].node, batches[2].node);
  EXPECT_NE(batches[0].node, batches[2].node);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(batches[i].node, batches[i % 3].node) << "chunk " << i;
  }
  EXPECT_EQ(Puts(), "3:0 5:1 6:2 3:3 5:4 6:5 3:6 5:7");
  EXPECT_EQ(Committed(), "r3:0..6/3 r5:1..7/3 r6:2,5");
  EXPECT_EQ(Stats(),
            "written=7268 sent=7268 chunks=8 dedup=0/0 puts=8 flushes=8 "
            "batches=8 spilled=0 buffered=1024 inflight=1 shards=0+0 "
            "parity_bytes=0 encoded=0 named=8/7268");
}

TEST_F(UploadDrainTest, FailoverBudgetIsTwiceTheStripePlusFour) {
  // Every donor rejects every RPC; each failure swaps in a spare donor, so
  // the lone chunk burns its whole walk, one attempt per round.
  Open(4, Options(WriteProtocol::kCompleteLocal, 2));
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    cluster_->transport().SetLossRate(cluster_->benefactor(i).id(), 1.0);
  }
  ASSERT_TRUE(Write(1).ok());
  Status closed = Close();
  EXPECT_EQ(closed.message(), "could not store chunk on any benefactor");
  EXPECT_EQ(recorder_->batches().size(), 2u * 2 + 4);
  EXPECT_EQ(Puts(), "3:0! 2:0! 4:0! 1:0! 3:0! 4:0! 1:0! 3:0!");
  EXPECT_EQ(Committed(), "none");
  EXPECT_EQ(Stats(),
            "written=1024 sent=0 chunks=1 dedup=0/0 puts=0 flushes=1 "
            "batches=0 spilled=1024 buffered=1024 inflight=1 shards=0+0 "
            "parity_bytes=0 encoded=0 named=1/1024");
}

TEST_F(UploadDrainTest, PessimisticTwoReplicasWithLossyMember) {
  Open(6, Pessimistic(WriteProtocol::kIncremental, 3, 2));
  DegradeTargetOf(0, 0.3);
  ASSERT_TRUE(Write(12, 300).ok());
  ASSERT_TRUE(Close().ok());
  EXPECT_EQ(Puts(),
            "3:0,3! 5:1 6:2 4:2 5:0,3 6:1 6:0,3 4:6 5:4,7 6:5 4:5 5:6 6:4,7 "
            "4:9 5:10 6:8,11 4:8,11 5:9 6:10 4:12 5:12");
  EXPECT_EQ(Committed(), "r5,6:0,1,3,4..10/3 r4,6:2..11/3 r4,5:6..12/3");
  EXPECT_EQ(Stats(),
            "written=12588 sent=25176 chunks=13 dedup=0/0 puts=26 flushes=4 "
            "batches=20 spilled=12588 buffered=4096 inflight=3 shards=0+0 "
            "parity_bytes=0 encoded=0 named=13/12588");
}

TEST_F(UploadDrainTest, PessimisticThreeReplicasWithMemberCrashedMidWrite) {
  Open(6, Pessimistic(WriteProtocol::kSlidingWindow, 3, 3));
  CrashTargetOf(7);
  ASSERT_TRUE(Write(6).ok());
  ASSERT_TRUE(Close().ok());
  EXPECT_EQ(Puts(),
            "3:0 5:0 6:0 5:1 6:1 3:1 6:2 3:2! 5:2 4:2 4:3 5:3 6:3 5:4 6:4 "
            "4:4 6:5 4:5 5:5");
  EXPECT_EQ(Committed(), "r3,5,6:0,1 r4,5,6:2..5");
  EXPECT_EQ(Stats(),
            "written=6144 sent=18432 chunks=6 dedup=0/0 puts=18 flushes=6 "
            "batches=18 spilled=0 buffered=1024 inflight=1 shards=0+0 "
            "parity_bytes=0 encoded=0 named=6/6144");
}

TEST_F(UploadDrainTest, CompleteLocalSplitsBatchesAboveSixtyFourChunks) {
  // 140 chunks over a stripe of 2: 70 per node, so each node's queue goes
  // out as a 64-chunk batch and a 6-chunk batch. The second batch's target
  // crashes, so its chunks fail over in a second round.
  Open(5, Options(WriteProtocol::kCompleteLocal, 2));
  CrashTargetOf(1);
  ASSERT_TRUE(Write(140).ok());
  ASSERT_TRUE(Close().ok());
  EXPECT_EQ(Puts(),
            "3:0..126/2 3:128..138/2! 5:1..127/2 5:129..139/2 5:128..138/2");
  EXPECT_EQ(Committed(), "r3:0..126/2 r5:1..127/2,128..139");
  EXPECT_EQ(Stats(),
            "written=143360 sent=143360 chunks=140 dedup=0/0 puts=140 "
            "flushes=1 batches=4 spilled=143360 buffered=143360 inflight=4 "
            "shards=0+0 parity_bytes=0 encoded=0 named=140/143360");
}

TEST_F(UploadDrainTest, CompleteLocalUnderLossOnEveryDonor) {
  Open(8, Options(WriteProtocol::kCompleteLocal, 4));
  for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
    cluster_->transport().SetLossRate(cluster_->benefactor(i).id(), 0.3);
  }
  ASSERT_TRUE(Write(24, 10).ok());
  ASSERT_TRUE(Close().ok());
  EXPECT_EQ(Puts(), "3:0..24/4! 5:1..21/4 6:3..23/4 7:2..22/4 5:0..24/4");
  EXPECT_EQ(Committed(),
            "r5:0,1,4,5,8,9,12,13,16,17,20,21,24 r7:2..22/4 r6:3..23/4");
  EXPECT_EQ(Stats(),
            "written=24586 sent=24586 chunks=25 dedup=0/0 puts=25 flushes=1 "
            "batches=4 spilled=24586 buffered=24586 inflight=4 shards=0+0 "
            "parity_bytes=0 encoded=0 named=25/24586");
}

TEST_F(UploadDrainTest, PessimisticRetryAfterFailedCloseTopsUpShortfall) {
  // Three donors, three replicas: a crashed member has no replacement, so
  // the first Close() stops one replica short. After the restart the retry
  // sends only the missing replicas.
  Open(3, Pessimistic(WriteProtocol::kCompleteLocal, 3, 3));
  CrashTargetOf(1);
  ASSERT_TRUE(Write(4).ok());
  Status first = Close();
  EXPECT_EQ(first.message(),
            "pessimistic write could not reach replication target 3");
  EXPECT_EQ(Committed(), "none");
  RestartCrashed();
  ASSERT_TRUE(Close().ok());
  EXPECT_EQ(Puts(), "1:2 2:1! 3:0,3 1:0,1,3 3:2 3:1 2:0..3");
  EXPECT_EQ(Committed(), "r1,2,3:0..3");
  EXPECT_EQ(Stats(),
            "written=4096 sent=12288 chunks=4 dedup=0/0 puts=12 flushes=2 "
            "batches=6 spilled=4096 buffered=4096 inflight=3 shards=0+0 "
            "parity_bytes=0 encoded=0 named=4/4096");
}

// ---- Erasure coding -----------------------------------------------------

TEST_F(UploadDrainTest, ReedSolomon21WithLossyMember) {
  Open(5, Erasure(WriteProtocol::kIncremental, 2, 1));
  DegradeTargetOf(0, 0.3);
  ASSERT_TRUE(Write(10, 500).ok());
  ASSERT_TRUE(Close().ok());
  EXPECT_EQ(Puts(),
            "2:0.2,1.1,2.0,3.2! 3:0.0,1.2,2.1,3.0 5:0.1,1.0,2.2,3.1 "
            "4:0.2,1.1,2.0,3.2 3:4.2,5.1,6.0,7.2 4:4.1,5.0,6.2,7.1 "
            "5:4.0,5.2,6.1,7.0 3:8.1,9.0,10.2 4:8.0,9.2,10.1 5:8.2,9.1,10.0");
  EXPECT_EQ(Committed(), "s3,5,4:0..9/3 s5,4,3:1..10/3 s4,3,5:2..8/3");
  EXPECT_EQ(Stats(),
            "written=10740 sent=16110 chunks=11 dedup=0/0 puts=33 flushes=3 "
            "batches=9 spilled=10740 buffered=4096 inflight=3 shards=22+11 "
            "parity_bytes=5370 encoded=11 named=11/10740");
}

TEST_F(UploadDrainTest, ReedSolomon42WithMemberCrashedMidWrite) {
  Open(8, Erasure(WriteProtocol::kSlidingWindow, 4, 2));
  CrashTargetOf(9);
  ASSERT_TRUE(Write(5, 7).ok());
  ASSERT_TRUE(Close().ok());
  EXPECT_EQ(Puts(),
            "2:0.4 3:0.0 5:0.1 6:0.3 7:0.2 8:0.5 2:1.3 3:1.5 5:1.0 6:1.2! "
            "7:1.1 8:1.4 4:1.2 2:2.2 3:2.4 4:2.1 5:2.5 7:2.0 8:2.3 2:3.1 "
            "3:3.3 4:3.0 5:3.4 7:3.5 8:3.2 2:4.0 3:4.2 4:4.5 5:4.3 7:4.4 "
            "8:4.1 2:5.5 3:5.1 4:5.4 5:5.2 7:5.3 8:5.0");
  EXPECT_EQ(Committed(),
            "s3,5,7,6,2,8:0 s5,7,4,2,8,3:1 s7,4,2,8,3,5:2 s4,2,8,3,5,7:3 "
            "s2,8,3,5,7,4:4 s8,3,5,7,4,2:5");
  EXPECT_EQ(Stats(),
            "written=5127 sent=7691 chunks=6 dedup=0/0 puts=36 flushes=6 "
            "batches=36 spilled=0 buffered=1024 inflight=6 shards=24+12 "
            "parity_bytes=2564 encoded=6 named=6/5127");
}

TEST_F(UploadDrainTest, ReedSolomon42WithNoSpareDonorFails) {
  Open(6, Erasure(WriteProtocol::kCompleteLocal, 4, 2));
  CrashTargetOf(2);
  ASSERT_TRUE(Write(3).ok());
  Status closed = Close();
  EXPECT_EQ(closed.message(),
            "could not stripe all 6 erasure shards across distinct "
            "benefactors");
  EXPECT_EQ(Puts(),
            "1:0.4,1.3,2.2 2:0.3,1.2,2.1 3:0.0,1.5,2.4! 4:0.5,1.4,2.3 "
            "5:0.1,1.0,2.5 6:0.2,1.1,2.0");
  EXPECT_EQ(Committed(), "none");
  EXPECT_EQ(Stats(),
            "written=3072 sent=3840 chunks=3 dedup=0/0 puts=15 flushes=1 "
            "batches=5 spilled=3072 buffered=3072 inflight=6 shards=11+4 "
            "parity_bytes=1024 encoded=3 named=3/3072");
}

TEST_F(UploadDrainTest, ErasureRetryAfterFailedCloseReencodes) {
  Open(3, Erasure(WriteProtocol::kCompleteLocal, 2, 1));
  CrashTargetOf(0);
  ASSERT_TRUE(Write(3).ok());
  Status first = Close();
  EXPECT_EQ(first.message(),
            "could not stripe all 3 erasure shards across distinct "
            "benefactors");
  RestartCrashed();
  ASSERT_TRUE(Close().ok());
  EXPECT_EQ(Puts(),
            "1:0.2,1.1,2.0! 2:0.1,1.0,2.2 3:0.0,1.2,2.1 1:0.2,1.1,2.0 "
            "2:0.1,1.0,2.2 3:0.0,1.2,2.1");
  EXPECT_EQ(Committed(), "s3,2,1:0 s2,1,3:1 s1,3,2:2");
  EXPECT_EQ(Stats(),
            "written=3072 sent=7680 chunks=3 dedup=0/0 puts=15 flushes=2 "
            "batches=5 spilled=3072 buffered=3072 inflight=3 shards=10+5 "
            "parity_bytes=2560 encoded=6 named=3/3072");
}

}  // namespace
}  // namespace stdchk
