// The asynchronous transport core: submission/completion semantics, modeled
// link timing, cancellation, the in-flight watermark and batch ops.
#include "client/transport.h"

#include <gtest/gtest.h>

#include "core/local_transport.h"
#include "manager/virtual_clock.h"
#include "submit_and_wait.h"

namespace stdchk {
namespace {

Bytes Payload(const std::string& s) { return ToBytes(s); }

class TransportTest : public ::testing::Test {
 protected:
  TransportTest() : manager_(&clock_) {
    for (int i = 0; i < 3; ++i) {
      auto b = std::make_unique<Benefactor>("d" + std::to_string(i),
                                            MakeMemoryChunkStore(), 1_GiB);
      EXPECT_TRUE(b->JoinPool(manager_).ok());
      transport_.AddEndpoint(b.get());
      benefactors_.push_back(std::move(b));
    }
  }

  NodeId node(int i) const { return benefactors_[std::size_t(i)]->id(); }

  // Stores `data` on node `i` synchronously.
  ChunkId Store(int i, const Bytes& data) {
    ChunkId id = ChunkId::For(data);
    ChunkOp put = ChunkOp::PutBatch(node(i), {{id, BufferSlice::Copy(data)}});
    EXPECT_TRUE(SubmitAndWait(transport_, std::move(put)).status.ok());
    return id;
  }

  VirtualClock clock_;
  MetadataManager manager_;
  LocalTransport transport_;
  std::vector<std::unique_ptr<Benefactor>> benefactors_;
};

TEST_F(TransportTest, SubmitWaitDeliversStatusAndPayload) {
  Bytes data = Payload("async chunk");
  ChunkId id = ChunkId::For(data);
  OpHandle put = transport_.Submit(
      ChunkOp::PutBatch(node(0), {{id, BufferSlice::Copy(data)}}));
  auto put_done = transport_.Wait(put);
  ASSERT_TRUE(put_done.ok());
  EXPECT_TRUE(put_done.value().status.ok());
  EXPECT_EQ(put_done.value().type, ChunkOpType::kPutChunkBatch);

  OpHandle get = transport_.Submit(ChunkOp::GetBatch(node(0), {id}));
  auto get_done = transport_.Wait(get);
  ASSERT_TRUE(get_done.ok());
  ASSERT_TRUE(get_done.value().status.ok());
  ASSERT_EQ(get_done.value().batch.size(), 1u);
  EXPECT_EQ(get_done.value().batch[0], data);
  EXPECT_EQ(transport_.InFlight(), 0u);
}

TEST_F(TransportTest, PerOpStatusSurfacesInCompletionNotSubmit) {
  Bytes data = Payload("x");
  // Unknown node: Submit still hands out a handle; the failure is the op's.
  OpHandle h = transport_.Submit(ChunkOp::PutBatch(
      777, {{ChunkId::For(data), BufferSlice::Copy(data)}}));
  ASSERT_NE(h, kInvalidOpHandle);
  auto done = transport_.Wait(h);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done.value().status.code(), StatusCode::kUnavailable);
}

TEST_F(TransportTest, WaitAnyReturnsEarliestModeledCompletion) {
  transport_.SetLinkModel(node(0), sim::LinkModel{Milliseconds(10), 0.0});
  transport_.SetLinkModel(node(1), sim::LinkModel{Milliseconds(1), 0.0});
  ChunkId slow = Store(0, Payload("slow"));
  ChunkId fast = Store(1, Payload("fast"));
  SimTime t0 = transport_.now();

  OpHandle h_slow = transport_.Submit(ChunkOp::GetBatch(node(0), {slow}));
  OpHandle h_fast = transport_.Submit(ChunkOp::GetBatch(node(1), {fast}));
  std::vector<OpHandle> handles{h_slow, h_fast};

  auto first = transport_.WaitAny(handles);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().handle, h_fast);  // 1 ms link beats 10 ms link
  EXPECT_EQ(transport_.now() - t0, Milliseconds(1));

  auto second = transport_.WaitAny(std::vector<OpHandle>{h_slow});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().handle, h_slow);
  EXPECT_EQ(transport_.now() - t0, Milliseconds(10));
}

TEST_F(TransportTest, SameNodeSerializesDistinctNodesOverlap) {
  for (int i = 0; i < 2; ++i) {
    transport_.SetLinkModel(node(i), sim::LinkModel{Milliseconds(5), 0.0});
  }
  ChunkId a = Store(0, Payload("a"));
  ChunkId b = Store(1, Payload("b"));
  SimTime t0 = transport_.now();

  // Two ops on one link: the second queues behind the first.
  OpHandle h1 = transport_.Submit(ChunkOp::GetBatch(node(0), {a}));
  OpHandle h2 = transport_.Submit(ChunkOp::GetBatch(node(0), {a}));
  ASSERT_TRUE(transport_.Wait(h1).ok());
  ASSERT_TRUE(transport_.Wait(h2).ok());
  EXPECT_EQ(transport_.now() - t0, Milliseconds(10));

  // Two ops on distinct links: both done after one latency.
  SimTime t1 = transport_.now();
  OpHandle h3 = transport_.Submit(ChunkOp::GetBatch(node(0), {a}));
  OpHandle h4 = transport_.Submit(ChunkOp::GetBatch(node(1), {b}));
  ASSERT_TRUE(transport_.Wait(h3).ok());
  ASSERT_TRUE(transport_.Wait(h4).ok());
  EXPECT_EQ(transport_.now() - t1, Milliseconds(5));
}

TEST_F(TransportTest, BandwidthChargesTransferTime) {
  // 1 MiB at 1 MB/s = 1 s on the wire.
  transport_.SetLinkModel(node(0), sim::LinkModel{0, 1.0});
  Bytes data(1_MiB, 0x5A);
  ChunkId id = ChunkId::For(data);
  SimTime t0 = transport_.now();
  ChunkOp put = ChunkOp::PutBatch(node(0), {{id, BufferSlice::Copy(data)}});
  ASSERT_TRUE(SubmitAndWait(transport_, std::move(put)).status.ok());
  EXPECT_EQ(transport_.now() - t0, Seconds(1.0));
}

TEST_F(TransportTest, PollDeliversOnlyReadyCompletions) {
  transport_.SetLinkModel(node(0), sim::LinkModel{Milliseconds(3), 0.0});
  ChunkId id = Store(1, Payload("ready"));  // node 1 keeps the zero default

  OpHandle fast = transport_.Submit(ChunkOp::GetBatch(node(1), {id}));
  OpHandle slow = transport_.Submit(ChunkOp::GetBatch(node(0), {id}));
  std::vector<OpHandle> handles{fast, slow};

  // The zero-latency op is ready at the current clock; the modeled one not.
  auto ready = transport_.Poll(handles);
  ASSERT_TRUE(ready.has_value());
  EXPECT_EQ(ready->handle, fast);
  EXPECT_FALSE(transport_.Poll(handles).has_value());  // slow not ready
  ASSERT_TRUE(transport_.Wait(slow).ok());             // advances the clock
}

TEST_F(TransportTest, CancelDropsTheReply) {
  ChunkId id = Store(0, Payload("cancelled"));
  OpHandle h = transport_.Submit(ChunkOp::GetBatch(node(0), {id}));
  EXPECT_EQ(transport_.InFlight(), 1u);
  EXPECT_TRUE(transport_.Cancel(h));
  EXPECT_EQ(transport_.InFlight(), 0u);
  EXPECT_FALSE(transport_.Cancel(h));  // already gone
  // The handle is no longer waitable.
  EXPECT_EQ(transport_.Wait(h).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(transport_.WaitAny(std::vector<OpHandle>{h}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(TransportTest, InflightPeakWitnessesOverlap) {
  ChunkId a = Store(0, Payload("a"));
  ChunkId b = Store(1, Payload("b"));
  ChunkId c = Store(2, Payload("c"));
  transport_.ResetInflightPeak();
  EXPECT_EQ(transport_.inflight_peak(), 0u);

  std::vector<OpHandle> handles;
  handles.push_back(transport_.Submit(ChunkOp::GetBatch(node(0), {a})));
  handles.push_back(transport_.Submit(ChunkOp::GetBatch(node(1), {b})));
  handles.push_back(transport_.Submit(ChunkOp::GetBatch(node(2), {c})));
  EXPECT_EQ(transport_.inflight_peak(), 3u);
  for (OpHandle h : handles) ASSERT_TRUE(transport_.Wait(h).ok());
  EXPECT_EQ(transport_.inflight_peak(), 3u);  // peak survives delivery
}

TEST_F(TransportTest, GetChunkBatchIsOneRpc) {
  Bytes d0 = Payload("batch zero"), d1 = Payload("batch one"),
        d2 = Payload("batch two");
  ChunkId i0 = Store(0, d0), i1 = Store(0, d1), i2 = Store(0, d2);

  std::uint64_t rpcs_before = transport_.rpc_count();
  std::vector<ChunkId> ids{i0, i1, i2};
  OpCompletion got = SubmitAndWait(transport_, ChunkOp::GetBatch(node(0), ids));
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(transport_.rpc_count(), rpcs_before + 1);
  ASSERT_EQ(got.batch.size(), 3u);
  EXPECT_EQ(got.batch[0], d0);
  EXPECT_EQ(got.batch[1], d1);
  EXPECT_EQ(got.batch[2], d2);
}

TEST_F(TransportTest, GetChunkBatchIsAllOrNothing) {
  ChunkId present = Store(0, Payload("present"));
  ChunkId missing = ChunkId::For(Payload("missing"));
  std::vector<ChunkId> ids{present, missing};
  EXPECT_FALSE(
      SubmitAndWait(transport_, ChunkOp::GetBatch(node(0), ids)).status.ok());
}

TEST_F(TransportTest, StashOp) {
  VersionRecord record;
  record.name = CheckpointName{"a", "n", 1};
  OpHandle h = transport_.Submit(ChunkOp::Stash(node(0), record, 2));
  auto done = transport_.Wait(h);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done.value().status.ok());
  EXPECT_EQ(benefactors_[0]->stashed_count(), 1u);
}

}  // namespace
}  // namespace stdchk
