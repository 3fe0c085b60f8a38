// Timing decorators for the traced run. Each wraps one layer's public
// interface, records a span around every call into it, and forwards every
// virtual unchanged — a decorator that dropped one (say PutBatch, which
// the disk store turns into one pwritev + fsync per batch, or CompactStep)
// would silently change what the traced run measures.
//
//   TimedChunker / TimedScanner   chkpt/   via ClientOptions::chunker
//   TimedTransport                core/    clients built over it
//   TimedStore                    chunk/   via ClusterOptions::store_decorator
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "chkpt/chunker.h"
#include "chunk/chunk_store.h"
#include "client/transport.h"
#include "trace.h"

namespace stdchk::suite {

class TimedScanner final : public ChunkScanner {
 public:
  explicit TimedScanner(std::unique_ptr<ChunkScanner> inner)
      : inner_(std::move(inner)) {}

  void Feed(ByteSpan data, std::vector<std::uint64_t>& out) override {
    ScopedSpan span("chkpt", "scan");
    span.set_bytes(data.size());
    inner_->Feed(data, out);
  }
  void Finish(std::vector<std::uint64_t>& out) override {
    ScopedSpan span("chkpt", "scan");
    inner_->Finish(out);
  }
  std::uint64_t consumed() const override { return inner_->consumed(); }

 private:
  std::unique_ptr<ChunkScanner> inner_;
};

class TimedChunker final : public Chunker {
 public:
  explicit TimedChunker(std::shared_ptr<const Chunker> inner)
      : inner_(std::move(inner)) {}

  std::vector<ChunkSpan> Split(ByteSpan data) const override {
    ScopedSpan span("chkpt", "scan");
    span.set_bytes(data.size());
    return inner_->Split(data);
  }
  std::vector<ChunkSpan> SplitSealed(ByteSpan data) const override {
    ScopedSpan span("chkpt", "scan");
    span.set_bytes(data.size());
    return inner_->SplitSealed(data);
  }
  std::unique_ptr<ChunkScanner> MakeScanner() const override {
    return std::make_unique<TimedScanner>(inner_->MakeScanner());
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const Chunker> inner_;
};

// Clients built over this instead of cluster.transport(). LocalTransport
// executes the benefactor side effect eagerly inside Submit, so a submit
// span contains routing, the transport mutex wait, benefactor admission
// (integrity verify) and — as child spans — the store calls.
class TimedTransport final : public Transport {
 public:
  explicit TimedTransport(Transport* inner) : inner_(inner) {}

  OpHandle Submit(ChunkOp op) override {
    ScopedSpan span("core", "submit");
    span.set_bytes(PayloadBytes(op));
    return inner_->Submit(std::move(op));
  }
  Result<OpCompletion> Wait(OpHandle handle) override {
    ScopedSpan span("core", "wait");
    return Count(inner_->Wait(handle));
  }
  Result<OpCompletion> WaitAny(std::span<const OpHandle> handles) override {
    ScopedSpan span("core", "wait");
    return Count(inner_->WaitAny(handles));
  }
  std::optional<OpCompletion> Poll(std::span<const OpHandle> handles) override {
    ScopedSpan span("core", "wait");
    std::optional<OpCompletion> done = inner_->Poll(handles);
    if (done.has_value() && !done->status.ok()) failed_.fetch_add(1);
    return done;
  }
  bool Cancel(OpHandle handle) override { return inner_->Cancel(handle); }
  std::size_t InFlight() const override { return inner_->InFlight(); }

  // Completions delivered with a non-OK status (node down, rejected batch).
  std::uint64_t failed_ops() const { return failed_.load(); }

 private:
  static std::uint64_t PayloadBytes(const ChunkOp& op) {
    std::uint64_t bytes = op.data.size();
    for (const ChunkPut& put : op.puts) bytes += put.data.size();
    return bytes;
  }
  Result<OpCompletion> Count(Result<OpCompletion> done) {
    if (!done.ok() || !done.value().status.ok()) failed_.fetch_add(1);
    return done;
  }

  Transport* inner_;
  std::atomic<std::uint64_t> failed_{0};
};

class TimedStore final : public ChunkStore {
 public:
  explicit TimedStore(std::unique_ptr<ChunkStore> inner)
      : inner_(std::move(inner)) {}

  using ChunkStore::Put;
  Status Put(const ChunkId& id, BufferSlice data) override {
    ScopedSpan span("chunk", "put");
    span.set_bytes(data.size());
    return inner_->Put(id, std::move(data));
  }
  Status PutBatch(std::span<const ChunkPut> puts) override {
    ScopedSpan span("chunk", "put");
    std::uint64_t bytes = 0;
    for (const ChunkPut& put : puts) bytes += put.data.size();
    span.set_bytes(bytes);
    return inner_->PutBatch(puts);
  }
  Result<BufferSlice> Get(const ChunkId& id) const override {
    ScopedSpan span("chunk", "get");
    Result<BufferSlice> got = inner_->Get(id);
    if (got.ok()) span.set_bytes(got.value().size());
    return got;
  }
  bool Contains(const ChunkId& id) const override {
    return inner_->Contains(id);
  }
  Status Delete(const ChunkId& id) override { return inner_->Delete(id); }
  Status Wipe() override { return inner_->Wipe(); }
  std::vector<ChunkId> List() const override { return inner_->List(); }
  std::uint64_t BytesUsed() const override { return inner_->BytesUsed(); }
  std::size_t ChunkCount() const override { return inner_->ChunkCount(); }
  std::uint64_t ResidentBytes() const override {
    return inner_->ResidentBytes();
  }
  Result<CompactionStepReport> CompactStep(
      const CompactionPolicy& policy) override {
    ScopedSpan span("chunk", "compact");
    return inner_->CompactStep(policy);
  }
  ChunkStoreStats Stats() const override { return inner_->Stats(); }

 private:
  std::unique_ptr<ChunkStore> inner_;
};

}  // namespace stdchk::suite
