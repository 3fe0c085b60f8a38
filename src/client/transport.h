// The asynchronous chunk-transport API between the client and benefactor
// nodes (paper §IV.A: data moves directly between storage nodes and the
// client, never through the manager; §IV.E: the client overlaps chunk
// transfers across benefactors).
//
// This is a submission/completion interface in the async-I/O-engine idiom:
// callers Submit() chunk ops and later harvest per-op completions (Status +
// payload) with Wait()/WaitAny()/Poll(). Ops to distinct nodes overlap;
// each node's access link serializes its own ops — which is exactly what
// makes the pipelined read engine and the uploader's concurrent batch PUTs
// pay off. Implementations model time on the sim clock (sim/LinkModel), so
// the same functional code path reproduces paper-figure timing.
//
// Every cross-node side effect is one op of three kinds, each addressed to
// one node: a batch PUT, a batch GET and a chunk-map stash. A single chunk
// travels as a batch of one. Client I/O and background repair all Submit: a
// repair reads the chunk like a client and PUTs each rebuilt copy.
// Wait(Submit(op)) is the blocking form.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "chunk/chunk.h"
#include "common/status.h"
#include "manager/types.h"

namespace stdchk {

enum class ChunkOpType {
  kPutChunkBatch,
  kGetChunkBatch,
  kStashChunkMap,
};

// One submission. Build via the factory helpers. The slices inside `puts`
// are ref-counted views shared with the caller's staging buffers —
// submitting an op never copies payload bytes, and the receiving node may
// alias the same buffers.
struct ChunkOp {
  ChunkOpType type = ChunkOpType::kGetChunkBatch;
  NodeId node = kInvalidNode;    // the one node the op addresses
  // Carried by no op. bench/suite's TimedTransport still adds it to an
  // op's payload bytes, so it goes with the next change to the benchmark.
  BufferSlice data;
  std::vector<ChunkPut> puts;    // kPutChunkBatch payload
  std::vector<ChunkId> ids;      // kGetChunkBatch request
  VersionRecord record;          // kStashChunkMap (owned copy)
  int stripe_width = 0;          // kStashChunkMap

  static ChunkOp PutBatch(NodeId node, std::vector<ChunkPut> puts);
  static ChunkOp GetBatch(NodeId node, std::vector<ChunkId> ids);
  static ChunkOp Stash(NodeId node, VersionRecord record, int stripe_width);
};

// Ticket for an in-flight op. Valid until its completion is delivered by
// Wait/WaitAny/Poll or the op is cancelled.
using OpHandle = std::uint64_t;
inline constexpr OpHandle kInvalidOpHandle = 0;

// Terminal state of one op. GET payloads are ref-counted slices sharing
// the serving node's buffers — delivery never copies chunk bytes.
struct OpCompletion {
  OpHandle handle = kInvalidOpHandle;
  ChunkOpType type = ChunkOpType::kGetChunkBatch;
  NodeId node = kInvalidNode;
  Status status;                   // per-op outcome
  std::vector<BufferSlice> batch;  // kGetChunkBatch payload, one slice per
                                   // requested id; empty unless ok
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Submits `op` for execution; never blocks. Validation failures (unknown
  // node, unreachable link) surface in the op's completion, not here.
  virtual OpHandle Submit(ChunkOp op) = 0;

  // Blocks (advancing modeled time) until `handle` completes, and delivers
  // its completion. A handle can be waited on exactly once.
  virtual Result<OpCompletion> Wait(OpHandle handle) = 0;

  // Blocks until the earliest-finishing op among `handles` completes.
  // Handles already delivered or cancelled are an error — the caller's
  // in-flight set must be accurate.
  virtual Result<OpCompletion> WaitAny(std::span<const OpHandle> handles) = 0;

  // Delivers a completion among `handles` that is already finished at the
  // current modeled time, without advancing the clock. Empty if none.
  virtual std::optional<OpCompletion> Poll(
      std::span<const OpHandle> handles) = 0;

  // Drops an undelivered op's completion. Returns false if the handle is
  // unknown or already delivered. Like a real network, cancellation only
  // discards the reply — the remote side effect may already have happened.
  virtual bool Cancel(OpHandle handle) = 0;

  // Ops submitted but not yet delivered/cancelled.
  virtual std::size_t InFlight() const = 0;
};

}  // namespace stdchk
