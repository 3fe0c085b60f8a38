#include "client/transport.h"

#include <utility>

namespace stdchk {

ChunkOp ChunkOp::PutBatch(NodeId node, std::vector<ChunkPut> puts) {
  ChunkOp op;
  op.type = ChunkOpType::kPutChunkBatch;
  op.node = node;
  op.puts = std::move(puts);
  return op;
}

ChunkOp ChunkOp::GetBatch(NodeId node, std::vector<ChunkId> ids) {
  ChunkOp op;
  op.type = ChunkOpType::kGetChunkBatch;
  op.node = node;
  op.ids = std::move(ids);
  return op;
}

ChunkOp ChunkOp::Stash(NodeId node, VersionRecord record, int stripe_width) {
  ChunkOp op;
  op.type = ChunkOpType::kStashChunkMap;
  op.node = node;
  op.record = std::move(record);
  op.stripe_width = stripe_width;
  return op;
}

}  // namespace stdchk
