// Copy-on-write upload plan (paper §IV.C, "architectural support").
//
// When a new version of a checkpoint image is written with incremental
// checkpointing enabled, only chunks the system does not already store are
// transferred; the new chunk map interleaves freshly uploaded chunks with
// references to chunks persisted by earlier versions. An UploadPlan records
// that split for one written image (ClientProxy::WriteFileDeduped).
#pragma once

#include <cstdint>
#include <vector>

#include "chkpt/chunker.h"
#include "chunk/chunk.h"

namespace stdchk {

struct PlannedChunk {
  ChunkSpan span;
  ChunkId id;
  bool novel = true;  // false -> already stored; reuse, do not transfer
};

struct UploadPlan {
  std::vector<PlannedChunk> chunks;
  std::uint64_t total_bytes = 0;
  std::uint64_t novel_bytes = 0;

  std::uint64_t reused_bytes() const { return total_bytes - novel_bytes; }
  double dedup_ratio() const {
    return total_bytes ? static_cast<double>(reused_bytes()) /
                             static_cast<double>(total_bytes)
                       : 0.0;
  }
};

}  // namespace stdchk
