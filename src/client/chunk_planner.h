// Layer 1 of the staged write engine: buffering and chunk-boundary
// decisions.
//
// The planner accepts the application's byte stream and carves it into
// content-addressed chunks under any Chunker — FsCH for the paper's
// fixed-size transfer chunks, CbCH for shift-resilient incremental
// checkpointing (§IV.C). Boundaries are found by the chunker's streaming
// ChunkScanner when a protocol drains: Drain feeds it every byte appended
// since the last drain, in one span, so each byte is scanned exactly once
// and a parallel scan splits a whole drain generation at a time. A chunk
// is only released once no amount of future data can move its edges, so
// the chunk map is a pure function of file content, independent of
// Write() call granularity or drain timing.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chkpt/chunker.h"
#include "chunk/chunk.h"
#include "client/write_stats.h"
#include "common/buffer.h"
#include "common/bytes.h"

namespace stdchk {

// A chunk the planner has sealed: content address plus a ref-counted slice
// of the drained buffer generation, ready for dedup filtering and upload
// staging. The slice keeps the generation alive for as long as any of its
// chunks is still pending — no per-chunk copies, so a CLW close-drain of a
// large image stays at ~1x the image in memory.
struct StagedChunk {
  ChunkId id;
  BufferSlice data;
};

class ChunkPlanner {
 public:
  // `hash_workers` bounds the threads used to SHA-1-name each drain
  // generation (0 = the CPUs this process may run on, 1 = serial on the
  // caller — see ClientOptions::hash_workers). Each staged slice carries
  // its name's digest as a stamp. Naming wall time and fan-out are
  // recorded into `stats` when provided.
  explicit ChunkPlanner(std::shared_ptr<const Chunker> chunker,
                        int hash_workers = 1, WriteStats* stats = nullptr);

  // Buffers more application data (checkpoint images arrive sequentially)
  // — the single materialization point of the write path. The boundary
  // scan runs in Drain.
  void Append(ByteSpan data);

  // Bytes accepted but not yet drained — the client-side spill/window the
  // three protocols manage differently.
  std::size_t buffered_bytes() const { return buffer_.size(); }

  // Scans the bytes appended since the last drain, then removes and
  // returns chunks whose boundaries are sealed. `final` seals the tail as
  // well (close-time drain); afterwards the planner is empty.
  std::vector<StagedChunk> Drain(bool final);

  const Chunker& chunker() const { return *chunker_; }

 private:
  std::shared_ptr<const Chunker> chunker_;
  int hash_workers_;         // resolved: >= 1
  WriteStats* stats_;        // optional naming accounting sink
  std::unique_ptr<ChunkScanner> scanner_;
  Bytes buffer_;                 // bytes from the last drained boundary on
  std::uint64_t buffer_start_ = 0;  // absolute stream offset of buffer_[0]
};

}  // namespace stdchk
