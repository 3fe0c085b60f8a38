// Per-session write accounting, shared by every layer of the staged write
// engine. Readers use it to tell the three §IV.B protocols apart: they
// commit identical chunk maps but move the same bytes at different times.
#pragma once

#include <cstdint>

namespace stdchk {

struct WriteStats {
  std::uint64_t bytes_written = 0;     // application bytes accepted
  std::uint64_t bytes_transferred = 0; // bytes actually sent to benefactors
  std::uint64_t chunks_total = 0;
  std::uint64_t chunks_deduplicated = 0;
  std::uint64_t bytes_deduplicated = 0;  // referenced, not re-transferred
  std::uint64_t replica_puts = 0;      // total chunk-replica transfers

  // Protocol-shape signals (what distinguishes CLW / IW / SW):
  std::uint64_t flushes = 0;            // network drain points
  std::uint64_t batched_puts = 0;       // batch RPCs issued by the uploader
  std::uint64_t bytes_spilled_local = 0;  // client-side spill (CLW/IW temp)
  std::uint64_t max_buffered_bytes = 0;   // high-water client buffering
  std::uint64_t inflight_put_peak = 0;  // concurrent batch PUTs in flight

  // Erasure-coded write path (ClientOptions::erasure):
  std::uint64_t parity_shards_written = 0;  // parity shard puts that landed
  std::uint64_t data_shards_written = 0;    // data shard puts that landed
  std::uint64_t parity_bytes_written = 0;   // redundancy bytes shipped
  std::uint64_t erasure_encode_ns = 0;      // wall time in GF(256) encode
  std::uint64_t erasure_encoded_chunks = 0;

  // Chunk-naming (SHA-1) accounting from the planner's drains:
  std::uint64_t hash_ns = 0;            // wall time spent naming chunks
  std::uint64_t hash_chunks = 0;        // chunks named
  std::uint64_t hash_bytes = 0;         // bytes hashed for naming
  std::uint64_t hash_workers_peak = 0;  // widest fan-out any drain used
  std::uint64_t hash_parallel_drains = 0;  // drains named on >1 thread
};

}  // namespace stdchk
