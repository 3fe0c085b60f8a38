// Client-side configuration: write protocol, semantics, striping.
#pragma once

#include <cstddef>
#include <memory>

#include "chkpt/chunker.h"
#include "chunk/chunk.h"

namespace stdchk {

// The three write-optimized paths of §IV.B. Functionally they produce the
// same committed file; they differ in when data leaves the client:
//   CLW buffers the whole file locally and pushes at close();
//   IW  pushes each temp-file-sized increment as it completes;
//   SW  pushes each chunk as soon as it is produced (no local spill).
enum class WriteProtocol { kCompleteLocal, kIncremental, kSlidingWindow };

// §IV.A "tunable write semantics": pessimistic writes return only after the
// replication target is met; optimistic writes return after the first
// replica persists and let background replication catch up.
enum class WriteSemantics { kOptimistic, kPessimistic };

// Erasure-coded redundancy (paper §IV.A's rejected alternative, promoted to
// a live choice now the GF(256) kernels run at data-path speed): each
// committed chunk is encoded into k data + m parity shards striped across
// k+m distinct benefactors. Storage overhead is (k+m)/k (e.g. 1.5x for
// RS(4,2)) instead of replication's 2-3x, and any m benefactor deaths stay
// survivable — reads reconstruct from any k live shards. k == 0 disables
// erasure coding (replication mode).
struct ErasureCoded {
  int k = 0;
  int m = 0;

  bool enabled() const { return k > 0 && m > 0; }
};

struct ClientOptions {
  int stripe_width = 4;
  std::size_t chunk_size = kDefaultChunkSize;
  WriteProtocol protocol = WriteProtocol::kSlidingWindow;
  WriteSemantics semantics = WriteSemantics::kOptimistic;

  // IW temp-file size (bytes of application data per increment).
  std::size_t increment_size = 64_MiB;

  // Chunk-boundary heuristic driving the write path's ChunkPlanner. Null
  // selects FsCH at `chunk_size`; inject a ContentBasedChunker for CbCH
  // (shift-resilient) boundaries on the streaming write path (§IV.C).
  std::shared_ptr<const Chunker> chunker;

  // Incremental checkpointing: compare-by-hash against the manager's chunk
  // index so chunks the system already stores are referenced, not
  // re-transferred. Applies to whichever `chunker` is active (the paper's
  // prototype integrates FsCH with chunker == transfer chunk size).
  bool incremental_fsch = false;

  // Threads used to SHA-1-name the chunks of each drain generation
  // (including the session's own thread). Drain slices are immutable and
  // independent, so naming parallelizes safely; results are reassembled in
  // plan order, making the committed chunk map byte-identical for every
  // setting. 0 = the number of CPUs this process may run on (its affinity
  // mask); 1 = serial naming on the session's thread. Only naming reads
  // this: the transport checks every unstamped read payload (disk donors),
  // and the CbCH gear scan marks boundary candidates, on the shared
  // HashPool whatever it says.
  int hash_workers = 0;

  // Replicas required at close() for pessimistic writes; also recorded as
  // the version's replication target (0 = inherit the folder policy).
  int replication_target = 0;

  // Erasure-coded mode: when enabled, the uploader encodes every committed
  // chunk into erasure.k + erasure.m shards on distinct benefactors instead
  // of whole replicas (replication_target is ignored — durability comes
  // from parity). Requires a stripe of at least k+m benefactors; the write
  // session widens stripe_width to k+m automatically.
  ErasureCoded erasure;

  // Per-write eager space reservation granularity (§IV.A incremental
  // allocation).
  std::size_t reservation_extent = 256_MiB;

  // Read path: chunks prefetched ahead of the reader's position. The read
  // engine keeps up to read_ahead_chunks + 1 chunk fetches in flight
  // (demand chunk + read-ahead window), overlapped across benefactors.
  int read_ahead_chunks = 2;

  // Byte budget for the read-ahead cache. Chunks already consumed (or no
  // longer in the active window) are evicted oldest-first once the cache
  // exceeds this; chunks the current window still needs are never evicted,
  // so a budget smaller than the window degrades to window-sized caching
  // rather than thrashing. 0 = unbounded.
  std::size_t read_cache_budget_bytes = 64_MiB;
};

}  // namespace stdchk
