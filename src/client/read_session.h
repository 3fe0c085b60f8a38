// Pipelined read engine: chunk-map lookup at the manager, then overlapped
// chunk fetches from benefactors through the async transport (paper §IV.E:
// "improves read performance through read-ahead and high volume caching").
// Reads matter for timely job restarts (§III.B).
//
// The engine keeps a bounded window of chunk fetches in flight, overlapping
// transfers across distinct benefactors. The window is measured in bytes:
// it holds every chunk that starts within (read_ahead_chunks + 1) transfer
// chunks of ClientOptions::chunk_size bytes from the demand chunk's offset,
// and never fewer than read_ahead_chunks + 1 chunks. A file cut into
// chunk_size chunks gets the demand chunk plus read_ahead_chunks of
// read-ahead; a file of small content-defined (CbCH) chunks gets as many
// as fit. Every fetch is one GET op (ChunkOp::GetBatch) carrying one or
// more chunk ids: chunks of the window that land on the same replica share
// one, and a chunk retried alone or an erasure shard rides one of its own.
// While the demand chunk is in flight the window refills in bulk, one
// transfer chunk's worth of bytes at a time, so small chunks share GETs
// instead of costing one round trip (and one content-check batch) each.
// Replica selection round-robins over
// each chunk's replica set, skips nodes already observed dead this session
// before paying a failed RPC (retrying them only as a last resort), and
// fails over per chunk. The read-ahead cache is
// bounded by ClientOptions::read_cache_budget_bytes; evictions show up in
// ReadStats.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <set>
#include <vector>

#include "client/client_options.h"
#include "client/transport.h"
#include "common/annotated_mutex.h"
#include "common/status.h"
#include "manager/metadata_manager.h"

namespace stdchk {

// Per-session read accounting.
struct ReadStats {
  std::uint64_t chunks_fetched = 0;  // chunk payloads received
  std::uint64_t cache_hits = 0;      // demand chunk already cached at ReadAt
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_bytes_peak = 0;
  std::uint64_t single_gets = 0;  // GET ops issued carrying one chunk
  std::uint64_t batch_gets = 0;   // GET ops issued carrying more than one
  std::uint64_t failovers = 0;    // chunk fetches retried after a failure
  std::uint64_t dead_replica_skips = 0;  // replicas skipped as observed-dead
  std::size_t inflight_peak = 0;  // engine's overlap high watermark (chunks)

  // Erasure-coded chunks (ChunkLocation::erasure_coded()):
  std::uint64_t shard_fetches = 0;         // shard payloads received
  std::uint64_t parity_shard_fetches = 0;  // parity pulled to cover a loss
  std::uint64_t reconstructions = 0;       // chunks rebuilt from parity
  std::uint64_t full_replica_fallbacks = 0;  // EC chunks served by a whole
                                             // replica after shard recovery
                                             // failed (mixed-mode dedup only)
};

class ReadSession {
 public:
  ReadSession(Transport* transport, VersionRecord record,
              ClientOptions options);
  ~ReadSession();

  ReadSession(const ReadSession&) = delete;
  ReadSession& operator=(const ReadSession&) = delete;

  std::uint64_t size() const { return record_.size; }

  // Reads up to `out.size()` bytes at `offset`; returns bytes read (0 at
  // EOF). Sequential callers get the full pipelined window. Serialized on
  // the session mutex: concurrent callers share one window and cache.
  Result<std::size_t> ReadAt(std::uint64_t offset, MutableByteSpan out)
      EXCLUDES(mu_);

  // The whole file, as one restart image. The chunks land in it in file
  // order, each copied once from the cache: the image is reserved, not
  // zero-filled, and its whole 2 MiB pages are advised for transparent
  // huge pages before the first byte is written, so a 64 MiB image takes
  // about 540 page faults instead of 16k (31 huge pages, plus 4 KiB pages
  // for the two ends that share a 2 MiB page with other memory). Holds
  // the session mutex for the whole walk; a chunk that cannot be fetched
  // fails the call with that chunk's error, never a partial image.
  Result<Bytes> ReadAll() EXCLUDES(mu_);

  // Snapshot of the accounting, copied under the session mutex so a reader
  // concurrent with ReadAt sees a consistent struct.
  ReadStats stats() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }
  std::uint64_t chunks_fetched() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_.chunks_fetched;
  }
  std::uint64_t cache_hits() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_.cache_hits;
  }

 private:
  struct Cached {
    std::size_t index;
    BufferSlice data;  // shares the serving node's buffer — never a copy
  };
  // One in-flight transport op and the window chunks riding on it.
  struct Fetch {
    std::vector<std::size_t> indices;
    NodeId node = kInvalidNode;
  };

  // Last chunk of the window that opens at chunk `demand`.
  std::size_t WindowEnd(std::size_t demand) const;
  // Selects a replica for chunk `index`: round-robin over its replica set,
  // skipping replicas that already failed for this chunk and nodes observed
  // dead this session (dead nodes are retried only when no live candidate
  // remains — a drop may have been transient, so exhausted blacklists are
  // cleared and re-swept under a bounded per-chunk failover budget).
  Result<NodeId> PickReplica(std::size_t index) REQUIRES(mu_);
  // The one chunk walk behind ReadAt and ReadAll: hands `sink` every piece
  // of [offset, offset + length) in file order, straight from the cache
  // (stopping early only at a hole or at the end of the chunk map).
  Status Walk(std::uint64_t offset, std::uint64_t length,
              const std::function<void(ByteSpan)>& sink) REQUIRES(mu_);
  // Fills the in-flight window for demand position `demand`, coalescing
  // same-replica chunks into one GET per node, with at most one window's
  // chunk count in flight. While the demand chunk is in flight and the
  // window has not reached the file's last chunk, submits nothing until
  // the window's unrequested chunks hold at least chunk_size bytes. Errors
  // only if the demand chunk itself has no fetchable replica; read-ahead
  // failures stay soft.
  Status PumpWindow(std::size_t demand) REQUIRES(mu_);
  // Delivers one completion: caches payloads, or records the failure and
  // releases its chunks for failover resubmission. Blocks in the transport
  // while holding mu_ — legal because kClientReadSession ranks below
  // kTransport, and intended: the window state must not shift under the
  // wait.
  Status HarvestOne(std::size_t demand) REQUIRES(mu_);
  // Blocks until chunk `index` is cached (pumping + harvesting the window).
  // The returned pointer aliases the cache; it stays valid only while mu_
  // is held (Walk hands each piece to its sink before the lock drops).
  Result<const BufferSlice*> ChunkData(std::size_t index) REQUIRES(mu_);
  // Fetches and reassembles an erasure-coded chunk: concurrent GETs for its
  // k data shards (each on its own benefactor — the striped-read
  // parallelism comes free), pulling parity shards only when a data shard's
  // holder fails, and reconstructing from any k survivors. The reassembled
  // chunk must verify against the whole-chunk content address. Bypasses the
  // replica window machinery; EC chunks are not read ahead.
  Result<BufferSlice> FetchErasure(std::size_t index) REQUIRES(mu_);

  void Insert(std::size_t index, BufferSlice data) REQUIRES(mu_);
  void EvictToBudget(std::size_t demand) REQUIRES(mu_);

  Transport* transport_;
  VersionRecord record_;
  ClientOptions options_;

  // Session lock: one ReadAt or ReadAll (window pump + harvest + cache)
  // runs at a time, and the stats accessors snapshot under it. Ranks below
  // the transport because HarvestOne waits on completions while holding it.
  mutable Mutex mu_{LockRank::kClientReadSession, 0, "read_session"};

  ReadStats stats_ GUARDED_BY(mu_);

  std::list<Cached> cache_ GUARDED_BY(mu_);  // insertion order = eviction order
  std::map<std::size_t, std::list<Cached>::iterator> cache_index_
      GUARDED_BY(mu_);
  std::uint64_t cache_bytes_ GUARDED_BY(mu_) = 0;

  std::map<OpHandle, Fetch> inflight_ GUARDED_BY(mu_);
  std::set<std::size_t> inflight_chunks_ GUARDED_BY(mu_);

  // Nodes observed unreachable this session.
  std::set<NodeId> dead_nodes_ GUARDED_BY(mu_);
  std::map<std::size_t, std::set<NodeId>> failed_replicas_
      GUARDED_BY(mu_);  // per chunk
  std::map<std::size_t, std::size_t> fetch_attempts_
      GUARDED_BY(mu_);  // failed, per Walk
  // Retry alone after a batch rejection.
  std::set<std::size_t> singles_only_ GUARDED_BY(mu_);
  std::size_t rr_replica_ GUARDED_BY(mu_) = 0;
  // EC chunks demoted to the whole-replica path after shard recovery
  // failed (possible only for mixed-mode chunks that also carry replicas).
  std::set<std::size_t> replica_fallback_ GUARDED_BY(mu_);
};

}  // namespace stdchk
