// A benefactor (storage donor) node — paper §IV.A.
//
// Deliberately minimal, as the paper prescribes: benefactors (1) publish
// status/free space to the manager via soft-state registration, (2) serve
// put/get chunk requests, and (3) run garbage collection against the
// manager's live set. They additionally stash uncommitted chunk maps to
// support the manager-recovery protocol.
//
// Every chunk reaches a benefactor through PutChunkBatch, called by the
// transport for client puts and repaired copies alike.
//
// Threading: the data path (PutChunkBatch/ReadChunk/HasChunk) and
// the stash are safe for concurrent use. Transports call them from many
// client threads at once, while a single background pump
// (core/StdchkCluster::Tick or core/BackgroundDriver) runs JoinPool, the GC
// exchange and stash offers. The chunk store locks internally and the
// online flag is atomic; mu_ makes each admission's capacity check and
// store put one step, and guards the stash. Content-address verification
// runs outside mu_; on the read side it is the static VerifyChunk, which a
// transport may run on another thread after ReadChunk returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/annotated_mutex.h"
#include "common/status.h"
#include "manager/metadata_manager.h"
#include "manager/types.h"

namespace stdchk {

class Benefactor {
 public:
  // `capacity_bytes` is the donated space ceiling this desktop contributes.
  Benefactor(std::string host, std::unique_ptr<ChunkStore> store,
             std::uint64_t capacity_bytes);

  // Registers with the manager and obtains a node id.
  Status JoinPool(MetadataManager& manager);

  NodeId id() const { return id_; }
  const std::string& host() const { return host_; }
  bool online() const { return online_; }

  // Owner reclaimed the machine / process died: the node stops serving but
  // its disk contents survive a Restart().
  void Crash() { online_ = false; }
  void Restart() { online_ = true; }
  // Disk scavenged space was wiped (or the disk failed): contents are gone.
  void Wipe() EXCLUDES(mu_);

  // ---- Data path (invoked by clients and repair) ----------------------------
  // The one put admission: one RPC admits one or more chunks (a single
  // chunk is a batch of one). Each chunk must hash to its id before
  // anything is stored — content addressability doubles as an integrity
  // check (§IV.C). Integrity and capacity are verified for the whole batch
  // before any chunk lands, so a batch rejected at admission stores nothing
  // and the client's failover can re-route it wholesale. The slices are
  // handed to the store as-is: a memory-backed donor aliases the sender's
  // buffers, never copies them. (A store-level I/O failure mid-batch may
  // leave earlier chunks behind — they are content addressed, so they
  // either become usable replicas or GC-reclaimable orphans.) Unstamped
  // chunks re-hash in parallel on the shared HashPool, as wide as the
  // process may run (HashPool::ResolveThreads); admission results are the
  // same for any width. The store receives the batch as one PutBatch call.
  Status PutChunkBatch(std::span<const ChunkPut> puts) EXCLUDES(mu_);

  // The in-order half of a read: the online check and the store lookup,
  // without the content check. The returned slice shares the store's
  // buffer and outlives Delete/GC of the chunk.
  Result<BufferSlice> ReadChunk(const ChunkId& id) const;

  // The content-address check (§IV.C): kDataLoss unless `data` hashes to
  // `id`, so a tampering or bit-flipping donor is detected. Slices that
  // still carry the writer's stamp (memory donors) compare it in O(1);
  // unstamped ones (disk reads) pay the full re-hash. A pure function of
  // immutable bytes: safe on any thread, takes no lock.
  static Status VerifyChunk(const ChunkId& id, const BufferSlice& data);

  bool HasChunk(const ChunkId& id) const;
  // I/O-shape counters from the backing store (segment-log syscalls, mmap
  // reads, recovery results); the zero snapshot for stores that don't
  // report. Bench/test introspection, not a protocol surface.
  ChunkStoreStats StoreStats() const { return store_->Stats(); }
  std::uint64_t BytesUsed() const { return store_->BytesUsed(); }
  // Memory actually pinned by the store's payloads (distinct generation
  // backings, counted once) — can far exceed BytesUsed() under high dedup.
  std::uint64_t ResidentBytes() const { return store_->ResidentBytes(); }
  std::uint64_t capacity() const { return capacity_bytes_; }
  std::uint64_t FreeBytes() const;
  std::size_t ChunkCount() const { return store_->ChunkCount(); }

  // ---- Manager-recovery support -------------------------------------------
  // A client that could not commit (manager down) stashes the final chunk
  // map here; OfferStashedVersions() pushes it once the manager returns.
  Status StashChunkMap(const VersionRecord& record, int stripe_width)
      EXCLUDES(mu_);
  std::size_t stashed_count() const EXCLUDES(mu_);

  // ---- Background pumps ------------------------------------------------------
  Status SendHeartbeat(MetadataManager& manager);

  // One GC exchange: report held chunks, delete what the manager returns.
  // Returns the number of chunks reclaimed.
  Result<std::size_t> RunGc(MetadataManager& manager);

  // Pushes stashed chunk maps to a recovered manager; drops entries that
  // have since been committed. The manager RPCs run with mu_ released (the
  // manager's locks rank below it).
  Status OfferStashedVersions(MetadataManager& manager) EXCLUDES(mu_);

  // One throttled live-compaction pass over the backing store: rewrites
  // under-utilized disk segments / memory generation backings and hands
  // dead bytes back (donated space, so dead bytes are not free — §IV.A).
  // Pacing is the caller's job: the background pump calls this once per
  // tick with its policy, whose max_bytes_per_step bounds each pass.
  Result<CompactionStepReport> CompactStep(const CompactionPolicy& policy) {
    STDCHK_RETURN_IF_ERROR(CheckOnline());
    return store_->CompactStep(policy);
  }

 private:
  Status CheckOnline() const {
    return online_ ? OkStatus()
                   : UnavailableError("benefactor " + host_ + " is offline");
  }

  std::string host_;
  std::unique_ptr<ChunkStore> store_;
  std::uint64_t capacity_bytes_;
  NodeId id_ = kInvalidNode;
  std::atomic<bool> online_{true};

  struct Stashed {
    VersionRecord record;
    int stripe_width = 0;
  };
  // Admission (capacity check + store put) and the stash. Never held into
  // a manager RPC or another benefactor's call.
  mutable Mutex mu_{LockRank::kBenefactor, 0, "benefactor"};
  std::map<std::string, Stashed> stashed_ GUARDED_BY(mu_);  // by version name
};

}  // namespace stdchk
