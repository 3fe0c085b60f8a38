// The manager's file catalog: application folders, versioned checkpoint
// images, chunk maps, chunk reference counts and replica locations.
//
// Responsibilities mapped to the paper:
//  * versioning + copy-on-write chunk sharing between successive images
//    (§IV.C): chunks are refcounted across versions, so committing a new
//    version that reuses prior chunks stores no duplicate data;
//  * lifetime management (§IV.D): per-folder retention policies
//    (no-intervention / automated-replace / automated-purge);
//  * replica and shard bookkeeping feeding the repair scheduler and the GC
//    protocol (§IV.A).
//
// Concurrency: the catalog is internally sharded and thread-safe. State is
// partitioned twice, each partition under its own lock:
//  * folder shards, routed by hash(app) — a folder's versions, policies,
//    retention and lineage walks are shard-local;
//  * chunk shards, routed by hash(chunk id) — refcounts and replica sets
//    stay global (a chunk deduplicated across folders has exactly one
//    record), so dedup never diverges between folder shards.
// Lock hierarchy: a folder-shard lock may be held while taking chunk-shard
// locks (one at a time), never the reverse, and never two folder locks —
// except the snapshot paths (Export/Import), which take every lock in
// ascending index order (all folders, then all chunks) for a consistent
// cut. The hierarchy is enforced, not just documented: shard mutexes carry
// LockRank::kCatalogFolder / kCatalogChunk with the shard index as the
// intra-rank sequence (common/annotated_mutex.h), so a debug build aborts
// on any out-of-order acquisition and Clang's -Wthread-safety checks the
// GUARDED_BY/REQUIRES contracts. `shards == 1` degenerates to the
// historical single-map catalog: one
// folder map, one chunk map, identical iteration orders, bit for bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/status.h"
#include "manager/types.h"
#include "manager/virtual_clock.h"

namespace stdchk {

// Per-shard observability counters (surfaced through ClusterStats).
struct CatalogShardStats {
  std::uint64_t ops = 0;                // catalog operations routed here
  std::uint64_t lock_acquisitions = 0;  // shard mutex acquisitions
  std::uint64_t lock_contended = 0;     // acquisitions that had to wait
};

// A mutex that counts acquisitions and contention (a failed try_lock before
// the blocking lock). Satisfies BasicLockable for std::unique_lock, carries
// a thread-safety capability for Clang analysis, and participates in the
// lock-rank validator: each shard mutex is constructed with its layer's rank
// and its shard index as the intra-rank sequence, so Export/Import's
// all-shards sweep is legal only in ascending index order.
class CAPABILITY("mutex") ShardMutex {
 public:
  ShardMutex(LockRank rank, std::uint32_t seq, const char* name)
      : rank_(static_cast<std::uint32_t>(rank)), seq_(seq), name_(name) {}

  ShardMutex(const ShardMutex&) = delete;
  ShardMutex& operator=(const ShardMutex&) = delete;

  void lock() ACQUIRE() {
    lockrank::OnAcquire(this, rank_, seq_, name_);
    if (!mu_.try_lock()) {
      contended_.fetch_add(1, std::memory_order_relaxed);
      mu_.lock();
    }
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
  }
  void unlock() RELEASE() {
    mu_.unlock();
    lockrank::OnRelease(this);
  }

  std::uint64_t acquisitions() const {
    return acquisitions_.load(std::memory_order_relaxed);
  }
  std::uint64_t contended() const {
    return contended_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::uint32_t rank_;
  std::uint32_t seq_;
  const char* name_;
  std::atomic<std::uint64_t> acquisitions_{0};
  std::atomic<std::uint64_t> contended_{0};
};

// RAII guard Clang's analysis tracks (std::lock_guard is opaque to it).
class SCOPED_CAPABILITY ShardMutexLock {
 public:
  explicit ShardMutexLock(ShardMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~ShardMutexLock() RELEASE() { mu_.unlock(); }

  ShardMutexLock(const ShardMutexLock&) = delete;
  ShardMutexLock& operator=(const ShardMutexLock&) = delete;

 private:
  ShardMutex& mu_;
};

class FileCatalog {
 public:
  explicit FileCatalog(const VirtualClock* clock, int shards = 1);

  // ---- Folder policies -------------------------------------------------
  void SetFolderPolicy(const std::string& app, const FolderPolicy& policy);
  FolderPolicy GetFolderPolicy(const std::string& app) const;

  // ---- Version lifecycle ------------------------------------------------
  // Atomically commits a version (the session-semantics commit point). The
  // chunk map's replica lists are folded into the catalog's chunk records.
  // Re-committing an existing name fails (checkpoint images are immutable).
  Status CommitVersion(const VersionRecord& record);

  Result<VersionRecord> GetVersion(const CheckpointName& name) const;

  // Latest committed timestep for (app, node).
  Result<VersionRecord> GetLatest(const std::string& app,
                                  const std::string& node) const;

  std::vector<CheckpointName> ListVersions(const std::string& app) const;
  std::vector<std::string> ListApps() const;
  bool Exists(const CheckpointName& name) const;

  Status DeleteVersion(const CheckpointName& name);
  // Deletes every version of an application (e.g. at successful job
  // completion). Returns the number of versions removed.
  Result<std::size_t> DeleteApp(const std::string& app);

  // Applies retention policies (replace/purge). Returns the names removed.
  // Walks folder shards independently — retention on one shard never
  // blocks commits on another.
  std::vector<CheckpointName> ApplyRetention();

  // ---- Chunk-level views --------------------------------------------------
  bool IsChunkLive(const ChunkId& id) const;
  // Replica locations of a live chunk (empty if unknown).
  std::vector<NodeId> ChunkReplicas(const ChunkId& id) const;

  // Set of live chunks the manager believes `node` holds (GC exchange).
  std::set<ChunkId> LiveChunksOn(NodeId node) const;

  // Records that `node` now holds a replica of `id` (repair ack).
  void AddReplica(const ChunkId& id, NodeId node);
  // GC-exchange reintegration: adds the replica iff the chunk is live,
  // reporting liveness, in one shard-lock acquisition.
  bool AddReplicaIfLive(const ChunkId& id, NodeId node);

  // Drops `node` from every chunk's replica list (node declared dead).
  // Returns chunks that lost their last replica (actual data loss).
  // Erasure-coded state is judged by the k-survivor rule instead: a shard
  // losing its only holder is not data loss by itself — the group id is
  // reported lost only when its live shard count drops below k (the paper's
  // replica-count availability generalized to "any k of k+m").
  std::vector<ChunkId> RemoveNodeReplicas(NodeId node);

  // A chunk of committed versions that is short of copies but can still be
  // rebuilt, counting only `online` holders, as a reader can fetch it:
  //  * whole copies: at least 1 and fewer than `want` online holders,
  //    where `want` is the highest replication target of the versions
  //    naming the chunk; `chunk.replicas` lists the online holders in
  //    ascending id order;
  //  * an erasure-coded group: a position with no online holder while at
  //    least k positions still have one; `chunk.shards` name one online
  //    holder per position (kInvalidNode for the missing ones), and each
  //    position wants 1 copy. Groups below k survivors are not returned —
  //    they are unrepairable (surfaced through RemoveNodeReplicas as lost).
  // A mixed-mode chunk (whole copies and shards) can be short of both.
  struct Repairable {
    ChunkLocation chunk;
    int want = 1;
  };
  // One walk that visits each retained version once. Whole chunks come
  // first, in the walk's hash order; groups follow in id order, each once
  // however many versions share it.
  std::vector<Repairable> FindRepairable(const std::set<NodeId>& online) const;

  // FindRepairable's whole-copy entries, with their online holder count.
  struct UnderReplicated {
    ChunkId chunk;
    int have = 0;
    int want = 0;
  };
  std::vector<UnderReplicated> FindUnderReplicated(
      const std::set<NodeId>& online) const;

  // Shard records released because their last referencing version was
  // deleted/purged (the metadata half of shard-group GC; the physical
  // bytes follow through the normal GC exchange). Cumulative.
  std::uint64_t ShardRecordsReleased() const {
    return shard_unrefs_.load(std::memory_order_relaxed);
  }

  std::size_t TotalVersions() const;
  std::uint64_t TotalLogicalBytes() const;   // sum of file sizes
  std::uint64_t TotalUniqueBytes() const;    // sum of live chunk sizes

  // ---- Snapshot support (hot-standby manager, §IV.A) -----------------------
  struct ExportedState {
    std::vector<std::pair<std::string, FolderPolicy>> policies;
    std::vector<VersionRecord> versions;
    // Current replica locations (may exceed commit-time replicas after
    // background replication).
    std::vector<std::pair<ChunkId, std::vector<NodeId>>> chunk_replicas;
  };
  // Consistent cut across all shards: policies/versions sorted by app then
  // (node, timestep); chunk replicas sorted by id for a stable snapshot.
  ExportedState Export() const;
  // Replaces the entire catalog; chunk refcounts are rebuilt from the
  // versions, then replica sets are overwritten from the snapshot.
  Status Import(const ExportedState& state);

  // ---- Shard observability -------------------------------------------------
  // Entry i merges folder shard i and chunk shard i.
  std::vector<CatalogShardStats> ShardStatsSnapshot() const;

 private:
  struct ChunkRecord {
    std::uint32_t size = 0;
    int refcount = 0;
    std::set<NodeId> replicas;
    // Erasure-coded group head (ChunkLocation::erasure_coded()): the shard
    // ids in shard order. The head's `replicas` lists whole-copy holders
    // only (normally none — parity, not copies, is the durability).
    std::uint16_t ec_k = 0;
    std::uint16_t ec_m = 0;
    std::vector<ChunkId> shard_ids;
    // Shard of an erasure-coded group: sized at its stored (unpadded)
    // length, holders in `replicas` like any chunk, so GC exchange,
    // LiveChunksOn and repair acks work on shards unchanged. `group_of`
    // points at the head for k-survivor loss accounting.
    bool is_shard = false;
    ChunkId group_of;
  };

  struct Folder {
    FolderPolicy policy;
    // Ordered by (node, timestep) for deterministic iteration.
    std::map<std::pair<std::string, std::uint64_t>, VersionRecord> versions;
  };

  struct FolderShard {
    explicit FolderShard(std::uint32_t seq)
        : mu(LockRank::kCatalogFolder, seq, "catalog_folder_shard") {}
    mutable ShardMutex mu;
    std::map<std::string, Folder> folders GUARDED_BY(mu);
    std::atomic<std::uint64_t> ops{0};
  };

  struct ChunkShard {
    explicit ChunkShard(std::uint32_t seq)
        : mu(LockRank::kCatalogChunk, seq, "catalog_chunk_shard") {}
    mutable ShardMutex mu;
    std::unordered_map<ChunkId, ChunkRecord, ChunkIdHash> chunks
        GUARDED_BY(mu);
    std::atomic<std::uint64_t> ops{0};
  };

  std::size_t FolderShardIndex(const std::string& app) const;
  std::size_t ChunkShardIndex(const ChunkId& id) const {
    return static_cast<std::size_t>(ChunkIdHash{}(id)) % chunk_shards_.size();
  }
  FolderShard& FolderShardFor(const std::string& app) const {
    return *folder_shards_[FolderShardIndex(app)];
  }
  ChunkShard& ChunkShardFor(const ChunkId& id) const {
    return *chunk_shards_[ChunkShardIndex(id)];
  }

  // Chunk-record mutation on a shard whose lock the caller already holds.
  static void RefIn(ChunkShard& shard, const ChunkLocation& loc)
      REQUIRES(shard.mu);
  static void RefShardIn(ChunkShard& shard, const ChunkLocation& loc,
                         std::size_t index) REQUIRES(shard.mu);
  void UnrefIn(ChunkShard& shard, const ChunkId& id) REQUIRES(shard.mu);
  // Locks each chunk's shard; caller may hold a folder-shard lock. For
  // erasure-coded locations the group head and every shard record are
  // (un)referenced, one chunk-shard lock at a time — never nested, so the
  // chunk-shard intra-rank order is irrelevant here.
  void RefChunks(const VersionRecord& record);
  void UnrefChunks(const VersionRecord& record);

  // Copies `record` with replica lists refreshed from the chunk records;
  // caller holds the owning folder-shard lock.
  VersionRecord RefreshedCopy(const VersionRecord& record) const;

  const VirtualClock* clock_;
  // unique_ptr: shards hold mutexes/atomics, which are not movable.
  std::vector<std::unique_ptr<FolderShard>> folder_shards_;
  std::vector<std::unique_ptr<ChunkShard>> chunk_shards_;
  std::atomic<std::uint64_t> shard_unrefs_{0};
};

}  // namespace stdchk
