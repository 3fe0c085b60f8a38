#include "manager/file_catalog.h"

#include <algorithm>

#include "common/rolling_hash.h"  // Mix64

namespace stdchk {

namespace {

// FNV-1a over the application name, finalized with Mix64 so short names
// still spread across shards.
std::uint64_t AppHash(const std::string& app) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : app) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return Mix64(h);
}

}  // namespace

FileCatalog::FileCatalog(const VirtualClock* clock, int shards)
    : clock_(clock) {
  int n = std::max(1, shards);
  folder_shards_.reserve(static_cast<std::size_t>(n));
  chunk_shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Shard index doubles as the intra-rank lock sequence: all-shard sweeps
    // (Export/Import) must acquire in ascending index order.
    auto seq = static_cast<std::uint32_t>(i);
    folder_shards_.push_back(std::make_unique<FolderShard>(seq));
    chunk_shards_.push_back(std::make_unique<ChunkShard>(seq));
  }
}

std::size_t FileCatalog::FolderShardIndex(const std::string& app) const {
  return static_cast<std::size_t>(AppHash(app)) % folder_shards_.size();
}

// ---- Folder policies -------------------------------------------------------

void FileCatalog::SetFolderPolicy(const std::string& app,
                                  const FolderPolicy& policy) {
  FolderShard& shard = FolderShardFor(app);
  shard.ops.fetch_add(1, std::memory_order_relaxed);
  ShardMutexLock lock(shard.mu);
  shard.folders[app].policy = policy;
}

FolderPolicy FileCatalog::GetFolderPolicy(const std::string& app) const {
  FolderShard& shard = FolderShardFor(app);
  shard.ops.fetch_add(1, std::memory_order_relaxed);
  ShardMutexLock lock(shard.mu);
  auto it = shard.folders.find(app);
  return it == shard.folders.end() ? FolderPolicy{} : it->second.policy;
}

// ---- Chunk-record helpers --------------------------------------------------

void FileCatalog::RefIn(ChunkShard& shard, const ChunkLocation& loc) {
  ChunkRecord& rec = shard.chunks[loc.id];
  rec.size = loc.size;
  ++rec.refcount;
  for (NodeId node : loc.replicas) rec.replicas.insert(node);
  if (loc.erasure_coded()) {
    rec.ec_k = loc.ec_k;
    rec.ec_m = loc.ec_m;
    rec.shard_ids.clear();
    rec.shard_ids.reserve(loc.shards.size());
    for (const ShardLocation& sl : loc.shards) rec.shard_ids.push_back(sl.id);
  }
}

void FileCatalog::RefShardIn(ChunkShard& shard, const ChunkLocation& loc,
                             std::size_t index) {
  const ShardLocation& sl = loc.shards[index];
  ChunkRecord& rec = shard.chunks[sl.id];
  rec.size = static_cast<std::uint32_t>(
      ErasureShardLength(loc.size, loc.ec_k, static_cast<int>(index)));
  ++rec.refcount;
  rec.is_shard = true;
  rec.group_of = loc.id;
  if (sl.node != kInvalidNode) rec.replicas.insert(sl.node);
}

void FileCatalog::UnrefIn(ChunkShard& shard, const ChunkId& id) {
  auto it = shard.chunks.find(id);
  if (it == shard.chunks.end()) return;
  if (--it->second.refcount <= 0) {
    if (it->second.is_shard) {
      shard_unrefs_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.chunks.erase(it);
  }
}

void FileCatalog::RefChunks(const VersionRecord& record) {
  for (const ChunkLocation& loc : record.chunk_map.chunks) {
    {
      ChunkShard& shard = ChunkShardFor(loc.id);
      ShardMutexLock lock(shard.mu);
      RefIn(shard, loc);
    }
    if (!loc.erasure_coded()) continue;
    for (std::size_t s = 0; s < loc.shards.size(); ++s) {
      ChunkShard& shard = ChunkShardFor(loc.shards[s].id);
      ShardMutexLock lock(shard.mu);
      RefShardIn(shard, loc, s);
    }
  }
}

void FileCatalog::UnrefChunks(const VersionRecord& record) {
  for (const ChunkLocation& loc : record.chunk_map.chunks) {
    {
      ChunkShard& shard = ChunkShardFor(loc.id);
      ShardMutexLock lock(shard.mu);
      UnrefIn(shard, loc.id);
    }
    for (const ShardLocation& sl : loc.shards) {
      ChunkShard& shard = ChunkShardFor(sl.id);
      ShardMutexLock lock(shard.mu);
      UnrefIn(shard, sl.id);
    }
  }
}

// ---- Version lifecycle -----------------------------------------------------

Status FileCatalog::CommitVersion(const VersionRecord& record) {
  FolderShard& shard = FolderShardFor(record.name.app);
  shard.ops.fetch_add(1, std::memory_order_relaxed);
  ShardMutexLock lock(shard.mu);
  Folder& folder = shard.folders[record.name.app];
  auto key = std::make_pair(record.name.node, record.name.timestep);
  if (folder.versions.contains(key)) {
    return AlreadyExistsError("version " + record.name.ToString() +
                              " already committed (images are immutable)");
  }
  for (const ChunkLocation& loc : record.chunk_map.chunks) {
    if (loc.erasure_coded()) {
      // EC entries commit with zero whole replicas; their availability
      // invariant is "k live shards", not a replica count.
      if (loc.shards.size() !=
          static_cast<std::size_t>(loc.ec_k) + loc.ec_m) {
        return InvalidArgumentError(
            "erasure-coded chunk map entry must carry exactly k+m shards");
      }
      int live = 0;
      for (const ShardLocation& sl : loc.shards) {
        if (sl.node != kInvalidNode) ++live;
      }
      if (live < static_cast<int>(loc.ec_k)) {
        return InvalidArgumentError(
            "erasure-coded chunk map entry with fewer than k live shards");
      }
    } else if (loc.replicas.empty()) {
      return InvalidArgumentError("chunk map entry with no replicas");
    }
  }
  VersionRecord stored = record;
  stored.commit_time = clock_->NowUs();
  // Chunk refs under the folder lock: a concurrent delete of this folder
  // serializes behind us, so refcounts and the version list stay in step.
  RefChunks(stored);
  folder.versions.emplace(key, std::move(stored));
  return OkStatus();
}

VersionRecord FileCatalog::RefreshedCopy(const VersionRecord& record) const {
  // Refresh replica lists from the chunk records (replication may have
  // added copies since commit).
  VersionRecord out = record;
  for (ChunkLocation& loc : out.chunk_map.chunks) {
    {
      ChunkShard& shard = ChunkShardFor(loc.id);
      ShardMutexLock lock(shard.mu);
      auto chunk = shard.chunks.find(loc.id);
      if (chunk != shard.chunks.end()) {
        loc.replicas.assign(chunk->second.replicas.begin(),
                            chunk->second.replicas.end());
      }
    }
    // Shard holders move too (repair rebuilds a lost shard elsewhere; a
    // departed holder's replica entry is dropped): keep the commit-time
    // holder when it still stands, otherwise follow the record.
    for (ShardLocation& sl : loc.shards) {
      ChunkShard& shard = ChunkShardFor(sl.id);
      ShardMutexLock lock(shard.mu);
      auto it = shard.chunks.find(sl.id);
      if (it == shard.chunks.end()) {
        sl.node = kInvalidNode;
        continue;
      }
      const std::set<NodeId>& holders = it->second.replicas;
      if (!holders.contains(sl.node)) {
        sl.node = holders.empty() ? kInvalidNode : *holders.begin();
      }
    }
  }
  return out;
}

Result<VersionRecord> FileCatalog::GetVersion(
    const CheckpointName& name) const {
  FolderShard& shard = FolderShardFor(name.app);
  shard.ops.fetch_add(1, std::memory_order_relaxed);
  ShardMutexLock lock(shard.mu);
  auto folder = shard.folders.find(name.app);
  if (folder == shard.folders.end()) {
    return NotFoundError("no such application: " + name.app);
  }
  auto it = folder->second.versions.find({name.node, name.timestep});
  if (it == folder->second.versions.end()) {
    return NotFoundError("no such version: " + name.ToString());
  }
  return RefreshedCopy(it->second);
}

Result<VersionRecord> FileCatalog::GetLatest(const std::string& app,
                                             const std::string& node) const {
  FolderShard& shard = FolderShardFor(app);
  shard.ops.fetch_add(1, std::memory_order_relaxed);
  ShardMutexLock lock(shard.mu);
  auto folder = shard.folders.find(app);
  if (folder == shard.folders.end()) {
    return NotFoundError("no such application: " + app);
  }
  const VersionRecord* best = nullptr;
  for (const auto& [key, record] : folder->second.versions) {
    if (key.first != node) continue;
    if (best == nullptr || record.name.timestep > best->name.timestep) {
      best = &record;
    }
  }
  if (best == nullptr) {
    return NotFoundError("no versions for " + app + "." + node);
  }
  return RefreshedCopy(*best);
}

std::vector<CheckpointName> FileCatalog::ListVersions(
    const std::string& app) const {
  FolderShard& shard = FolderShardFor(app);
  shard.ops.fetch_add(1, std::memory_order_relaxed);
  ShardMutexLock lock(shard.mu);
  std::vector<CheckpointName> out;
  auto folder = shard.folders.find(app);
  if (folder == shard.folders.end()) return out;
  for (const auto& [key, record] : folder->second.versions) {
    out.push_back(record.name);
  }
  return out;
}

std::vector<std::string> FileCatalog::ListApps() const {
  std::vector<std::string> out;
  for (const auto& shard : folder_shards_) {
    shard->ops.fetch_add(1, std::memory_order_relaxed);
    ShardMutexLock lock(shard->mu);
    for (const auto& [app, folder] : shard->folders) {
      if (!folder.versions.empty()) out.push_back(app);
    }
  }
  // Sorted output == single-map order at shards == 1 (no-op there).
  std::sort(out.begin(), out.end());
  return out;
}

bool FileCatalog::Exists(const CheckpointName& name) const {
  FolderShard& shard = FolderShardFor(name.app);
  shard.ops.fetch_add(1, std::memory_order_relaxed);
  ShardMutexLock lock(shard.mu);
  auto folder = shard.folders.find(name.app);
  return folder != shard.folders.end() &&
         folder->second.versions.contains({name.node, name.timestep});
}

Status FileCatalog::DeleteVersion(const CheckpointName& name) {
  FolderShard& shard = FolderShardFor(name.app);
  shard.ops.fetch_add(1, std::memory_order_relaxed);
  ShardMutexLock lock(shard.mu);
  auto folder = shard.folders.find(name.app);
  if (folder == shard.folders.end()) {
    return NotFoundError("no such application: " + name.app);
  }
  auto it = folder->second.versions.find({name.node, name.timestep});
  if (it == folder->second.versions.end()) {
    return NotFoundError("no such version: " + name.ToString());
  }
  UnrefChunks(it->second);
  folder->second.versions.erase(it);
  return OkStatus();
}

Result<std::size_t> FileCatalog::DeleteApp(const std::string& app) {
  FolderShard& shard = FolderShardFor(app);
  shard.ops.fetch_add(1, std::memory_order_relaxed);
  ShardMutexLock lock(shard.mu);
  auto folder = shard.folders.find(app);
  if (folder == shard.folders.end()) {
    return NotFoundError("no such application: " + app);
  }
  std::size_t n = folder->second.versions.size();
  for (const auto& [key, record] : folder->second.versions) {
    UnrefChunks(record);
  }
  shard.folders.erase(folder);
  return n;
}

std::vector<CheckpointName> FileCatalog::ApplyRetention() {
  std::vector<CheckpointName> removed;
  ClockTime now = clock_->NowUs();

  // Each folder shard is swept under its own lock: retention on one shard
  // never blocks commits or reads on another.
  for (const auto& shard_ptr : folder_shards_) {
    FolderShard& shard = *shard_ptr;
    shard.ops.fetch_add(1, std::memory_order_relaxed);
    ShardMutexLock lock(shard.mu);
    for (auto& [app, folder] : shard.folders) {
      switch (folder.policy.retention) {
        case RetentionPolicy::kNoIntervention:
          break;

        case RetentionPolicy::kAutomatedReplace: {
          // Per (node) lineage keep only the newest `keep_last` timesteps.
          std::map<std::string, std::vector<std::uint64_t>> by_node;
          for (const auto& [key, record] : folder.versions) {
            by_node[key.first].push_back(key.second);
          }
          for (auto& [node, steps] : by_node) {
            std::sort(steps.begin(), steps.end());
            int keep = std::max(1, folder.policy.keep_last);
            if (static_cast<int>(steps.size()) <= keep) continue;
            steps.resize(steps.size() - static_cast<std::size_t>(keep));
            for (std::uint64_t step : steps) {
              auto it = folder.versions.find({node, step});
              removed.push_back(it->second.name);
              UnrefChunks(it->second);
              folder.versions.erase(it);
            }
          }
          break;
        }

        case RetentionPolicy::kAutomatedPurge: {
          for (auto it = folder.versions.begin();
               it != folder.versions.end();) {
            if (now - it->second.commit_time >= folder.policy.purge_age_us) {
              removed.push_back(it->second.name);
              UnrefChunks(it->second);
              it = folder.versions.erase(it);
            } else {
              ++it;
            }
          }
          break;
        }
      }
    }
  }
  return removed;
}

// ---- Chunk-level views -----------------------------------------------------

bool FileCatalog::IsChunkLive(const ChunkId& id) const {
  ChunkShard& shard = ChunkShardFor(id);
  shard.ops.fetch_add(1, std::memory_order_relaxed);
  ShardMutexLock lock(shard.mu);
  return shard.chunks.contains(id);
}

std::vector<NodeId> FileCatalog::ChunkReplicas(const ChunkId& id) const {
  ChunkShard& shard = ChunkShardFor(id);
  shard.ops.fetch_add(1, std::memory_order_relaxed);
  ShardMutexLock lock(shard.mu);
  auto it = shard.chunks.find(id);
  if (it == shard.chunks.end()) return {};
  return std::vector<NodeId>(it->second.replicas.begin(),
                             it->second.replicas.end());
}

std::set<ChunkId> FileCatalog::LiveChunksOn(NodeId node) const {
  std::set<ChunkId> out;
  for (const auto& shard_ptr : chunk_shards_) {
    ChunkShard& shard = *shard_ptr;
    shard.ops.fetch_add(1, std::memory_order_relaxed);
    ShardMutexLock lock(shard.mu);
    for (const auto& [id, rec] : shard.chunks) {
      if (rec.replicas.contains(node)) out.insert(id);
    }
  }
  return out;
}

void FileCatalog::AddReplica(const ChunkId& id, NodeId node) {
  ChunkShard& shard = ChunkShardFor(id);
  shard.ops.fetch_add(1, std::memory_order_relaxed);
  ShardMutexLock lock(shard.mu);
  auto it = shard.chunks.find(id);
  if (it != shard.chunks.end()) it->second.replicas.insert(node);
}

bool FileCatalog::AddReplicaIfLive(const ChunkId& id, NodeId node) {
  ChunkShard& shard = ChunkShardFor(id);
  shard.ops.fetch_add(1, std::memory_order_relaxed);
  ShardMutexLock lock(shard.mu);
  auto it = shard.chunks.find(id);
  if (it == shard.chunks.end()) return false;
  it->second.replicas.insert(node);
  return true;
}

std::vector<ChunkId> FileCatalog::RemoveNodeReplicas(NodeId node) {
  // Phase 1: drop the node everywhere, collecting records that lost their
  // last holder. Groups are judged afterwards — the k-survivor check needs
  // other shards' records, and chunk-shard locks are never nested.
  std::vector<ChunkId> lost;
  std::set<ChunkId> damaged_groups;
  for (const auto& shard_ptr : chunk_shards_) {
    ChunkShard& shard = *shard_ptr;
    shard.ops.fetch_add(1, std::memory_order_relaxed);
    ShardMutexLock lock(shard.mu);
    for (auto& [id, rec] : shard.chunks) {
      if (rec.replicas.erase(node) > 0 && rec.replicas.empty()) {
        if (rec.is_shard) {
          damaged_groups.insert(rec.group_of);
        } else {
          lost.push_back(id);
        }
      }
    }
  }

  // Phase 2: a group whose live shard count fell below k is unrecoverable
  // — report the whole-chunk id as lost, the same signal a replicated
  // chunk emits when its last copy goes.
  for (const ChunkId& group : damaged_groups) {
    std::vector<ChunkId> shard_ids;
    std::uint16_t k = 0;
    {
      ChunkShard& shard = ChunkShardFor(group);
      ShardMutexLock lock(shard.mu);
      auto it = shard.chunks.find(group);
      if (it == shard.chunks.end()) continue;  // group already unref'd
      k = it->second.ec_k;
      shard_ids = it->second.shard_ids;
    }
    int live = 0;
    for (const ChunkId& sid : shard_ids) {
      ChunkShard& shard = ChunkShardFor(sid);
      ShardMutexLock lock(shard.mu);
      auto it = shard.chunks.find(sid);
      if (it != shard.chunks.end() && !it->second.replicas.empty()) ++live;
    }
    if (live < static_cast<int>(k)) lost.push_back(group);
  }
  return lost;
}

std::vector<FileCatalog::Repairable> FileCatalog::FindRepairable(
    const std::set<NodeId>& online) const {
  // A chunk's target is the max across versions referencing it; since we do
  // not track back-references, recompute per version (catalog sizes in this
  // system are small relative to data). Erasure-coded groups are collected
  // once each. Folder shards are walked in index order so shards == 1
  // reproduces the historical single-map iteration.
  std::unordered_map<ChunkId, int, ChunkIdHash> targets;
  std::map<ChunkId, ChunkLocation> groups;
  for (const auto& shard_ptr : folder_shards_) {
    FolderShard& shard = *shard_ptr;
    shard.ops.fetch_add(1, std::memory_order_relaxed);
    ShardMutexLock lock(shard.mu);
    for (const auto& [app, folder] : shard.folders) {
      for (const auto& [key, record] : folder.versions) {
        for (const ChunkLocation& loc : record.chunk_map.chunks) {
          int& t = targets[loc.id];
          t = std::max(t, record.replication_target);
          if (!loc.erasure_coded() || groups.contains(loc.id)) continue;
          ChunkLocation group(loc.id, 0, loc.size, {});
          group.ec_k = loc.ec_k;
          group.ec_m = loc.ec_m;
          group.shards = loc.shards;
          groups.emplace(loc.id, std::move(group));
        }
      }
    }
  }

  // Each candidate is judged against the chunk records' current holders:
  // commit-time placement is stale the moment a holder departs or a
  // repair lands a copy elsewhere.
  std::vector<Repairable> out;
  for (const auto& [id, want] : targets) {
    ChunkShard& shard = ChunkShardFor(id);
    ShardMutexLock lock(shard.mu);
    auto it = shard.chunks.find(id);
    if (it == shard.chunks.end()) continue;
    ChunkLocation chunk(id, 0, it->second.size, {});
    for (NodeId node : it->second.replicas) {
      if (online.contains(node)) chunk.replicas.push_back(node);
    }
    int have = static_cast<int>(chunk.replicas.size());
    if (have < want && have > 0) {
      out.push_back(Repairable{std::move(chunk), want});
    }
  }
  for (auto& [id, group] : groups) {
    int live = 0;
    for (ShardLocation& sl : group.shards) {
      sl.node = kInvalidNode;
      ChunkShard& shard = ChunkShardFor(sl.id);
      ShardMutexLock lock(shard.mu);
      auto it = shard.chunks.find(sl.id);
      if (it != shard.chunks.end()) {
        for (NodeId node : it->second.replicas) {
          if (online.contains(node)) {
            sl.node = node;
            break;
          }
        }
      }
      if (sl.node != kInvalidNode) ++live;
    }
    bool missing = live < static_cast<int>(group.shards.size());
    if (missing && live >= static_cast<int>(group.ec_k)) {
      out.push_back(Repairable{std::move(group), 1});
    }
  }
  return out;
}

std::vector<FileCatalog::UnderReplicated> FileCatalog::FindUnderReplicated(
    const std::set<NodeId>& online) const {
  std::vector<UnderReplicated> out;
  for (const Repairable& r : FindRepairable(online)) {
    if (r.chunk.erasure_coded()) continue;
    out.push_back(UnderReplicated{
        r.chunk.id, static_cast<int>(r.chunk.replicas.size()), r.want});
  }
  return out;
}

std::size_t FileCatalog::TotalVersions() const {
  std::size_t n = 0;
  for (const auto& shard_ptr : folder_shards_) {
    ShardMutexLock lock(shard_ptr->mu);
    for (const auto& [app, folder] : shard_ptr->folders) {
      n += folder.versions.size();
    }
  }
  return n;
}

std::uint64_t FileCatalog::TotalLogicalBytes() const {
  std::uint64_t n = 0;
  for (const auto& shard_ptr : folder_shards_) {
    ShardMutexLock lock(shard_ptr->mu);
    for (const auto& [app, folder] : shard_ptr->folders) {
      for (const auto& [key, record] : folder.versions) n += record.size;
    }
  }
  return n;
}

std::uint64_t FileCatalog::TotalUniqueBytes() const {
  std::uint64_t n = 0;
  for (const auto& shard_ptr : chunk_shards_) {
    ShardMutexLock lock(shard_ptr->mu);
    for (const auto& [id, rec] : shard_ptr->chunks) n += rec.size;
  }
  return n;
}

// ---- Snapshot support ------------------------------------------------------

// Lock-array pattern: a vector of unique_locks is opaque to Clang's
// analysis, so the whole-shard accesses below are checked by the runtime
// rank validator (ascending folder seq, then ascending chunk seq) instead.
FileCatalog::ExportedState FileCatalog::Export() const
    NO_THREAD_SAFETY_ANALYSIS {
  // Consistent cut: hold every shard lock at once, folders before chunks,
  // each group in ascending index order (the one sanctioned exception to
  // the one-folder-lock rule; see the lock hierarchy note in the header).
  std::vector<std::unique_lock<ShardMutex>> locks;
  locks.reserve(folder_shards_.size() + chunk_shards_.size());
  for (const auto& shard : folder_shards_) locks.emplace_back(shard->mu);
  for (const auto& shard : chunk_shards_) locks.emplace_back(shard->mu);

  ExportedState state;
  for (const auto& shard : folder_shards_) {
    for (const auto& [app, folder] : shard->folders) {
      state.policies.emplace_back(app, folder.policy);
      for (const auto& [key, record] : folder.versions) {
        state.versions.push_back(record);
      }
    }
  }
  for (const auto& shard : chunk_shards_) {
    for (const auto& [id, rec] : shard->chunks) {
      state.chunk_replicas.emplace_back(
          id, std::vector<NodeId>(rec.replicas.begin(), rec.replicas.end()));
    }
  }
  // Deterministic snapshot bytes regardless of shard count: sort the
  // cross-shard aggregates (no-ops for the folder walk at shards == 1).
  std::sort(state.policies.begin(), state.policies.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(state.versions.begin(), state.versions.end(),
            [](const VersionRecord& a, const VersionRecord& b) {
              return std::tie(a.name.app, a.name.node, a.name.timestep) <
                     std::tie(b.name.app, b.name.node, b.name.timestep);
            });
  std::sort(state.chunk_replicas.begin(), state.chunk_replicas.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return state;
}

// Same lock-array pattern as Export: runtime-rank-checked, not
// compile-checked.
Status FileCatalog::Import(const ExportedState& state)
    NO_THREAD_SAFETY_ANALYSIS {
  std::vector<std::unique_lock<ShardMutex>> locks;
  locks.reserve(folder_shards_.size() + chunk_shards_.size());
  for (const auto& shard : folder_shards_) locks.emplace_back(shard->mu);
  for (const auto& shard : chunk_shards_) locks.emplace_back(shard->mu);

  for (const auto& shard : folder_shards_) shard->folders.clear();
  for (const auto& shard : chunk_shards_) shard->chunks.clear();

  for (const auto& [app, policy] : state.policies) {
    folder_shards_[FolderShardIndex(app)]->folders[app].policy = policy;
  }
  for (const VersionRecord& record : state.versions) {
    Folder& folder =
        folder_shards_[FolderShardIndex(record.name.app)]
            ->folders[record.name.app];
    auto key = std::make_pair(record.name.node, record.name.timestep);
    if (folder.versions.contains(key)) {
      return InvalidArgumentError("duplicate version in snapshot: " +
                                  record.name.ToString());
    }
    // Unlike CommitVersion, preserve the snapshot's commit_time. All chunk
    // locks are already held, so mutate the shard maps directly.
    for (const ChunkLocation& loc : record.chunk_map.chunks) {
      RefIn(*chunk_shards_[ChunkShardIndex(loc.id)], loc);
      for (std::size_t s = 0; s < loc.shards.size(); ++s) {
        RefShardIn(*chunk_shards_[ChunkShardIndex(loc.shards[s].id)], loc, s);
      }
    }
    folder.versions.emplace(key, record);
  }
  for (const auto& [id, replicas] : state.chunk_replicas) {
    ChunkShard& shard = *chunk_shards_[ChunkShardIndex(id)];
    auto it = shard.chunks.find(id);
    if (it == shard.chunks.end()) {
      return InvalidArgumentError(
          "snapshot lists replicas for unreferenced chunk " + id.ToHex());
    }
    it->second.replicas.clear();
    it->second.replicas.insert(replicas.begin(), replicas.end());
  }
  return OkStatus();
}

std::vector<CatalogShardStats> FileCatalog::ShardStatsSnapshot() const {
  std::vector<CatalogShardStats> out(folder_shards_.size());
  for (std::size_t i = 0; i < folder_shards_.size(); ++i) {
    out[i].ops = folder_shards_[i]->ops.load(std::memory_order_relaxed) +
                 chunk_shards_[i]->ops.load(std::memory_order_relaxed);
    out[i].lock_acquisitions = folder_shards_[i]->mu.acquisitions() +
                               chunk_shards_[i]->mu.acquisitions();
    out[i].lock_contended =
        folder_shards_[i]->mu.contended() + chunk_shards_[i]->mu.contended();
  }
  return out;
}

}  // namespace stdchk
