#include "manager/metadata_manager.h"

#include <algorithm>

#include "common/hash.h"
#include "common/serialize.h"

namespace stdchk {
namespace {

// Fingerprint of a chunk map used to match recovery offers from different
// benefactors: offers endorse the same version only if the maps agree.
std::uint64_t ChunkMapFingerprint(const ChunkMap& map) {
  Sha1Hasher hasher;
  for (const ChunkLocation& loc : map.chunks) {
    hasher.Update(ByteSpan(loc.id.digest.bytes.data(),
                           loc.id.digest.bytes.size()));
    std::uint64_t meta[2] = {loc.file_offset, loc.size};
    hasher.Update(ByteSpan(reinterpret_cast<const std::uint8_t*>(meta),
                           sizeof(meta)));
    // Erasure-coded entries: shard identity is part of the map (offers
    // endorsing the same chunks but a different striping must not match).
    // Replicated entries hash byte-identically to the pre-EC format.
    if (loc.erasure_coded()) {
      std::uint64_t ec[2] = {loc.ec_k, loc.ec_m};
      hasher.Update(ByteSpan(reinterpret_cast<const std::uint8_t*>(ec),
                             sizeof(ec)));
      for (const ShardLocation& sl : loc.shards) {
        hasher.Update(ByteSpan(sl.id.digest.bytes.data(),
                               sl.id.digest.bytes.size()));
      }
    }
  }
  return hasher.Finish().Prefix64();
}

// Removes the donors in `departed` (sorted) from a chunk map about to be
// committed. Replicas on them are dropped; erasure shards on them are
// marked lost in place, since shard positions are shard indices and must
// not shift. Fails if a chunk is left with no live replica or fewer than k
// live shards: the version must never become visible with unreadable data.
Status DropDeparted(const std::vector<NodeId>& departed, ChunkMap* map) {
  auto gone = [&departed](NodeId node) {
    return std::binary_search(departed.begin(), departed.end(), node);
  };
  for (ChunkLocation& loc : map->chunks) {
    if (loc.erasure_coded()) {
      int live = 0;
      for (ShardLocation& sl : loc.shards) {
        if (sl.node != kInvalidNode && gone(sl.node)) sl.node = kInvalidNode;
        if (sl.node != kInvalidNode) ++live;
      }
      if (live < static_cast<int>(loc.ec_k)) {
        return FailedPreconditionError(
            "erasure-coded chunk " + loc.id.ToHex() +
            " has fewer than k shards on live benefactors");
      }
      continue;
    }
    std::erase_if(loc.replicas, gone);
    if (loc.replicas.empty()) {
      return FailedPreconditionError(
          "chunk " + loc.id.ToHex() +
          " has every replica on departed benefactors");
    }
  }
  return OkStatus();
}

// The copy a repair of `chunk` restores: the chunk itself for a replica
// (missing_index -1), else the shard at `missing_index`.
const ChunkId& CopyId(const ChunkLocation& chunk, int missing_index) {
  return missing_index < 0
             ? chunk.id
             : chunk.shards[static_cast<std::size_t>(missing_index)].id;
}

// Reserved bytes charged to each member of a `width`-wide stripe for a
// request of `bytes`: an even share, rounded up.
std::uint64_t ReservationShare(std::uint64_t bytes, std::size_t width) {
  return bytes / width + 1;
}

}  // namespace

MetadataManager::MetadataManager(const VirtualClock* clock,
                                 ManagerOptions options)
    : clock_(clock),
      options_(options),
      registry_(clock, options.heartbeat_expiry_us),
      catalog_(clock, options.catalog_shards) {}

Result<NodeId> MetadataManager::RegisterBenefactor(const BenefactorInfo& info) {
  MutexLock lock(mu_);
  STDCHK_RETURN_IF_ERROR(CheckUp());
  return registry_.Register(info);
}

Status MetadataManager::Heartbeat(NodeId node, std::uint64_t free_bytes) {
  MutexLock lock(mu_);
  STDCHK_RETURN_IF_ERROR(CheckUp());
  return registry_.Heartbeat(node, free_bytes);
}

Result<std::vector<ChunkId>> MetadataManager::GcExchange(
    NodeId node, const std::vector<ChunkId>& held) {
  // Control-plane checks under mu_; the per-chunk sweep below walks the
  // catalog's shards without it, so a long GC exchange never blocks
  // commits or reads on other shards.
  bool node_has_active_reservation = false;
  {
    MutexLock lock(mu_);
    STDCHK_RETURN_IF_ERROR(CheckUp());
    if (!registry_.IsOnline(node)) {
      return UnavailableError("GC exchange from offline node");
    }

    // Chunks the node holds that are not live anywhere are orphans —
    // deleted files, failed writes, or purged versions. Exception: never
    // collect while the node is part of an active write reservation: the
    // unknown chunks may be the in-flight data itself. (A reservation
    // created after this check defers collection to the next exchange —
    // keeping data one round longer is always safe.)
    for (const auto& [id, res] : reservations_) {
      if (std::find(res.stripe.begin(), res.stripe.end(), node) !=
          res.stripe.end()) {
        node_has_active_reservation = true;
        break;
      }
    }
  }

  std::vector<ChunkId> to_delete;
  for (const ChunkId& id : held) {
    if (catalog_.AddReplicaIfLive(id, node)) {
      // Re-integration: a desktop returning from an outage still holds
      // chunks the catalog dropped when its heartbeat expired. Content
      // addressing makes this safe — same id, same bytes — so the copy
      // counts toward availability again instead of being collected.
      continue;
    }
    if (node_has_active_reservation) continue;  // defer: possibly in flight
    to_delete.push_back(id);
  }
  return to_delete;
}

Status MetadataManager::OfferRecoveredVersion(NodeId from,
                                              const VersionRecord& record,
                                              int stripe_width) {
  MutexLock lock(mu_);
  STDCHK_RETURN_IF_ERROR(CheckUp());
  if (stripe_width <= 0) return InvalidArgumentError("stripe width must be > 0");
  if (catalog_.Exists(record.name)) return OkStatus();  // already recovered

  auto key = std::make_pair(record.name.ToString(),
                            ChunkMapFingerprint(record.chunk_map));
  std::set<NodeId>& endorsers = offers_[key];
  endorsers.insert(from);

  // Commit once two-thirds of the stripe width concur (§IV.A).
  if (3 * endorsers.size() >= 2 * static_cast<std::size_t>(stripe_width)) {
    STDCHK_RETURN_IF_ERROR(catalog_.CommitVersion(record));
    offers_.erase(key);
  }
  return OkStatus();
}

Result<WriteReservation> MetadataManager::ReserveStripe(int width,
                                                        std::uint64_t bytes) {
  STDCHK_RETURN_IF_ERROR(CheckUp());
  if (width <= 0) return InvalidArgumentError("stripe width must be > 0");
  stat_server_placements_.fetch_add(1, std::memory_order_relaxed);
  // Pick and charge under the registry lock alone, so the placement work
  // stays off mu_; mu_ only guards the reservation table.
  std::uint64_t per_node =
      ReservationShare(bytes, static_cast<std::size_t>(width));
  STDCHK_ASSIGN_OR_RETURN(std::vector<NodeId> stripe,
                          registry_.SelectAndReserve(width, per_node));
  MutexLock lock(mu_);
  Reservation res;
  res.id = next_reservation_++;
  res.stripe = stripe;
  res.per_node = per_node;
  res.last_touch = clock_->NowUs();
  reservations_[res.id] = res;

  WriteReservation out;
  out.id = res.id;
  out.stripe = std::move(stripe);
  out.reserved_bytes = bytes;
  return out;
}

Status MetadataManager::ExtendReservation(ReservationId id,
                                          std::uint64_t additional_bytes) {
  MutexLock lock(mu_);
  STDCHK_RETURN_IF_ERROR(CheckUp());
  auto it = reservations_.find(id);
  if (it == reservations_.end()) return NotFoundError("unknown reservation");
  it->second.last_touch = clock_->NowUs();
  std::uint64_t per_node =
      ReservationShare(additional_bytes, it->second.stripe.size());
  it->second.per_node += per_node;
  for (NodeId node : it->second.stripe) registry_.AddReserved(node, per_node);
  return OkStatus();
}

Result<NodeId> MetadataManager::ReplaceReservationNode(ReservationId id,
                                                       NodeId dead) {
  MutexLock lock(mu_);
  STDCHK_RETURN_IF_ERROR(CheckUp());
  auto it = reservations_.find(id);
  if (it == reservations_.end()) return NotFoundError("unknown reservation");
  Reservation& res = it->second;
  auto slot = std::find(res.stripe.begin(), res.stripe.end(), dead);
  if (slot == res.stripe.end()) {
    return NotFoundError("node is not a member of the reservation stripe");
  }
  stat_server_placements_.fetch_add(1, std::memory_order_relaxed);
  STDCHK_ASSIGN_OR_RETURN(std::vector<NodeId> fresh,
                          registry_.SelectStripe(1, res.stripe));
  // Hand the dead member's share of the eager reservation to the
  // replacement so the stripe's accounted capacity is unchanged.
  registry_.ReleaseReserved(dead, res.per_node);
  registry_.AddReserved(fresh[0], res.per_node);
  *slot = fresh[0];
  res.last_touch = clock_->NowUs();
  return fresh[0];
}

void MetadataManager::ReleaseReservationLocked(
    std::map<ReservationId, Reservation>::iterator it) {
  for (NodeId node : it->second.stripe) {
    registry_.ReleaseReserved(node, it->second.per_node);
  }
  reservations_.erase(it);
}

Status MetadataManager::ReleaseReservation(ReservationId id) {
  MutexLock lock(mu_);
  STDCHK_RETURN_IF_ERROR(CheckUp());
  auto it = reservations_.find(id);
  if (it == reservations_.end()) return NotFoundError("unknown reservation");
  ReleaseReservationLocked(it);
  return OkStatus();
}

Status MetadataManager::CommitVersion(ReservationId id,
                                      const VersionRecord& record) {
  STDCHK_RETURN_IF_ERROR(CheckUp());
  VersionRecord to_commit = record;
  // The folder's replication target applies unless the record overrides it.
  FolderPolicy policy = catalog_.GetFolderPolicy(record.name.app);
  if (to_commit.replication_target <= 0) {
    to_commit.replication_target = policy.replication_target;
  }

  // A donor may depart between placement and commit: the registry is asked
  // once about every donor the map names, and the map is filtered only if
  // one of them is offline.
  std::vector<NodeId> named;
  for (const ChunkLocation& loc : to_commit.chunk_map.chunks) {
    named.insert(named.end(), loc.replicas.begin(), loc.replicas.end());
    for (const ShardLocation& sl : loc.shards) {
      if (sl.node != kInvalidNode) named.push_back(sl.node);
    }
  }
  std::sort(named.begin(), named.end());
  named.erase(std::unique(named.begin(), named.end()), named.end());
  std::vector<NodeId> departed = registry_.OfflineAmong(named);
  if (!departed.empty()) {
    STDCHK_RETURN_IF_ERROR(DropDeparted(departed, &to_commit.chunk_map));
  }

  // The catalog commit is the atomic visibility point; it serializes on
  // the folder's shard only. The registry accounting below runs afterwards
  // (charged before the reservation is released, and only the reservation
  // table needs mu_) — a reader observing the committed version before the
  // free-space figures settle is harmless (reservation GC is TTL-based).
  STDCHK_RETURN_IF_ERROR(catalog_.CommitVersion(to_commit));
  for (const ChunkLocation& loc : to_commit.chunk_map.chunks) {
    for (NodeId node : loc.replicas) registry_.AddUsed(node, loc.size);
    for (std::size_t s = 0; s < loc.shards.size(); ++s) {
      const ShardLocation& sl = loc.shards[s];
      if (sl.node == kInvalidNode) continue;
      registry_.AddUsed(sl.node, ErasureShardLength(loc.size, loc.ec_k,
                                                    static_cast<int>(s)));
    }
  }
  if (id != 0) {
    MutexLock lock(mu_);
    auto it = reservations_.find(id);
    if (it != reservations_.end()) ReleaseReservationLocked(it);
  }
  return OkStatus();
}

// Catalog-only RPCs take no manager lock at all: the catalog is internally
// sharded and thread-safe, so these contend only on the touched shard.

Result<VersionRecord> MetadataManager::GetVersion(
    const CheckpointName& name) const {
  STDCHK_RETURN_IF_ERROR(CheckUp());
  return catalog_.GetVersion(name);
}

Result<VersionRecord> MetadataManager::GetLatest(const std::string& app,
                                                 const std::string& node) const {
  STDCHK_RETURN_IF_ERROR(CheckUp());
  return catalog_.GetLatest(app, node);
}

Result<std::vector<CheckpointName>> MetadataManager::ListVersions(
    const std::string& app) const {
  STDCHK_RETURN_IF_ERROR(CheckUp());
  return catalog_.ListVersions(app);
}

Result<std::vector<std::string>> MetadataManager::ListApps() const {
  STDCHK_RETURN_IF_ERROR(CheckUp());
  return catalog_.ListApps();
}

Result<std::vector<std::vector<NodeId>>> MetadataManager::LocateChunks(
    const std::vector<ChunkId>& ids) const {
  STDCHK_RETURN_IF_ERROR(CheckUp());
  std::vector<std::vector<NodeId>> out;
  out.reserve(ids.size());
  for (const ChunkId& id : ids) out.push_back(catalog_.ChunkReplicas(id));
  return out;
}

Status MetadataManager::SetFolderPolicy(const std::string& app,
                                        const FolderPolicy& policy) {
  STDCHK_RETURN_IF_ERROR(CheckUp());
  if (policy.replication_target <= 0) {
    return InvalidArgumentError("replication target must be >= 1");
  }
  catalog_.SetFolderPolicy(app, policy);
  return OkStatus();
}

Result<FolderPolicy> MetadataManager::GetFolderPolicy(
    const std::string& app) const {
  STDCHK_RETURN_IF_ERROR(CheckUp());
  return catalog_.GetFolderPolicy(app);
}

Status MetadataManager::DeleteVersion(const CheckpointName& name) {
  STDCHK_RETURN_IF_ERROR(CheckUp());
  return catalog_.DeleteVersion(name);
}

Result<std::size_t> MetadataManager::DeleteApp(const std::string& app) {
  STDCHK_RETURN_IF_ERROR(CheckUp());
  return catalog_.DeleteApp(app);
}

std::vector<NodeId> MetadataManager::TickExpiry() {
  std::vector<NodeId> expired;
  {
    MutexLock lock(mu_);
    if (!up_) return {};
    expired = registry_.ExpireStale();
  }
  if (expired.empty()) return expired;
  // The catalog sweep walks chunk shards under their own locks; mu_ is
  // retaken only to append the data-loss events.
  std::vector<ChunkId> lost;
  for (NodeId node : expired) {
    std::vector<ChunkId> node_lost = catalog_.RemoveNodeReplicas(node);
    lost.insert(lost.end(), node_lost.begin(), node_lost.end());
  }
  MutexLock lock(mu_);
  lost_chunks_.insert(lost_chunks_.end(), lost.begin(), lost.end());
  return expired;
}

std::vector<RepairCommand> MetadataManager::TickRepair() {
  MutexLock lock(mu_);
  if (!up_) return {};
  std::set<NodeId> online;
  for (NodeId node : registry_.OnlineNodes()) online.insert(node);

  // Budgets left for replica commands [0] and shard commands [1].
  int budget[2] = {options_.max_replications_per_tick,
                   options_.max_replications_per_tick};
  std::vector<RepairCommand> commands;
  for (const FileCatalog::Repairable& r : catalog_.FindRepairable(online)) {
    const ChunkLocation& chunk = r.chunk;
    int& left = budget[chunk.erasure_coded() ? 1 : 0];
    // The chunk's copies: the chunk itself (missing_index -1) or each shard
    // position, with their live holders.
    std::vector<std::pair<int, int>> copies;  // (missing_index, live)
    std::vector<NodeId> exclude = chunk.replicas;
    if (!chunk.erasure_coded()) {
      copies.emplace_back(-1, static_cast<int>(chunk.replicas.size()));
    }
    for (std::size_t s = 0; s < chunk.shards.size(); ++s) {
      bool held = chunk.shards[s].node != kInvalidNode;
      if (held) exclude.push_back(chunk.shards[s].node);
      copies.emplace_back(static_cast<int>(s), held ? 1 : 0);
    }
    // In-flight targets count as live, and no target may receive a second
    // copy of the chunk: for a group, a sibling's target is excluded too.
    std::vector<int> missing;  // a copy's index once per command it needs
    for (auto& [index, live] : copies) {
      const ChunkId& copy = CopyId(chunk, index);
      for (auto it = inflight_.lower_bound({copy, 0});
           it != inflight_.end() && it->first.first == copy; ++it) {
        exclude.push_back(it->first.second);
        ++live;
      }
      missing.insert(missing.end(),
                     static_cast<std::size_t>(std::max(r.want - live, 0)),
                     index);
    }
    for (int index : missing) {
      if (left == 0) break;
      auto stripe = registry_.SelectStripe(1, exclude);
      if (!stripe.ok()) break;  // no eligible target left for this chunk
      NodeId target = stripe.value()[0];
      exclude.push_back(target);
      inflight_.emplace(std::pair(CopyId(chunk, index), target), index >= 0);
      commands.push_back(RepairCommand{chunk, index, target});
      --left;
    }
  }
  return commands;
}

Status MetadataManager::AckRepair(const RepairCommand& cmd, bool success) {
  MutexLock lock(mu_);
  const ChunkLocation& chunk = cmd.chunk;
  const ChunkId& copy = CopyId(chunk, cmd.missing_index);
  inflight_.erase({copy, cmd.target});
  if (!up_) return UnavailableError("metadata manager is down");
  if (success) {
    catalog_.AddReplica(copy, cmd.target);
    registry_.AddUsed(cmd.target,
                      cmd.missing_index < 0
                          ? chunk.size
                          : ErasureShardLength(chunk.size, chunk.ec_k,
                                               cmd.missing_index));
  }
  return OkStatus();
}

std::vector<CheckpointName> MetadataManager::TickRetention() {
  // No manager lock: retention walks the catalog's folder shards under
  // their own locks, one shard at a time.
  if (!up_) return {};
  return catalog_.ApplyRetention();
}

void MetadataManager::TickReservationGc() {
  MutexLock lock(mu_);
  if (!up_) return;
  ClockTime now = clock_->NowUs();
  for (auto it = reservations_.begin(); it != reservations_.end();) {
    if (now - it->second.last_touch > options_.reservation_ttl_us) {
      auto doomed = it++;
      ReleaseReservationLocked(doomed);
    } else {
      ++it;
    }
  }
}

std::vector<ChunkId> MetadataManager::TakeLostChunks() {
  MutexLock lock(mu_);
  std::vector<ChunkId> out;
  out.swap(lost_chunks_);
  return out;
}

ManagerCounters MetadataManager::Counters() const {
  ManagerCounters out;
  out.server_side_placements =
      stat_server_placements_.load(std::memory_order_relaxed);
  out.shard_records_released = catalog_.ShardRecordsReleased();
  out.catalog_shards = catalog_.ShardStatsSnapshot();
  return out;
}

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x53544348;  // "STCH"

void WriteChunkId(BinaryWriter& w, const ChunkId& id) {
  w.Blob(ByteSpan(id.digest.bytes.data(), id.digest.bytes.size()));
}

Result<ChunkId> ReadChunkId(BinaryReader& r) {
  STDCHK_ASSIGN_OR_RETURN(Bytes raw, r.Blob());
  if (raw.size() != 20) return DataLossError("bad chunk id in snapshot");
  ChunkId id;
  std::copy(raw.begin(), raw.end(), id.digest.bytes.begin());
  return id;
}

void WriteVersion(BinaryWriter& w, const VersionRecord& v) {
  w.Str(v.name.app);
  w.Str(v.name.node);
  w.U64(v.name.timestep);
  w.U64(v.size);
  w.I64(v.commit_time);
  w.U32(static_cast<std::uint32_t>(v.replication_target));
  w.U32(static_cast<std::uint32_t>(v.chunk_map.chunks.size()));
  for (const ChunkLocation& loc : v.chunk_map.chunks) {
    WriteChunkId(w, loc.id);
    w.U64(loc.file_offset);
    w.U32(loc.size);
    w.U32(static_cast<std::uint32_t>(loc.replicas.size()));
    for (NodeId node : loc.replicas) w.U32(node);
    // Erasure-coded striping (zeros for replicated entries).
    w.U32(loc.ec_k);
    w.U32(loc.ec_m);
    w.U32(static_cast<std::uint32_t>(loc.shards.size()));
    for (const ShardLocation& sl : loc.shards) {
      WriteChunkId(w, sl.id);
      w.U32(sl.node);
    }
  }
}

Result<VersionRecord> ReadVersion(BinaryReader& r) {
  VersionRecord v;
  STDCHK_ASSIGN_OR_RETURN(v.name.app, r.Str());
  STDCHK_ASSIGN_OR_RETURN(v.name.node, r.Str());
  STDCHK_ASSIGN_OR_RETURN(v.name.timestep, r.U64());
  STDCHK_ASSIGN_OR_RETURN(v.size, r.U64());
  STDCHK_ASSIGN_OR_RETURN(v.commit_time, r.I64());
  STDCHK_ASSIGN_OR_RETURN(std::uint32_t target, r.U32());
  v.replication_target = static_cast<int>(target);
  STDCHK_ASSIGN_OR_RETURN(std::uint32_t chunks, r.U32());
  v.chunk_map.chunks.reserve(chunks);
  for (std::uint32_t i = 0; i < chunks; ++i) {
    ChunkLocation loc;
    STDCHK_ASSIGN_OR_RETURN(loc.id, ReadChunkId(r));
    STDCHK_ASSIGN_OR_RETURN(loc.file_offset, r.U64());
    STDCHK_ASSIGN_OR_RETURN(loc.size, r.U32());
    STDCHK_ASSIGN_OR_RETURN(std::uint32_t replicas, r.U32());
    for (std::uint32_t j = 0; j < replicas; ++j) {
      STDCHK_ASSIGN_OR_RETURN(NodeId node, r.U32());
      loc.replicas.push_back(node);
    }
    STDCHK_ASSIGN_OR_RETURN(std::uint32_t ec_k, r.U32());
    STDCHK_ASSIGN_OR_RETURN(std::uint32_t ec_m, r.U32());
    loc.ec_k = static_cast<std::uint16_t>(ec_k);
    loc.ec_m = static_cast<std::uint16_t>(ec_m);
    STDCHK_ASSIGN_OR_RETURN(std::uint32_t shards, r.U32());
    if (loc.erasure_coded() &&
        shards != ec_k + ec_m) {
      return DataLossError("bad shard count in snapshot");
    }
    loc.shards.reserve(shards);
    for (std::uint32_t j = 0; j < shards; ++j) {
      ShardLocation sl;
      STDCHK_ASSIGN_OR_RETURN(sl.id, ReadChunkId(r));
      STDCHK_ASSIGN_OR_RETURN(sl.node, r.U32());
      loc.shards.push_back(sl);
    }
    v.chunk_map.chunks.push_back(std::move(loc));
  }
  return v;
}

}  // namespace

Bytes MetadataManager::SaveSnapshot() const {
  MutexLock lock(mu_);
  BinaryWriter w;
  w.U32(kSnapshotMagic);

  // Registry.
  std::vector<BenefactorStatus> nodes = registry_.Export();
  w.U32(registry_.next_id());
  w.U32(static_cast<std::uint32_t>(nodes.size()));
  for (const BenefactorStatus& node : nodes) {
    w.U32(node.id);
    w.Str(node.info.host);
    w.U64(node.info.total_bytes);
    w.U64(node.info.free_bytes);
    w.I64(node.last_heartbeat);
    w.Bool(node.online);
    w.U64(node.reserved_bytes);
  }

  // Catalog.
  FileCatalog::ExportedState state = catalog_.Export();
  w.U32(static_cast<std::uint32_t>(state.policies.size()));
  for (const auto& [app, policy] : state.policies) {
    w.Str(app);
    w.U8(static_cast<std::uint8_t>(policy.retention));
    w.I64(policy.purge_age_us);
    w.U32(static_cast<std::uint32_t>(policy.keep_last));
    w.U32(static_cast<std::uint32_t>(policy.replication_target));
  }
  w.U32(static_cast<std::uint32_t>(state.versions.size()));
  for (const VersionRecord& v : state.versions) WriteVersion(w, v);
  w.U32(static_cast<std::uint32_t>(state.chunk_replicas.size()));
  for (const auto& [id, replicas] : state.chunk_replicas) {
    WriteChunkId(w, id);
    w.U32(static_cast<std::uint32_t>(replicas.size()));
    for (NodeId node : replicas) w.U32(node);
  }
  return w.Take();
}

Status MetadataManager::LoadSnapshot(ByteSpan snapshot) {
  MutexLock lock(mu_);
  BinaryReader r(snapshot);
  STDCHK_ASSIGN_OR_RETURN(std::uint32_t magic, r.U32());
  if (magic != kSnapshotMagic) {
    return DataLossError("not a stdchk manager snapshot");
  }

  STDCHK_ASSIGN_OR_RETURN(NodeId next_id, r.U32());
  STDCHK_ASSIGN_OR_RETURN(std::uint32_t node_count, r.U32());
  std::vector<BenefactorStatus> nodes;
  nodes.reserve(node_count);
  for (std::uint32_t i = 0; i < node_count; ++i) {
    BenefactorStatus node;
    STDCHK_ASSIGN_OR_RETURN(node.id, r.U32());
    STDCHK_ASSIGN_OR_RETURN(node.info.host, r.Str());
    STDCHK_ASSIGN_OR_RETURN(node.info.total_bytes, r.U64());
    STDCHK_ASSIGN_OR_RETURN(node.info.free_bytes, r.U64());
    STDCHK_ASSIGN_OR_RETURN(node.last_heartbeat, r.I64());
    STDCHK_ASSIGN_OR_RETURN(node.online, r.Bool());
    STDCHK_ASSIGN_OR_RETURN(node.reserved_bytes, r.U64());
    // Reservations are transient and not restored.
    node.reserved_bytes = 0;
    nodes.push_back(std::move(node));
  }

  FileCatalog::ExportedState state;
  STDCHK_ASSIGN_OR_RETURN(std::uint32_t policy_count, r.U32());
  for (std::uint32_t i = 0; i < policy_count; ++i) {
    std::string app;
    FolderPolicy policy;
    STDCHK_ASSIGN_OR_RETURN(app, r.Str());
    STDCHK_ASSIGN_OR_RETURN(std::uint8_t retention, r.U8());
    if (retention > static_cast<std::uint8_t>(RetentionPolicy::kAutomatedPurge)) {
      return DataLossError("bad retention policy in snapshot");
    }
    policy.retention = static_cast<RetentionPolicy>(retention);
    STDCHK_ASSIGN_OR_RETURN(policy.purge_age_us, r.I64());
    STDCHK_ASSIGN_OR_RETURN(std::uint32_t keep_last, r.U32());
    policy.keep_last = static_cast<int>(keep_last);
    STDCHK_ASSIGN_OR_RETURN(std::uint32_t target, r.U32());
    policy.replication_target = static_cast<int>(target);
    state.policies.emplace_back(std::move(app), policy);
  }
  STDCHK_ASSIGN_OR_RETURN(std::uint32_t version_count, r.U32());
  for (std::uint32_t i = 0; i < version_count; ++i) {
    STDCHK_ASSIGN_OR_RETURN(VersionRecord v, ReadVersion(r));
    state.versions.push_back(std::move(v));
  }
  STDCHK_ASSIGN_OR_RETURN(std::uint32_t replica_count, r.U32());
  for (std::uint32_t i = 0; i < replica_count; ++i) {
    STDCHK_ASSIGN_OR_RETURN(ChunkId id, ReadChunkId(r));
    STDCHK_ASSIGN_OR_RETURN(std::uint32_t n, r.U32());
    std::vector<NodeId> replicas;
    replicas.reserve(n);
    for (std::uint32_t j = 0; j < n; ++j) {
      STDCHK_ASSIGN_OR_RETURN(NodeId node, r.U32());
      replicas.push_back(node);
    }
    state.chunk_replicas.emplace_back(id, std::move(replicas));
  }
  if (!r.AtEnd()) return DataLossError("trailing bytes in snapshot");

  // Commit point: only mutate after the whole snapshot parsed.
  registry_.Import(nodes, next_id);
  STDCHK_RETURN_IF_ERROR(catalog_.Import(state));
  reservations_.clear();
  inflight_.clear();
  offers_.clear();
  lost_chunks_.clear();
  up_ = true;
  return OkStatus();
}

}  // namespace stdchk
