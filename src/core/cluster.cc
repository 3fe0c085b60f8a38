#include "core/cluster.h"

#include <cassert>
#include <optional>

#include "chunk/chunk_store.h"
#include "client/read_session.h"
#include "common/log.h"
#include "erasure/reed_solomon.h"

namespace stdchk {

StdchkCluster::StdchkCluster(ClusterOptions options)
    : options_(std::move(options)) {
  manager_ = std::make_unique<MetadataManager>(&clock_, options_.manager);
  for (int i = 0; i < options_.benefactor_count; ++i) {
    auto added = AddBenefactor(options_.capacity_per_node);
    assert(added.ok());
    (void)added;
  }
  default_client_ = std::make_unique<ClientProxy>(manager_.get(), &transport_,
                                                  options_.client);
}

Result<NodeId> StdchkCluster::AddBenefactor(std::uint64_t capacity_bytes) {
  std::string host = "desktop-" + std::to_string(benefactors_.size());
  std::unique_ptr<ChunkStore> store;
  if (options_.disk_root.empty()) {
    store = MakeMemoryChunkStore();
  } else {
    STDCHK_ASSIGN_OR_RETURN(
        store, MakeDiskChunkStore(options_.disk_root + "/" + host));
  }
  if (options_.store_decorator) store = options_.store_decorator(std::move(store));
  auto benefactor = std::make_unique<Benefactor>(host, std::move(store),
                                                 capacity_bytes);
  STDCHK_RETURN_IF_ERROR(benefactor->JoinPool(*manager_));
  transport_.AddEndpoint(benefactor.get());
  NodeId id = benefactor->id();
  benefactors_.push_back(std::move(benefactor));
  return id;
}

Benefactor* StdchkCluster::FindBenefactor(NodeId node) {
  for (auto& b : benefactors_) {
    if (b->id() == node) return b.get();
  }
  return nullptr;
}

std::unique_ptr<ClientProxy> StdchkCluster::MakeClient(
    const ClientOptions& options) {
  return std::make_unique<ClientProxy>(manager_.get(), &transport_, options);
}

Status StdchkCluster::CrashBenefactor(std::size_t idx) {
  if (idx >= benefactors_.size()) return InvalidArgumentError("bad index");
  benefactors_[idx]->Crash();
  return OkStatus();
}

Status StdchkCluster::RestartBenefactor(std::size_t idx) {
  if (idx >= benefactors_.size()) return InvalidArgumentError("bad index");
  Benefactor& b = *benefactors_[idx];
  b.Restart();
  // Soft-state re-announcement: a restarted node may have been expired, in
  // which case its replicas were dropped — the next GC exchange and
  // heartbeat re-integrate it (its chunks become orphans unless still live).
  return b.SendHeartbeat(*manager_);
}

std::vector<Status> StdchkCluster::ExecuteShardRepair(
    std::span<const ShardRepairCommand> cmds) {
  const ChunkLocation& group = cmds.front().group;
  VersionRecord record;
  record.size = group.size;
  record.chunk_map.chunks.push_back(group);
  ReadSession reader(&transport_, std::move(record), options_.client);
  Result<Bytes> chunk = reader.ReadAll();
  if (!chunk.ok()) return std::vector<Status>(cmds.size(), chunk.status());

  // The chunk's k data shards are slices of it (an empty tail shard may
  // start past its end); the codec copies a data shard out or encodes a
  // parity one from them. Outputs are full shard widths, which parity
  // recovery needs, trimmed to each shard's stored length afterwards.
  const int k = group.ec_k;
  const std::size_t shard_size = ErasureShardSize(group.size, k);
  const ByteSpan whole(chunk.value());
  std::vector<std::optional<ByteSpan>> views(group.shards.size());
  for (int s = 0; s < k; ++s) {
    std::size_t len = ErasureShardLength(group.size, k, s);
    views[static_cast<std::size_t>(s)] =
        len == 0 ? ByteSpan()
                 : whole.subspan(static_cast<std::size_t>(s) * shard_size, len);
  }
  std::vector<int> want;
  std::vector<Bytes> rebuilt(cmds.size(), Bytes(shard_size));
  std::vector<MutableByteSpan> outs;
  for (std::size_t c = 0; c < cmds.size(); ++c) {
    want.push_back(cmds[c].missing_index);
    outs.emplace_back(rebuilt[c]);
  }
  Result<ReedSolomon> rs = ReedSolomon::Create(k, group.ec_m);
  Status decoded = rs.ok()
                       ? rs.value().RecoverShards(views, shard_size, want, outs)
                       : rs.status();
  if (!decoded.ok()) return std::vector<Status>(cmds.size(), decoded);

  // Each verified shard goes to its own target in one PUT, all in flight
  // at once (a group's targets are distinct: TickShardRepair excludes
  // each one it picks).
  std::vector<Status> results(cmds.size());
  std::vector<std::optional<OpHandle>> puts(cmds.size());
  for (std::size_t c = 0; c < cmds.size(); ++c) {
    const int index = cmds[c].missing_index;
    rebuilt[c].resize(ErasureShardLength(group.size, k, index));
    const ChunkId& id = group.shards[static_cast<std::size_t>(index)].id;
    if (ChunkId::For(ByteSpan(rebuilt[c])) != id) {
      results[c] = DataLossError("rebuilt shard failed content verification");
      continue;
    }
    BufferSlice shard(BufferRef::Take(std::move(rebuilt[c])));
    puts[c] =
        transport_.Submit(ChunkOp::PutBatch(cmds[c].target, {{id, shard}}));
  }
  for (std::size_t c = 0; c < cmds.size(); ++c) {
    if (!puts[c].has_value()) continue;
    Result<OpCompletion> stored = transport_.Wait(*puts[c]);
    results[c] = stored.ok() ? stored.value().status : stored.status();
  }
  return results;
}

StdchkCluster::TickReport StdchkCluster::Tick(double advance_seconds) {
  TickReport report;
  clock_.AdvanceSeconds(advance_seconds);

  // 1. Soft state: online benefactors heartbeat; manager expires the rest.
  for (auto& b : benefactors_) {
    if (b->online()) (void)b->SendHeartbeat(*manager_);
  }
  report.expired = manager_->TickExpiry();

  // 2. Manager recovery: benefactors push stashed chunk maps (no-ops when
  // nothing is stashed or the manager is down).
  for (auto& b : benefactors_) {
    if (b->online() && b->stashed_count() > 0) {
      ++report.recovered_versions_offered;
      (void)b->OfferStashedVersions(*manager_);
    }
  }

  // 3. Retention policies, then reservation GC (both manager-local).
  report.purged = manager_->TickRetention();
  manager_->TickReservationGc();

  // 4. Background replication: manager issues shadow-map copy commands;
  //    the transport executes benefactor-to-benefactor copies.
  std::vector<ReplicationCommand> commands = manager_->TickReplication();
  report.replication_commands = commands.size();
  for (const ReplicationCommand& cmd : commands) {
    Result<OpCompletion> copied = transport_.Wait(
        transport_.Submit(ChunkOp::Copy(cmd.chunk, cmd.source, cmd.target)));
    bool ok = copied.ok() && copied.value().status.ok();
    if (!ok) ++report.replication_failures;
    (void)manager_->AckReplication(cmd, ok);
  }

  // 4b. Shard repair: rebuild erasure-coded shards whose holder departed,
  //     while the group still has >= k live shards to decode from.
  //     TickShardRepair emits a group's commands back to back; each run of
  //     them is rebuilt from one read of the group.
  std::vector<ShardRepairCommand> repairs = manager_->TickShardRepair();
  report.shard_repair_commands = repairs.size();
  for (std::size_t first = 0; first < repairs.size();) {
    std::size_t last = first + 1;
    while (last < repairs.size() &&
           repairs[last].group.id == repairs[first].group.id) {
      ++last;
    }
    std::span<const ShardRepairCommand> run(repairs.data() + first,
                                            last - first);
    std::vector<Status> repaired = ExecuteShardRepair(run);
    for (std::size_t c = 0; c < run.size(); ++c) {
      if (!repaired[c].ok()) ++report.shard_repair_failures;
      (void)manager_->AckShardRepair(run[c], repaired[c].ok());
    }
    first = last;
  }

  // 5. GC exchange: each online benefactor reconciles against the live set.
  for (auto& b : benefactors_) {
    if (!b->online()) continue;
    Result<std::size_t> reclaimed = b->RunGc(*manager_);
    if (reclaimed.ok()) report.gc_reclaimed_chunks += reclaimed.value();
  }

  // 6. Live compaction: one throttled pass per online benefactor. Runs
  //    after GC so the dead bytes GC just created are eligible this tick.
  if (options_.compaction_enabled) {
    for (auto& b : benefactors_) {
      if (b->online()) (void)b->CompactStep(options_.compaction);
    }
  }
  return report;
}

std::size_t StdchkCluster::Settle(std::size_t max_ticks) {
  for (std::size_t i = 1; i <= max_ticks; ++i) {
    TickReport report = Tick();
    if (report.replication_commands == 0 &&
        manager_->pending_replications() == 0 &&
        report.shard_repair_commands == 0 &&
        manager_->pending_shard_repairs() == 0 &&
        report.gc_reclaimed_chunks == 0 && report.purged.empty()) {
      return i;
    }
  }
  return max_ticks;
}

}  // namespace stdchk
