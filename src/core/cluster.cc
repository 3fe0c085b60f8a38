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

std::vector<Status> StdchkCluster::ExecuteRepair(
    std::span<const RepairCommand> cmds) {
  const ChunkLocation& chunk = cmds.front().chunk;
  VersionRecord record;
  record.size = chunk.size;
  record.chunk_map.chunks.push_back(chunk);
  ReadSession reader(&transport_, std::move(record), options_.client);
  Result<Bytes> read = reader.ReadAll();
  if (!read.ok()) return std::vector<Status>(cmds.size(), read.status());

  // Each copy goes to its own target in one PUT, all in flight at once (a
  // chunk's targets are distinct: the scheduler excludes each target it
  // picks).
  std::vector<Status> results(cmds.size());
  std::vector<std::optional<OpHandle>> puts(cmds.size());
  auto put = [&](std::size_t c, const ChunkId& id, BufferSlice copy) {
    puts[c] = transport_.Submit(
        ChunkOp::PutBatch(cmds[c].target, {{id, std::move(copy)}}));
  };
  if (cmds.front().missing_index < 0) {
    // A replica is the chunk itself. The read checked it against its
    // address, so the stamp spares each target's admission a second hash.
    BufferSlice whole(BufferRef::Take(std::move(read).value()));
    whole.StampDigest(chunk.id.digest);
    for (std::size_t c = 0; c < cmds.size(); ++c) put(c, chunk.id, whole);
  } else {
    // The chunk's k data shards are slices of it (an empty tail shard may
    // start past its end); the codec copies a data shard out or encodes a
    // parity one from them. Outputs are full shard widths, which parity
    // recovery needs, trimmed to each shard's stored length afterwards.
    const int k = chunk.ec_k;
    const std::size_t shard_size = ErasureShardSize(chunk.size, k);
    const ByteSpan whole(read.value());
    std::vector<std::optional<ByteSpan>> views(chunk.shards.size());
    for (int s = 0; s < k; ++s) {
      std::size_t len = ErasureShardLength(chunk.size, k, s);
      views[static_cast<std::size_t>(s)] =
          len == 0
              ? ByteSpan()
              : whole.subspan(static_cast<std::size_t>(s) * shard_size, len);
    }
    std::vector<int> want;
    std::vector<Bytes> rebuilt(cmds.size(), Bytes(shard_size));
    std::vector<MutableByteSpan> outs;
    for (std::size_t c = 0; c < cmds.size(); ++c) {
      want.push_back(cmds[c].missing_index);
      outs.emplace_back(rebuilt[c]);
    }
    Result<ReedSolomon> rs = ReedSolomon::Create(k, chunk.ec_m);
    Status decoded =
        rs.ok() ? rs.value().RecoverShards(views, shard_size, want, outs)
                : rs.status();
    if (!decoded.ok()) return std::vector<Status>(cmds.size(), decoded);
    for (std::size_t c = 0; c < cmds.size(); ++c) {
      const int index = cmds[c].missing_index;
      rebuilt[c].resize(ErasureShardLength(chunk.size, k, index));
      const ChunkId& id = chunk.shards[static_cast<std::size_t>(index)].id;
      if (ChunkId::For(ByteSpan(rebuilt[c])) != id) {
        results[c] = DataLossError("rebuilt shard failed content verification");
        continue;
      }
      put(c, id, BufferSlice(BufferRef::Take(std::move(rebuilt[c]))));
    }
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

  // 4. Background repair. TickRepair emits a chunk's commands of one kind
  //    back to back, and each run of them is rebuilt from one read of the
  //    chunk: any live holder of a replica, or any k shards of an
  //    erasure-coded group whose holders departed while >= k live shards
  //    remain. A mixed-mode chunk can need both kinds, as two runs.
  std::vector<RepairCommand> cmds = manager_->TickRepair();
  for (std::size_t first = 0; first < cmds.size();) {
    const bool shard = cmds[first].missing_index >= 0;
    std::size_t last = first + 1;
    while (last < cmds.size() &&
           cmds[last].chunk.id == cmds[first].chunk.id &&
           (cmds[last].missing_index >= 0) == shard) {
      ++last;
    }
    std::span<const RepairCommand> run(cmds.data() + first, last - first);
    std::size_t& issued =
        shard ? report.shard_repair_commands : report.replication_commands;
    std::size_t& failures =
        shard ? report.shard_repair_failures : report.replication_failures;
    issued += run.size();
    std::vector<Status> repaired = ExecuteRepair(run);
    for (std::size_t c = 0; c < run.size(); ++c) {
      if (!repaired[c].ok()) ++failures;
      (void)manager_->AckRepair(run[c], repaired[c].ok());
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
