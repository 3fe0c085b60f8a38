#include "client/commit_coordinator.h"

#include <algorithm>
#include <utility>

namespace stdchk {

CommitCoordinator::CommitCoordinator(MetadataManager* manager,
                                     Transport* transport,
                                     CheckpointName name,
                                     const ClientOptions& options,
                                     WriteStats* stats)
    : manager_(manager),
      transport_(transport),
      name_(std::move(name)),
      options_(options),
      stats_(stats) {}

Status CommitCoordinator::EnsureReservation(std::uint64_t upcoming) {
  if (!have_reservation_) {
    std::uint64_t bytes =
        std::max<std::uint64_t>(upcoming, options_.reservation_extent);
    STDCHK_ASSIGN_OR_RETURN(reservation_,
                            manager_->ReserveStripe(options_.stripe_width,
                                                    bytes));
    have_reservation_ = true;
    reserved_remaining_ = reservation_.reserved_bytes;
    return OkStatus();
  }
  if (upcoming > reserved_remaining_) {
    // Incremental space allocation: extend the eager reservation (§IV.A).
    std::uint64_t extent =
        std::max<std::uint64_t>(upcoming, options_.reservation_extent);
    STDCHK_RETURN_IF_ERROR(
        manager_->ExtendReservation(reservation_.id, extent));
    reserved_remaining_ += extent;
  }
  return OkStatus();
}

void CommitCoordinator::ConsumeReserved(std::uint64_t bytes) {
  reserved_remaining_ =
      reserved_remaining_ > bytes ? reserved_remaining_ - bytes : 0;
}

Result<NodeId> CommitCoordinator::ReplaceStripeMember(NodeId dead) {
  if (!have_reservation_) {
    return FailedPreconditionError("no reservation to repair");
  }
  STDCHK_ASSIGN_OR_RETURN(
      NodeId fresh, manager_->ReplaceReservationNode(reservation_.id, dead));
  std::replace(reservation_.stripe.begin(), reservation_.stripe.end(), dead,
               fresh);
  return fresh;
}

std::size_t CommitCoordinator::AddSlot(const ChunkId& id, std::uint32_t size) {
  ChunkLocation loc;
  loc.id = id;
  loc.file_offset = file_offset_;
  loc.size = size;
  file_offset_ += size;
  map_.chunks.push_back(std::move(loc));
  slot_reused_.push_back(false);
  return map_.chunks.size() - 1;
}

void CommitCoordinator::SetReplicas(std::size_t slot,
                                    std::vector<NodeId> replicas) {
  map_.chunks[slot].replicas = std::move(replicas);
}

void CommitCoordinator::SetShards(std::size_t slot, int k, int m,
                                  std::vector<ShardLocation> shards) {
  ChunkLocation& loc = map_.chunks[slot];
  loc.ec_k = static_cast<std::uint16_t>(k);
  loc.ec_m = static_cast<std::uint16_t>(m);
  loc.shards = std::move(shards);
}

std::vector<std::vector<NodeId>> CommitCoordinator::LocateReusable(
    const std::vector<ChunkId>& ids) {
  // An unknown chunk and a known one with no live replica (raced with a
  // purge) both come back empty and stay novel.
  auto located = manager_->LocateChunks(ids);
  if (!located.ok()) {
    return std::vector<std::vector<NodeId>>(ids.size());  // upload everything
  }
  return std::move(located.value());
}

void CommitCoordinator::ReuseExisting(const ChunkId& id, std::uint32_t size,
                                      std::vector<NodeId> replicas) {
  std::size_t slot = AddSlot(id, size);
  SetReplicas(slot, std::move(replicas));
  slot_reused_[slot] = true;
  ++stats_->chunks_deduplicated;
  stats_->bytes_deduplicated += size;
}

Result<CloseOutcome> CommitCoordinator::Commit() {
  VersionRecord record;
  record.name = name_;
  record.chunk_map = map_;
  record.size = file_offset_;
  record.replication_target = options_.replication_target;

  Status commit = manager_->CommitVersion(
      have_reservation_ ? reservation_.id : 0, record);
  if (commit.ok()) {
    have_reservation_ = false;  // commit released it
    return CloseOutcome::kCommitted;
  }

  if (commit.code() == StatusCode::kUnavailable) {
    // Manager down: stash the final chunk map on the write stripe so the
    // benefactors can recover the version when the manager returns (§IV.A).
    STDCHK_RETURN_IF_ERROR(StashOnStripe(record));
    return CloseOutcome::kStashedForRecovery;
  }
  // Terminal commit failure (e.g. the version was committed by another
  // producer): the session is over — release the reservation so GC can
  // reclaim the orphaned chunks promptly.
  ReleaseReservation();
  return commit;
}

Status CommitCoordinator::StashOnStripe(const VersionRecord& record) {
  if (!have_reservation_) {
    return FailedPreconditionError("no stripe to stash on (empty write)");
  }
  const int width = static_cast<int>(reservation_.stripe.size());
  std::size_t stashed = 0;
  for (NodeId node : reservation_.stripe) {
    Result<OpCompletion> done = transport_->Wait(
        transport_->Submit(ChunkOp::Stash(node, record, width)));
    if (done.ok() && done.value().status.ok()) ++stashed;
  }
  if (stashed == 0) {
    return UnavailableError("could not stash chunk map on any benefactor");
  }
  return OkStatus();
}

void CommitCoordinator::ReleaseReservation() {
  if (!have_reservation_) return;
  (void)manager_->ReleaseReservation(reservation_.id);
  have_reservation_ = false;
}

}  // namespace stdchk
