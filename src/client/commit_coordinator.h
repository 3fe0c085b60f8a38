// Layer 3 of the staged write engine: everything that talks to the
// metadata manager on behalf of one write session.
//
// Owns the eager stripe reservation and its incremental growth (§IV.A),
// assembles the chunk map in file order, answers compare-by-hash dedup
// queries, and at close() performs the atomic commit that gives stdchk its
// session semantics — falling back to stashing the map on the write stripe
// when the manager is down (the benefactor-assisted recovery protocol).
#pragma once

#include <cstdint>
#include <vector>

#include "client/transport.h"
#include "client/client_options.h"
#include "client/write_stats.h"
#include "common/status.h"
#include "manager/metadata_manager.h"
#include "manager/types.h"

namespace stdchk {

// What Close() achieved.
enum class CloseOutcome {
  kCommitted,           // chunk map committed at the manager
  kStashedForRecovery,  // manager down; map stashed on benefactors
};

class CommitCoordinator {
 public:
  CommitCoordinator(MetadataManager* manager, Transport* transport,
                    CheckpointName name, const ClientOptions& options,
                    WriteStats* stats);

  // ---- Reservation lifecycle (batch-aware) ---------------------------------
  // Ensures a stripe reservation exists and covers `upcoming` more bytes.
  // The first call asks the manager to pick the stripe (ReserveStripe).
  // The uploader calls this once per flush batch, not per chunk, so
  // extension RPCs amortize over the batch.
  Status EnsureReservation(std::uint64_t upcoming);
  void ConsumeReserved(std::uint64_t bytes);
  const std::vector<NodeId>& stripe() const { return reservation_.stripe; }

  // Stripe failover: swap `dead` for a fresh donor via the manager, which
  // also migrates the reserved-byte accounting. Returns the replacement.
  Result<NodeId> ReplaceStripeMember(NodeId dead);

  // ---- Chunk-map assembly (slots stay in file order) -----------------------
  // Claims the next chunk-map slot for `id`, advancing the file offset.
  std::size_t AddSlot(const ChunkId& id, std::uint32_t size);
  void SetReplicas(std::size_t slot, std::vector<NodeId> replicas);
  // Marks the slot erasure-coded: k+m shard locations (data first, parity
  // after) instead of whole replicas.
  void SetShards(std::size_t slot, int k, int m,
                 std::vector<ShardLocation> shards);

  // Batched compare-by-hash dedup (§IV.C): one manager round trip per
  // drain, not per chunk. Returns, for each id, the live replica list of
  // an already-stored copy (empty = novel, must upload). Dedup is strictly
  // best-effort — any manager error yields all-novel rather than failing,
  // so the caller's drained chunks are never stranded between the planner
  // and the uploader.
  std::vector<std::vector<NodeId>> LocateReusable(
      const std::vector<ChunkId>& ids);

  // References an already-stored chunk in the map instead of uploading it.
  void ReuseExisting(const ChunkId& id, std::uint32_t size,
                     std::vector<NodeId> replicas);

  std::uint64_t file_size() const { return file_offset_; }
  const ChunkMap& map() const { return map_; }
  // Parallel to map().chunks: true for slots satisfied by dedup reuse.
  const std::vector<bool>& slot_reused() const { return slot_reused_; }

  // ---- Session end ---------------------------------------------------------
  // Atomic commit of the assembled map; stash-for-recovery on manager
  // outage; releases the reservation on terminal failure.
  Result<CloseOutcome> Commit();
  // Abort path: drop the reservation so GC reclaims orphaned chunks.
  void ReleaseReservation();

 private:
  Status StashOnStripe(const VersionRecord& record);

  MetadataManager* manager_;
  Transport* transport_;
  CheckpointName name_;
  const ClientOptions& options_;
  WriteStats* stats_;

  WriteReservation reservation_;
  bool have_reservation_ = false;
  std::uint64_t reserved_remaining_ = 0;

  ChunkMap map_;
  std::vector<bool> slot_reused_;
  std::uint64_t file_offset_ = 0;
};

}  // namespace stdchk
