// The centralized metadata manager (paper §IV.A).
//
// Maintains all system metadata: donor status (soft state), file chunk
// distribution, dataset attributes, versioning and replication state. Data
// never flows through the manager — clients receive a stripe / chunk map
// and talk to benefactors directly.
//
// Background work (heartbeat expiry, repair, retention, reservation GC)
// advances through explicit Tick*() pumps so tests are deterministic;
// core/BackgroundDriver wraps them in a thread for the examples.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ranges>
#include <set>
#include <string>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/status.h"
#include "manager/benefactor_registry.h"
#include "manager/file_catalog.h"
#include "manager/types.h"
#include "manager/virtual_clock.h"

namespace stdchk {

struct ManagerOptions {
  // Soft-state expiry: a benefactor silent for longer is considered gone.
  ClockTime heartbeat_expiry_us = 10'000'000;  // 10 s
  // Eager reservations unused for longer are garbage collected (§IV.A:
  // "if this space is not used, it is asynchronously garbage collected").
  ClockTime reservation_ttl_us = 60'000'000;  // 60 s
  // Repair commands issued per TickRepair() call, for each kind: up to
  // this many replica commands and as many shard commands. Bounding this
  // implements "creation of new files has priority over replication": the
  // scheduler trickles copies instead of flooding benefactors.
  int max_replications_per_tick = 8;
  // Number of independently locked FileCatalog shards. 1 keeps the
  // historical single-map catalog, bit for bit; N spreads folder and chunk
  // state over N locks so commits, reads, GC and retention on different
  // shards proceed concurrently.
  int catalog_shards = 1;
};

// Control-plane counters for observability and the scale bench.
struct ManagerCounters {
  // Stripes the manager picked: one per ReserveStripe (one per written
  // file) plus one per failover ReplaceReservationNode.
  std::uint64_t server_side_placements = 0;
  // Shard records released by version deletion/purge — the metadata half
  // of shard-group GC (physical bytes follow via the GC exchange).
  std::uint64_t shard_records_released = 0;
  std::vector<CatalogShardStats> catalog_shards;
};

class MetadataManager {
 public:
  MetadataManager(const VirtualClock* clock, ManagerOptions options = {});

  // ---- Availability (manager-failure experiments) ------------------------
  // Crash() makes every RPC fail Unavailable; committed catalog state is
  // durable and survives Restart(). In-flight (un-committed) chunk maps are
  // exactly what the benefactor-assisted recovery protocol recovers.
  void Crash() { up_.store(false); }
  void Restart() { up_.store(true); }
  bool IsUp() const { return up_.load(); }

  // ---- Benefactor-facing RPCs --------------------------------------------
  Result<NodeId> RegisterBenefactor(const BenefactorInfo& info);
  Status Heartbeat(NodeId node, std::uint64_t free_bytes);

  // GC exchange (§IV.A): the benefactor reports the full set of chunks it
  // stores; the reply lists the chunks it may delete (orphans).
  Result<std::vector<ChunkId>> GcExchange(NodeId node,
                                          const std::vector<ChunkId>& held);

  // Manager-recovery protocol (§IV.A): after a manager failure, clients
  // stash the final chunk map on the write stripe's benefactors; once the
  // manager is back, each benefactor offers the stashed map. The version
  // commits when two-thirds of the stripe width concur.
  Status OfferRecoveredVersion(NodeId from, const VersionRecord& record,
                               int stripe_width);

  // ---- Client-facing RPCs --------------------------------------------------
  // Eagerly reserves `bytes` across a stripe of `width` benefactors. The
  // manager picks every stripe: the online donors with the most effective
  // free space (BenefactorRegistry::SelectStripe).
  Result<WriteReservation> ReserveStripe(int width, std::uint64_t bytes);
  // Extends an existing reservation (incremental space allocation: stdchk
  // "cannot predict in advance the file size", §IV.A).
  Status ExtendReservation(ReservationId id, std::uint64_t additional_bytes);
  Status ReleaseReservation(ReservationId id);

  // Stripe failover: the client observed `dead` failing its puts. Swaps it
  // for a fresh donor inside the reservation, moving the dead node's
  // reserved-byte accounting to the replacement, and returns the
  // replacement's id. Prefers donors outside the current stripe; fails
  // Unavailable when no distinct replacement exists.
  Result<NodeId> ReplaceReservationNode(ReservationId id, NodeId dead);

  // Atomic commit of a version's chunk map — the session-semantics commit
  // point. Releases the reservation (id 0 = no reservation). Replicas on
  // benefactors that departed since placement are dropped and erasure
  // shards on them are marked lost in place; the commit fails
  // FailedPrecondition if a chunk would be left with no live replica or
  // fewer than k live shards. A committed map never names a departed donor.
  Status CommitVersion(ReservationId id, const VersionRecord& record);

  Result<VersionRecord> GetVersion(const CheckpointName& name) const;
  Result<VersionRecord> GetLatest(const std::string& app,
                                  const std::string& node) const;
  Result<std::vector<CheckpointName>> ListVersions(const std::string& app) const;
  Result<std::vector<std::string>> ListApps() const;

  // Dedup support (§IV.C content addressability): replica locations for
  // each of `ids`, empty for a chunk the system does not store or holds on
  // no live replica. A client references the non-empty ones instead of
  // transferring them.
  Result<std::vector<std::vector<NodeId>>> LocateChunks(
      const std::vector<ChunkId>& ids) const;

  Status SetFolderPolicy(const std::string& app, const FolderPolicy& policy);
  Result<FolderPolicy> GetFolderPolicy(const std::string& app) const;
  Status DeleteVersion(const CheckpointName& name);
  Result<std::size_t> DeleteApp(const std::string& app);

  // ---- Background pumps -----------------------------------------------------
  // Expires stale benefactors; drops their replicas from the catalog.
  // Returns the ids of newly expired nodes.
  std::vector<NodeId> TickExpiry();

  // Background repair: one catalog walk (FindRepairable) per call, and one
  // rule for every copy. A whole chunk wants its replication target, each
  // shard position of an erasure-coded group wants 1, and a copy gets
  // (want - live holders - in-flight targets) RepairCommands. A target is
  // outside the chunk's or group's holders and every in-flight target of
  // its copies, so one death keeps costing a group at most one shard.
  // Replica commands (missing_index -1) come first, then shard commands, a
  // chunk's commands back to back, each kind within its own budget of
  // max_replications_per_tick (file creation keeps priority over repair).
  // The caller (StdchkCluster::Tick) reads each chunk once per kind through
  // the read engine, PUTs every copy to its target, and must call AckRepair
  // with each command's outcome.
  std::vector<RepairCommand> TickRepair();
  // Commands of each kind issued and not yet acked. They read the
  // in-flight set under mu_ — the -Wthread-safety sweep caught a previous
  // lock-free read racing the scheduler and the acks.
  std::size_t pending_replications() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return static_cast<std::size_t>(
        std::ranges::count(std::views::values(inflight_), false));
  }
  std::size_t pending_shard_repairs() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return static_cast<std::size_t>(
        std::ranges::count(std::views::values(inflight_), true));
  }
  // Retires a command from the in-flight set and, on success, records the
  // target as a holder of the copy and charges it the copy's bytes.
  Status AckRepair(const RepairCommand& cmd, bool success);

  // Applies retention policies; returns purged version names.
  std::vector<CheckpointName> TickRetention();

  // Reclaims expired reservations.
  void TickReservationGc();

  // Chunks that lost every replica since the last call (data loss events;
  // surfaced for monitoring / tests).
  std::vector<ChunkId> TakeLostChunks();

  // ---- Hot-standby snapshots (§IV.A) ---------------------------------------
  // Serializes all durable metadata (catalog + registry). Transient state —
  // reservations, in-flight repairs, recovery offers — is deliberately
  // excluded: reservations are client-renewable, repair re-derives from
  // the catalog, and offers are re-pushed by benefactors.
  Bytes SaveSnapshot() const;
  // Replaces this manager's durable state with the snapshot and clears all
  // transient state, as a promoted standby would. The manager comes back
  // up regardless of prior Crash() state.
  Status LoadSnapshot(ByteSpan snapshot);

  // ---- Introspection -----------------------------------------------------
  const FileCatalog& catalog() const { return catalog_; }
  const BenefactorRegistry& registry() const { return registry_; }
  BenefactorRegistry& registry_mutable() { return registry_; }
  ManagerCounters Counters() const;

 private:
  struct Reservation {
    ReservationId id = 0;
    std::vector<NodeId> stripe;
    // Reserved bytes charged to each stripe member so far: release and
    // migration hand back exactly this.
    std::uint64_t per_node = 0;
    ClockTime last_touch = 0;
  };

  Status CheckUp() const {
    return up_.load() ? OkStatus()
                      : UnavailableError("metadata manager is down");
  }
  void ReleaseReservationLocked(
      std::map<ReservationId, Reservation>::iterator it) REQUIRES(mu_);

  const VirtualClock* clock_;
  ManagerOptions options_;
  std::atomic<bool> up_{true};

  // Control-plane lock, scoped to reservations_, inflight_, offers_ and
  // lost_chunks_. The registry is internally locked (rank kRegistry) and
  // the catalog is internally sharded and thread-safe, so catalog-only
  // RPCs (reads, commits, deletes, dedup lookups) never touch mu_ — they
  // contend only on their shard. Lock order where several layers nest:
  // mu_ (kManager) before registry mu_ (kRegistry) before catalog shard
  // locks (kCatalogFolder/kCatalogChunk) — none of those call back into
  // the manager, and the rank validator enforces the order.
  mutable Mutex mu_{LockRank::kManager, 0, "metadata_manager"};

  std::atomic<std::uint64_t> stat_server_placements_{0};

  BenefactorRegistry registry_;
  FileCatalog catalog_;

  ReservationId next_reservation_ GUARDED_BY(mu_) = 1;
  std::map<ReservationId, Reservation> reservations_ GUARDED_BY(mu_);

  // Repair commands issued but not yet acked, keyed by (copy, target) so
  // the scheduler does not double-issue: a copy is the chunk id for a
  // replica, the shard's id for a shard. The value tells a shard.
  std::map<std::pair<ChunkId, NodeId>, bool> inflight_ GUARDED_BY(mu_);

  // Recovery offers: (version name, chunk-map fingerprint) -> endorsers.
  std::map<std::pair<std::string, std::uint64_t>, std::set<NodeId>> offers_
      GUARDED_BY(mu_);

  std::vector<ChunkId> lost_chunks_ GUARDED_BY(mu_);
};

}  // namespace stdchk
