// Soft-state registry of storage donors (paper §IV.A).
//
// Benefactors register and then refresh their record with periodic
// heartbeats carrying free-space figures. A benefactor whose heartbeat is
// older than the expiry window is considered offline: it is excluded from
// new stripes and its replicas no longer count toward replication targets.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/status.h"
#include "manager/types.h"
#include "manager/virtual_clock.h"

namespace stdchk {

// Thread-safe: guarded by its own mutex (rank kRegistry). Historically the
// registry relied on the manager's control-plane lock, but the registry()/
// registry_mutable() accessors let tests and stats code call it directly —
// which raced with manager mutations. The internal lock closes that race;
// the manager may hold its own mu_ (rank kManager) while calling in.
class BenefactorRegistry {
 public:
  BenefactorRegistry(const VirtualClock* clock, ClockTime heartbeat_expiry_us)
      : clock_(clock), heartbeat_expiry_us_(heartbeat_expiry_us) {}

  // Registers a new benefactor; returns its assigned node id.
  NodeId Register(const BenefactorInfo& info);

  // Refreshes soft state. Re-registers transparently if the node was
  // expired (the paper's soft-state model: presence == recent heartbeat).
  Status Heartbeat(NodeId node, std::uint64_t free_bytes);

  // Marks a node administratively offline (owner reclaimed the desktop).
  Status SetOffline(NodeId node);

  // Expires nodes whose heartbeat is stale. Returns the newly offline ids.
  std::vector<NodeId> ExpireStale();

  bool IsOnline(NodeId node) const;
  // The members of `nodes` that are offline or unknown, in input order.
  std::vector<NodeId> OfflineAmong(const std::vector<NodeId>& nodes) const;
  Result<BenefactorStatus> Get(NodeId node) const;
  std::vector<NodeId> OnlineNodes() const;
  std::size_t online_count() const;

  // Picks a stripe of `width` online benefactors, preferring most free
  // space (ties broken by round-robin cursor so load spreads). `exclude`
  // lists nodes that must not be picked (e.g. nodes already holding the
  // chunk when building a shadow map). Fails if fewer than `width`
  // candidates exist.
  Result<std::vector<NodeId>> SelectStripe(
      int width, const std::vector<NodeId>& exclude = {}) const;
  // SelectStripe plus AddReserved(bytes_per_member) on every pick, under one
  // lock: concurrent writers see each other's reservations and spread out.
  Result<std::vector<NodeId>> SelectAndReserve(int width,
                                               std::uint64_t bytes_per_member);

  // Eager space reservation bookkeeping (paper §IV.A: "clients eagerly
  // reserve space with the manager for future writes").
  void AddReserved(NodeId node, std::uint64_t bytes);
  void ReleaseReserved(NodeId node, std::uint64_t bytes);

  // Accounts a committed chunk against the node's free space.
  void AddUsed(NodeId node, std::uint64_t bytes);
  void ReleaseUsed(NodeId node, std::uint64_t bytes);

  // ---- Snapshot support -----------------------------------------------------
  std::vector<BenefactorStatus> Export() const;
  NodeId next_id() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return next_id_;
  }
  void Import(const std::vector<BenefactorStatus>& nodes, NodeId next_id);

 private:
  std::vector<NodeId> OnlineNodesLocked() const REQUIRES(mu_);
  Result<std::vector<NodeId>> SelectStripeLocked(
      int width, const std::vector<NodeId>& exclude) const REQUIRES(mu_);

  const VirtualClock* clock_;
  ClockTime heartbeat_expiry_us_;
  mutable Mutex mu_{LockRank::kRegistry, 0, "benefactor_registry"};
  NodeId next_id_ GUARDED_BY(mu_) = 1;
  std::map<NodeId, BenefactorStatus> nodes_ GUARDED_BY(mu_);
  // mutable: SelectStripe is a logically-const read that advances the
  // tie-break cursor.
  mutable std::uint64_t rr_cursor_ GUARDED_BY(mu_) = 0;
};

}  // namespace stdchk
