// StdchkCluster — the top-level public API of the functional system.
//
// Wires a metadata manager, a pool of benefactors, an in-process transport
// and client proxies into one object, and pumps all background work
// (heartbeats, soft-state expiry, replica and shard repair, GC exchanges,
// retention, reservation GC) through a single deterministic Tick().
// Examples that want wall-clock behaviour wrap Tick() in
// core/BackgroundDriver.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "benefactor/benefactor.h"
#include "client/client_proxy.h"
#include "core/local_transport.h"
#include "manager/metadata_manager.h"
#include "manager/virtual_clock.h"

namespace stdchk {

struct ClusterOptions {
  int benefactor_count = 8;
  std::uint64_t capacity_per_node = 4_GiB;
  ManagerOptions manager;
  ClientOptions client;
  // When set, benefactors persist chunks under <dir>/node<i>/ instead of
  // holding them in memory.
  std::string disk_root;
  // When set, each benefactor's store is passed through this decorator
  // before use (benches and tests wrap stores to inject copies, faults or
  // accounting).
  std::function<std::unique_ptr<ChunkStore>(std::unique_ptr<ChunkStore>)>
      store_decorator;
  // When true, Tick() runs one throttled CompactStep() per online
  // benefactor (step 6), reclaiming dead segment/generation bytes under
  // live traffic. Off by default so existing tests see byte-identical
  // segment layouts; `compaction` carries the threshold and per-step
  // rewrite budget.
  bool compaction_enabled = false;
  CompactionPolicy compaction;
};

class StdchkCluster {
 public:
  explicit StdchkCluster(ClusterOptions options = {});

  // ---- Component access ----------------------------------------------------
  VirtualClock& clock() { return clock_; }
  MetadataManager& manager() { return *manager_; }
  LocalTransport& transport() { return transport_; }
  ClientProxy& client() { return *default_client_; }
  std::size_t benefactor_count() const { return benefactors_.size(); }
  Benefactor& benefactor(std::size_t idx) { return *benefactors_[idx]; }
  // The benefactor owning `node`, or nullptr.
  Benefactor* FindBenefactor(NodeId node);

  // Additional client proxies (multi-writer scenarios).
  std::unique_ptr<ClientProxy> MakeClient(const ClientOptions& options);

  // Adds a benefactor at runtime (desktop joins the grid).
  Result<NodeId> AddBenefactor(std::uint64_t capacity_bytes);

  // ---- Failure control -------------------------------------------------------
  // Desktop reclaimed/crashed: stops serving, data survives restart.
  Status CrashBenefactor(std::size_t idx);
  Status RestartBenefactor(std::size_t idx);

  // ---- Background pump -------------------------------------------------------
  struct TickReport {
    std::vector<NodeId> expired;
    std::size_t replication_commands = 0;
    std::size_t replication_failures = 0;
    // Erasure-coded shard repair (k-survivor maintenance): rebuilds
    // executed this tick, and how many failed.
    std::size_t shard_repair_commands = 0;
    std::size_t shard_repair_failures = 0;
    std::vector<CheckpointName> purged;
    std::size_t gc_reclaimed_chunks = 0;
    std::size_t recovered_versions_offered = 0;
  };
  // Advances the virtual clock by `advance_seconds`, then runs one round of
  // every background protocol in dependency order.
  TickReport Tick(double advance_seconds = 1.0);

  // Runs Tick() until repair has converged and GC has drained, or
  // `max_ticks` rounds elapse. Returns ticks used.
  std::size_t Settle(std::size_t max_ticks = 64);

 private:
  // Executes the repair commands of one chunk and one kind (all with the
  // same chunk.id, all replicas or all shards): reads the chunk once
  // through the read engine (any live holder, with the engine's failover,
  // or any k reachable shards of a group, the chunk checked against its
  // address), derives each copy (the chunk itself for a replica; for a
  // shard, every missing one in one decode, each verified against its own
  // address) and PUTs each to its command's target. Returns one status per
  // command: a failed read fails them all, a failed check or PUT only its
  // own. Link cuts, loss draws and the traffic counters see a repair like
  // any client op.
  std::vector<Status> ExecuteRepair(std::span<const RepairCommand> cmds);

  ClusterOptions options_;
  VirtualClock clock_;
  std::unique_ptr<MetadataManager> manager_;
  LocalTransport transport_;
  std::vector<std::unique_ptr<Benefactor>> benefactors_;
  std::unique_ptr<ClientProxy> default_client_;
};

}  // namespace stdchk
