// Cluster-wide observability snapshot: what an operator's dashboard (or a
// test assertion) wants to know about a running stdchk pool.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "manager/file_catalog.h"  // CatalogShardStats

namespace stdchk {

class StdchkCluster;

struct NodeStats {
  std::string host;
  bool online = false;
  std::uint64_t bytes_used = 0;
  // Memory pinned by slice-aliasing storage (each retained drain-generation
  // backing counted once at full size). The bytes_used/resident_bytes gap
  // is the over-retention cost of zero-copy inserts under high dedup.
  std::uint64_t resident_bytes = 0;
  std::uint64_t capacity = 0;
  std::size_t chunk_count = 0;
};

struct ClusterStats {
  // Pool.
  std::size_t benefactors_total = 0;
  std::size_t benefactors_online = 0;
  std::uint64_t capacity_bytes = 0;
  std::uint64_t stored_bytes = 0;  // physical bytes on donors (w/ replicas)
  std::uint64_t resident_bytes = 0;  // memory pinned across donors

  // Catalog.
  std::size_t versions = 0;
  std::size_t applications = 0;
  std::uint64_t logical_bytes = 0;  // sum of committed file sizes
  std::uint64_t unique_bytes = 0;   // after compare-by-hash dedup

  // Background machinery: repair commands (replica and shard) issued and
  // not yet acked.
  std::size_t pending_repairs = 0;
  // Live compaction across the pool (sums of per-node ChunkStoreStats):
  // dead-byte reclamation progress. resident_bytes minus stored_bytes is
  // the gap compaction exists to close.
  std::uint64_t segments_compacted = 0;
  std::uint64_t generations_released = 0;
  std::uint64_t compacted_bytes_rewritten = 0;

  // Metadata plane: sharded catalog + manager placement. The shard vector
  // has one entry per catalog shard; the scalar catalog_* fields are sums
  // across shards. server_side_placements counts the stripes the manager
  // picked (ManagerCounters). placement_table_fetches is always 0 — clients
  // hold no placement table — and stays only for readers that still add
  // the two into one placement-RPC figure.
  std::size_t catalog_shards = 0;
  std::uint64_t catalog_ops = 0;
  std::uint64_t catalog_lock_acquisitions = 0;
  std::uint64_t catalog_lock_contended = 0;
  std::uint64_t placement_table_fetches = 0;
  std::uint64_t server_side_placements = 0;
  std::vector<CatalogShardStats> catalog_shard_stats;

  // Transport.
  std::uint64_t rpcs = 0;
  std::uint64_t network_bytes = 0;

  std::vector<NodeStats> nodes;

  // Effective space efficiency of incremental checkpointing: logical bytes
  // the applications wrote per unique byte stored.
  double dedup_factor() const {
    return unique_bytes ? static_cast<double>(logical_bytes) /
                              static_cast<double>(unique_bytes)
                        : 1.0;
  }
  double utilization() const {
    return capacity_bytes ? static_cast<double>(stored_bytes) /
                                static_cast<double>(capacity_bytes)
                          : 0.0;
  }
};

// Collects a consistent snapshot from a cluster (declared here, defined in
// cluster_stats.cc to keep cluster.h lean).
ClusterStats CollectStats(StdchkCluster& cluster);

}  // namespace stdchk
