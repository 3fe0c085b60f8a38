#include "core/cluster_stats.h"

#include "core/cluster.h"

namespace stdchk {

ClusterStats CollectStats(StdchkCluster& cluster) {
  ClusterStats stats;
  stats.benefactors_total = cluster.benefactor_count();
  for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
    Benefactor& b = cluster.benefactor(i);
    NodeStats node;
    node.host = b.host();
    node.online = b.online();
    node.bytes_used = b.BytesUsed();
    node.resident_bytes = b.ResidentBytes();
    node.capacity = b.capacity();
    node.chunk_count = b.ChunkCount();
    stats.nodes.push_back(node);

    if (node.online) ++stats.benefactors_online;
    stats.capacity_bytes += node.capacity;
    stats.stored_bytes += node.bytes_used;
    stats.resident_bytes += node.resident_bytes;

    ChunkStoreStats store = b.StoreStats();
    stats.segments_compacted += store.segments_compacted;
    stats.generations_released += store.generations_released;
    stats.compacted_bytes_rewritten += store.compacted_bytes_rewritten;
  }

  const FileCatalog& catalog = cluster.manager().catalog();
  stats.versions = catalog.TotalVersions();
  stats.applications = catalog.ListApps().size();
  stats.logical_bytes = catalog.TotalLogicalBytes();
  stats.unique_bytes = catalog.TotalUniqueBytes();
  stats.pending_repairs = cluster.manager().pending_replications() +
                          cluster.manager().pending_shard_repairs();
  stats.rpcs = cluster.transport().rpc_count();
  stats.network_bytes = cluster.transport().bytes_moved();

  ManagerCounters counters = cluster.manager().Counters();
  stats.server_side_placements = counters.server_side_placements;
  stats.catalog_shard_stats = std::move(counters.catalog_shards);
  stats.catalog_shards = stats.catalog_shard_stats.size();
  for (const CatalogShardStats& shard : stats.catalog_shard_stats) {
    stats.catalog_ops += shard.ops;
    stats.catalog_lock_acquisitions += shard.lock_acquisitions;
    stats.catalog_lock_contended += shard.lock_contended;
  }
  return stats;
}

}  // namespace stdchk
