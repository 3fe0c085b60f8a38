// Layer 2 of the staged write engine: moving sealed chunks to benefactors.
//
// Staged chunks accumulate in an ordered pending set; Flush() drains them
// through per-benefactor queues as batched multi-chunk PUTs, submitted
// through the async transport so every target node (and every batch slice)
// is in flight simultaneously — the drain's wall time is the slowest link,
// not the sum of links. The three §IV.B protocols differ only in when they
// call Flush(): SW after every sealed chunk, IW once per completed
// increment, CLW once at close.
//
// One drain serves both redundancy modes. Its placement unit is either a
// whole chunk that needs `need` replicas, or — in erasure-coded mode
// (ClientOptions::erasure) — one of the chunk's k+m shards, which needs one
// node. Erasure flushes first encode each chunk into k data-shard views + m
// parity shards (GF(256) SIMD kernels, parity rows fanned across the shared
// HashPool) and name every shard by its own content hash. Every chunk walks
// the write stripe round-robin from a cursor that advances one member per
// chunk (§IV.A striping); shard s walks the chunk's walk rotated by s, so a
// group fans out across the stripe. A chunk never puts two of its units on
// one node: one death costs a chunk at most one replica or one shard.
// Failover re-routes a rejected batch wholesale: the dead stripe member is
// swapped for a fresh donor (CommitCoordinator::ReplaceStripeMember) and
// the affected units walk on to their next candidates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <vector>

#include "client/chunk_planner.h"
#include "client/client_options.h"
#include "client/commit_coordinator.h"
#include "client/transport.h"
#include "client/write_stats.h"
#include "common/status.h"
#include "common/striping.h"
#include "erasure/reed_solomon.h"

namespace stdchk {

class ChunkUploader {
 public:
  ChunkUploader(Transport* transport, CommitCoordinator* coordinator,
                const ClientOptions& options, WriteStats* stats);

  // Queues one sealed chunk for upload. Its chunk-map slot is claimed
  // immediately (map order == staging order == file order); the replicas
  // or shards are filled in when a flush lands it.
  void Stage(StagedChunk chunk);

  // Drains every pending chunk. Optimistic replication needs one replica
  // per chunk, pessimistic the full replication target (§IV.A tunable
  // write semantics), erasure coding all k+m shards — parity is the
  // durability, so there is no optimistic shortfall. A failed flush
  // settles nothing: stored replicas stay pending, so a retry tops up only
  // what is missing, while erasure re-encodes (shard puts are
  // content-addressed, so re-sending a stored shard is an idempotent no-op
  // at the benefactor).
  Status Flush();

  std::size_t pending_chunks() const { return pending_.size(); }

 private:
  // One placement unit: a whole chunk or one of its erasure shards.
  struct Unit {
    ChunkPut put;
    int need = 1;                // distinct nodes that must accept it
    std::vector<NodeId> placed;  // nodes that accepted it, in order
    std::vector<NodeId> walk;    // remaining placement candidates
  };
  struct Pending {
    StagedChunk chunk;
    std::size_t map_slot = 0;
    std::vector<Unit> units;  // the whole chunk, or its k+m shards
    // Nodes holding or receiving one of this chunk's units.
    std::set<NodeId> nodes;
  };

  // Replaces every pending chunk's units with its k+m freshly encoded and
  // named shards.
  Status EncodeShards();
  // Places every unit: rounds of walk steps, batched PUTs and failover,
  // until no unit short of its need has a candidate left.
  Status Drain();

  Transport* transport_;
  CommitCoordinator* coordinator_;
  const ClientOptions& options_;
  WriteStats* stats_;

  RoundRobinCursor cursor_;
  std::deque<Pending> pending_;
  std::uint64_t pending_bytes_ = 0;
  // Codec for ClientOptions::erasure, built on the first erasure flush.
  std::optional<ReedSolomon> rs_;
};

}  // namespace stdchk
