#include "client/chunk_uploader.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "common/hash_pool.h"
#include "common/log.h"

namespace stdchk {
namespace {

// Upper bound on chunks coalesced into one batched multi-chunk PUT by the
// per-benefactor queues.
constexpr std::size_t kMaxBatchChunks = 64;

}  // namespace

ChunkUploader::ChunkUploader(Transport* transport,
                             CommitCoordinator* coordinator,
                             const ClientOptions& options, WriteStats* stats)
    : transport_(transport),
      coordinator_(coordinator),
      options_(options),
      stats_(stats) {}

void ChunkUploader::Stage(StagedChunk chunk) {
  Pending p;
  p.map_slot = coordinator_->AddSlot(
      chunk.id, static_cast<std::uint32_t>(chunk.data.size()));
  pending_bytes_ += chunk.data.size();
  p.chunk = std::move(chunk);
  pending_.push_back(std::move(p));
}

Status ChunkUploader::Flush() {
  if (pending_.empty()) return OkStatus();
  const bool erasure = options_.erasure.enabled();
  const int k = options_.erasure.k;
  const int m = options_.erasure.m;
  if (erasure && !rs_.has_value()) {
    STDCHK_ASSIGN_OR_RETURN(ReedSolomon rs, ReedSolomon::Create(k, m));
    rs_.emplace(std::move(rs));
  }

  // Batch-aware reservation: one ensure covers the whole drain instead of
  // one manager round trip per chunk. Reserved bytes are what the manager
  // holds against the stripe while the write is open, so they include the
  // parity overhead.
  std::uint64_t upload_bytes = pending_bytes_;
  if (erasure) {
    for (const Pending& p : pending_) {
      upload_bytes += static_cast<std::uint64_t>(m) *
                      ErasureShardSize(
                          static_cast<std::uint32_t>(p.chunk.data.size()), k);
    }
  }
  STDCHK_RETURN_IF_ERROR(coordinator_->EnsureReservation(upload_bytes));
  if (erasure) {
    STDCHK_RETURN_IF_ERROR(EncodeShards());
  } else {
    const int need = options_.semantics == WriteSemantics::kPessimistic
                         ? std::max(1, options_.replication_target)
                         : 1;
    for (Pending& p : pending_) {
      if (!p.units.empty()) continue;  // a retry keeps stored replicas
      Unit whole;
      whole.put = ChunkPut(p.chunk.id, p.chunk.data);
      whole.need = need;
      p.units.push_back(std::move(whole));
    }
  }
  STDCHK_RETURN_IF_ERROR(Drain());

  // Validate the whole drain before settling anything: a failed flush
  // must leave pending_ (including replicas already stored) intact, so a
  // retry tops up what is missing instead of re-uploading and
  // double-consuming the reservation.
  for (const Pending& p : pending_) {
    for (const Unit& u : p.units) {
      if (static_cast<int>(u.placed.size()) >= u.need) continue;
      if (erasure) {
        return UnavailableError(
            "could not stripe all " + std::to_string(k + m) +
            " erasure shards across distinct benefactors");
      }
      if (u.placed.empty()) {
        return UnavailableError("could not store chunk on any benefactor");
      }
      return UnavailableError(
          "pessimistic write could not reach replication target " +
          std::to_string(u.need));
    }
  }
  for (Pending& p : pending_) {
    std::uint64_t consumed = 0;
    for (const Unit& u : p.units) consumed += u.put.data.size();
    coordinator_->ConsumeReserved(consumed);
    if (erasure) {
      std::vector<ShardLocation> shards;
      shards.reserve(p.units.size());
      for (const Unit& u : p.units) {
        shards.push_back(ShardLocation{u.put.id, u.placed.front()});
      }
      coordinator_->SetShards(p.map_slot, k, m, std::move(shards));
    } else {
      coordinator_->SetReplicas(p.map_slot, std::move(p.units[0].placed));
    }
  }
  pending_.clear();
  pending_bytes_ = 0;
  return OkStatus();
}

Status ChunkUploader::EncodeShards() {
  const int k = options_.erasure.k;
  const int m = options_.erasure.m;
  if (static_cast<int>(coordinator_->stripe().size()) < k + m) {
    return UnavailableError(
        "erasure-coded write needs a stripe of at least k+m = " +
        std::to_string(k + m) + " benefactors, stripe has " +
        std::to_string(coordinator_->stripe().size()));
  }
  HashPool& pool = HashPool::Shared();
  const int workers = HashPool::ResolveThreads(options_.hash_workers);

  for (Pending& p : pending_) {
    const std::uint32_t size = static_cast<std::uint32_t>(p.chunk.data.size());
    const std::size_t shard_size = ErasureShardSize(size, k);
    std::vector<BufferSlice> slices(static_cast<std::size_t>(k + m));
    std::vector<ByteSpan> views(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
      // Data shards are zero-copy views of the staged chunk, stored
      // unpadded: the tail shard is short and the codec zero-pads it
      // virtually.
      std::size_t len = ErasureShardLength(size, k, j);
      std::size_t off = std::min(static_cast<std::size_t>(j) * shard_size,
                                 p.chunk.data.size());
      slices[static_cast<std::size_t>(j)] = p.chunk.data.Subslice(off, len);
      views[static_cast<std::size_t>(j)] =
          slices[static_cast<std::size_t>(j)].span();
    }
    auto t0 = std::chrono::steady_clock::now();
    STDCHK_ASSIGN_OR_RETURN(
        std::vector<Bytes> parity,
        rs_->EncodeParity(views, shard_size, &pool, workers));
    stats_->erasure_encode_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    for (int i = 0; i < m; ++i) {
      slices[static_cast<std::size_t>(k + i)] = BufferSlice(
          BufferRef::Take(std::move(parity[static_cast<std::size_t>(i)])));
    }
    // Content-address every shard (benefactor admission verifies against
    // it); naming fans across the shared pool under the same deterministic
    // slot-per-index rule as the planner's drain naming.
    std::vector<ChunkId> ids(slices.size());
    pool.ParallelFor(slices.size(), workers, [&](std::size_t i) {
      ids[i] = ChunkId::For(slices[i].span());
    });
    ++stats_->erasure_encoded_chunks;

    p.units.assign(slices.size(), Unit{});
    for (std::size_t s = 0; s < slices.size(); ++s) {
      ChunkPut& put = p.units[s].put;
      put = ChunkPut(ids[s], std::move(slices[s]));
      put.group = p.chunk.id;
      put.shard_index = static_cast<std::int32_t>(s);
      put.data.StampDigest(put.id.digest);
    }
  }
  return OkStatus();
}

Status ChunkUploader::Drain() {
  // Every chunk walks the stripe from the cursor, which advances one member
  // per chunk so successive chunks spread round-robin. The walk wraps twice
  // plus slack — every member gets a retry before a unit is declared
  // unplaceable — and its length is the unit's whole failover budget:
  // every step spends one candidate.
  const std::vector<NodeId>& stripe = coordinator_->stripe();
  std::vector<NodeId> walk(stripe.empty() ? 0 : stripe.size() * 2 + 4);
  for (Pending& p : pending_) {
    for (std::size_t i = 0; i < walk.size(); ++i) {
      walk[i] = cursor_.Peek(stripe, i);
    }
    cursor_.Advance(stripe.size());
    p.nodes.clear();
    for (std::size_t s = 0; s < p.units.size(); ++s) {
      // Unit s starts s steps in, so a shard group fans out across the
      // stripe instead of queueing on its head.
      Unit& u = p.units[s];
      u.walk = walk;
      if (!walk.empty()) {
        std::rotate(u.walk.begin(),
                    u.walk.begin() +
                        static_cast<std::ptrdiff_t>(s % walk.size()),
                    u.walk.end());
      }
      p.nodes.insert(u.placed.begin(), u.placed.end());
    }
  }

  struct Queued {
    Pending* chunk;
    Unit* unit;
  };
  struct InflightBatch {
    NodeId node;
    std::vector<Queued> items;
  };
  // Drain rounds: each unit still short of its need takes its next walk
  // candidate not already used by its chunk, every target node's queue goes
  // out as batched PUTs — all nodes concurrently — and the round's
  // completions are harvested before the next round.
  while (true) {
    std::map<NodeId, std::vector<Queued>> queues;
    for (Pending& p : pending_) {
      for (Unit& u : p.units) {
        if (static_cast<int>(u.placed.size()) >= u.need) continue;
        while (!u.walk.empty()) {
          NodeId candidate = u.walk.front();
          u.walk.erase(u.walk.begin());
          if (p.nodes.insert(candidate).second) {
            queues[candidate].push_back(Queued{&p, &u});
            break;
          }
        }
      }
    }
    if (queues.empty()) break;

    // Submit the whole round before waiting on any of it.
    std::map<OpHandle, InflightBatch> inflight;
    for (auto& [node, queue] : queues) {
      for (std::size_t begin = 0; begin < queue.size();
           begin += kMaxBatchChunks) {
        std::size_t end = std::min(queue.size(), begin + kMaxBatchChunks);
        InflightBatch batch{
            node, {queue.begin() + static_cast<std::ptrdiff_t>(begin),
                   queue.begin() + static_cast<std::ptrdiff_t>(end)}};
        std::vector<ChunkPut> puts;
        puts.reserve(batch.items.size());
        for (const Queued& q : batch.items) puts.push_back(q.unit->put);
        inflight.emplace(
            transport_->Submit(ChunkOp::PutBatch(node, std::move(puts))),
            std::move(batch));
      }
    }
    stats_->inflight_put_peak =
        std::max<std::uint64_t>(stats_->inflight_put_peak, inflight.size());

    std::set<NodeId> replaced_this_round;
    while (!inflight.empty()) {
      std::vector<OpHandle> handles;
      handles.reserve(inflight.size());
      for (const auto& [h, b] : inflight) handles.push_back(h);
      STDCHK_ASSIGN_OR_RETURN(OpCompletion c, transport_->WaitAny(handles));
      auto it = inflight.find(c.handle);
      InflightBatch batch = std::move(it->second);
      inflight.erase(it);

      if (c.status.ok()) {
        ++stats_->batched_puts;
        for (const Queued& q : batch.items) {
          const ChunkPut& put = q.unit->put;
          q.unit->placed.push_back(batch.node);
          stats_->bytes_transferred += put.data.size();
          ++stats_->replica_puts;
          if (put.shard_index >= options_.erasure.k) {
            ++stats_->parity_shards_written;
            stats_->parity_bytes_written += put.data.size();
          } else if (put.shard_index >= 0) {
            ++stats_->data_shards_written;
          }
        }
        continue;
      }
      // The node rejected the batch (offline, unreachable, full): free it
      // in each affected chunk so the units can walk on, then swap it out
      // of the stripe and patch *every* walk in place — walks were planned
      // from the pre-failure stripe, so the fresh donor must take over the
      // dead node's walk positions (units outside this batch must see it
      // too). Without a replacement, drop the dead node so walks stop
      // burning failover budget on it. Later completions from the same
      // node this round fail consistently and skip the (already done)
      // replacement.
      STDCHK_LOG(kDebug, "client")
          << "batch put of " << batch.items.size() << " chunks to node "
          << batch.node << " failed: " << c.status.ToString();
      for (const Queued& q : batch.items) q.chunk->nodes.erase(batch.node);
      if (!replaced_this_round.insert(batch.node).second) continue;
      auto fresh = coordinator_->ReplaceStripeMember(batch.node);
      for (Pending& p : pending_) {
        for (Unit& u : p.units) {
          if (fresh.ok()) {
            std::replace(u.walk.begin(), u.walk.end(), batch.node,
                         fresh.value());
          } else {
            u.walk.erase(std::remove(u.walk.begin(), u.walk.end(), batch.node),
                         u.walk.end());
          }
        }
      }
    }
  }
  return OkStatus();
}

}  // namespace stdchk
