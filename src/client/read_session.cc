#include "client/read_session.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>

#include "erasure/reed_solomon.h"

namespace stdchk {
namespace {

// Asks the kernel to back the whole 2 MiB pages inside [data, data + size)
// with transparent huge pages, so filling a restart image faults once per
// 2 MiB instead of once per 4 KiB. Must run before the range is touched.
// Advice only: nothing happens when the range holds no whole huge page,
// and the call's error on a kernel without THP is ignored.
void AdviseHugePages(void* data, std::size_t size) {
  constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
  const auto start = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t begin = (start + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t end = (start + size) & ~(kHugePage - 1);
  if (begin < end) {
    (void)::madvise(reinterpret_cast<void*>(begin), end - begin,
                    MADV_HUGEPAGE);
  }
}

}  // namespace

ReadSession::ReadSession(Transport* transport, VersionRecord record,
                         ClientOptions options)
    : transport_(transport),
      record_(std::move(record)),
      options_(options) {}

ReadSession::~ReadSession() {
  // Drop replies for anything still in flight so the transport does not
  // accumulate undeliverable completions. Locked for the rank validator's
  // benefit (session rank sits below the transport's); Clang's analysis
  // skips destructors. A whole-chunk check still on the pool is joined as
  // its cache entry is destroyed, as the transport joins a cancelled GET's
  // checks: no pool task outlives the session.
  MutexLock lock(mu_);
  for (const auto& [handle, fetch] : inflight_) {
    (void)transport_->Cancel(handle);
  }
}

ReadSession::ChunkCheck::~ChunkCheck() {
  (void)HashPool::Shared().Join(std::move(batch));
}

std::uint64_t ReadSession::Cached::size() const {
  std::uint64_t bytes = 0;
  for (const BufferSlice& part : parts()) bytes += part.size();
  return bytes;
}

std::size_t ReadSession::WindowEnd(std::size_t demand) const {
  const auto& chunks = record_.chunk_map.chunks;
  const std::size_t slots =
      static_cast<std::size_t>(std::max(0, options_.read_ahead_chunks)) + 1;
  // Every chunk that starts within `slots` transfer chunks of the demand
  // chunk's offset, and never fewer than `slots` chunks.
  const std::uint64_t span_end =
      chunks[demand].file_offset +
      static_cast<std::uint64_t>(slots) * options_.chunk_size;
  auto past = std::partition_point(
      chunks.begin() + static_cast<std::ptrdiff_t>(demand) + 1, chunks.end(),
      [&](const ChunkLocation& c) { return c.file_offset < span_end; });
  const std::size_t by_bytes =
      static_cast<std::size_t>(past - chunks.begin()) - 1;
  return std::min(chunks.size() - 1, std::max(by_bytes, demand + slots - 1));
}

Result<NodeId> ReadSession::PickReplica(std::size_t index) {
  const ChunkLocation& loc = record_.chunk_map.chunks[index];
  if (loc.replicas.empty()) {
    return DataLossError("chunk " + loc.id.ToHex() + " has no replicas");
  }
  auto failed_it = failed_replicas_.find(index);
  auto failed = [&](NodeId n) {
    return failed_it != failed_replicas_.end() && failed_it->second.contains(n);
  };
  // Rotate the starting replica across picks so load spreads over the
  // stripe (round-robin read striping, as in FreeLoader).
  std::size_t start = rr_replica_++ % loc.replicas.size();
  NodeId dead_fallback = kInvalidNode;
  for (std::size_t k = 0; k < loc.replicas.size(); ++k) {
    NodeId n = loc.replicas[(start + k) % loc.replicas.size()];
    if (failed(n)) continue;
    if (dead_nodes_.contains(n)) {
      // Observed dead this session: do not pay a doomed RPC while a live
      // candidate exists.
      ++stats_.dead_replica_skips;
      if (dead_fallback == kInvalidNode) dead_fallback = n;
      continue;
    }
    return n;
  }
  // No live candidate left. A node marked dead may have been a transient
  // drop — retry one before giving up on the chunk.
  if (dead_fallback != kInvalidNode) return dead_fallback;
  // Every replica has failed for this chunk. Failures can be transient
  // (a dropped RPC), so clear the per-chunk blacklist and sweep the
  // replicas again — bounded by a failover budget mirroring the
  // uploader's, after which the chunk is genuinely unreadable.
  if (fetch_attempts_[index] < 2 * loc.replicas.size()) {
    if (failed_it != failed_replicas_.end()) failed_it->second.clear();
    return loc.replicas[start];
  }
  return UnavailableError("no replica of chunk " + loc.id.ToHex() +
                          " reachable");
}

Status ReadSession::PumpWindow(std::size_t demand) {
  const auto& chunks = record_.chunk_map.chunks;
  if (chunks.empty()) return OkStatus();
  const std::size_t window_end = WindowEnd(demand);

  // The window chunks not yet cached or in flight. Both sets are ordered
  // by index, so one merge walk finds them without a lookup per chunk.
  std::vector<std::size_t> unrequested;
  std::uint64_t unrequested_bytes = 0;
  auto cached = cache_index_.lower_bound(demand);
  auto flying = inflight_chunks_.lower_bound(demand);
  for (std::size_t i = demand; i <= window_end; ++i) {
    if (cached != cache_index_.end() && cached->first == i) {
      ++cached;
      continue;
    }
    if (flying != inflight_chunks_.end() && *flying == i) {
      ++flying;
      continue;
    }
    // An erasure-coded chunk whose shards already failed this call is not
    // read ahead again; ChunkData reports it when the reader gets there.
    if (unreadable_.contains(i)) continue;
    unrequested.push_back(i);
    unrequested_bytes += chunks[i].size;
  }
  // Refill in bulk: while the demand chunk is on its way, wait until a
  // whole transfer chunk's worth of the window is free, so small chunks
  // share GETs. A window of chunk_size chunks refills one chunk at a time,
  // as does the tail of the file, whose window cannot grow any further.
  if (inflight_chunks_.contains(demand) && window_end + 1 < chunks.size() &&
      unrequested_bytes < options_.chunk_size) {
    return OkStatus();
  }

  // At most one window's worth of chunks in flight, counting any left over
  // from an earlier window (random access).
  const std::size_t max_inflight = window_end - demand + 1;
  Queues queues;
  for (std::size_t i : unrequested) {
    if (inflight_chunks_.size() >= max_inflight) break;
    // Erasure-coded chunks travel as their data shards, except those
    // ChunkData demoted to the replica path after their shards failed
    // (mixed-mode fallback).
    if (chunks[i].erasure_coded() && !replica_fallback_.contains(i)) {
      inflight_chunks_.insert(i);
      StartGather(i, queues);
      continue;
    }
    Result<NodeId> pick = PickReplica(i);
    if (!pick.ok()) {
      // Read-ahead misses stay soft; only the demand chunk is fatal.
      if (i == demand) return pick.status();
      continue;
    }
    queues[pick.value()].push_back(Piece{i});
    inflight_chunks_.insert(i);
  }

  for (auto& [node, pieces] : queues) {
    // Chunks flagged for solo retry (after a batch rejection) go out alone
    // so failures are attributed precisely; the rest of a node's window
    // share one GET.
    std::vector<Piece> batchable;
    for (const Piece& p : pieces) {
      if (p.shard == Piece::kWhole && singles_only_.contains(p.index)) {
        Submit(node, {p});
      } else {
        batchable.push_back(p);
      }
    }
    if (!batchable.empty()) Submit(node, std::move(batchable));
  }
  stats_.inflight_peak = std::max(stats_.inflight_peak,
                                  inflight_chunks_.size());
  return OkStatus();
}

void ReadSession::Submit(NodeId node, std::vector<Piece> pieces) {
  const auto& chunks = record_.chunk_map.chunks;
  std::vector<ChunkId> ids;
  ids.reserve(pieces.size());
  for (const Piece& p : pieces) {
    const ChunkLocation& loc = chunks[p.index];
    ids.push_back(p.shard == Piece::kWhole
                      ? loc.id
                      : loc.shards[static_cast<std::size_t>(p.shard)].id);
  }
  if (pieces.size() == 1) {
    ++stats_.single_gets;
  } else {
    ++stats_.batch_gets;
  }
  OpHandle h = transport_->Submit(ChunkOp::GetBatch(node, std::move(ids)));
  inflight_.emplace(h, Fetch{std::move(pieces), node});
}

Status ReadSession::HarvestOne(std::size_t demand) {
  std::vector<OpHandle> handles;
  handles.reserve(inflight_.size());
  for (const auto& [h, fetch] : inflight_) handles.push_back(h);
  STDCHK_ASSIGN_OR_RETURN(OpCompletion c, transport_->WaitAny(handles));
  auto it = inflight_.find(c.handle);
  Fetch fetch = std::move(it->second);
  inflight_.erase(it);
  // A whole chunk leaves the in-flight set with its GET; a shard's chunk
  // stays in it until its gather ends.
  for (const Piece& p : fetch.pieces) {
    if (p.shard == Piece::kWhole) inflight_chunks_.erase(p.index);
  }
  // Parity shards asked for to cover this completion's losses, one GET per
  // node.
  Queues cover;

  if (c.status.ok()) {
    // The node answered: rehabilitate it if a drop had marked it dead, and
    // let its chunks batch again — both marks describe transient states.
    dead_nodes_.erase(fetch.node);
    if (fetch.pieces.size() == 1 && fetch.pieces[0].shard == Piece::kWhole) {
      singles_only_.erase(fetch.pieces[0].index);
    }
    for (std::size_t j = 0; j < fetch.pieces.size(); ++j) {
      const Piece& p = fetch.pieces[j];
      if (p.shard == Piece::kWhole) {
        Insert(Cached{p.index, std::move(c.batch[j]), {}, nullptr});
        ++stats_.chunks_fetched;
      } else {
        ++stats_.shard_fetches;
        ShardDone(p.index, p.shard, std::move(c.batch[j]), cover);
      }
    }
  } else {
    stats_.failovers += fetch.pieces.size();
    const bool node_down = c.status.code() == StatusCode::kUnavailable;
    // Node-level failure: remember the node so later picks skip it.
    if (node_down) dead_nodes_.insert(fetch.node);
    for (const Piece& p : fetch.pieces) {
      if (p.shard != Piece::kWhole) {
        if (!node_down && fetch.pieces.size() > 1) {
          // Rejected with its batch for a chunk-level reason, which says
          // nothing about this shard: it goes out again alone, and costs
          // parity only if it fails alone.
          Submit(fetch.node, {p});
        } else {
          ShardDone(p.index, p.shard, std::nullopt, cover);
        }
        continue;
      }
      ++fetch_attempts_[p.index];
      if (node_down) {
        // Walk the chunk on to its next replica.
        failed_replicas_[p.index].insert(fetch.node);
      } else if (fetch.pieces.size() > 1) {
        // A batch rejected wholesale for a chunk-level reason (one chunk
        // missing or corrupt) says nothing about the other chunks on this
        // node: retry each alone so the bad chunk is pinpointed.
        singles_only_.insert(p.index);
      } else {
        failed_replicas_[p.index].insert(fetch.node);
      }
    }
  }
  for (auto& [node, pieces] : cover) Submit(node, std::move(pieces));
  if (c.status.ok()) EvictToBudget(demand);
  return OkStatus();
}

Result<const ReadSession::Cached*> ReadSession::ChunkData(std::size_t index) {
  while (true) {
    if (auto it = cache_index_.find(index); it != cache_index_.end()) {
      Cached& entry = *it->second;
      if (entry.check == nullptr) return &entry;
      (void)HashPool::Shared().Join(std::move(entry.check->batch));
      Status checked = std::move(entry.check->verdict);
      entry.check = nullptr;
      if (checked.ok()) return &entry;
      // The gathered chunk failed its whole-chunk check: none of its bytes
      // reach the caller.
      cache_bytes_ -= entry.size();
      cache_.erase(it->second);
      cache_index_.erase(it);
      ShardsFailed(index, std::move(checked));
      continue;
    }
    if (auto it = unreadable_.find(index); it != unreadable_.end()) {
      return it->second;
    }
    STDCHK_RETURN_IF_ERROR(PumpWindow(index));
    if (cache_index_.contains(index) || unreadable_.contains(index)) continue;
    if (inflight_.empty()) {
      return InternalError("read engine stalled with no fetch in flight");
    }
    STDCHK_RETURN_IF_ERROR(HarvestOne(index));
  }
}

void ReadSession::StartGather(std::size_t index, Queues& queues) {
  const ChunkLocation& loc = record_.chunk_map.chunks[index];
  const int k = loc.ec_k;
  if (loc.shards.size() != static_cast<std::size_t>(k + loc.ec_m)) {
    inflight_chunks_.erase(index);
    ShardsFailed(index, DataLossError("chunk " + loc.id.ToHex() +
                                      " has a malformed shard group"));
    return;
  }
  Gather& g = gathers_[index];
  g.shards.assign(loc.shards.size(), std::nullopt);
  g.next_parity = k;
  for (int s = 0; s < k; ++s) {
    // Zero-length tail data shards (chunk smaller than (k-1) shard widths)
    // are virtually present: nothing stored, nothing to fetch.
    if (ErasureShardLength(loc.size, k, s) == 0) {
      g.shards[static_cast<std::size_t>(s)] = BufferSlice();
      ++g.have;
    } else if (!RequestShard(index, s, queues)) {
      CoverLoss(index, queues);
    }
  }
  SettleGather(index);
}

bool ReadSession::RequestShard(std::size_t index, int shard, Queues& queues) {
  const ShardLocation& sl =
      record_.chunk_map.chunks[index].shards[static_cast<std::size_t>(shard)];
  if (sl.node == kInvalidNode) return false;  // departed, awaiting repair
  queues[sl.node].push_back(Piece{index, shard});
  ++gathers_.at(index).outstanding;
  return true;
}

void ReadSession::CoverLoss(std::size_t index, Queues& queues) {
  Gather& g = gathers_.at(index);
  const int total = static_cast<int>(g.shards.size());
  while (g.next_parity < total) {
    if (RequestShard(index, g.next_parity++, queues)) return;
  }
}

void ReadSession::ShardDone(std::size_t index, int shard,
                            std::optional<BufferSlice> data, Queues& queues) {
  Gather& g = gathers_.at(index);
  --g.outstanding;
  const ChunkLocation& loc = record_.chunk_map.chunks[index];
  // A shard whose length is not its stored length in the group passed its
  // content check against an id that names other bytes: it is as lost as
  // an unreachable one.
  if (data.has_value() &&
      data->size() == ErasureShardLength(loc.size, loc.ec_k, shard)) {
    g.shards[static_cast<std::size_t>(shard)] = std::move(data);
    ++g.have;
    if (shard >= loc.ec_k) ++stats_.parity_shard_fetches;
  } else {
    CoverLoss(index, queues);
  }
  SettleGather(index);
}

void ReadSession::SettleGather(std::size_t index) {
  Gather& g = gathers_.at(index);
  const ChunkLocation& loc = record_.chunk_map.chunks[index];
  const int k = loc.ec_k;
  if (g.have < k && g.outstanding > 0) return;
  Gather done = std::move(g);
  gathers_.erase(index);
  inflight_chunks_.erase(index);
  if (done.have < k) {
    ShardsFailed(index, DataLossError(
                            "only " + std::to_string(done.have) +
                            " of the required " + std::to_string(k) +
                            " shards of chunk " + loc.id.ToHex() +
                            " are reachable"));
    return;
  }

  // Decode each lost data shard into a buffer of its own, straight from
  // the k shards in hand (prefix recovery: just its stored length).
  std::vector<int> want;
  std::vector<Bytes> decoded;
  for (int s = 0; s < k; ++s) {
    if (done.shards[static_cast<std::size_t>(s)].has_value()) continue;
    want.push_back(s);
    decoded.emplace_back(ErasureShardLength(loc.size, k, s));
  }
  if (!want.empty()) {
    std::vector<std::optional<ByteSpan>> views(done.shards.size());
    for (std::size_t s = 0; s < done.shards.size(); ++s) {
      if (done.shards[s].has_value()) views[s] = done.shards[s]->span();
    }
    std::vector<MutableByteSpan> outs(decoded.begin(), decoded.end());
    Result<ReedSolomon> rs = ReedSolomon::Create(k, loc.ec_m);
    Status recovered =
        rs.ok() ? rs.value().RecoverShards(
                      views, ErasureShardSize(loc.size, k), want, outs)
                : rs.status();
    if (!recovered.ok()) {
      ShardsFailed(index, std::move(recovered));
      return;
    }
    for (std::size_t w = 0; w < want.size(); ++w) {
      done.shards[static_cast<std::size_t>(want[w])] =
          BufferSlice(BufferRef::Take(std::move(decoded[w])));
    }
    ++stats_.reconstructions;
  }

  Cached entry{index, {}, {}, std::make_unique<ChunkCheck>()};
  entry.shards.reserve(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    entry.shards.push_back(std::move(*done.shards[static_cast<std::size_t>(s)]));
  }
  // Content-based addressability doubles as the integrity check: the data
  // shards, direct or decoded, must hash to the chunk's address. The check
  // owns what it reads and writes only its verdict, so it takes no lock.
  entry.check->batch = HashPool::Shared().Spawn(
      1, 1,
      [shards = entry.shards, id = loc.id,
       check = entry.check.get()](std::size_t) {
        Sha1Hasher hasher;
        for (const BufferSlice& shard : shards) hasher.Update(shard.span());
        if (ChunkId{hasher.Finish()} != id) {
          check->verdict = DataLossError("chunk " + id.ToHex() +
                                         " failed its whole-chunk check");
        }
      });
  Insert(std::move(entry));
}

void ReadSession::ShardsFailed(std::size_t index, Status why) {
  // Mixed-mode escape hatch: a chunk can carry whole replicas besides its
  // shard group (dedup reuse of a replication-era copy). Only then is a
  // full-replica fallback even possible — and the EC acceptance bar is
  // that it never fires for pure erasure files.
  if (!record_.chunk_map.chunks[index].replicas.empty()) {
    ++stats_.full_replica_fallbacks;
    replica_fallback_.insert(index);
    return;
  }
  unreadable_.emplace(index, std::move(why));
}

void ReadSession::Insert(Cached entry) {
  if (cache_index_.contains(entry.index)) return;
  cache_bytes_ += entry.size();
  stats_.cache_bytes_peak = std::max<std::uint64_t>(stats_.cache_bytes_peak,
                                                    cache_bytes_);
  const std::size_t index = entry.index;
  cache_.push_back(std::move(entry));
  cache_index_[index] = std::prev(cache_.end());
}

void ReadSession::EvictToBudget(std::size_t demand) {
  if (options_.read_cache_budget_bytes == 0) return;
  std::size_t window_end = WindowEnd(demand);
  auto it = cache_.begin();
  while (cache_bytes_ > options_.read_cache_budget_bytes &&
         it != cache_.end()) {
    // Never evict what the active window still needs — a budget below the
    // window size degrades to window-sized caching, not livelock.
    if (it->index >= demand && it->index <= window_end) {
      ++it;
      continue;
    }
    cache_bytes_ -= it->size();
    cache_index_.erase(it->index);
    it = cache_.erase(it);
    ++stats_.cache_evictions;
  }
}

Status ReadSession::Walk(std::uint64_t offset, std::uint64_t length,
                         const std::function<void(ByteSpan)>& sink) {
  // The failover budget bounds retries within one call; a fresh call gets
  // a fresh budget (links heal, nodes restart), like the pre-pipelined
  // reader whose every attempt re-swept the replica set; an erasure-coded
  // chunk whose shards failed gets a fresh gather.
  fetch_attempts_.clear();
  unreadable_.clear();

  const auto& chunks = record_.chunk_map.chunks;
  // Chunks are ordered by file_offset; binary-search the starting chunk.
  std::size_t lo = 0, hi = chunks.size();
  while (lo + 1 < hi) {
    std::size_t mid = (lo + hi) / 2;
    if (chunks[mid].file_offset <= offset) {
      lo = mid;
    } else {
      hi = mid;
    }
  }

  std::uint64_t pos = offset;
  const std::uint64_t end = offset + length;
  for (std::size_t i = lo; i < chunks.size() && pos < end; ++i) {
    const ChunkLocation& c = chunks[i];
    if (pos < c.file_offset) break;  // hole (should not happen)
    if (pos >= c.file_offset + c.size) continue;

    bool was_cached = cache_index_.contains(i);
    STDCHK_ASSIGN_OR_RETURN(const Cached* data, ChunkData(i));
    if (was_cached) ++stats_.cache_hits;

    // The chunk's parts concatenate to its bytes: hand `sink` their share
    // of [pos, min(end, chunk end)).
    std::uint64_t chunk_off = pos - c.file_offset;
    std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(c.size - chunk_off, end - pos));
    for (const BufferSlice& part : data->parts()) {
      if (n == 0) break;
      if (chunk_off >= part.size()) {
        chunk_off -= part.size();
        continue;
      }
      const std::size_t take = std::min<std::size_t>(
          part.size() - static_cast<std::size_t>(chunk_off), n);
      sink(ByteSpan(part.data() + chunk_off, take));
      chunk_off = 0;
      n -= take;
      pos += take;
    }
  }
  return OkStatus();
}

Result<std::size_t> ReadSession::ReadAt(std::uint64_t offset,
                                        MutableByteSpan out) {
  if (offset >= record_.size || out.empty()) return std::size_t{0};

  // Serialize the whole call: the window, cache and failover state are one
  // coherent machine, and ChunkData's returned pointer aliases the cache.
  MutexLock lock(mu_);
  std::size_t written = 0;
  STDCHK_RETURN_IF_ERROR(Walk(offset, out.size(), [&](ByteSpan piece) {
    std::memcpy(out.data() + written, piece.data(), piece.size());
    written += piece.size();
  }));
  return written;
}

Result<Bytes> ReadSession::ReadAll() {
  // Reserved, not sized: no zero-fill pass, and the advice lands before
  // the first append faults the pages in.
  Bytes out;
  out.reserve(record_.size);
  AdviseHugePages(out.data(), out.capacity());

  MutexLock lock(mu_);
  STDCHK_RETURN_IF_ERROR(Walk(0, record_.size, [&](ByteSpan piece) {
    out.insert(out.end(), piece.begin(), piece.end());
  }));
  if (out.size() < record_.size) {
    return DataLossError("short read at offset " + std::to_string(out.size()));
  }
  return out;
}

}  // namespace stdchk
