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
  // skips destructors.
  MutexLock lock(mu_);
  for (const auto& [handle, fetch] : inflight_) {
    (void)transport_->Cancel(handle);
  }
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
    // Erasure-coded chunks bypass the replica window: ChunkData fetches
    // their shards on demand (already overlapped across k benefactors).
    // Exception: chunks ChunkData demoted to the replica path after a
    // failed shard recovery (mixed-mode fallback).
    if (chunks[i].erasure_coded() && !replica_fallback_.contains(i)) continue;
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
  std::map<NodeId, std::vector<std::size_t>> queues;
  for (std::size_t i : unrequested) {
    if (inflight_chunks_.size() >= max_inflight) break;
    Result<NodeId> pick = PickReplica(i);
    if (!pick.ok()) {
      // Read-ahead misses stay soft; only the demand chunk is fatal.
      if (i == demand) return pick.status();
      continue;
    }
    queues[pick.value()].push_back(i);
    inflight_chunks_.insert(i);
  }

  // One GET carries `indices`' chunks from `node`.
  auto submit = [&](NodeId node, std::vector<std::size_t> indices) {
    std::vector<ChunkId> ids;
    ids.reserve(indices.size());
    for (std::size_t i : indices) ids.push_back(chunks[i].id);
    if (indices.size() == 1) {
      ++stats_.single_gets;
    } else {
      ++stats_.batch_gets;
    }
    OpHandle h = transport_->Submit(ChunkOp::GetBatch(node, std::move(ids)));
    inflight_.emplace(h, Fetch{std::move(indices), node});
  };
  for (auto& [node, indices] : queues) {
    // Chunks flagged for solo retry (after a batch rejection) go out alone
    // so failures are attributed precisely; the rest of a node's window
    // share one GET.
    std::vector<std::size_t> batchable;
    for (std::size_t i : indices) {
      if (singles_only_.contains(i)) {
        submit(node, {i});
      } else {
        batchable.push_back(i);
      }
    }
    if (!batchable.empty()) submit(node, std::move(batchable));
  }
  stats_.inflight_peak = std::max(stats_.inflight_peak,
                                  inflight_chunks_.size());
  return OkStatus();
}

Status ReadSession::HarvestOne(std::size_t demand) {
  std::vector<OpHandle> handles;
  handles.reserve(inflight_.size());
  for (const auto& [h, fetch] : inflight_) handles.push_back(h);
  STDCHK_ASSIGN_OR_RETURN(OpCompletion c, transport_->WaitAny(handles));
  auto it = inflight_.find(c.handle);
  Fetch fetch = std::move(it->second);
  inflight_.erase(it);
  for (std::size_t i : fetch.indices) inflight_chunks_.erase(i);

  if (c.status.ok()) {
    // The node answered: rehabilitate it if a drop had marked it dead, and
    // let its chunks batch again — both marks describe transient states.
    dead_nodes_.erase(fetch.node);
    if (fetch.indices.size() == 1) singles_only_.erase(fetch.indices[0]);
    for (std::size_t j = 0; j < fetch.indices.size(); ++j) {
      Insert(fetch.indices[j], std::move(c.batch[j]));
    }
    stats_.chunks_fetched += fetch.indices.size();
    EvictToBudget(demand);
    return OkStatus();
  }

  stats_.failovers += fetch.indices.size();
  for (std::size_t i : fetch.indices) ++fetch_attempts_[i];
  if (c.status.code() == StatusCode::kUnavailable) {
    // Node-level failure: remember the node so later picks skip it, and
    // walk every affected chunk on to its next replica.
    dead_nodes_.insert(fetch.node);
    for (std::size_t i : fetch.indices) failed_replicas_[i].insert(fetch.node);
  } else if (fetch.indices.size() > 1) {
    // A batch rejected wholesale for a chunk-level reason (one chunk
    // missing or corrupt) says nothing about the other chunks on this
    // node: retry each alone so the bad chunk is pinpointed.
    for (std::size_t i : fetch.indices) singles_only_.insert(i);
  } else {
    failed_replicas_[fetch.indices[0]].insert(fetch.node);
  }
  return OkStatus();
}

Result<const BufferSlice*> ReadSession::ChunkData(std::size_t index) {
  const ChunkLocation& loc = record_.chunk_map.chunks[index];
  if (loc.erasure_coded()) {
    if (auto it = cache_index_.find(index); it != cache_index_.end()) {
      return &it->second->data;
    }
    Result<BufferSlice> data = FetchErasure(index);
    if (!data.ok()) {
      // Mixed-mode escape hatch: a chunk can carry whole replicas besides
      // its shard group (dedup reuse of a replication-era copy). Only then
      // is a full-replica fallback even possible — and the EC acceptance
      // bar is that it never fires for pure erasure files.
      if (loc.replicas.empty()) return data.status();
      ++stats_.full_replica_fallbacks;
      replica_fallback_.insert(index);
    } else {
      Insert(index, std::move(data.value()));
      EvictToBudget(index);
      return &cache_index_.find(index)->second->data;
    }
  }
  while (true) {
    if (auto it = cache_index_.find(index); it != cache_index_.end()) {
      return &it->second->data;
    }
    STDCHK_RETURN_IF_ERROR(PumpWindow(index));
    if (auto it = cache_index_.find(index); it != cache_index_.end()) {
      return &it->second->data;
    }
    if (inflight_.empty()) {
      return InternalError("read engine stalled with no fetch in flight");
    }
    STDCHK_RETURN_IF_ERROR(HarvestOne(index));
  }
}

Result<BufferSlice> ReadSession::FetchErasure(std::size_t index) {
  const ChunkLocation& loc = record_.chunk_map.chunks[index];
  const int k = loc.ec_k;
  const int m = loc.ec_m;
  const int total = k + m;
  if (static_cast<int>(loc.shards.size()) != total) {
    return DataLossError("chunk " + loc.id.ToHex() +
                         " has a malformed shard group");
  }
  const std::size_t shard_size = ErasureShardSize(loc.size, k);

  std::vector<std::optional<BufferSlice>> got(
      static_cast<std::size_t>(total));
  int have = 0;
  // Zero-length tail data shards (chunk smaller than (k-1) shard widths)
  // are virtually present: nothing stored, nothing to fetch.
  for (int s = 0; s < k; ++s) {
    if (ErasureShardLength(loc.size, k, s) == 0) {
      got[static_cast<std::size_t>(s)] = BufferSlice();
      ++have;
    }
  }

  // One GET per shard — group members sit on distinct benefactors by
  // construction, so the k data fetches overlap across k nodes. Parity
  // shards are requested only to cover failures, one per loss.
  std::map<OpHandle, int> pending;
  auto submit = [&](int s) -> bool {
    const ShardLocation& sl = loc.shards[static_cast<std::size_t>(s)];
    if (sl.node == kInvalidNode) return false;  // departed, awaiting repair
    OpHandle h = transport_->Submit(ChunkOp::GetBatch(sl.node, {sl.id}));
    pending.emplace(h, s);
    ++stats_.single_gets;
    return true;
  };
  int next_extra = k;
  for (int s = 0; s < k; ++s) {
    if (got[static_cast<std::size_t>(s)].has_value()) continue;
    if (!submit(s)) {
      while (next_extra < total && !submit(next_extra)) ++next_extra;
      if (next_extra < total) ++next_extra;
    }
  }

  while (have < k && !pending.empty()) {
    std::vector<OpHandle> handles;
    handles.reserve(pending.size());
    for (const auto& [h, s] : pending) handles.push_back(h);
    STDCHK_ASSIGN_OR_RETURN(OpCompletion c, transport_->WaitAny(handles));
    int s = pending.at(c.handle);
    pending.erase(c.handle);
    const NodeId node = loc.shards[static_cast<std::size_t>(s)].node;
    if (c.status.ok()) {
      dead_nodes_.erase(node);
      got[static_cast<std::size_t>(s)] = std::move(c.batch.front());
      ++have;
      ++stats_.shard_fetches;
      if (s >= k) ++stats_.parity_shard_fetches;
      continue;
    }
    ++stats_.failovers;
    if (c.status.code() == StatusCode::kUnavailable) dead_nodes_.insert(node);
    // Walk on to the next untried shard to cover this loss.
    while (next_extra < total && !submit(next_extra)) ++next_extra;
    if (next_extra < total) ++next_extra;
  }
  if (have < k) {
    return DataLossError("only " + std::to_string(have) + " of the required " +
                         std::to_string(k) + " shards of chunk " +
                         loc.id.ToHex() + " are reachable");
  }

  // Reassemble: direct data shards copy into place, missing ones decode
  // straight into their region of the chunk buffer (prefix recovery — no
  // scratch shard buffers).
  Bytes assembled(loc.size, 0);
  std::vector<int> want;
  std::vector<MutableByteSpan> outs;
  for (int s = 0; s < k; ++s) {
    std::size_t len = ErasureShardLength(loc.size, k, s);
    if (len == 0) continue;
    MutableByteSpan region(
        assembled.data() + static_cast<std::size_t>(s) * shard_size, len);
    const auto& shard = got[static_cast<std::size_t>(s)];
    if (shard.has_value()) {
      if (shard->size() != len) {
        return DataLossError("shard " + std::to_string(s) + " of chunk " +
                             loc.id.ToHex() + " has the wrong stored size");
      }
      std::memcpy(region.data(), shard->data(), len);
    } else {
      want.push_back(s);
      outs.push_back(region);
    }
  }
  // Reassembly is the one real copy of the EC read path (k scattered shard
  // buffers into one contiguous chunk); account it honestly.
  copy_stats::RecordCopy(loc.size);
  if (!want.empty()) {
    STDCHK_ASSIGN_OR_RETURN(ReedSolomon rs, ReedSolomon::Create(k, m));
    std::vector<std::optional<ByteSpan>> views(static_cast<std::size_t>(total));
    for (int s = 0; s < total; ++s) {
      const auto& shard = got[static_cast<std::size_t>(s)];
      if (shard.has_value()) views[static_cast<std::size_t>(s)] = shard->span();
    }
    STDCHK_RETURN_IF_ERROR(rs.RecoverShards(views, shard_size, want, outs));
    ++stats_.reconstructions;
  }

  // Content-based addressability doubles as the integrity check: the
  // reassembled (possibly reconstructed) chunk must hash to its address.
  BufferSlice out(BufferRef::Take(std::move(assembled)));
  ChunkId actual = ChunkId::For(out.span());
  if (actual != loc.id) {
    return DataLossError("chunk " + loc.id.ToHex() +
                         " failed integrity verification after reassembly");
  }
  out.StampDigest(actual.digest);
  return out;
}

void ReadSession::Insert(std::size_t index, BufferSlice data) {
  if (cache_index_.contains(index)) return;
  cache_bytes_ += data.size();
  stats_.cache_bytes_peak = std::max<std::uint64_t>(stats_.cache_bytes_peak,
                                                    cache_bytes_);
  cache_.push_back(Cached{index, std::move(data)});
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
    cache_bytes_ -= it->data.size();
    cache_index_.erase(it->index);
    it = cache_.erase(it);
    ++stats_.cache_evictions;
  }
}

Status ReadSession::Walk(std::uint64_t offset, std::uint64_t length,
                         const std::function<void(ByteSpan)>& sink) {
  // The failover budget bounds retries within one call; a fresh call gets
  // a fresh budget (links heal, nodes restart), like the pre-pipelined
  // reader whose every attempt re-swept the replica set.
  fetch_attempts_.clear();

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
    STDCHK_ASSIGN_OR_RETURN(const BufferSlice* data, ChunkData(i));
    if (was_cached) ++stats_.cache_hits;

    std::uint64_t chunk_off = pos - c.file_offset;
    std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(c.size - chunk_off, end - pos));
    sink(ByteSpan(data->data() + chunk_off, n));
    pos += n;
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
