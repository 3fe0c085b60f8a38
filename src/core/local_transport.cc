#include "core/local_transport.h"

#include <algorithm>
#include <utility>

namespace stdchk {

void LocalTransport::AddEndpoint(Benefactor* benefactor) {
  NodeId node = benefactor->id();
  MutexLock lock(mu_);
  endpoints_[node] = benefactor;
}

void LocalTransport::SetUnreachable(NodeId node, bool unreachable) {
  MutexLock lock(mu_);
  if (unreachable) {
    unreachable_.insert(node);
  } else {
    unreachable_.erase(node);
  }
}

void LocalTransport::SetLossRate(NodeId node, double p) {
  MutexLock lock(mu_);
  loss_rate_[node] = p;
}

void LocalTransport::SetLinkModel(NodeId node, sim::LinkModel model) {
  MutexLock lock(mu_);
  links_[node] = model;
}

SimTime LocalTransport::now() const {
  MutexLock lock(mu_);
  return now_;
}

std::uint64_t LocalTransport::rpc_count() const {
  MutexLock lock(mu_);
  return rpc_count_;
}

std::uint64_t LocalTransport::bytes_moved() const {
  MutexLock lock(mu_);
  return bytes_moved_;
}

std::size_t LocalTransport::inflight_peak() const {
  MutexLock lock(mu_);
  return inflight_peak_;
}

void LocalTransport::ResetInflightPeak() {
  MutexLock lock(mu_);
  inflight_peak_ = pending_.size();
}

std::size_t LocalTransport::InFlight() const {
  MutexLock lock(mu_);
  return pending_.size();
}

Result<Benefactor*> LocalTransport::Route(NodeId node) {
  MutexLock lock(mu_);
  ++rpc_count_;
  auto it = endpoints_.find(node);
  if (it == endpoints_.end()) {
    return UnavailableError("no route to node " + std::to_string(node));
  }
  if (unreachable_.contains(node)) {
    return UnavailableError("node " + std::to_string(node) + " unreachable");
  }
  auto loss = loss_rate_.find(node);
  if (loss != loss_rate_.end() && rng_.NextBool(loss->second)) {
    return UnavailableError("rpc to node " + std::to_string(node) +
                            " dropped");
  }
  return it->second;
}

const sim::LinkModel& LocalTransport::LinkLocked(NodeId node) const {
  static constexpr sim::LinkModel kZeroLink{};
  auto it = links_.find(node);
  return it != links_.end() ? it->second : kZeroLink;
}

struct LocalTransport::ReadCheck {
  std::vector<ChunkId> ids;            // the looked-up prefix of the request
  std::vector<BufferSlice> payloads;   // parallel to ids
  std::vector<Status> verdicts;        // parallel to ids: content checks
  std::vector<std::size_t> deferred;   // positions checked on the pool
  // The failed lookup that ended the prefix, if any. It lies past every
  // checked position, so a failed check takes precedence.
  Status lookup;

  // Delivers the first failure in id order, or the payloads.
  void Settle(OpCompletion& out) {
    out.status = lookup;
    for (Status& verdict : verdicts) {
      if (!verdict.ok()) {
        out.status = std::move(verdict);
        break;
      }
    }
    if (!out.status.ok()) return;
    // The completion aliases the benefactor's stored buffers — the modeled
    // wire charged the bytes, the process never copies them.
    out.batch = std::move(payloads);
  }
};

std::uint64_t LocalTransport::Execute(const ChunkOp& op, Pending& p) {
  OpCompletion& out = p.completion;
  Result<Benefactor*> routed = Route(op.node);
  if (!routed.ok()) {
    out.status = routed.status();
    return 0;
  }
  Benefactor* node = routed.value();
  switch (op.type) {
    case ChunkOpType::kPutChunkBatch: {
      // The bytes hit the wire whether or not the node admits them.
      std::uint64_t total = 0;
      for (const ChunkPut& put : op.puts) total += put.data.size();
      out.status = node->PutChunkBatch(op.puts);
      return total;
    }
    case ChunkOpType::kGetChunkBatch:
      return Read(*node, op.ids, p);
    case ChunkOpType::kStashChunkMap:
      out.status = node->StashChunkMap(op.record, op.stripe_width);
      return 0;
  }
  out.status = InternalError("unknown chunk op type");
  return 0;
}

std::uint64_t LocalTransport::Read(const Benefactor& node,
                                   std::span<const ChunkId> ids, Pending& p) {
  ReadCheck read;
  std::uint64_t bytes = 0;
  for (const ChunkId& id : ids) {
    Result<BufferSlice> got = node.ReadChunk(id);
    if (!got.ok()) {
      read.lookup = got.status();
      break;
    }
    const BufferSlice& data = got.value();
    bytes += data.size();
    if (data.stamped_digest() == nullptr) {
      read.deferred.push_back(read.payloads.size());
      read.verdicts.emplace_back();
    } else {
      // A stamped payload's check is an O(1) digest compare.
      read.verdicts.push_back(Benefactor::VerifyChunk(id, data));
    }
    read.ids.push_back(id);
    read.payloads.push_back(std::move(got).value());
    // A failed compare decides the GET: look nothing further up.
    if (!read.verdicts.back().ok()) break;
  }
  // Like a PUT's, a GET's bytes hit the wire whether or not their check
  // passes. A failed lookup moves nothing.
  if (!read.lookup.ok()) bytes = 0;
  if (read.deferred.empty()) {
    read.Settle(p.completion);
    return bytes;
  }
  // The unstamped payloads re-hash on the pool while the op is in flight.
  // Each task owns what it reads and writes only its own verdict slot, so
  // it takes no lock.
  auto shared = std::make_shared<ReadCheck>(std::move(read));
  std::size_t n = shared->deferred.size();
  p.checking = HashPool::Shared().Spawn(
      n, static_cast<int>(n), [shared](std::size_t i) {
        std::size_t at = shared->deferred[i];
        shared->verdicts[at] =
            Benefactor::VerifyChunk(shared->ids[at], shared->payloads[at]);
      });
  p.read = std::move(shared);
  return bytes;
}

OpCompletion LocalTransport::Deliver(Pending p) {
  if (p.read != nullptr) {
    HashPool::Shared().Join(std::move(p.checking));
    p.read->Settle(p.completion);
  }
  return std::move(p.completion);
}

OpHandle LocalTransport::Submit(ChunkOp op) {
  Pending p;
  p.completion.type = op.type;
  p.completion.node = op.node;
  // Only routing takes mu_ before the benefactor call, in submission
  // order, so a single caller's RPC count and loss draws follow its op
  // order. The call itself runs on this thread with mu_ released:
  // concurrent clients' ops overlap instead of queueing behind one
  // another's verify and fsync.
  std::uint64_t wire = Execute(op, p);

  MutexLock lock(mu_);
  OpHandle handle = next_handle_++;
  p.completion.handle = handle;
  bytes_moved_ += wire;
  // Execution is eager; delivery time follows the node's modeled link.
  p.ready_at = std::max(now_, link_busy_until_[op.node]) +
               LinkLocked(op.node).OpDuration(wire);
  link_busy_until_[op.node] = p.ready_at;
  pending_.emplace(handle, std::move(p));
  inflight_peak_ = std::max(inflight_peak_, pending_.size());
  return handle;
}

LocalTransport::Pending LocalTransport::TakeLocked(
    std::map<OpHandle, Pending>::iterator it) {
  Pending p = std::move(it->second);
  pending_.erase(it);
  return p;
}

Result<OpCompletion> LocalTransport::Wait(OpHandle handle) {
  Pending p;
  {
    MutexLock lock(mu_);
    auto it = pending_.find(handle);
    if (it == pending_.end()) {
      return NotFoundError("wait on unknown or already-delivered op handle " +
                           std::to_string(handle));
    }
    p = TakeLocked(it);
    now_ = std::max(now_, p.ready_at);
  }
  return Deliver(std::move(p));
}

std::map<OpHandle, LocalTransport::Pending>::iterator
LocalTransport::FindEarliestLocked(std::span<const OpHandle> handles,
                                   bool only_ready) {
  auto best = pending_.end();
  for (OpHandle h : handles) {
    auto it = pending_.find(h);
    if (it == pending_.end()) continue;
    if (only_ready && it->second.ready_at > now_) continue;
    // Earliest modeled finish wins; submission order breaks ties.
    if (best == pending_.end() ||
        it->second.ready_at < best->second.ready_at ||
        (it->second.ready_at == best->second.ready_at &&
         it->first < best->first)) {
      best = it;
    }
  }
  return best;
}

Result<OpCompletion> LocalTransport::WaitAny(
    std::span<const OpHandle> handles) {
  Pending p;
  {
    MutexLock lock(mu_);
    if (handles.empty()) {
      return InvalidArgumentError("WaitAny on an empty handle set");
    }
    for (OpHandle h : handles) {
      if (!pending_.contains(h)) {
        return NotFoundError(
            "WaitAny includes an unknown or already-delivered op handle " +
            std::to_string(h));
      }
    }
    p = TakeLocked(FindEarliestLocked(handles, /*only_ready=*/false));
    now_ = std::max(now_, p.ready_at);
  }
  return Deliver(std::move(p));
}

std::optional<OpCompletion> LocalTransport::Poll(
    std::span<const OpHandle> handles) {
  Pending p;
  {
    MutexLock lock(mu_);
    auto best = FindEarliestLocked(handles, /*only_ready=*/true);
    if (best == pending_.end()) return std::nullopt;
    p = TakeLocked(best);
  }
  return Deliver(std::move(p));
}

bool LocalTransport::Cancel(OpHandle handle) {
  Pending p;
  {
    MutexLock lock(mu_);
    auto it = pending_.find(handle);
    if (it == pending_.end()) return false;
    p = TakeLocked(it);
  }
  // Only the reply is dropped; a spawned check is still joined, so no pool
  // task outlives the op.
  (void)Deliver(std::move(p));
  return true;
}

}  // namespace stdchk
