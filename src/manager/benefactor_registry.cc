#include "manager/benefactor_registry.h"

#include <algorithm>

#include "common/rolling_hash.h"  // Mix64

namespace stdchk {

NodeId BenefactorRegistry::Register(const BenefactorInfo& info) {
  MutexLock lock(mu_);
  NodeId id = next_id_++;
  BenefactorStatus status;
  status.id = id;
  status.info = info;
  status.last_heartbeat = clock_->NowUs();
  status.online = true;
  nodes_[id] = status;
  return id;
}

Status BenefactorRegistry::Heartbeat(NodeId node, std::uint64_t free_bytes) {
  MutexLock lock(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    return NotFoundError("heartbeat from unregistered node");
  }
  it->second.last_heartbeat = clock_->NowUs();
  it->second.online = true;
  it->second.info.free_bytes = free_bytes;
  return OkStatus();
}

Status BenefactorRegistry::SetOffline(NodeId node) {
  MutexLock lock(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return NotFoundError("unknown node");
  it->second.online = false;
  return OkStatus();
}

std::vector<NodeId> BenefactorRegistry::ExpireStale() {
  MutexLock lock(mu_);
  std::vector<NodeId> expired;
  ClockTime now = clock_->NowUs();
  for (auto& [id, status] : nodes_) {
    if (status.online && now - status.last_heartbeat > heartbeat_expiry_us_) {
      status.online = false;
      expired.push_back(id);
    }
  }
  return expired;
}

bool BenefactorRegistry::IsOnline(NodeId node) const {
  MutexLock lock(mu_);
  auto it = nodes_.find(node);
  return it != nodes_.end() && it->second.online;
}

std::vector<NodeId> BenefactorRegistry::OfflineAmong(
    const std::vector<NodeId>& nodes) const {
  MutexLock lock(mu_);
  std::vector<NodeId> out;
  for (NodeId node : nodes) {
    auto it = nodes_.find(node);
    if (it == nodes_.end() || !it->second.online) out.push_back(node);
  }
  return out;
}

Result<BenefactorStatus> BenefactorRegistry::Get(NodeId node) const {
  MutexLock lock(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return NotFoundError("unknown node");
  return it->second;
}

std::vector<NodeId> BenefactorRegistry::OnlineNodesLocked() const {
  std::vector<NodeId> out;
  for (const auto& [id, status] : nodes_) {
    if (status.online) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> BenefactorRegistry::OnlineNodes() const {
  MutexLock lock(mu_);
  return OnlineNodesLocked();
}

std::size_t BenefactorRegistry::online_count() const {
  MutexLock lock(mu_);
  return OnlineNodesLocked().size();
}

Result<std::vector<NodeId>> BenefactorRegistry::SelectStripe(
    int width, const std::vector<NodeId>& exclude) const {
  MutexLock lock(mu_);
  return SelectStripeLocked(width, exclude);
}

Result<std::vector<NodeId>> BenefactorRegistry::SelectAndReserve(
    int width, std::uint64_t bytes_per_member) {
  MutexLock lock(mu_);
  STDCHK_ASSIGN_OR_RETURN(std::vector<NodeId> stripe,
                          SelectStripeLocked(width, {}));
  for (NodeId node : stripe) nodes_.at(node).reserved_bytes += bytes_per_member;
  return stripe;
}

Result<std::vector<NodeId>> BenefactorRegistry::SelectStripeLocked(
    int width, const std::vector<NodeId>& exclude) const {
  if (width <= 0) return InvalidArgumentError("stripe width must be > 0");

  // Most free space first; a per-call hashed tie-break spreads equally-free
  // donors across successive stripes.
  struct Candidate {
    NodeId id;
    std::uint64_t effective_free;
    std::uint64_t tie_break;
  };
  std::uint64_t cursor = rr_cursor_++;
  std::vector<Candidate> candidates;
  candidates.reserve(nodes_.size());
  for (const auto& [id, status] : nodes_) {
    if (!status.online) continue;
    if (std::find(exclude.begin(), exclude.end(), id) != exclude.end()) {
      continue;
    }
    std::uint64_t free = status.info.free_bytes > status.reserved_bytes
                             ? status.info.free_bytes - status.reserved_bytes
                             : 0;
    candidates.push_back(
        Candidate{id, free, Mix64(id * 0x9E3779B97F4A7C15ull + cursor)});
  }
  if (static_cast<int>(candidates.size()) < width) {
    return UnavailableError("not enough online benefactors for stripe width " +
                            std::to_string(width));
  }

  // Only the top `width` need ordering: O(n log width) under the lock.
  auto top = candidates.begin() + width;
  std::partial_sort(candidates.begin(), top, candidates.end(),
                    [](const Candidate& a, const Candidate& b) {
                      if (a.effective_free != b.effective_free) {
                        return a.effective_free > b.effective_free;
                      }
                      return a.tie_break < b.tie_break;
                    });

  std::vector<NodeId> stripe;
  stripe.reserve(static_cast<std::size_t>(width));
  for (auto it = candidates.begin(); it != top; ++it) stripe.push_back(it->id);
  return stripe;
}

void BenefactorRegistry::AddReserved(NodeId node, std::uint64_t bytes) {
  MutexLock lock(mu_);
  auto it = nodes_.find(node);
  if (it != nodes_.end()) it->second.reserved_bytes += bytes;
}

void BenefactorRegistry::ReleaseReserved(NodeId node, std::uint64_t bytes) {
  MutexLock lock(mu_);
  auto it = nodes_.find(node);
  if (it != nodes_.end()) {
    it->second.reserved_bytes =
        it->second.reserved_bytes > bytes ? it->second.reserved_bytes - bytes
                                          : 0;
  }
}

std::vector<BenefactorStatus> BenefactorRegistry::Export() const {
  MutexLock lock(mu_);
  std::vector<BenefactorStatus> out;
  out.reserve(nodes_.size());
  for (const auto& [id, status] : nodes_) out.push_back(status);
  return out;
}

void BenefactorRegistry::Import(const std::vector<BenefactorStatus>& nodes,
                                NodeId next_id) {
  MutexLock lock(mu_);
  nodes_.clear();
  for (const BenefactorStatus& status : nodes) {
    nodes_[status.id] = status;
  }
  next_id_ = next_id;
}

void BenefactorRegistry::AddUsed(NodeId node, std::uint64_t bytes) {
  MutexLock lock(mu_);
  auto it = nodes_.find(node);
  if (it != nodes_.end()) {
    it->second.info.free_bytes = it->second.info.free_bytes > bytes
                                     ? it->second.info.free_bytes - bytes
                                     : 0;
  }
}

void BenefactorRegistry::ReleaseUsed(NodeId node, std::uint64_t bytes) {
  MutexLock lock(mu_);
  auto it = nodes_.find(node);
  if (it != nodes_.end()) it->second.info.free_bytes += bytes;
}

}  // namespace stdchk
