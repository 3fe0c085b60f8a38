#include "client/placement.h"

namespace stdchk {

std::vector<NodeId> RoundRobinPlacement::PlanChunk(
    const std::vector<NodeId>& stripe) {
  std::vector<NodeId> walk;
  if (stripe.empty()) return walk;
  std::size_t attempts = stripe.size() * 2 + 4;
  walk.reserve(attempts);
  for (std::size_t i = 0; i < attempts; ++i) {
    walk.push_back(cursor_.Peek(stripe, i));
  }
  return walk;
}

void RoundRobinPlacement::OnChunkPlaced(const std::vector<NodeId>& stripe) {
  cursor_.Advance(stripe.size());
}

}  // namespace stdchk
