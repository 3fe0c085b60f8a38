// Layer 2 of the staged write engine: replica placement within a stripe.
//
// The metadata manager picks every write stripe (ReserveStripe, backed by
// the registry's free-space-aware SelectStripe); this layer only orders
// each chunk's replica targets inside that stripe. Extracted from
// WriteSession's inline round-robin so the selection discipline is
// pluggable (locality- or load-aware policies slot in behind the same
// interface) and shared — the perf write-pipeline models stripe with the
// same RoundRobinCursor (common/striping.h).
#pragma once

#include <string>
#include <vector>

#include "chunk/chunk.h"
#include "common/striping.h"

namespace stdchk {

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  // Plans an ordered candidate walk for the next chunk's replicas: the
  // uploader tries candidates in order until enough distinct nodes accept,
  // and the walk length bounds its failover attempts. The walk may repeat
  // stripe members (a retry after transient loss is legitimate).
  virtual std::vector<NodeId> PlanChunk(const std::vector<NodeId>& stripe) = 0;

  // One chunk fully placed: advance whatever cursor the policy keeps so
  // successive chunks spread over the stripe.
  virtual void OnChunkPlaced(const std::vector<NodeId>& stripe) = 0;

  virtual std::string name() const = 0;
};

// The paper's striping discipline (§IV.A): walk the stripe round-robin,
// wrapping twice (plus slack) so every member gets a retry before a chunk
// is declared unplaceable.
class RoundRobinPlacement final : public PlacementPolicy {
 public:
  std::vector<NodeId> PlanChunk(const std::vector<NodeId>& stripe) override;
  void OnChunkPlaced(const std::vector<NodeId>& stripe) override;
  std::string name() const override { return "round-robin"; }

 private:
  RoundRobinCursor cursor_;
};

}  // namespace stdchk
