// Shared vocabulary types for the manager <-> benefactor <-> client
// protocols.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chunk/chunk.h"

namespace stdchk {

// Wall-ish time in the functional cluster, in microseconds. Driven by a
// VirtualClock so tests control heartbeat expiry and purge policies.
using ClockTime = std::int64_t;

// Soft-state record a benefactor publishes when registering (paper §IV.A:
// benefactors "publish their status and free space using soft-state
// registration").
struct BenefactorInfo {
  std::string host;
  std::uint64_t total_bytes = 0;
  std::uint64_t free_bytes = 0;
};

// The manager's view of one benefactor.
struct BenefactorStatus {
  NodeId id = kInvalidNode;
  BenefactorInfo info;
  ClockTime last_heartbeat = 0;
  bool online = false;
  std::uint64_t reserved_bytes = 0;  // eager reservations not yet committed
};

// Checkpoint naming convention (paper §IV.D): "A.Ni.Tj stands for an
// application A, running on node Ni and checkpointing at timestep Tj."
struct CheckpointName {
  std::string app;
  std::string node;
  std::uint64_t timestep = 0;

  std::string ToString() const;

  // Parses "A.N3.T17"-style names. The app part may itself contain dots;
  // the last two dot-separated fields must be the node and T<j> timestep.
  static std::optional<CheckpointName> Parse(const std::string& name);
};

// Lifetime-management policies for an application folder (paper §IV.D).
enum class RetentionPolicy {
  kNoIntervention,   // keep all versions indefinitely
  kAutomatedReplace, // a newly committed image obsoletes older ones
  kAutomatedPurge,   // images are purged after a fixed age
};

struct FolderPolicy {
  RetentionPolicy retention = RetentionPolicy::kNoIntervention;
  // For kAutomatedPurge: age after which an image is purged.
  ClockTime purge_age_us = 0;
  // For kAutomatedReplace: number of most-recent timesteps to keep (the
  // paper keeps the newest; keeping N>=1 generalizes it).
  int keep_last = 1;
  // Desired replica count for data availability (user-defined replication
  // target, paper §IV.A).
  int replication_target = 1;
};

// A committed file version in the catalog.
struct VersionRecord {
  CheckpointName name;
  ChunkMap chunk_map;
  std::uint64_t size = 0;
  ClockTime commit_time = 0;
  int replication_target = 1;
};

// Write-session reservation: the stripe of benefactors picked for a write
// plus an identifier so unused eager reservations can be garbage collected.
using ReservationId = std::uint64_t;

struct WriteReservation {
  ReservationId id = 0;
  std::vector<NodeId> stripe;        // round-robin targets, in order
  std::uint64_t reserved_bytes = 0;  // per the eager-reservation request
};

// One background repair command: restore one lost copy of `chunk` on
// `target`. The manager's scheduler (MetadataManager::TickRepair) decides
// only what to rebuild and where; the executor reads the chunk through the
// read engine like any client and PUTs the copy, then acks the outcome
// back to the manager.
// - A replica (missing_index -1) restores the replication target: `chunk`
//   lists its online holders in ascending id order, and the copy is the
//   chunk itself.
// - A shard (missing_index >= 0) restores the m-loss margin: `chunk` is
//   the erasure-coded group, one online holder per shard position and
//   kInvalidNode where none is left, and the copy is the decoded shard at
//   `missing_index` (data first).
struct RepairCommand {
  ChunkLocation chunk;
  int missing_index = -1;
  NodeId target = kInvalidNode;  // receives the copy
};

}  // namespace stdchk
