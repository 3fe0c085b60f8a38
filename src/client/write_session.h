// One open-for-write file: the client proxy's side of session semantics.
//
// WriteSession is a thin facade over the staged write engine:
//
//   ChunkPlanner       buffering + chunk-boundary decisions (any Chunker)
//   ChunkUploader      round-robin placement over the stripe, per-benefactor
//                      queues, batched multi-chunk PUTs, erasure encoding
//   CommitCoordinator  reservation growth, dedup queries, atomic commit,
//                      stash-for-recovery when the manager is down
//
// The application streams bytes in with Write(); the configured protocol
// (§IV.B) decides when sealed chunks leave the client: SW pushes as
// produced, IW flushes per completed increment, CLW spills locally and
// drains everything at Close(). All three commit identical chunk maps —
// Close() pushes whatever remains, then commits atomically; until that
// commit no reader can observe the file (paper §IV.A, session semantics).
#pragma once

#include <cstdint>

#include "client/transport.h"
#include "client/chunk_planner.h"
#include "client/chunk_uploader.h"
#include "client/client_options.h"
#include "client/commit_coordinator.h"
#include "client/write_stats.h"
#include "common/status.h"
#include "manager/metadata_manager.h"
#include "manager/types.h"

namespace stdchk {

class WriteSession {
 public:
  WriteSession(MetadataManager* manager, Transport* transport,
               CheckpointName name, ClientOptions options);
  ~WriteSession();

  WriteSession(const WriteSession&) = delete;
  WriteSession& operator=(const WriteSession&) = delete;

  // Appends application data (checkpoint images are written sequentially).
  Status Write(ByteSpan data);

  // Flush + atomic commit. Idempotent: second call is an error.
  Result<CloseOutcome> Close();

  // Abandons the write: releases the reservation; pushed chunks become
  // orphans and are reclaimed by GC.
  void Abort();

  const WriteStats& stats() const { return stats_; }
  bool closed() const { return closed_; }

  // Introspection on the assembled chunk map (committed only after a
  // successful Close): the map itself, which slots were satisfied by
  // compare-by-hash reuse, and the file size so far.
  const ChunkMap& chunk_map() const { return coordinator_.map(); }
  const std::vector<bool>& chunk_reused() const {
    return coordinator_.slot_reused();
  }
  std::uint64_t file_size() const { return coordinator_.file_size(); }

 private:
  // Seals what the planner can release, filters chunks the system already
  // stores (compare-by-hash dedup), and stages the rest for upload.
  Status StageSealedChunks(bool final);
  // Drains the uploader if anything is pending; one network drain point.
  Status FlushPending();

  ClientOptions options_;
  WriteStats stats_;

  ChunkPlanner planner_;
  CommitCoordinator coordinator_;
  ChunkUploader uploader_;

  bool closed_ = false;
  bool aborted_ = false;
};

}  // namespace stdchk
