#include "client/write_session.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace stdchk {

namespace {

ClientOptions ResolveOptions(MetadataManager* manager,
                             const CheckpointName& name,
                             ClientOptions options) {
  // Resolve the effective replication target once, from the folder policy,
  // unless the client overrides it per write.
  if (options.replication_target <= 0) {
    auto policy = manager->GetFolderPolicy(name.app);
    options.replication_target =
        policy.ok() ? policy.value().replication_target : 1;
  }
  // FsCH at the transfer chunk size is the default boundary heuristic; an
  // injected chunker (e.g. CbCH) replaces it wholesale.
  if (!options.chunker) {
    options.chunker = std::make_shared<FixedSizeChunker>(options.chunk_size);
  }
  // Erasure-coded writes stripe k+m shards across distinct stripe members,
  // so the stripe must be at least that wide.
  if (options.erasure.enabled()) {
    options.stripe_width =
        std::max(options.stripe_width, options.erasure.k + options.erasure.m);
  }
  return options;
}

}  // namespace

WriteSession::WriteSession(MetadataManager* manager, Transport* transport,
                           CheckpointName name, ClientOptions options)
    : options_(ResolveOptions(manager, name, std::move(options))),
      planner_(options_.chunker, options_.hash_workers, &stats_),
      coordinator_(manager, transport, std::move(name), options_, &stats_),
      uploader_(transport, &coordinator_, options_, &stats_) {}

WriteSession::~WriteSession() {
  if (!closed_ && !aborted_) Abort();
}

Status WriteSession::StageSealedChunks(bool final) {
  std::vector<StagedChunk> chunks = planner_.Drain(final);
  if (chunks.empty()) return OkStatus();
  stats_.chunks_total += chunks.size();

  // One compare-by-hash round trip covers the whole drain. Best-effort:
  // nothing between Drain() and Stage() may fail, or sealed chunks would
  // be lost from the stream.
  std::vector<std::vector<NodeId>> reuse;
  if (options_.incremental_fsch) {
    std::vector<ChunkId> ids;
    ids.reserve(chunks.size());
    for (const StagedChunk& chunk : chunks) ids.push_back(chunk.id);
    reuse = coordinator_.LocateReusable(ids);
  }

  for (std::size_t i = 0; i < chunks.size(); ++i) {
    StagedChunk& chunk = chunks[i];
    if (!reuse.empty() && !reuse[i].empty()) {
      coordinator_.ReuseExisting(
          chunk.id, static_cast<std::uint32_t>(chunk.data.size()),
          std::move(reuse[i]));
      continue;
    }
    uploader_.Stage(std::move(chunk));
  }
  return OkStatus();
}

Status WriteSession::FlushPending() {
  if (uploader_.pending_chunks() == 0) return OkStatus();
  ++stats_.flushes;
  return uploader_.Flush();
}

Status WriteSession::Write(ByteSpan data) {
  if (closed_ || aborted_) {
    return FailedPreconditionError("write on closed session");
  }
  planner_.Append(data);
  stats_.bytes_written += data.size();
  stats_.max_buffered_bytes =
      std::max<std::uint64_t>(stats_.max_buffered_bytes,
                              planner_.buffered_bytes());

  switch (options_.protocol) {
    case WriteProtocol::kCompleteLocal:
      // Everything spills to local storage; pushed at Close().
      stats_.bytes_spilled_local += data.size();
      return OkStatus();
    case WriteProtocol::kIncremental:
      // Increments land in local temp files; each completed temp file is
      // pushed (in one batched drain) while the app writes the next.
      stats_.bytes_spilled_local += data.size();
      if (planner_.buffered_bytes() >= options_.increment_size) {
        STDCHK_RETURN_IF_ERROR(StageSealedChunks(/*final=*/false));
        return FlushPending();
      }
      return OkStatus();
    case WriteProtocol::kSlidingWindow:
      // No local I/O at all: every sealed chunk leaves the moment the
      // window holds one.
      if (planner_.buffered_bytes() >= options_.chunk_size) {
        STDCHK_RETURN_IF_ERROR(StageSealedChunks(/*final=*/false));
        return FlushPending();
      }
      return OkStatus();
  }
  return InternalError("unknown write protocol");
}

Result<CloseOutcome> WriteSession::Close() {
  if (closed_) return FailedPreconditionError("session already closed");
  if (aborted_) return FailedPreconditionError("session aborted");
  STDCHK_RETURN_IF_ERROR(StageSealedChunks(/*final=*/true));
  STDCHK_RETURN_IF_ERROR(FlushPending());
  closed_ = true;
  return coordinator_.Commit();
}

void WriteSession::Abort() {
  aborted_ = true;
  coordinator_.ReleaseReservation();
}

}  // namespace stdchk
