#include "client/client_proxy.h"

namespace stdchk {

Result<std::unique_ptr<WriteSession>> ClientProxy::CreateFile(
    const CheckpointName& name) {
  return CreateFileWith(name, options_);
}

Result<std::unique_ptr<WriteSession>> ClientProxy::CreateFileWith(
    const CheckpointName& name, const ClientOptions& options) {
  if (manager_->IsUp() && manager_->GetVersion(name).ok()) {
    return AlreadyExistsError("checkpoint image " + name.ToString() +
                              " already exists");
  }
  return std::make_unique<WriteSession>(manager_, transport_, name, options);
}

Result<CloseOutcome> ClientProxy::WriteFile(const CheckpointName& name,
                                            ByteSpan data) {
  STDCHK_ASSIGN_OR_RETURN(auto session, CreateFile(name));
  STDCHK_RETURN_IF_ERROR(session->Write(data));
  return session->Close();
}

Result<UploadPlan> ClientProxy::WriteFileDeduped(const CheckpointName& name,
                                                 ByteSpan data,
                                                 const Chunker& chunker) {
  // Whole-image dedup rides the staged write engine: CLW (the full image
  // must be visible before content-defined boundaries are placed), the
  // caller's chunker injected into the ChunkPlanner, and compare-by-hash
  // filtering enabled. The engine then reuses stored chunks and uploads
  // the rest through the batched per-benefactor queues.
  ClientOptions options = options_;
  options.protocol = WriteProtocol::kCompleteLocal;
  options.incremental_fsch = true;
  // Non-owning alias: the caller's chunker outlives the session.
  options.chunker =
      std::shared_ptr<const Chunker>(&chunker, [](const Chunker*) {});

  STDCHK_ASSIGN_OR_RETURN(auto session, CreateFileWith(name, options));
  STDCHK_RETURN_IF_ERROR(session->Write(data));
  STDCHK_RETURN_IF_ERROR(session->Close().status());

  const WriteStats& stats = session->stats();
  const ChunkMap& map = session->chunk_map();
  const std::vector<bool>& reused = session->chunk_reused();
  UploadPlan plan;
  plan.total_bytes = stats.bytes_written;
  plan.novel_bytes = stats.bytes_written - stats.bytes_deduplicated;
  plan.chunks.reserve(map.chunks.size());
  for (std::size_t i = 0; i < map.chunks.size(); ++i) {
    PlannedChunk pc;
    pc.span = ChunkSpan{map.chunks[i].file_offset, map.chunks[i].size};
    pc.id = map.chunks[i].id;
    pc.novel = !reused[i];
    plan.chunks.push_back(pc);
  }
  return plan;
}

Result<std::unique_ptr<ReadSession>> ClientProxy::OpenFile(
    const CheckpointName& name) {
  STDCHK_ASSIGN_OR_RETURN(VersionRecord record, manager_->GetVersion(name));
  return std::make_unique<ReadSession>(transport_, std::move(record), options_);
}

Result<std::unique_ptr<ReadSession>> ClientProxy::OpenLatest(
    const std::string& app, const std::string& node) {
  STDCHK_ASSIGN_OR_RETURN(VersionRecord record,
                          manager_->GetLatest(app, node));
  return std::make_unique<ReadSession>(transport_, std::move(record), options_);
}

Result<Bytes> ClientProxy::ReadFile(const CheckpointName& name) {
  STDCHK_ASSIGN_OR_RETURN(auto session, OpenFile(name));
  return session->ReadAll();
}

}  // namespace stdchk
