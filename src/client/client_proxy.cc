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
