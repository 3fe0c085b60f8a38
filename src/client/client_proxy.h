// The stdchk client proxy: the per-desktop component that turns
// application file operations into manager/benefactor protocol actions
// (paper §IV.A). The FUSE-facade (src/fs) sits on top of this API.
#pragma once

#include <memory>
#include <string>

#include "client/transport.h"
#include "client/client_options.h"
#include "client/read_session.h"
#include "client/write_session.h"
#include "common/status.h"
#include "manager/metadata_manager.h"

namespace stdchk {

class ClientProxy {
 public:
  ClientProxy(MetadataManager* manager, Transport* transport,
              ClientOptions options = {})
      : manager_(manager), transport_(transport), options_(options) {}

  const ClientOptions& options() const { return options_; }

  // Opens a new checkpoint image for writing. Fails if the version already
  // exists (images are immutable, single-producer).
  Result<std::unique_ptr<WriteSession>> CreateFile(const CheckpointName& name);
  // Same, with per-session options (protocol, chunker, semantics) instead
  // of the proxy's defaults.
  Result<std::unique_ptr<WriteSession>> CreateFileWith(
      const CheckpointName& name, const ClientOptions& options);

  // Writes an entire image in one call (what the FUSE layer does for the
  // common write-then-close pattern).
  Result<CloseOutcome> WriteFile(const CheckpointName& name, ByteSpan data);

  // Opens a committed image for reading.
  Result<std::unique_ptr<ReadSession>> OpenFile(const CheckpointName& name);
  // Opens the most recent timestep for (app, node) — the restart path.
  Result<std::unique_ptr<ReadSession>> OpenLatest(const std::string& app,
                                                  const std::string& node);

  Result<Bytes> ReadFile(const CheckpointName& name);

  Status Delete(const CheckpointName& name) {
    return manager_->DeleteVersion(name);
  }

  MetadataManager* manager() { return manager_; }

 private:
  MetadataManager* manager_;
  Transport* transport_;
  ClientOptions options_;
};

}  // namespace stdchk
