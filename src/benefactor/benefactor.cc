#include "benefactor/benefactor.h"

#include <cassert>
#include <set>

#include "chunk/chunk_store.h"
#include "common/hash_pool.h"

namespace stdchk {

Benefactor::Benefactor(std::string host, std::unique_ptr<ChunkStore> store,
                       std::uint64_t capacity_bytes)
    : host_(std::move(host)),
      store_(std::move(store)),
      capacity_bytes_(capacity_bytes) {}

Status Benefactor::JoinPool(MetadataManager& manager) {
  BenefactorInfo info;
  info.host = host_;
  info.total_bytes = capacity_bytes_;
  info.free_bytes = FreeBytes();
  STDCHK_ASSIGN_OR_RETURN(id_, manager.RegisterBenefactor(info));
  return OkStatus();
}

void Benefactor::Wipe() {
  online_ = false;
  (void)store_->Wipe();
  MutexLock lock(mu_);
  stashed_.clear();
}

std::uint64_t Benefactor::FreeBytes() const {
  std::uint64_t used = store_->BytesUsed();
  return used >= capacity_bytes_ ? 0 : capacity_bytes_ - used;
}

Status Benefactor::PutChunkBatch(std::span<const ChunkPut> puts) {
  STDCHK_RETURN_IF_ERROR(CheckOnline());
  // Admission control over the whole batch: verify every content address
  // and the aggregate space need before storing anything. Duplicate ids
  // within the batch (repeated content, e.g. zeroed pages) store once, so
  // they count once.
  //
  // Unstamped chunks (anything that crossed a re-materializing boundary —
  // a disk store, a real wire) need a full re-hash each; fan those across
  // the shared HashPool the same way drain naming does. Each task hashes a
  // disjoint immutable slice into its own slot, so admission results are
  // byte-identical for any worker count; stamped chunks answer from the
  // memo and never touch the pool.
  std::vector<std::size_t> unstamped;
  for (std::size_t i = 0; i < puts.size(); ++i) {
    if (puts[i].data.stamped_digest() == nullptr) unstamped.push_back(i);
  }
  std::vector<ChunkId> computed(unstamped.size());
  HashPool::Shared().ParallelFor(
      unstamped.size(), HashPool::ResolveThreads(0),
      [&puts, &unstamped, &computed](std::size_t i) {
        computed[i] = ChunkId::For(puts[unstamped[i]].data.span());
      });
  std::size_t next_unstamped = 0;
  for (const ChunkPut& put : puts) {
    ChunkId actual;
    if (put.data.stamped_digest() != nullptr) {
      // Debug builds re-check the stamp against the bytes: the release
      // path trusts the process-local stamp, so an upstream id/slice
      // mispairing would otherwise pass both admission and read checks.
      assert(Sha1(put.data.span()) == *put.data.stamped_digest());
      actual = ChunkId{*put.data.stamped_digest()};
    } else {
      actual = computed[next_unstamped++];
    }
    if (actual != put.id) {
      return DataLossError("chunk content does not match its address " +
                           put.id.ToHex());
    }
  }
  // Space check and store put are one step per donor: two batches that
  // each fit, but not together, cannot both pass the check.
  MutexLock lock(mu_);
  std::uint64_t new_bytes = 0;
  std::set<ChunkId> counted;
  for (const ChunkPut& put : puts) {
    if (!store_->Contains(put.id) && counted.insert(put.id).second) {
      new_bytes += put.data.size();
    }
  }
  if (store_->BytesUsed() + new_bytes > capacity_bytes_) {
    return ResourceExhaustedError("benefactor " + host_ +
                                  " cannot admit batch of " +
                                  std::to_string(puts.size()) + " chunks");
  }
  // The whole generation lands in one store call (the disk store turns it
  // into a single vectored write + fsync).
  return store_->PutBatch(puts);
}

Result<BufferSlice> Benefactor::ReadChunk(const ChunkId& id) const {
  STDCHK_RETURN_IF_ERROR(CheckOnline());
  return store_->Get(id);
}

Status Benefactor::VerifyChunk(const ChunkId& id, const BufferSlice& data) {
  // Memory-store slices still carry the writer's stamp (immutable backing,
  // so the digest is still a constant of the bytes); disk reads come back
  // unstamped and get the full re-hash — exactly where a malicious donor
  // could have flipped bits.
  if (ChunkId::For(data) != id) {
    return DataLossError("stored chunk " + id.ToHex() +
                         " failed integrity verification");
  }
  return OkStatus();
}

bool Benefactor::HasChunk(const ChunkId& id) const {
  return online_ && store_->Contains(id);
}

Status Benefactor::StashChunkMap(const VersionRecord& record,
                                 int stripe_width) {
  STDCHK_RETURN_IF_ERROR(CheckOnline());
  MutexLock lock(mu_);
  stashed_[record.name.ToString()] = Stashed{record, stripe_width};
  return OkStatus();
}

std::size_t Benefactor::stashed_count() const {
  MutexLock lock(mu_);
  return stashed_.size();
}

Status Benefactor::SendHeartbeat(MetadataManager& manager) {
  STDCHK_RETURN_IF_ERROR(CheckOnline());
  if (id_ == kInvalidNode) {
    return FailedPreconditionError("benefactor has not joined a pool");
  }
  return manager.Heartbeat(id_, FreeBytes());
}

Result<std::size_t> Benefactor::RunGc(MetadataManager& manager) {
  STDCHK_RETURN_IF_ERROR(CheckOnline());
  STDCHK_ASSIGN_OR_RETURN(std::vector<ChunkId> doomed,
                          manager.GcExchange(id_, store_->List()));
  std::size_t reclaimed = 0;
  for (const ChunkId& id : doomed) {
    if (store_->Delete(id).ok()) ++reclaimed;
  }
  return reclaimed;
}

Status Benefactor::OfferStashedVersions(MetadataManager& manager) {
  STDCHK_RETURN_IF_ERROR(CheckOnline());
  // Offer a copy with mu_ released: the manager's locks rank below it, and
  // clients may keep stashing meanwhile.
  std::map<std::string, Stashed> offers;
  {
    MutexLock lock(mu_);
    offers = stashed_;
  }
  std::vector<std::string> committed;
  for (const auto& [name, stash] : offers) {
    Status status = manager.OfferRecoveredVersion(id_, stash.record,
                                                  stash.stripe_width);
    // Drop the stash only once the version is actually committed (our offer
    // may be just one of the required two-thirds endorsements, and the
    // manager could crash again before quorum).
    if (status.ok() && manager.GetVersion(stash.record.name).ok()) {
      committed.push_back(name);
    }
  }
  MutexLock lock(mu_);
  for (const std::string& name : committed) stashed_.erase(name);
  return OkStatus();
}

}  // namespace stdchk
