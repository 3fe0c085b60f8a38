#include "client/chunk_planner.h"

#include <cassert>
#include <chrono>
#include <utility>

#include "common/hash_pool.h"

namespace stdchk {

ChunkPlanner::ChunkPlanner(std::shared_ptr<const Chunker> chunker,
                           int hash_workers, WriteStats* stats)
    : chunker_(std::move(chunker)),
      hash_workers_(HashPool::ResolveThreads(hash_workers)),
      stats_(stats) {
  assert(chunker_ != nullptr);
  scanner_ = chunker_->MakeScanner();
}

void ChunkPlanner::Append(ByteSpan data) {
  copy_stats::RecordMaterialize(data.size());
  stdchk::Append(buffer_, data);
}

std::vector<StagedChunk> ChunkPlanner::Drain(bool final) {
  // Everything appended since the last drain goes to the scanner as one
  // span, so a parallel scan gets a whole drain generation to split. Each
  // byte is scanned exactly once.
  std::size_t scanned =
      static_cast<std::size_t>(scanner_->consumed() - buffer_start_);
  std::vector<std::uint64_t> sealed_ends;
  if (scanned < buffer_.size()) {
    scanner_->Feed(ByteSpan(buffer_).subspan(scanned), sealed_ends);
  }
  if (final) scanner_->Finish(sealed_ends);
  std::vector<StagedChunk> out;
  if (sealed_ends.empty()) return out;

  // Freeze the current buffer generation: sealed chunks become ref-counted
  // slices into it (zero-copy; the slices hold it alive), and only the
  // unsealed tail moves back into the working buffer.
  std::size_t consumed =
      static_cast<std::size_t>(sealed_ends.back() - buffer_start_);
  Bytes tail(buffer_.begin() + static_cast<std::ptrdiff_t>(consumed),
             buffer_.end());
  BufferRef backing = BufferRef::Take(std::move(buffer_));
  buffer_ = std::move(tail);

  out.reserve(sealed_ends.size());
  std::uint64_t start = buffer_start_;
  auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t end : sealed_ends) {
    BufferSlice slice(backing, static_cast<std::size_t>(start - buffer_start_),
                      static_cast<std::size_t>(end - start));
    out.push_back(StagedChunk{ChunkId{}, std::move(slice)});
    start = end;
  }
  // Slices are immutable views of one frozen generation, so naming them is
  // embarrassingly parallel; each task writes its own slot, so the plan
  // order (and therefore the committed chunk map) is the same for every
  // worker count. N=1 and one-chunk drains take ParallelFor's serial
  // shortcut on this thread. The stamp lets downstream verifies compare
  // digests instead of re-hashing. `used` is measured engagement, not the
  // requested fan-out: a busy pool can leave the whole batch to this thread.
  const int used = HashPool::Shared().ParallelFor(
      out.size(), hash_workers_, [&out](std::size_t i) {
        out[i].id = ChunkId::For(out[i].data.span());
        out[i].data.StampDigest(out[i].id.digest);
      });
  if (stats_) {
    auto t1 = std::chrono::steady_clock::now();
    stats_->hash_workers_peak = std::max<std::uint64_t>(
        stats_->hash_workers_peak, static_cast<std::uint64_t>(used));
    if (used > 1) ++stats_->hash_parallel_drains;
    stats_->hash_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    stats_->hash_chunks += sealed_ends.size();
    stats_->hash_bytes += sealed_ends.back() - buffer_start_;
  }
  buffer_start_ = sealed_ends.back();
  return out;
}

}  // namespace stdchk
