// Systematic Reed-Solomon erasure coding over GF(256), Cauchy-matrix
// construction: k data shards + m parity shards; any k of the k+m shards
// reconstruct the original data.
//
// Used by the erasure-coded write path (ClientOptions::erasure) and by the
// replication-vs-erasure ablation (paper §IV.A): the paper rejects erasure
// coding for checkpoint data because of encode/decode CPU cost and repair
// traffic; with the SIMD GF(256) kernels that tradeoff is measured, not
// asserted.
//
// One encode entry point (EncodeParity) and one decode entry point
// (RecoverShards), both over spans: callers encode straight out of
// BufferSlice views and decode straight into caller buffers, with no
// staging copies. Views shorter than the nominal shard size are treated as
// zero-padded to it — the stored tail shard of a block whose size is not a
// multiple of k — so the virtual padding never materializes either.
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace stdchk {

class HashPool;

class ReedSolomon {
 public:
  // k data shards, m parity shards; k >= 1, m >= 1, k + m <= 255.
  static Result<ReedSolomon> Create(int data_shards, int parity_shards);

  int data_shards() const { return k_; }
  int parity_shards() const { return m_; }
  int total_shards() const { return k_ + m_; }

  // Computes parity from k data-shard views, each at most `shard_size`
  // bytes (shorter views are virtually zero-padded — no copy, the missing
  // tail contributes nothing). Returns m parity shards of exactly
  // `shard_size` bytes. When `pool` is non-null the m parity rows fan out
  // across it (bounded by `max_workers`, caller participating); each row
  // writes only its own output, so the result is byte-identical for every
  // worker count — the same determinism rule as the naming fan-out.
  Result<std::vector<Bytes>> EncodeParity(
      const std::vector<ByteSpan>& data_shards, std::size_t shard_size,
      HashPool* pool = nullptr, int max_workers = 1) const;

  // Recovers the shards listed in `want` (indices in [0, k+m)) from any k
  // surviving shard views. `shards` has k+m entries: std::nullopt marks a
  // lost shard; engaged views shorter than `shard_size` are treated as
  // zero-padded (an engaged empty view is a present, all-zero shard — not
  // a loss). Each wanted shard is written to the parallel `out` buffer,
  // which may be shorter than `shard_size` to recover just a prefix (the
  // stored length of a tail data shard) — except when any parity shard is
  // wanted, in which case full-size data outputs are required so parity
  // sees whole shards. Fails if fewer than k shards survive.
  Status RecoverShards(const std::vector<std::optional<ByteSpan>>& shards,
                       std::size_t shard_size, const std::vector<int>& want,
                       const std::vector<MutableByteSpan>& out) const;

 private:
  ReedSolomon(int k, int m);

  // Row `r` of the (k+m) x k encoding matrix. Rows 0..k-1 form the
  // identity (systematic); rows k..k+m-1 are Cauchy rows.
  const std::vector<std::uint8_t>& Row(int r) const {
    return matrix_[static_cast<std::size_t>(r)];
  }

  int k_;
  int m_;
  std::vector<std::vector<std::uint8_t>> matrix_;  // (k+m) rows x k cols
};

}  // namespace stdchk
