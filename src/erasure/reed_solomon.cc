#include "erasure/reed_solomon.h"

#include <algorithm>

#include "common/hash_pool.h"
#include "erasure/gf256.h"

namespace stdchk {
namespace {

// Invert a square matrix over GF(256) by Gauss-Jordan elimination.
// Returns false if singular (cannot happen for Cauchy submatrices, but the
// check guards against misuse).
bool InvertMatrix(std::vector<std::vector<std::uint8_t>>& a) {
  const std::size_t n = a.size();
  std::vector<std::vector<std::uint8_t>> inv(
      n, std::vector<std::uint8_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i) inv[i][i] = 1;

  for (std::size_t col = 0; col < n; ++col) {
    // Find a pivot.
    std::size_t pivot = col;
    while (pivot < n && a[pivot][col] == 0) ++pivot;
    if (pivot == n) return false;
    std::swap(a[pivot], a[col]);
    std::swap(inv[pivot], inv[col]);

    // Normalize the pivot row.
    std::uint8_t inv_p = gf256::Inv(a[col][col]);
    for (std::size_t j = 0; j < n; ++j) {
      a[col][j] = gf256::Mul(a[col][j], inv_p);
      inv[col][j] = gf256::Mul(inv[col][j], inv_p);
    }
    // Eliminate the column elsewhere.
    for (std::size_t row = 0; row < n; ++row) {
      if (row == col || a[row][col] == 0) continue;
      std::uint8_t c = a[row][col];
      for (std::size_t j = 0; j < n; ++j) {
        a[row][j] = gf256::Add(a[row][j], gf256::Mul(c, a[col][j]));
        inv[row][j] = gf256::Add(inv[row][j], gf256::Mul(c, inv[col][j]));
      }
    }
  }
  a = std::move(inv);
  return true;
}

}  // namespace

ReedSolomon::ReedSolomon(int k, int m) : k_(k), m_(m) {
  // Systematic matrix: identity on top, Cauchy rows below.
  // Cauchy: parity row i, data col j -> 1 / (x_i + y_j) with
  // x_i = i + k (i in [0,m)), y_j = j (j in [0,k)); all x_i != y_j so the
  // entries are defined and every k x k submatrix is invertible.
  matrix_.assign(static_cast<std::size_t>(k + m),
                 std::vector<std::uint8_t>(static_cast<std::size_t>(k), 0));
  for (int i = 0; i < k; ++i) {
    matrix_[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = 1;
  }
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < k; ++j) {
      std::uint8_t x = static_cast<std::uint8_t>(i + k);
      std::uint8_t y = static_cast<std::uint8_t>(j);
      matrix_[static_cast<std::size_t>(k + i)][static_cast<std::size_t>(j)] =
          gf256::Inv(gf256::Add(x, y));
    }
  }
}

Result<ReedSolomon> ReedSolomon::Create(int data_shards, int parity_shards) {
  if (data_shards < 1 || parity_shards < 1) {
    return InvalidArgumentError("need at least 1 data and 1 parity shard");
  }
  if (data_shards + parity_shards > 255) {
    return InvalidArgumentError("k + m must be <= 255 over GF(256)");
  }
  return ReedSolomon(data_shards, parity_shards);
}

Result<std::vector<Bytes>> ReedSolomon::EncodeParity(
    const std::vector<ByteSpan>& data_shards, std::size_t shard_size,
    HashPool* pool, int max_workers) const {
  if (static_cast<int>(data_shards.size()) != k_) {
    return InvalidArgumentError("expected exactly k data shards");
  }
  for (ByteSpan shard : data_shards) {
    if (shard.size() > shard_size) {
      return InvalidArgumentError("data shard view exceeds the shard size");
    }
  }

  std::vector<Bytes> parity(static_cast<std::size_t>(m_),
                            Bytes(shard_size, 0));
  auto encode_row = [&](std::size_t i) {
    const std::vector<std::uint8_t>& row = Row(k_ + static_cast<int>(i));
    for (int j = 0; j < k_; ++j) {
      ByteSpan shard = data_shards[static_cast<std::size_t>(j)];
      // Shorter views are virtually zero-padded: the tail contributes
      // nothing, so the accumulate simply stops at the view's end.
      if (shard.empty()) continue;
      gf256::MulAccum(row[static_cast<std::size_t>(j)], shard.data(),
                      parity[i].data(), shard.size());
    }
  };
  if (pool != nullptr && m_ > 1 && max_workers != 1) {
    pool->ParallelFor(static_cast<std::size_t>(m_), max_workers, encode_row);
  } else {
    for (int i = 0; i < m_; ++i) encode_row(static_cast<std::size_t>(i));
  }
  return parity;
}

Status ReedSolomon::RecoverShards(
    const std::vector<std::optional<ByteSpan>>& shards, std::size_t shard_size,
    const std::vector<int>& want,
    const std::vector<MutableByteSpan>& out) const {
  const std::size_t total = static_cast<std::size_t>(k_ + m_);
  if (shards.size() != total) {
    return InvalidArgumentError("expected k+m shard slots");
  }
  if (want.size() != out.size()) {
    return InvalidArgumentError("want/out must be parallel");
  }
  bool parity_wanted = false;
  for (std::size_t w = 0; w < want.size(); ++w) {
    if (want[w] < 0 || want[w] >= k_ + m_) {
      return InvalidArgumentError("wanted shard index out of range");
    }
    if (out[w].size() > shard_size) {
      return InvalidArgumentError("output buffer exceeds the shard size");
    }
    if (want[w] >= k_) parity_wanted = true;
  }
  if (parity_wanted) {
    // Parity rows read whole data shards; a prefix-only data output would
    // feed them a silently truncated shard.
    for (std::size_t w = 0; w < want.size(); ++w) {
      if (out[w].size() != shard_size) {
        return InvalidArgumentError(
            "parity recovery requires full-size output buffers");
      }
    }
  }

  std::vector<int> present;
  for (std::size_t i = 0; i < total; ++i) {
    if (!shards[i].has_value()) continue;
    if (shards[i]->size() > shard_size) {
      return InvalidArgumentError("surviving shard view exceeds shard size");
    }
    present.push_back(static_cast<int>(i));
  }
  if (static_cast<int>(present.size()) < k_) {
    return DataLossError("only " + std::to_string(present.size()) +
                         " of the required " + std::to_string(k_) +
                         " shards survive");
  }

  // Decode matrix from the first k survivors:
  // data shard d = sum_j sub[d][j] * shards[used[j]].
  std::vector<int> used(present.begin(), present.begin() + k_);
  std::vector<std::vector<std::uint8_t>> sub;
  for (int r : used) sub.push_back(Row(r));
  if (!InvertMatrix(sub)) {
    return InternalError("Cauchy submatrix unexpectedly singular");
  }

  for (MutableByteSpan o : out) std::fill(o.begin(), o.end(), 0);

  // Decodes data shard `d` into `into` (a prefix suffices: byte i of the
  // output depends only on byte i of each survivor).
  auto decode_data = [&](int d, MutableByteSpan into) {
    for (int j = 0; j < k_; ++j) {
      ByteSpan s = *shards[static_cast<std::size_t>(used[static_cast<std::size_t>(j)])];
      std::size_t n = std::min(s.size(), into.size());
      if (n == 0) continue;
      gf256::MulAccum(sub[static_cast<std::size_t>(d)][static_cast<std::size_t>(j)],
                      s.data(), into.data(), n);
    }
  };

  // Full-width views of every data shard, needed only when parity is
  // wanted; missing ones decode into scratch.
  std::vector<ByteSpan> data_views(static_cast<std::size_t>(k_));
  std::vector<Bytes> scratch;
  if (parity_wanted) {
    scratch.reserve(static_cast<std::size_t>(k_));
    for (int j = 0; j < k_; ++j) {
      if (shards[static_cast<std::size_t>(j)].has_value()) {
        data_views[static_cast<std::size_t>(j)] =
            *shards[static_cast<std::size_t>(j)];
      } else {
        scratch.emplace_back(shard_size, 0);
        decode_data(j, MutableByteSpan(scratch.back()));
        data_views[static_cast<std::size_t>(j)] = ByteSpan(scratch.back());
      }
    }
  }

  for (std::size_t w = 0; w < want.size(); ++w) {
    int idx = want[w];
    if (idx < k_) {
      if (shards[static_cast<std::size_t>(idx)].has_value()) {
        ByteSpan s = *shards[static_cast<std::size_t>(idx)];
        std::copy_n(s.data(), std::min(s.size(), out[w].size()),
                    out[w].data());
      } else {
        decode_data(idx, out[w]);
      }
      continue;
    }
    const std::vector<std::uint8_t>& row = Row(idx);
    for (int j = 0; j < k_; ++j) {
      ByteSpan s = data_views[static_cast<std::size_t>(j)];
      if (s.empty()) continue;
      gf256::MulAccum(row[static_cast<std::size_t>(j)], s.data(),
                      out[w].data(), std::min(s.size(), out[w].size()));
    }
  }
  return OkStatus();
}

}  // namespace stdchk
