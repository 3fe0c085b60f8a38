// Test oracle: the serial gear boundary scan, one byte at a time. The CbCH
// gear scanner marks candidates in parallel and applies the boundary rules
// in a second pass; its boundaries must equal this loop's exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "chkpt/chunker.h"
#include "common/bytes.h"
#include "common/rolling_hash.h"

namespace stdchk {

// Chunk ends (exclusive, ascending) of the gear scan with `params` over the
// whole of `data`. After each boundary, and at the start: skip
// min_chunk - window_m bytes unhashed, reset the hash to 0, hash window_m
// bytes without a check, then test every position until the top k bits are
// zero or the chunk has reached max_chunk.
inline std::vector<std::uint64_t> SerialGearEnds(const CbchParams& params,
                                                 ByteSpan data) {
  const std::uint64_t mask = gear::BoundaryMask(params.boundary_bits_k);
  const std::size_t skip_init = params.min_chunk > params.window_m
                                    ? params.min_chunk - params.window_m
                                    : 0;
  std::vector<std::uint64_t> ends;
  std::uint64_t h = 0, chunk_start = 0;
  std::size_t filled = 0, skip = skip_init;
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    if (skip > 0) {
      std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(skip, data.size() - pos));
      pos += take;
      skip -= take;
      continue;
    }
    h = gear::Update(h, data[pos++]);
    if (++filled < params.window_m) continue;
    if ((h & mask) == 0 ||
        (params.max_chunk != 0 && pos - chunk_start >= params.max_chunk)) {
      ends.push_back(pos);
      chunk_start = pos;
      h = 0;
      filled = 0;
      skip = skip_init;
    }
  }
  if (pos > chunk_start) ends.push_back(pos);
  return ends;
}

}  // namespace stdchk
