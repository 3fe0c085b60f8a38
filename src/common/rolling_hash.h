// Hash primitives for content-defined chunking and seeded placement.
//
// The gear rolling hash drives the CbCH (content-based compare-by-hash)
// boundary scan (paper §IV.C, after LBFS): roll it over the file and
// declare a chunk boundary wherever its top k bits are all zero. Mix64
// decorrelates hash bits before they are masked or compared: the hopping
// CbCH scans, the RNG's seed expansion, the catalog's shard hash and the
// registry's stripe tiebreak use it.
#pragma once

#include <array>
#include <cstdint>

namespace stdchk {

// 64-bit finalizer (splitmix64-style): a bijection that spreads every
// input bit over the whole output.
std::uint64_t Mix64(std::uint64_t v);

// Gear/CDC rolling hash: h' = (h << 1) + kTable[byte]. One shift, one add,
// one table lookup per byte — no multiplies, no explicit window ring (each
// byte's contribution shifts out of the 64-bit state after 64 steps, so the
// effective window is the last 64 bytes). Boundary checks mask the TOP
// bits, which mix the whole effective window (the low bits only see the
// most recent bytes).
namespace gear {

// 256 pseudorandom 64-bit constants, fixed forever: chunk boundaries are
// content addresses' foundation, so the table is part of the on-disk/
// on-wire format once images are deduplicated against each other.
extern const std::array<std::uint64_t, 256> kTable;

inline std::uint64_t Update(std::uint64_t h, std::uint8_t b) {
  return (h << 1) + kTable[b];
}

// Mask selecting the top k bits; boundary when (h & mask) == 0, giving the
// same 2^-k per-position boundary probability as the Mix64 low-bit check.
inline std::uint64_t BoundaryMask(int k_bits) {
  if (k_bits <= 0) return 0;
  if (k_bits >= 64) return ~0ull;
  return ((1ull << k_bits) - 1) << (64 - k_bits);
}

}  // namespace gear

}  // namespace stdchk
