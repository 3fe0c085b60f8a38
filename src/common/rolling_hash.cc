#include "common/rolling_hash.h"

namespace stdchk {

std::uint64_t Mix64(std::uint64_t v) {
  v ^= v >> 30;
  v *= 0xbf58476d1ce4e5b9ull;
  v ^= v >> 27;
  v *= 0x94d049bb133111ebull;
  v ^= v >> 31;
  return v;
}

namespace gear {
namespace {

// splitmix64 stream (constexpr-friendly duplicate of Mix64's finalizer with
// the standard golden-ratio increment) — deterministic, seedless table.
constexpr std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::array<std::uint64_t, 256> MakeTable() {
  std::array<std::uint64_t, 256> table{};
  std::uint64_t state = 0x7375646368656172ull;  // "gear" table seed
  for (std::uint64_t& entry : table) entry = SplitMix64(state);
  return table;
}

}  // namespace

const std::array<std::uint64_t, 256> kTable = MakeTable();

}  // namespace gear

}  // namespace stdchk
