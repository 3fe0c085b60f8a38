#include "common/rolling_hash.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace stdchk {
namespace {

TEST(Mix64Test, IsBijectiveOnSamples) {
  // Distinct inputs produce distinct outputs (spot check).
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t a = rng.Next(), b = rng.Next();
    if (a != b) {
      EXPECT_NE(Mix64(a), Mix64(b));
    }
  }
}

}  // namespace
}  // namespace stdchk
