#include "common/hash.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace stdchk {
namespace {

TEST(Sha1Test, EmptyInput) {
  EXPECT_EQ(Sha1(ByteSpan{}).ToHex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(Sha1(AsBytes(std::string("abc"))).ToHex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, LongerVector) {
  // FIPS 180-1 test vector.
  EXPECT_EQ(Sha1(AsBytes(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))
                .ToHex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  std::string a(1000000, 'a');
  EXPECT_EQ(Sha1(AsBytes(a)).ToHex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, QuickBrownFox) {
  EXPECT_EQ(
      Sha1(AsBytes(std::string("The quick brown fox jumps over the lazy dog")))
          .ToHex(),
      "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

class Sha1StreamingTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha1StreamingTest, StreamingMatchesOneShot) {
  Rng rng(GetParam() * 7919 + 1);
  Bytes data = rng.RandomBytes(GetParam());

  Sha1Digest oneshot = Sha1(data);

  // Feed in irregular piece sizes.
  Sha1Hasher hasher;
  std::size_t pos = 0;
  std::size_t piece = 1;
  while (pos < data.size()) {
    std::size_t n = std::min(piece, data.size() - pos);
    hasher.Update(ByteSpan(data.data() + pos, n));
    // An empty span (null data()) between pieces, often after a partial
    // block, must change nothing.
    hasher.Update(ByteSpan{});
    pos += n;
    piece = piece * 3 + 1;
  }
  EXPECT_EQ(hasher.Finish(), oneshot);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Sha1StreamingTest,
                         ::testing::Values(0, 1, 55, 56, 63, 64, 65, 127, 128,
                                           1000, 4096, 65536, 100001));

// Randomized split points: every partition of the input must hash like the
// one-shot, exercising the multi-block fast path (whole blocks compressed
// straight from the caller's span) against the buffered head/tail path.
TEST(Sha1StreamingRandomizedTest, RandomSplitsMatchOneShot) {
  Rng rng(12345);
  for (int round = 0; round < 50; ++round) {
    std::size_t size = 1 + rng.Next() % 20000;
    Bytes data = rng.RandomBytes(size);
    Sha1Digest oneshot = Sha1(data);

    Sha1Hasher hasher;
    std::size_t pos = 0;
    while (pos < size) {
      // Bias toward small pieces so sub-block staging gets hit often, with
      // occasional multi-block spans for the fast path.
      std::size_t n = (rng.Next() % 4 == 0) ? 1 + rng.Next() % 700
                                               : 1 + rng.Next() % 64;
      n = std::min(n, size - pos);
      hasher.Update(ByteSpan(data.data() + pos, n));
      pos += n;
    }
    ASSERT_EQ(hasher.Finish(), oneshot) << "round " << round;
  }
}

// Every compressor must agree with the textbook reference bit for bit; on
// CPUs without SHA extensions kShaNi resolves to the portable code and
// that leg degenerates to a self-check.
TEST(Sha1ImplTest, AllCompressorsAgreeWithReference) {
  Rng rng(777);
  for (std::size_t size : {0u, 1u, 63u, 64u, 65u, 1000u, 100000u}) {
    Bytes data = rng.RandomBytes(size);
    Sha1ForceImpl(Sha1Impl::kReference);
    Sha1Digest reference = Sha1(data);
    Sha1ForceImpl(Sha1Impl::kPortable);
    Sha1Digest portable = Sha1(data);
    Sha1ForceImpl(Sha1Impl::kShaNi);
    Sha1Digest accelerated = Sha1(data);
    Sha1ForceImpl(Sha1Impl::kAuto);
    EXPECT_EQ(portable, reference) << "size " << size;
    EXPECT_EQ(accelerated, reference) << "size " << size;
  }
}

TEST(Sha1ImplTest, ForceAndRestore) {
  Sha1Impl detected = Sha1ActiveImpl();
  Sha1ForceImpl(Sha1Impl::kPortable);
  EXPECT_EQ(Sha1ActiveImpl(), Sha1Impl::kPortable);
  // Known-answer under the forced portable path.
  EXPECT_EQ(Sha1(AsBytes(std::string("abc"))).ToHex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  Sha1ForceImpl(Sha1Impl::kAuto);
  EXPECT_EQ(Sha1ActiveImpl(), detected);
}

TEST(Sha1Test, DigestOrderingAndEquality) {
  Sha1Digest a = Sha1(AsBytes(std::string("a")));
  Sha1Digest b = Sha1(AsBytes(std::string("b")));
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_EQ(a, Sha1(AsBytes(std::string("a"))));
}

TEST(Sha1Test, Prefix64MatchesHexPrefix) {
  Sha1Digest d = Sha1(AsBytes(std::string("abc")));
  // a9993e364706816a
  EXPECT_EQ(d.Prefix64(), 0xa9993e364706816aull);
}

TEST(Sha1Test, HexIs40LowercaseChars) {
  std::string hex = Sha1(AsBytes(std::string("xyz"))).ToHex();
  EXPECT_EQ(hex.size(), 40u);
  for (char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
}

TEST(Fnv1aTest, KnownValues) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(Fnv1a64(std::string_view("")), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64(std::string_view("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64(std::string_view("foobar")), 0x85944171f73967e8ull);
}

TEST(Fnv1aTest, SpanAndStringViewAgree) {
  std::string s = "checkpoint";
  EXPECT_EQ(Fnv1a64(std::string_view(s)), Fnv1a64(AsBytes(s)));
}

TEST(Sha1DigestHashTest, UsableAsMapKey) {
  Sha1DigestHash h;
  Sha1Digest a = Sha1(AsBytes(std::string("a")));
  Sha1Digest b = Sha1(AsBytes(std::string("b")));
  EXPECT_NE(h(a), h(b));  // astronomically unlikely to collide
}

}  // namespace
}  // namespace stdchk
