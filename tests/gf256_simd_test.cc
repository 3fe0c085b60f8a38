// Differential battery for the runtime-dispatched GF(256) kernel family:
// every dispatched implementation must agree byte-for-byte with the scalar
// log/exp oracle across all coefficients, alignments and lengths around the
// vector widths, and forcing an implementation the CPU lacks must fall back
// instead of dying. The encode/reconstruct paths are cross-checked per impl
// so a kernel bug cannot hide behind a matching MulAccum.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "chunk/chunk.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "erasure/gf256.h"
#include "erasure/reed_solomon.h"

namespace stdchk {
namespace {

using gf256::Gf256ActiveImpl;
using gf256::Gf256ForceImpl;
using gf256::Gf256Impl;

// Restores runtime detection when a test exits, pass or fail.
struct ForceGuard {
  ~ForceGuard() { Gf256ForceImpl(Gf256Impl::kAuto); }
};

// The implementations this machine can actually run: forcing one that is
// unsupported falls back down the chain, so an impl is available iff
// forcing it makes it active.
std::vector<Gf256Impl> AvailableImpls() {
  ForceGuard guard;
  std::vector<Gf256Impl> out;
  for (Gf256Impl impl :
       {Gf256Impl::kScalar, Gf256Impl::kSsse3, Gf256Impl::kAvx2}) {
    Gf256ForceImpl(impl);
    if (Gf256ActiveImpl() == impl) out.push_back(impl);
  }
  return out;
}

const char* ImplName(Gf256Impl impl) {
  switch (impl) {
    case Gf256Impl::kAuto:
      return "auto";
    case Gf256Impl::kScalar:
      return "scalar";
    case Gf256Impl::kSsse3:
      return "ssse3";
    case Gf256Impl::kAvx2:
      return "avx2";
  }
  return "?";
}

// Independent oracle: one table multiply per byte, no MulAccum involved.
void MulAccumOracle(std::uint8_t c, const std::uint8_t* src,
                    std::uint8_t* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(dst[i] ^ gf256::Mul(c, src[i]));
  }
}

TEST(Gf256SimdTest, ScalarIsAlwaysAvailable) {
  std::vector<Gf256Impl> impls = AvailableImpls();
  ASSERT_FALSE(impls.empty());
  EXPECT_EQ(impls.front(), Gf256Impl::kScalar);
}

TEST(Gf256SimdTest, ForcedImplSweepNeverDiesAndRestores) {
  // Forcing any impl — including ones this CPU may not support — must leave
  // MulAccum working (graceful fallback, no illegal instruction).
  ForceGuard guard;
  Rng rng(7);
  std::vector<std::uint8_t> src(257), dst(257), expect(257);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng.Next());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] = static_cast<std::uint8_t>(rng.Next());
    expect[i] = dst[i];
  }
  MulAccumOracle(0xA7, src.data(), expect.data(), src.size());
  for (Gf256Impl impl : {Gf256Impl::kAvx2, Gf256Impl::kSsse3,
                         Gf256Impl::kScalar, Gf256Impl::kAuto}) {
    std::vector<std::uint8_t> work = dst;
    Gf256ForceImpl(impl);
    gf256::MulAccum(0xA7, src.data(), work.data(), work.size());
    EXPECT_EQ(work, expect) << "forced " << ImplName(impl) << " resolved to "
                            << ImplName(Gf256ActiveImpl());
  }
  Gf256ForceImpl(Gf256Impl::kAuto);
  // Detection restored: kAuto resolves to a concrete member of the family.
  EXPECT_NE(Gf256ActiveImpl(), Gf256Impl::kAuto);
}

TEST(Gf256SimdTest, MulAccumMatchesOracleAcrossImplsAlignmentsLengths) {
  // Lengths 0..3x the widest vector, at every src/dst misalignment mod 16,
  // under every dispatched impl, for a spread of coefficients including the
  // c == 0 (no-op) and c == 1 (pure XOR) fast paths.
  ForceGuard guard;
  Rng rng(11);
  constexpr std::size_t kMaxLen = 3 * 32;
  constexpr std::size_t kPad = 64;
  std::vector<std::uint8_t> src_buf(kMaxLen + 2 * kPad);
  std::vector<std::uint8_t> dst_buf(kMaxLen + 2 * kPad);
  for (auto& b : src_buf) b = static_cast<std::uint8_t>(rng.Next());

  const std::vector<std::uint8_t> coeffs = {0,    1,    2,    3,   0x1D,
                                            0x53, 0x80, 0xA7, 0xFF};
  for (Gf256Impl impl : AvailableImpls()) {
    Gf256ForceImpl(impl);
    for (std::uint8_t c : coeffs) {
      for (std::size_t align = 0; align < 16; ++align) {
        for (std::size_t n = 0; n <= kMaxLen;
             n = n < 40 ? n + 1 : n + 7) {
          for (auto& b : dst_buf) b = static_cast<std::uint8_t>(rng.Next());
          std::vector<std::uint8_t> expect = dst_buf;
          const std::uint8_t* src = src_buf.data() + align;
          // Distinct dst misalignment (align + 5 mod 16) so relative
          // misalignment is exercised, not just absolute.
          std::size_t dst_off = (align + 5) % 16;
          MulAccumOracle(c, src, expect.data() + dst_off, n);
          gf256::MulAccum(c, src, dst_buf.data() + dst_off, n);
          ASSERT_EQ(dst_buf, expect)
              << ImplName(impl) << " c=" << int(c) << " align=" << align
              << " n=" << n;
        }
      }
    }
  }
}

TEST(Gf256SimdTest, MulAccumInPlaceSrcEqualsDst) {
  // The documented aliasing exception: src == dst computes
  // dst[i] ^= c * dst[i] = (c ^ 1) * dst[i].
  ForceGuard guard;
  Rng rng(13);
  for (Gf256Impl impl : AvailableImpls()) {
    Gf256ForceImpl(impl);
    std::vector<std::uint8_t> buf(100);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.Next());
    std::vector<std::uint8_t> expect(buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i) {
      expect[i] = gf256::Mul(static_cast<std::uint8_t>(0x53 ^ 1), buf[i]);
    }
    gf256::MulAccum(0x53, buf.data(), buf.data(), buf.size());
    EXPECT_EQ(buf, expect) << ImplName(impl);
  }
}

TEST(Gf256SimdTest, EncodeParityIdenticalAcrossImpls) {
  // Parity bytes are pinned across the kernel family: whatever the CPU
  // dispatches, the stored shards (and their content addresses) match the
  // scalar oracle bit for bit.
  ForceGuard guard;
  Rng rng(17);
  auto rs = ReedSolomon::Create(6, 3);
  ASSERT_TRUE(rs.ok());
  // Shard sizes straddling the vector widths, including a short tail.
  for (std::size_t shard_size : {std::size_t{1}, std::size_t{16},
                                 std::size_t{31}, std::size_t{64},
                                 std::size_t{1000}}) {
    std::vector<Bytes> shards(6);
    std::vector<ByteSpan> views(6);
    for (std::size_t j = 0; j < shards.size(); ++j) {
      // Last shard short: exercises the virtual zero-padding.
      std::size_t len = j + 1 < shards.size()
                            ? shard_size
                            : (shard_size > 1 ? shard_size / 2 : 0);
      shards[j].resize(len);
      for (auto& b : shards[j]) b = static_cast<std::uint8_t>(rng.Next());
      views[j] = ByteSpan(shards[j].data(), shards[j].size());
    }

    std::optional<std::vector<Bytes>> oracle;
    for (Gf256Impl impl : AvailableImpls()) {
      Gf256ForceImpl(impl);
      auto parity = rs.value().EncodeParity(views, shard_size);
      ASSERT_TRUE(parity.ok());
      ASSERT_EQ(parity.value().size(), 3u);
      for (const Bytes& p : parity.value()) {
        EXPECT_EQ(p.size(), shard_size);
      }
      if (!oracle.has_value()) {
        oracle = std::move(parity).value();
      } else {
        EXPECT_EQ(parity.value(), *oracle)
            << ImplName(impl) << " shard_size=" << shard_size;
      }
    }
  }
}

// Views of `data` as k data shards in the write path's layout
// (chunk/chunk.h): ErasureShardSize bytes each, the tail ones short.
std::vector<ByteSpan> SplitShards(const Bytes& data, int k) {
  const auto size = static_cast<std::uint32_t>(data.size());
  const std::size_t shard_size = ErasureShardSize(size, k);
  std::vector<ByteSpan> views;
  for (int j = 0; j < k; ++j) {
    const std::size_t offset =
        std::min(static_cast<std::size_t>(j) * shard_size, data.size());
    views.push_back(
        ByteSpan(data).subspan(offset, ErasureShardLength(size, k, j)));
  }
  return views;
}

TEST(Gf256SimdTest, ReconstructAgreesAcrossImplsAndRoundTrips) {
  ForceGuard guard;
  Rng rng(19);
  auto rs = ReedSolomon::Create(4, 2);
  ASSERT_TRUE(rs.ok());
  Bytes data(4 * 333 - 100);  // short tail shard
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  const std::size_t shard_size =
      ErasureShardSize(static_cast<std::uint32_t>(data.size()), 4);
  const std::vector<ByteSpan> views = SplitShards(data, 4);

  std::optional<std::vector<Bytes>> oracle;
  for (Gf256Impl impl : AvailableImpls()) {
    Gf256ForceImpl(impl);
    auto parity = rs.value().EncodeParity(views, shard_size);
    ASSERT_TRUE(parity.ok());
    if (!oracle.has_value()) {
      oracle = parity.value();
    } else {
      EXPECT_EQ(parity.value(), *oracle) << ImplName(impl);
    }
    std::vector<ByteSpan> shards = views;
    for (const Bytes& p : parity.value()) shards.emplace_back(p);
    ASSERT_EQ(shards.size(), 6u);

    // Knock out any m = 2 shards and rebuild both at full width: each must
    // match the original, zero-padded to the shard size.
    for (int a = 0; a < 6; ++a) {
      for (int b = a + 1; b < 6; ++b) {
        std::vector<std::optional<ByteSpan>> damaged(shards.begin(),
                                                     shards.end());
        damaged[static_cast<std::size_t>(a)] = std::nullopt;
        damaged[static_cast<std::size_t>(b)] = std::nullopt;
        std::vector<Bytes> out(2, Bytes(shard_size));
        ASSERT_TRUE(rs.value()
                        .RecoverShards(damaged, shard_size, {a, b},
                                       {MutableByteSpan(out[0]),
                                        MutableByteSpan(out[1])})
                        .ok())
            << ImplName(impl) << " lost " << a << "," << b;
        for (int i : {0, 1}) {
          ByteSpan original = shards[static_cast<std::size_t>(i == 0 ? a : b)];
          Bytes padded(original.begin(), original.end());
          padded.resize(shard_size, 0);
          EXPECT_EQ(out[static_cast<std::size_t>(i)], padded)
              << ImplName(impl) << " lost " << a << "," << b;
        }
      }
    }
  }
}

TEST(Gf256SimdTest, RecoverShardsPrefixAndVirtualPadding) {
  // The data-path contract of RecoverShards: unpadded (short) stored views
  // decode correctly, prefix-length outputs recover just the stored bytes,
  // and an engaged empty view means "present, all zeros" — not a loss.
  ForceGuard guard;
  Rng rng(23);
  auto rs = ReedSolomon::Create(3, 2);
  ASSERT_TRUE(rs.ok());
  const std::size_t shard_size = 50;
  std::vector<Bytes> data(3);
  data[0].resize(shard_size);
  data[1].resize(20);  // short: virtually zero-padded
  data[2].resize(0);   // empty: present, all zeros
  for (auto& shard : data) {
    for (auto& b : shard) b = static_cast<std::uint8_t>(rng.Next());
  }
  std::vector<ByteSpan> views;
  for (const Bytes& shard : data) {
    views.emplace_back(shard.data(), shard.size());
  }
  auto parity = rs.value().EncodeParity(views, shard_size);
  ASSERT_TRUE(parity.ok());

  // Lose shards 0 and 1; recover shard 1's stored 20 bytes only.
  std::vector<std::optional<ByteSpan>> have(5);
  have[2] = views[2];  // engaged empty view
  have[3] = ByteSpan(parity.value()[0].data(), parity.value()[0].size());
  have[4] = ByteSpan(parity.value()[1].data(), parity.value()[1].size());
  Bytes out1(20);
  ASSERT_TRUE(rs.value()
                  .RecoverShards(have, shard_size, {1},
                                 {MutableByteSpan(out1.data(), out1.size())})
                  .ok());
  EXPECT_EQ(out1, data[1]);

  // Recovering a parity shard demands full-width outputs.
  Bytes short_out(10);
  EXPECT_FALSE(rs.value()
                   .RecoverShards(have, shard_size, {0, 3},
                                  {MutableByteSpan(out1.data(), out1.size()),
                                   MutableByteSpan(short_out.data(),
                                                   short_out.size())})
                   .ok());
}

TEST(Gf256SimdTest, RandomizedMulAccumAgreementSweep) {
  // Randomized lengths/alignments/coefficients per impl — the fuzz half of
  // the battery on top of the exhaustive grid above.
  ForceGuard guard;
  Rng rng(29);
  std::vector<std::uint8_t> src_buf(4096 + 64), dst_buf(4096 + 64);
  for (auto& b : src_buf) b = static_cast<std::uint8_t>(rng.Next());
  for (Gf256Impl impl : AvailableImpls()) {
    Gf256ForceImpl(impl);
    for (int round = 0; round < 200; ++round) {
      auto c = static_cast<std::uint8_t>(rng.Next());
      std::size_t n = rng.Next() % 4096;
      std::size_t s_off = rng.Next() % 64;
      std::size_t d_off = rng.Next() % 64;
      for (auto& b : dst_buf) b = static_cast<std::uint8_t>(rng.Next());
      std::vector<std::uint8_t> expect = dst_buf;
      MulAccumOracle(c, src_buf.data() + s_off, expect.data() + d_off, n);
      gf256::MulAccum(c, src_buf.data() + s_off, dst_buf.data() + d_off, n);
      ASSERT_EQ(dst_buf, expect)
          << ImplName(impl) << " round=" << round << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace stdchk
