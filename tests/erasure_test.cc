#include "erasure/reed_solomon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "chunk/chunk.h"
#include "common/rng.h"
#include "erasure/gf256.h"

namespace stdchk {
namespace {

TEST(Gf256Test, AddIsXor) {
  EXPECT_EQ(gf256::Add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(gf256::Add(7, 7), 0);
}

TEST(Gf256Test, MulIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf256::Mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(gf256::Mul(static_cast<std::uint8_t>(a), 0), 0);
    EXPECT_EQ(gf256::Mul(0, static_cast<std::uint8_t>(a)), 0);
  }
}

TEST(Gf256Test, MulCommutativeAssociative) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto a = static_cast<std::uint8_t>(rng.Next());
    auto b = static_cast<std::uint8_t>(rng.Next());
    auto c = static_cast<std::uint8_t>(rng.Next());
    EXPECT_EQ(gf256::Mul(a, b), gf256::Mul(b, a));
    EXPECT_EQ(gf256::Mul(gf256::Mul(a, b), c), gf256::Mul(a, gf256::Mul(b, c)));
  }
}

TEST(Gf256Test, MulDistributesOverAdd) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    auto a = static_cast<std::uint8_t>(rng.Next());
    auto b = static_cast<std::uint8_t>(rng.Next());
    auto c = static_cast<std::uint8_t>(rng.Next());
    EXPECT_EQ(gf256::Mul(a, gf256::Add(b, c)),
              gf256::Add(gf256::Mul(a, b), gf256::Mul(a, c)));
  }
}

TEST(Gf256Test, InverseRoundTrips) {
  for (int a = 1; a < 256; ++a) {
    auto inv = gf256::Inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(gf256::Mul(static_cast<std::uint8_t>(a), inv), 1) << a;
    EXPECT_EQ(gf256::Div(1, static_cast<std::uint8_t>(a)), inv);
  }
}

TEST(Gf256Test, DivInvertsMul) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    auto a = static_cast<std::uint8_t>(rng.Next());
    auto b = static_cast<std::uint8_t>(rng.NextInRange(1, 255));
    EXPECT_EQ(gf256::Div(gf256::Mul(a, b), b), a);
  }
}

TEST(Gf256Test, KnownProduct) {
  // 0x53 * 0xCA = 0x01 in AES-polynomial GF(256)... (0x11B). We use 0x11D,
  // where the classic known pair is 2 * 0x8E = 1 (0x8E = inverse of 2).
  EXPECT_EQ(gf256::Mul(2, gf256::Inv(2)), 1);
  EXPECT_EQ(gf256::Exp(0), 1);
  EXPECT_EQ(gf256::Exp(1), 2);
  EXPECT_EQ(gf256::Exp(255), 1);  // order of the multiplicative group
}

TEST(Gf256Test, MulAccumMatchesScalarLoop) {
  Rng rng(4);
  Bytes src = rng.RandomBytes(1000);
  Bytes dst1 = rng.RandomBytes(1000);
  Bytes dst2 = dst1;
  std::uint8_t c = 0x5A;
  gf256::MulAccum(c, src.data(), dst1.data(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst2[i] = gf256::Add(dst2[i], gf256::Mul(c, src[i]));
  }
  EXPECT_EQ(dst1, dst2);
}

// ---- Reed-Solomon -----------------------------------------------------------

// `data` in the write path's shard layout (chunk/chunk.h): k data shards of
// ErasureShardLength bytes — the tail ones short or empty, virtually
// zero-padded by the codec — followed by the m parity shards EncodeParity
// computes from views of them.
struct Encoded {
  std::size_t shard_size = 0;
  std::vector<Bytes> shards;
};

Encoded Encode(const ReedSolomon& rs, const Bytes& data) {
  const int k = rs.data_shards();
  const auto size = static_cast<std::uint32_t>(data.size());
  Encoded enc;
  enc.shard_size = ErasureShardSize(size, k);
  for (int j = 0; j < k; ++j) {
    const std::size_t begin =
        std::min(static_cast<std::size_t>(j) * enc.shard_size, data.size());
    const std::size_t len = ErasureShardLength(size, k, j);
    enc.shards.emplace_back(data.begin() + static_cast<std::ptrdiff_t>(begin),
                            data.begin() +
                                static_cast<std::ptrdiff_t>(begin + len));
  }
  std::vector<ByteSpan> views(enc.shards.begin(), enc.shards.end());
  auto parity = rs.EncodeParity(views, enc.shard_size);
  EXPECT_TRUE(parity.ok()) << parity.status();
  if (parity.ok()) {
    for (Bytes& p : parity.value()) enc.shards.push_back(std::move(p));
  }
  return enc;
}

// Loses the shards in `lost` and recovers all of them at full shard width
// through RecoverShards. Each recovered shard must equal the original
// zero-padded to the shard size (as the codec sees it), and the data
// shards, cut back to their stored lengths, must reassemble `data`.
void ExpectRecovers(const ReedSolomon& rs, const Encoded& enc,
                    const std::vector<int>& lost, const Bytes& data) {
  std::vector<std::optional<ByteSpan>> have(enc.shards.begin(),
                                            enc.shards.end());
  for (int i : lost) have[static_cast<std::size_t>(i)] = std::nullopt;
  std::vector<Bytes> recovered(lost.size(), Bytes(enc.shard_size));
  std::vector<MutableByteSpan> outs(recovered.begin(), recovered.end());
  ASSERT_TRUE(rs.RecoverShards(have, enc.shard_size, lost, outs).ok());

  std::vector<Bytes> shards = enc.shards;
  for (std::size_t w = 0; w < lost.size(); ++w) {
    Bytes& original = shards[static_cast<std::size_t>(lost[w])];
    Bytes padded = original;
    padded.resize(enc.shard_size, 0);
    EXPECT_EQ(recovered[w], padded) << "shard " << lost[w];
    recovered[w].resize(original.size());
    original = std::move(recovered[w]);
  }
  Bytes block;
  for (int j = 0; j < rs.data_shards(); ++j) {
    const Bytes& shard = shards[static_cast<std::size_t>(j)];
    block.insert(block.end(), shard.begin(), shard.end());
  }
  EXPECT_EQ(block, data);
}

struct RsCase {
  int k;
  int m;
};

class ReedSolomonTest : public ::testing::TestWithParam<RsCase> {};

TEST_P(ReedSolomonTest, SurvivesEveryLossPatternUpToM) {
  const auto [k, m] = GetParam();
  auto rs = ReedSolomon::Create(k, m);
  ASSERT_TRUE(rs.ok());

  Rng rng(static_cast<std::uint64_t>(k * 100 + m));
  Bytes data = rng.RandomBytes(static_cast<std::size_t>(k) * 257 + 13);
  Encoded enc = Encode(*rs, data);
  ASSERT_EQ(enc.shards.size(), static_cast<std::size_t>(k + m));

  // Every set of 1..m lost shards, data and parity alike.
  for (std::uint32_t mask = 1; mask < (1u << (k + m)); ++mask) {
    if (std::popcount(mask) > m) continue;
    std::vector<int> lost;
    for (int i = 0; i < k + m; ++i) {
      if (mask & (1u << i)) lost.push_back(i);
    }
    SCOPED_TRACE("loss mask " + std::to_string(mask));
    ExpectRecovers(*rs, enc, lost, data);
    if (HasFatalFailure()) return;
  }
}

TEST_P(ReedSolomonTest, ReconstructRestoresParityToo) {
  const auto [k, m] = GetParam();
  auto rs = ReedSolomon::Create(k, m);
  ASSERT_TRUE(rs.ok());
  Rng rng(static_cast<std::uint64_t>(k * 7 + m));
  Bytes data = rng.RandomBytes(static_cast<std::size_t>(k) * 64);
  Encoded enc = Encode(*rs, data);

  // Lose the last parity shard, plus a data shard when m allows two losses.
  std::vector<int> lost{k + m - 1};
  if (m >= 2) lost.insert(lost.begin(), 0);
  ExpectRecovers(*rs, enc, lost, data);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ReedSolomonTest,
    ::testing::Values(RsCase{1, 1}, RsCase{2, 1}, RsCase{4, 2}, RsCase{8, 2},
                      RsCase{8, 3}, RsCase{10, 4}, RsCase{16, 4}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.k) + "m" +
             std::to_string(info.param.m);
    });

TEST(ReedSolomonTest, FailsBeyondMLosses) {
  auto rs = ReedSolomon::Create(4, 2);
  ASSERT_TRUE(rs.ok());
  Rng rng(9);
  Encoded enc = Encode(*rs, rng.RandomBytes(4096));
  std::vector<std::optional<ByteSpan>> have(enc.shards.begin(),
                                            enc.shards.end());
  have[0] = have[1] = have[2] = std::nullopt;  // 3 > m = 2
  Bytes out(enc.shard_size);
  EXPECT_EQ(rs->RecoverShards(have, enc.shard_size, {0},
                              {MutableByteSpan(out)})
                .code(),
            StatusCode::kDataLoss);
}

TEST(ReedSolomonTest, NoLossIsNoOp) {
  // With nothing lost the data shards reassemble the block as stored, and
  // asking the intact set for every shard hands back the stored bytes.
  auto rs = ReedSolomon::Create(3, 2);
  ASSERT_TRUE(rs.ok());
  Bytes data = ToBytes("erasure coded checkpoint data");
  Encoded enc = Encode(*rs, data);
  ExpectRecovers(*rs, enc, {}, data);
  std::vector<std::optional<ByteSpan>> have(enc.shards.begin(),
                                            enc.shards.end());
  std::vector<int> all{0, 1, 2, 3, 4};
  std::vector<Bytes> out(all.size(), Bytes(enc.shard_size));
  std::vector<MutableByteSpan> outs(out.begin(), out.end());
  ASSERT_TRUE(rs->RecoverShards(have, enc.shard_size, all, outs).ok());
  for (std::size_t i = 0; i < all.size(); ++i) {
    Bytes padded = enc.shards[i];
    padded.resize(enc.shard_size, 0);
    EXPECT_EQ(out[i], padded) << "shard " << i;
  }
}

TEST(ReedSolomonTest, ValidatesParameters) {
  EXPECT_FALSE(ReedSolomon::Create(0, 1).ok());
  EXPECT_FALSE(ReedSolomon::Create(1, 0).ok());
  EXPECT_FALSE(ReedSolomon::Create(200, 100).ok());
  EXPECT_TRUE(ReedSolomon::Create(251, 4).ok());
}

TEST(ReedSolomonTest, EncodeParityRejectsWrongShardCount) {
  auto rs = ReedSolomon::Create(2, 1);
  ASSERT_TRUE(rs.ok());
  Bytes shard(10);
  std::vector<ByteSpan> one{ByteSpan(shard)};
  EXPECT_EQ(rs->EncodeParity(one, 10).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<ByteSpan> three(3, ByteSpan(shard));
  EXPECT_EQ(rs->EncodeParity(three, 10).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ReedSolomonTest, EncodeParityRejectsViewLongerThanShardSize) {
  // Shorter views are virtually zero-padded; a longer one cannot be.
  auto rs = ReedSolomon::Create(2, 1);
  ASSERT_TRUE(rs.ok());
  Bytes a(10), b(11);
  std::vector<ByteSpan> views{ByteSpan(a), ByteSpan(b)};
  EXPECT_EQ(rs->EncodeParity(views, 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(rs->EncodeParity(views, 11).ok());
}

TEST(ReedSolomonTest, TinyAndEmptyPayloads) {
  auto rs = ReedSolomon::Create(4, 2);
  ASSERT_TRUE(rs.ok());
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{4}, std::size_t{5}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(n + 1);
    Bytes data = rng.RandomBytes(n);
    ExpectRecovers(*rs, Encode(*rs, data), {1, 4}, data);
  }
}

}  // namespace
}  // namespace stdchk
