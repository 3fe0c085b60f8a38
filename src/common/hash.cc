#include "common/hash.h"

#include <atomic>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define STDCHK_SHA_NI_CANDIDATE 1
#endif

namespace stdchk {
namespace {

inline std::uint32_t RotL(std::uint32_t v, int n) {
  return (v << n) | (v >> (32 - n));
}

inline std::uint32_t Be32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return __builtin_bswap32(v);
}

// ---- Reference compressor ---------------------------------------------------
// The textbook formulation: full 80-word schedule, byte-at-a-time loads,
// round-type branch in the loop. Kept verbatim as the oracle the fast
// compressors are differential-tested against (hash_test) and as the
// faithful "before" in bench_datapath.
void ProcessBlocksReference(std::uint32_t* state, const std::uint8_t* block,
                            std::size_t nblocks) {
  while (nblocks--) {
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
             (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = RotL(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4];
    for (int i = 0; i < 80; ++i) {
      std::uint32_t f, k;
      if (i < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      std::uint32_t temp = RotL(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = RotL(b, 30);
      b = a;
      a = temp;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    block += 64;
  }
}

// ---- Portable compressor ----------------------------------------------------
// Fully unrolled rounds over a 16-word circular schedule: no w[80]
// expansion pass, no per-round branch on the round index.
void ProcessBlocksPortable(std::uint32_t* state, const std::uint8_t* p,
                           std::size_t nblocks) {
  std::uint32_t w[16];
  while (nblocks--) {
#define STDCHK_W(i) w[(i) & 15]
#define STDCHK_SRC(i) (w[i] = Be32(p + 4 * (i)))
#define STDCHK_MIX(i)                                              \
  (STDCHK_W(i) = RotL(STDCHK_W((i) + 13) ^ STDCHK_W((i) + 8) ^     \
                          STDCHK_W((i) + 2) ^ STDCHK_W(i),         \
                      1))
#define STDCHK_RND(a, b, c, d, e, F, K, X) \
  e += RotL(a, 5) + (F) + (K) + (X);       \
  b = RotL(b, 30);
#define STDCHK_F1(b, c, d) ((((c) ^ (d)) & (b)) ^ (d))
#define STDCHK_F2(b, c, d) ((b) ^ (c) ^ (d))
#define STDCHK_F3(b, c, d) ((((b) | (c)) & (d)) | ((b) & (c)))
#define STDCHK_R0(a, b, c, d, e, i) \
  STDCHK_RND(a, b, c, d, e, STDCHK_F1(b, c, d), 0x5A827999u, STDCHK_SRC(i))
#define STDCHK_R1(a, b, c, d, e, i) \
  STDCHK_RND(a, b, c, d, e, STDCHK_F1(b, c, d), 0x5A827999u, STDCHK_MIX(i))
#define STDCHK_R2(a, b, c, d, e, i) \
  STDCHK_RND(a, b, c, d, e, STDCHK_F2(b, c, d), 0x6ED9EBA1u, STDCHK_MIX(i))
#define STDCHK_R3(a, b, c, d, e, i) \
  STDCHK_RND(a, b, c, d, e, STDCHK_F3(b, c, d), 0x8F1BBCDCu, STDCHK_MIX(i))
#define STDCHK_R4(a, b, c, d, e, i) \
  STDCHK_RND(a, b, c, d, e, STDCHK_F2(b, c, d), 0xCA62C1D6u, STDCHK_MIX(i))

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4];
    STDCHK_R0(a, b, c, d, e, 0);
    STDCHK_R0(e, a, b, c, d, 1);
    STDCHK_R0(d, e, a, b, c, 2);
    STDCHK_R0(c, d, e, a, b, 3);
    STDCHK_R0(b, c, d, e, a, 4);
    STDCHK_R0(a, b, c, d, e, 5);
    STDCHK_R0(e, a, b, c, d, 6);
    STDCHK_R0(d, e, a, b, c, 7);
    STDCHK_R0(c, d, e, a, b, 8);
    STDCHK_R0(b, c, d, e, a, 9);
    STDCHK_R0(a, b, c, d, e, 10);
    STDCHK_R0(e, a, b, c, d, 11);
    STDCHK_R0(d, e, a, b, c, 12);
    STDCHK_R0(c, d, e, a, b, 13);
    STDCHK_R0(b, c, d, e, a, 14);
    STDCHK_R0(a, b, c, d, e, 15);
    STDCHK_R1(e, a, b, c, d, 16);
    STDCHK_R1(d, e, a, b, c, 17);
    STDCHK_R1(c, d, e, a, b, 18);
    STDCHK_R1(b, c, d, e, a, 19);
    STDCHK_R2(a, b, c, d, e, 20);
    STDCHK_R2(e, a, b, c, d, 21);
    STDCHK_R2(d, e, a, b, c, 22);
    STDCHK_R2(c, d, e, a, b, 23);
    STDCHK_R2(b, c, d, e, a, 24);
    STDCHK_R2(a, b, c, d, e, 25);
    STDCHK_R2(e, a, b, c, d, 26);
    STDCHK_R2(d, e, a, b, c, 27);
    STDCHK_R2(c, d, e, a, b, 28);
    STDCHK_R2(b, c, d, e, a, 29);
    STDCHK_R2(a, b, c, d, e, 30);
    STDCHK_R2(e, a, b, c, d, 31);
    STDCHK_R2(d, e, a, b, c, 32);
    STDCHK_R2(c, d, e, a, b, 33);
    STDCHK_R2(b, c, d, e, a, 34);
    STDCHK_R2(a, b, c, d, e, 35);
    STDCHK_R2(e, a, b, c, d, 36);
    STDCHK_R2(d, e, a, b, c, 37);
    STDCHK_R2(c, d, e, a, b, 38);
    STDCHK_R2(b, c, d, e, a, 39);
    STDCHK_R3(a, b, c, d, e, 40);
    STDCHK_R3(e, a, b, c, d, 41);
    STDCHK_R3(d, e, a, b, c, 42);
    STDCHK_R3(c, d, e, a, b, 43);
    STDCHK_R3(b, c, d, e, a, 44);
    STDCHK_R3(a, b, c, d, e, 45);
    STDCHK_R3(e, a, b, c, d, 46);
    STDCHK_R3(d, e, a, b, c, 47);
    STDCHK_R3(c, d, e, a, b, 48);
    STDCHK_R3(b, c, d, e, a, 49);
    STDCHK_R3(a, b, c, d, e, 50);
    STDCHK_R3(e, a, b, c, d, 51);
    STDCHK_R3(d, e, a, b, c, 52);
    STDCHK_R3(c, d, e, a, b, 53);
    STDCHK_R3(b, c, d, e, a, 54);
    STDCHK_R3(a, b, c, d, e, 55);
    STDCHK_R3(e, a, b, c, d, 56);
    STDCHK_R3(d, e, a, b, c, 57);
    STDCHK_R3(c, d, e, a, b, 58);
    STDCHK_R3(b, c, d, e, a, 59);
    STDCHK_R4(a, b, c, d, e, 60);
    STDCHK_R4(e, a, b, c, d, 61);
    STDCHK_R4(d, e, a, b, c, 62);
    STDCHK_R4(c, d, e, a, b, 63);
    STDCHK_R4(b, c, d, e, a, 64);
    STDCHK_R4(a, b, c, d, e, 65);
    STDCHK_R4(e, a, b, c, d, 66);
    STDCHK_R4(d, e, a, b, c, 67);
    STDCHK_R4(c, d, e, a, b, 68);
    STDCHK_R4(b, c, d, e, a, 69);
    STDCHK_R4(a, b, c, d, e, 70);
    STDCHK_R4(e, a, b, c, d, 71);
    STDCHK_R4(d, e, a, b, c, 72);
    STDCHK_R4(c, d, e, a, b, 73);
    STDCHK_R4(b, c, d, e, a, 74);
    STDCHK_R4(a, b, c, d, e, 75);
    STDCHK_R4(e, a, b, c, d, 76);
    STDCHK_R4(d, e, a, b, c, 77);
    STDCHK_R4(c, d, e, a, b, 78);
    STDCHK_R4(b, c, d, e, a, 79);
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    p += 64;

#undef STDCHK_R4
#undef STDCHK_R3
#undef STDCHK_R2
#undef STDCHK_R1
#undef STDCHK_R0
#undef STDCHK_F3
#undef STDCHK_F2
#undef STDCHK_F1
#undef STDCHK_RND
#undef STDCHK_MIX
#undef STDCHK_SRC
#undef STDCHK_W
  }
}

// ---- x86 SHA-extensions compressor ------------------------------------------
#ifdef STDCHK_SHA_NI_CANDIDATE
__attribute__((target("sha,ssse3,sse4.1"))) void ProcessBlocksShaNi(
    std::uint32_t* state, const std::uint8_t* data, std::size_t nblocks) {
  const __m128i kShuffle =
      _mm_set_epi64x(0x0001020304050607ll, 0x08090a0b0c0d0e0fll);
  __m128i abcd =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)),
                        0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  __m128i e1;

  while (nblocks--) {
    const __m128i abcd_save = abcd;
    const __m128i e0_save = e0;

    __m128i msg0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0)), kShuffle);
    __m128i msg1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)), kShuffle);
    __m128i msg2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)), kShuffle);
    __m128i msg3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)), kShuffle);

    // Rounds 0-3
    e0 = _mm_add_epi32(e0, msg0);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    // Rounds 4-7
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    // Rounds 8-11
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);
    // Rounds 12-15
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);
    // Rounds 16-19
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);
    // Rounds 20-23
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);
    // Rounds 24-27
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);
    // Rounds 28-31
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);
    // Rounds 32-35
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);
    // Rounds 36-39
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);
    // Rounds 40-43
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);
    // Rounds 44-47
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);
    // Rounds 48-51
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);
    // Rounds 52-55
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);
    // Rounds 56-59
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);
    // Rounds 60-63
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);
    // Rounds 64-67
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);
    // Rounds 68-71
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    msg3 = _mm_xor_si128(msg3, msg1);
    // Rounds 72-75
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);
    // Rounds 76-79
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);

    e0 = _mm_sha1nexte_epu32(e0, e0_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
    data += 64;
  }

  abcd = _mm_shuffle_epi32(abcd, 0x1B);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abcd);
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}
#endif  // STDCHK_SHA_NI_CANDIDATE

using BlockFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

bool CpuHasShaNi() {
#ifdef STDCHK_SHA_NI_CANDIDATE
  return __builtin_cpu_supports("sha");
#else
  return false;
#endif
}

BlockFn DetectBlockFn() {
#ifdef STDCHK_SHA_NI_CANDIDATE
  if (CpuHasShaNi()) return &ProcessBlocksShaNi;
#endif
  return &ProcessBlocksPortable;
}

// Bench/test override; nullptr means "use the detected best". Atomic so
// the write path's parallel hashing workers can read it while a bench or
// test thread switches implementations between phases.
std::atomic<BlockFn> g_forced_block_fn{nullptr};

inline BlockFn ActiveBlockFn() {
  static const BlockFn detected = DetectBlockFn();
  BlockFn forced = g_forced_block_fn.load(std::memory_order_relaxed);
  return forced ? forced : detected;
}

}  // namespace

Sha1Impl Sha1ActiveImpl() {
#ifdef STDCHK_SHA_NI_CANDIDATE
  if (ActiveBlockFn() == &ProcessBlocksShaNi) return Sha1Impl::kShaNi;
#endif
  if (ActiveBlockFn() == &ProcessBlocksReference) return Sha1Impl::kReference;
  return Sha1Impl::kPortable;
}

void Sha1ForceImpl(Sha1Impl impl) {
  switch (impl) {
    case Sha1Impl::kAuto:
      g_forced_block_fn = nullptr;
      return;
    case Sha1Impl::kPortable:
      g_forced_block_fn = &ProcessBlocksPortable;
      return;
    case Sha1Impl::kShaNi:
#ifdef STDCHK_SHA_NI_CANDIDATE
      if (CpuHasShaNi()) {
        g_forced_block_fn = &ProcessBlocksShaNi;
        return;
      }
#endif
      g_forced_block_fn = &ProcessBlocksPortable;
      return;
    case Sha1Impl::kReference:
      g_forced_block_fn = &ProcessBlocksReference;
      return;
  }
}

std::string Sha1Digest::ToHex() const {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

std::uint64_t Sha1Digest::Prefix64() const {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | bytes[static_cast<std::size_t>(i)];
  return v;
}

Sha1Hasher::Sha1Hasher()
    : state_{0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u} {}

void Sha1Hasher::Update(ByteSpan data) {
  // An empty span may carry a null data(), which memcpy must never see.
  if (data.empty()) return;
  total_bytes_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  const BlockFn process = ActiveBlockFn();

  if (buffered_ > 0) {
    std::size_t take = std::min(n, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ == buffer_.size()) {
      process(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (std::size_t blocks = n / 64; blocks > 0) {
    // Whole blocks are compressed straight out of the caller's span — no
    // staging through the 64-byte buffer.
    process(state_.data(), p, blocks);
    p += blocks * 64;
    n -= blocks * 64;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffered_ = n;
  }
}

Sha1Digest Sha1Hasher::Finish() {
  std::uint64_t bit_len = total_bytes_ * 8;
  const std::uint8_t pad = 0x80;
  Update(ByteSpan(&pad, 1));
  const std::uint8_t zero = 0x00;
  while (buffered_ != 56) Update(ByteSpan(&zero, 1));
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  Update(ByteSpan(len_be, 8));

  Sha1Digest digest;
  for (int i = 0; i < 5; ++i) {
    digest.bytes[static_cast<std::size_t>(i * 4)] =
        static_cast<std::uint8_t>(state_[i] >> 24);
    digest.bytes[static_cast<std::size_t>(i * 4 + 1)] =
        static_cast<std::uint8_t>(state_[i] >> 16);
    digest.bytes[static_cast<std::size_t>(i * 4 + 2)] =
        static_cast<std::uint8_t>(state_[i] >> 8);
    digest.bytes[static_cast<std::size_t>(i * 4 + 3)] =
        static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha1Digest Sha1(ByteSpan data) {
  Sha1Hasher hasher;
  hasher.Update(data);
  return hasher.Finish();
}

std::uint64_t Fnv1a64(ByteSpan data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t Fnv1a64(std::string_view data) {
  return Fnv1a64(ByteSpan(reinterpret_cast<const std::uint8_t*>(data.data()),
                          data.size()));
}

}  // namespace stdchk
