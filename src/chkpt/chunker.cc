#include "chkpt/chunker.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/hash.h"
#include "common/hash_pool.h"
#include "common/rolling_hash.h"

namespace stdchk {
namespace {

class FixedScanner final : public ChunkScanner {
 public:
  explicit FixedScanner(std::size_t chunk_size) : chunk_size_(chunk_size) {}

  void Feed(ByteSpan data, std::vector<std::uint64_t>& out) override {
    consumed_ += data.size();
    while (consumed_ - sealed_ >= chunk_size_) {
      sealed_ += chunk_size_;
      out.push_back(sealed_);
    }
  }

  void Finish(std::vector<std::uint64_t>& out) override {
    if (consumed_ > sealed_) {
      sealed_ = consumed_;
      out.push_back(sealed_);
    }
  }

  std::uint64_t consumed() const override { return consumed_; }

 private:
  std::size_t chunk_size_;
  std::uint64_t consumed_ = 0;
  std::uint64_t sealed_ = 0;
};

std::size_t SkipAfterBoundary(const CbchParams& params) {
  return params.min_chunk > params.window_m
             ? params.min_chunk - params.window_m
             : 0;
}

// The gear hash is a function of the last kGearWindow bytes only: each
// byte's contribution shifts out of the 64-bit state after that many steps.
constexpr std::size_t kGearWindow = 64;
// Phase 1's unit of parallel work. A multiple of 64 bytes, so each segment
// owns whole bitmap words and no word is written by two tasks.
constexpr std::size_t kMarkSegmentBytes = 64 << 10;
static_assert(kMarkSegmentBytes % 64 == 0 && kMarkSegmentBytes >= kGearWindow);
// Feeds longer than this (a whole-image Split, a CLW close) are scanned a
// round at a time, which caps the bitmap at kMarkRoundBytes / 8 bytes.
constexpr std::size_t kMarkRoundBytes = 64 * kMarkSegmentBytes;

// Phase 1 for one segment, data[begin, end): sets bit j - begin of `words`
// when the free-running gear hash after byte j has its masked bits zero.
// `h` is that hash just before `begin`; only segment 0 of a round gets it
// from the caller, the others rebuild it from the kGearWindow bytes before
// them. The segment's two halves run as two interleaved hash chains, whose
// latencies overlap, and the test is a branch that is almost never taken:
// on one core of a Xeon VM this took about a fifth less time per byte
// than a single chain. Everything the loops touch is a local or an
// argument: reading the table or the mask through a lambda capture runs
// far slower. The function is kept out of line on a 64-byte boundary, so
// where its loops fall across cache lines depends on this code alone: left
// to the linker, a change in the size of unrelated code elsewhere in the
// binary moved the inlined loops across one more line and the scan ran
// about 40% slower per byte on the same Xeon VM (0.31 vs 0.44 ns/B).
[[gnu::noinline, gnu::aligned(64)]] void MarkGearSegment(
    const std::uint8_t* data, std::size_t begin, std::size_t end,
    std::uint64_t h, std::uint64_t mask, std::uint64_t* words) {
  const std::uint64_t* const table = gear::kTable.data();
  auto warm_up = [table](const std::uint8_t* at) {
    std::uint64_t g = 0;
    for (const std::uint8_t* p = at - kGearWindow; p < at; ++p) {
      g = (g << 1) + table[*p];
    }
    return g;
  };
  if (begin > 0) h = warm_up(data + begin);
  // Halves are whole bitmap words; a short tail follows the second.
  const std::size_t half_words = (end - begin) / 128;
  const std::uint8_t* a = data + begin;
  const std::uint8_t* b = a + half_words * 64;
  if (half_words > 0) {
    std::uint64_t g = warm_up(b);
    for (std::size_t w = 0; w < half_words; ++w, a += 64, b += 64) {
      std::uint64_t bits_a = 0, bits_b = 0;
      for (unsigned bit = 0; bit < 64; ++bit) {
        h = (h << 1) + table[a[bit]];
        g = (g << 1) + table[b[bit]];
        if ((h & mask) == 0) bits_a |= 1ull << bit;
        if ((g & mask) == 0) bits_b |= 1ull << bit;
      }
      words[w] = bits_a;
      words[half_words + w] = bits_b;
    }
    h = g;
    words += 2 * half_words;
  }
  std::uint64_t bits = 0;
  unsigned bit = 0;
  for (const std::uint8_t* p = b; p < data + end; ++p) {
    h = (h << 1) + table[*p];
    if ((h & mask) == 0) bits |= 1ull << bit;
    if (++bit == 64) {
      *words++ = bits;
      bits = 0;
      bit = 0;
    }
  }
  if (bit > 0) *words = bits;
}

// p == 1 with the gear/CDC hash: the cheapest boundary scan. No ring
// buffer — bytes age out of the 64-bit state by shifting. window_m is
// honoured as a warm-up: no boundary can be declared until m bytes of the
// open chunk have been hashed, matching the windowed scanners'
// minimum-chunk behaviour. Each fed span is scanned in two phases:
//
//  1. On the shared HashPool, a bitmap marks every position where the
//     free-running hash (never reset, carried across Feed calls) has its
//     masked bits zero. 64 KiB segments run in parallel, each warming up
//     on the 64 bytes before it.
//  2. On the caller, in stream order, the rules that depend on the
//     previous boundary: the reset, the min_chunk skip, the window_m
//     warm-up and max_chunk. After each boundary the reset state is hashed
//     byte by byte until max(window_m, 64) bytes are in; from there it
//     equals the free-running hash, so the scan jumps to the next mark or
//     the forced position.
//
// The carried free-running hash and the phase-2 state are the only things
// that straddle Feed edges, so streaming reproduces the whole-file scan
// bit for bit.
class CbchGearScanner final : public ChunkScanner {
 public:
  explicit CbchGearScanner(const CbchParams& params)
      : m_(params.window_m),
        warm_(std::max(params.window_m, kGearWindow)),
        mask_(gear::BoundaryMask(params.boundary_bits_k)),
        max_chunk_(params.max_chunk),
        skip_init_(SkipAfterBoundary(params)),
        skip_left_(SkipAfterBoundary(params)) {}  // min applies to chunk 0

  void Feed(ByteSpan data, std::vector<std::uint64_t>& out) override {
    for (std::size_t off = 0; off < data.size(); off += kMarkRoundBytes) {
      ByteSpan round =
          data.subspan(off, std::min(kMarkRoundBytes, data.size() - off));
      Mark(round);
      Walk(round, out);
    }
  }

  void Finish(std::vector<std::uint64_t>& out) override {
    if (pos_ > chunk_start_) {
      out.push_back(pos_);
      chunk_start_ = pos_;
    }
  }

  std::uint64_t consumed() const override { return pos_; }

 private:
  // Phase 1: fills marks_ for `round` and advances free_hash_ past it.
  void Mark(ByteSpan round) {
    const std::size_t n = round.size();
    const std::size_t segments =
        (n + kMarkSegmentBytes - 1) / kMarkSegmentBytes;
    marks_.resize((n + 63) / 64);
    const std::uint8_t* const data = round.data();
    std::uint64_t* const words = marks_.data();
    const std::uint64_t carry = free_hash_, mask = mask_;
    HashPool::Shared().ParallelFor(
        segments, static_cast<int>(segments),
        [data, words, n, carry, mask](std::size_t s) {
          const std::size_t begin = s * kMarkSegmentBytes;
          MarkGearSegment(data, begin,
                          std::min(begin + kMarkSegmentBytes, n), carry, mask,
                          words + begin / 64);
        });
    std::uint64_t h = n >= kGearWindow ? 0 : free_hash_;
    for (std::size_t j = n - std::min(n, kGearWindow); j < n; ++j) {
      h = gear::Update(h, data[j]);
    }
    free_hash_ = h;
  }

  // First marked bit in [lo, hi), or hi.
  std::size_t NextMark(std::size_t lo, std::size_t hi) const {
    if (lo >= hi) return hi;
    std::size_t w = lo / 64;
    const std::size_t last = (hi - 1) / 64;
    std::uint64_t word = marks_[w] & (~0ull << (lo % 64));
    while (word == 0) {
      if (w == last) return hi;
      word = marks_[++w];
    }
    return std::min(w * 64 + static_cast<std::size_t>(std::countr_zero(word)),
                    hi);
  }

  // Phase 2: boundary decisions over `round`, whose marks are in marks_.
  // Mark bit j stands for the position just after round byte j.
  void Walk(ByteSpan round, std::vector<std::uint64_t>& out) {
    const std::uint8_t* const data = round.data();
    const std::uint64_t start = pos_;
    const std::uint64_t stop = start + round.size();
    const std::uint64_t* const table = gear::kTable.data();
    std::uint64_t h = hash_;
    std::uint64_t pos = pos_, chunk_start = chunk_start_;
    std::size_t filled = filled_, skip = skip_left_;

    while (pos < stop) {
      bool cut = false;
      if (skip > 0) {
        std::size_t take =
            static_cast<std::size_t>(std::min<std::uint64_t>(skip, stop - pos));
        pos += take;
        skip -= take;
        continue;
      }
      if (filled < warm_) {
        // The reset state still differs from the free-running hash (or
        // window_m has not been reached): hash it byte by byte.
        while (pos < stop && filled < warm_) {
          h = (h << 1) + table[data[pos - start]];
          ++pos;
          ++filled;
          if (filled >= m_ &&
              ((h & mask_) == 0 ||
               (max_chunk_ != 0 && pos - chunk_start >= max_chunk_))) {
            cut = true;
            break;
          }
        }
      } else {
        // Every position up to pos has been checked, so a forced boundary
        // lies beyond it.
        const std::uint64_t forced =
            max_chunk_ != 0 ? chunk_start + max_chunk_ : UINT64_MAX;
        const std::uint64_t limit = std::min(stop, forced);
        const std::size_t hi = static_cast<std::size_t>(limit - start);
        std::size_t j = NextMark(static_cast<std::size_t>(pos - start), hi);
        pos = j < hi ? start + j + 1 : limit;
        cut = j < hi || limit == forced;
      }
      if (cut) {
        out.push_back(pos);
        chunk_start = pos;
        h = 0;
        filled = 0;
        skip = skip_init_;
      }
    }

    hash_ = h;
    pos_ = pos;
    chunk_start_ = chunk_start;
    filled_ = filled;
    skip_left_ = skip;
  }

  const std::size_t m_;
  const std::size_t warm_;  // reset-state bytes hashed before marks apply
  const std::uint64_t mask_;
  const std::uint64_t max_chunk_;
  const std::size_t skip_init_;

  std::uint64_t free_hash_ = 0;    // free-running hash at pos_
  std::vector<std::uint64_t> marks_;  // phase-1 bitmap of the current round
  std::uint64_t hash_ = 0;         // reset-state hash of the open chunk
  std::size_t filled_ = 0;         // reset-state bytes hashed, to warm_
  std::uint64_t pos_ = 0;          // stream bytes consumed
  std::uint64_t chunk_start_ = 0;  // start of the open chunk
  std::size_t skip_left_;          // min-chunk skip-ahead remaining
};

// Hopping windows (p > 1) and the paper-faithful recompute mode (a full
// window hash — SHA-1 or FNV — at every inspected position). Windows may
// straddle Feed edges; a carry of at most m-1 stream bytes stitches them.
class CbchHopScanner final : public ChunkScanner {
 public:
  explicit CbchHopScanner(const CbchParams& params)
      : params_(params),
        m_(params.window_m),
        advance_(params.advance_p),
        mask_((1ull << params.boundary_bits_k) - 1),
        skip_init_(SkipAfterBoundary(params)),
        next_window_(SkipAfterBoundary(params)) {}  // min applies to chunk 0

  void Feed(ByteSpan data, std::vector<std::uint64_t>& out) override {
    const std::uint64_t data_start = pos_;
    pos_ += data.size();

    // Windows straddling the carry/data border are stitched into `tmp`.
    Bytes tmp;
    while (next_window_ + m_ <= pos_) {
      std::uint64_t h;
      if (next_window_ >= data_start) {
        h = WindowHash(data.subspan(
            static_cast<std::size_t>(next_window_ - data_start), m_));
      } else {
        std::size_t from_carry =
            static_cast<std::size_t>(data_start - next_window_);
        std::size_t carry_off = carry_.size() - from_carry;
        tmp.assign(carry_.begin() + static_cast<std::ptrdiff_t>(carry_off),
                   carry_.end());
        tmp.insert(tmp.end(), data.begin(),
                   data.begin() + static_cast<std::ptrdiff_t>(m_ - from_carry));
        h = WindowHash(tmp);
      }
      std::uint64_t window_end = next_window_ + m_;
      bool boundary = (Mix64(h) & mask_) == 0;
      bool forced = params_.max_chunk != 0 &&
                    window_end - chunk_start_ >= params_.max_chunk;
      if (boundary || forced) {
        out.push_back(window_end);
        chunk_start_ = window_end;
        next_window_ = window_end + skip_init_;
      } else {
        next_window_ += advance_;
      }
    }

    // Keep the stream bytes the next window still needs (< m of them).
    if (next_window_ >= data_start) {
      std::size_t keep_from =
          static_cast<std::size_t>(next_window_ - data_start);
      keep_from = std::min(keep_from, data.size());
      carry_.assign(data.begin() + static_cast<std::ptrdiff_t>(keep_from),
                    data.end());
    } else {
      Append(carry_, data);
    }
  }

  void Finish(std::vector<std::uint64_t>& out) override {
    if (pos_ > chunk_start_) {
      out.push_back(pos_);
      chunk_start_ = pos_;
    }
  }

  std::uint64_t consumed() const override { return pos_; }

 private:
  std::uint64_t WindowHash(ByteSpan window) const {
    return params_.recompute_per_window ? Sha1(window).Prefix64()
                                        : Fnv1a64(window);
  }

  const CbchParams params_;
  const std::size_t m_;
  const std::size_t advance_;
  const std::uint64_t mask_;
  const std::size_t skip_init_;

  Bytes carry_;  // stream bytes [next_window_, pos_) not yet scanned past
  std::uint64_t pos_ = 0;
  std::uint64_t next_window_;  // absolute start of the next window
  std::uint64_t chunk_start_ = 0;
};

std::vector<ChunkSpan> SpansFromEnds(std::uint64_t total,
                                     const std::vector<std::uint64_t>& ends) {
  std::vector<ChunkSpan> out;
  out.reserve(ends.size());
  std::uint64_t start = 0;
  for (std::uint64_t end : ends) {
    out.push_back(ChunkSpan{start, static_cast<std::uint32_t>(end - start)});
    start = end;
  }
  assert(start == total);
  (void)total;
  return out;
}

}  // namespace

std::vector<ChunkSpan> Chunker::SplitSealed(ByteSpan data) const {
  std::vector<ChunkSpan> spans = Split(data);
  // Conservative default: the trailing span ends at the buffer edge, not at
  // a content-determined boundary, so it may still grow.
  if (!spans.empty()) spans.pop_back();
  return spans;
}

FixedSizeChunker::FixedSizeChunker(std::size_t chunk_size)
    : chunk_size_(chunk_size) {
  assert(chunk_size_ > 0);
}

std::vector<ChunkSpan> FixedSizeChunker::Split(ByteSpan data) const {
  std::vector<ChunkSpan> out;
  out.reserve(data.size() / chunk_size_ + 1);
  std::uint64_t offset = 0;
  while (offset < data.size()) {
    std::uint32_t size = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(chunk_size_, data.size() - offset));
    out.push_back(ChunkSpan{offset, size});
    offset += size;
  }
  return out;
}

std::vector<ChunkSpan> FixedSizeChunker::SplitSealed(ByteSpan data) const {
  std::vector<ChunkSpan> spans = Split(data);
  if (!spans.empty() && spans.back().size < chunk_size_) spans.pop_back();
  return spans;
}

std::unique_ptr<ChunkScanner> FixedSizeChunker::MakeScanner() const {
  return std::make_unique<FixedScanner>(chunk_size_);
}

std::string FixedSizeChunker::name() const {
  return "FsCH(" + std::to_string(chunk_size_) + ")";
}

ContentBasedChunker::ContentBasedChunker(CbchParams params)
    : params_(params) {
  assert(params_.window_m > 0);
  assert(params_.advance_p > 0);
  assert(params_.boundary_bits_k > 0 && params_.boundary_bits_k < 64);
}

// The scanner is the single source of truth for boundary placement: the
// whole-file split simply streams the image through a fresh scanner, so
// streaming (planner) and one-shot scans agree by construction.
std::vector<ChunkSpan> ContentBasedChunker::Split(ByteSpan data) const {
  if (data.empty()) return {};
  std::unique_ptr<ChunkScanner> scanner = MakeScanner();
  std::vector<std::uint64_t> ends;
  scanner->Feed(data, ends);
  scanner->Finish(ends);
  return SpansFromEnds(data.size(), ends);
}

std::unique_ptr<ChunkScanner> ContentBasedChunker::MakeScanner() const {
  if (params_.overlap() && !params_.recompute_per_window) {
    return std::make_unique<CbchGearScanner>(params_);
  }
  return std::make_unique<CbchHopScanner>(params_);
}

std::string ContentBasedChunker::name() const {
  std::string out = "CbCH(m=" + std::to_string(params_.window_m) +
                    ",k=" + std::to_string(params_.boundary_bits_k) +
                    ",p=" + std::to_string(params_.advance_p);
  if (params_.min_chunk > 0) {
    out += ",min=" + std::to_string(params_.min_chunk);
  }
  if (params_.overlap() && !params_.recompute_per_window) out += ",gear";
  return out + ")";
}

ChunkSizeStats ComputeChunkSizeStats(const std::vector<ChunkSpan>& spans) {
  ChunkSizeStats stats;
  if (spans.empty()) return stats;
  stats.count = spans.size();
  stats.min_bytes = spans[0].size;
  stats.max_bytes = spans[0].size;
  double total = 0;
  for (const ChunkSpan& span : spans) {
    total += span.size;
    stats.min_bytes = std::min(stats.min_bytes, span.size);
    stats.max_bytes = std::max(stats.max_bytes, span.size);
  }
  stats.avg_bytes = total / static_cast<double>(spans.size());
  return stats;
}

std::vector<ChunkId> HashChunks(ByteSpan data,
                                const std::vector<ChunkSpan>& spans) {
  std::vector<ChunkId> out;
  out.reserve(spans.size());
  for (const ChunkSpan& span : spans) {
    out.push_back(ChunkId::For(data.subspan(span.offset, span.size)));
  }
  return out;
}

}  // namespace stdchk
