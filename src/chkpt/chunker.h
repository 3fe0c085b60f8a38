// Chunking heuristics for incremental checkpointing (paper §IV.C).
//
// Two heuristics detect commonality between successive checkpoint images
// without application or OS support:
//
//  * FsCH (fixed-size compare-by-hash): split into equal-size chunks and
//    compare chunk hashes. Fast, but any byte insertion/deletion shifts all
//    following chunk boundaries and destroys detectable similarity.
//
//  * CbCH (content-based compare-by-hash, after LBFS): slide an m-byte
//    window, advancing p bytes per step; declare a boundary when the low k
//    bits of the window hash are zero. Boundaries move with the content, so
//    insertions/deletions perturb at most the chunks they touch. p=1 is the
//    paper's "overlap" variant (every offset inspected, expensive); p=m is
//    "no-overlap" (cheaper, coarser boundaries).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chunk/chunk.h"
#include "common/bytes.h"

namespace stdchk {

// A chunk boundary decision: [offset, offset+size) within the image.
struct ChunkSpan {
  std::uint64_t offset = 0;
  std::uint32_t size = 0;

  bool operator==(const ChunkSpan&) const = default;
};

// Stateful streaming boundary detector. Feed() consumes the next bytes of
// the stream and reports every newly *sealed* boundary — final no matter
// what is appended later — so a caller that streams data in arbitrary
// pieces sees exactly the boundary sequence of a whole-file scan, without
// ever re-scanning bytes it already offered (the planner's old
// re-offer-the-suffix discipline cost O(n·drains) for CbCH). Finish()
// seals the tail at end-of-stream; the scanner is spent afterwards.
class ChunkScanner {
 public:
  virtual ~ChunkScanner() = default;

  // Consumes `data`; appends the absolute stream offset of each newly
  // sealed boundary (the chunk's exclusive end) to `out`, ascending.
  virtual void Feed(ByteSpan data, std::vector<std::uint64_t>& out) = 0;

  // End of stream: appends the remaining tail boundaries (if any bytes
  // lie beyond the last sealed boundary). Terminal.
  virtual void Finish(std::vector<std::uint64_t>& out) = 0;

  // Total stream bytes consumed so far.
  virtual std::uint64_t consumed() const = 0;
};

class Chunker {
 public:
  virtual ~Chunker() = default;

  // Splits `data` into contiguous spans covering [0, data.size()) exactly.
  virtual std::vector<ChunkSpan> Split(ByteSpan data) const = 0;

  // Streaming support: returns the prefix of Split(data) whose boundaries
  // are *sealed* — final no matter how much data is appended after `data`.
  // The caller keeps the uncovered suffix buffered and re-offers it with
  // more bytes later. The default withholds the trailing span, whose end
  // is the buffer end rather than a content-determined boundary; chunkers
  // that can prove the tail final (e.g. a full fixed-size chunk) may
  // override. The write path uses MakeScanner(), which never re-scans.
  virtual std::vector<ChunkSpan> SplitSealed(ByteSpan data) const;

  // Creates a streaming scanner equivalent to this chunker: feeding it a
  // stream in any piece sizes, then Finish(), yields the boundary ends of
  // Split(whole stream). The scanner must not outlive the chunker. Every
  // chunker supplies its own native scanner; a wrapping chunker forwards
  // to the one it wraps.
  virtual std::unique_ptr<ChunkScanner> MakeScanner() const = 0;

  virtual std::string name() const = 0;
};

// FsCH with the given chunk size (paper evaluates 1 KB, 256 KB, 1 MB).
class FixedSizeChunker final : public Chunker {
 public:
  explicit FixedSizeChunker(std::size_t chunk_size);

  std::vector<ChunkSpan> Split(ByteSpan data) const override;
  // A trailing span of exactly chunk_size is sealed: appended data starts
  // the next chunk.
  std::vector<ChunkSpan> SplitSealed(ByteSpan data) const override;
  std::unique_ptr<ChunkScanner> MakeScanner() const override;
  std::string name() const override;
  std::size_t chunk_size() const { return chunk_size_; }

 private:
  std::size_t chunk_size_;
};

struct CbchParams {
  std::size_t window_m = 20;   // bytes covered by the rolling window
  // Boundary density: a boundary fires when k chosen hash bits are all
  // zero (probability 2^-k per inspected position). Which k bits depends
  // on the scan: the p==1 gear scan masks the TOP k bits of its hash (the
  // most mixed ones — see gear::BoundaryMask); hopping and recompute scans
  // mask the low k bits of the Mix64-finalized window hash.
  int boundary_bits_k = 14;
  std::size_t advance_p = 1;   // window advance per step; p==1 -> overlap
  // Safety bound so adversarial content cannot produce unbounded chunks;
  // 0 disables. The paper's tables report multi-MB max chunks, so the
  // default is generous.
  std::uint32_t max_chunk = 16u << 20;
  // Lower bound on chunk size: after each boundary the scan skips ahead so
  // no boundary can land before chunk_start + min_chunk, saving the hash
  // work on the skipped bytes (LBFS-style low-bound). Values <= window_m
  // (including the 0 default) change nothing — the window itself already
  // enforces a min of window_m.
  std::uint32_t min_chunk = 0;

  // Paper-faithful cost model: compute a cryptographic (SHA-1) hash of the
  // m-byte window from scratch at each position. The paper's measured
  // throughputs (~1 MB/s overlap, ~26 MB/s no-overlap, i.e. a fixed ~1 us
  // per window) are consistent with exactly this. When false (default),
  // the scan uses cheap non-cryptographic hashing. A p==1 scan (the write
  // hot path) rolls the gear hash: one shift, add and table lookup per
  // byte, whose effective window is the last 64 bytes whatever window_m
  // says (window_m still sets the warm-up, i.e. the minimum chunk). A
  // position's hash depends on those 64 bytes alone, so the scan marks
  // candidates in parallel 64 KiB segments on the shared HashPool, then
  // applies the boundary rules in stream order; the boundaries equal a
  // one-byte serial scan's. A hopping scan hashes each window with FNV.
  // These are the optimizations the paper leaves as future work
  // ("offloading the intensive hashing computations"). Boundary placement
  // differs between modes (different hash functions) but both are
  // content-defined.
  bool recompute_per_window = false;

  bool overlap() const { return advance_p == 1; }
};

class ContentBasedChunker final : public Chunker {
 public:
  explicit ContentBasedChunker(CbchParams params);

  std::vector<ChunkSpan> Split(ByteSpan data) const override;
  std::unique_ptr<ChunkScanner> MakeScanner() const override;
  std::string name() const override;
  const CbchParams& params() const { return params_; }

 private:
  CbchParams params_;
};

// Statistics over the chunk-size distribution of one image (Table 4 columns).
struct ChunkSizeStats {
  std::size_t count = 0;
  double avg_bytes = 0;
  std::uint32_t min_bytes = 0;
  std::uint32_t max_bytes = 0;
};
ChunkSizeStats ComputeChunkSizeStats(const std::vector<ChunkSpan>& spans);

// Hashes every span of `data`, producing the content addresses used for
// compare-by-hash.
std::vector<ChunkId> HashChunks(ByteSpan data,
                                const std::vector<ChunkSpan>& spans);

}  // namespace stdchk
