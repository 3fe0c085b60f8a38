// Micro-benchmarks (google-benchmark) for the hashing primitives that set
// the similarity heuristics' throughput ceilings: SHA-1 (chunk naming,
// portable vs hardware-accelerated), FNV-1a (window hashing), the gear
// rolling hash, and the full chunkers.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "chkpt/chunker.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/rolling_hash.h"

namespace stdchk {
namespace {

Bytes MakeInput(std::size_t n) {
  Rng rng(1234);
  return rng.RandomBytes(n);
}

void BM_Sha1(benchmark::State& state) {
  Bytes data = MakeInput(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(4096)->Arg(1 << 20);

// The two block compressors head to head (kShaNi falls back to portable on
// CPUs without SHA extensions, collapsing the comparison to a no-op).
void BM_Sha1Impl(benchmark::State& state) {
  Bytes data = MakeInput(1 << 20);
  static constexpr Sha1Impl kImpls[] = {Sha1Impl::kReference,
                                        Sha1Impl::kPortable, Sha1Impl::kShaNi};
  Sha1ForceImpl(kImpls[state.range(0)]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1(data));
  }
  Sha1ForceImpl(Sha1Impl::kAuto);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Sha1Impl)
    ->Arg(0)   // textbook reference (the pre-optimization compressor)
    ->Arg(1)   // portable (unrolled scalar)
    ->Arg(2);  // hardware SHA extensions when available

void BM_Fnv1a(benchmark::State& state) {
  Bytes data = MakeInput(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fnv1a64(ByteSpan(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fnv1a)->Arg(20)->Arg(4096)->Arg(1 << 20);

// The raw per-byte gear boundary check (shift, add, lookup, top-bit mask)
// underneath the BM_CbchOverlap chunker rows.
void BM_GearBoundaryScan(benchmark::State& state) {
  Bytes data = MakeInput(1 << 20);
  const std::uint64_t mask = gear::BoundaryMask(14);
  for (auto _ : state) {
    std::uint64_t h = 0, boundaries = 0;
    for (std::uint8_t b : data) {
      h = gear::Update(h, b);
      boundaries += (h & mask) == 0;
    }
    benchmark::DoNotOptimize(boundaries);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_GearBoundaryScan);

void BM_FsChChunker(benchmark::State& state) {
  Bytes data = MakeInput(8 << 20);
  FixedSizeChunker chunker(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto spans = chunker.Split(data);
    auto ids = HashChunks(data, spans);
    benchmark::DoNotOptimize(ids);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_FsChChunker)->Arg(256 << 10)->Arg(1 << 20);

void BM_CbchNoOverlap(benchmark::State& state) {
  Bytes data = MakeInput(8 << 20);
  CbchParams params;
  params.window_m = static_cast<std::size_t>(state.range(0));
  params.boundary_bits_k = 10;
  params.advance_p = params.window_m;
  ContentBasedChunker chunker(params);
  for (auto _ : state) {
    auto spans = chunker.Split(data);
    auto ids = HashChunks(data, spans);
    benchmark::DoNotOptimize(ids);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_CbchNoOverlap)->Arg(20)->Arg(32)->Arg(256);

// mb_s here and in BM_CbchScannerStreaming comes from the calling thread's
// CPU time, which leaves out the gear scan's mark phase whenever it runs on
// pool workers; BM_CbchScannerDrain times the gear scan on the wall clock.
void BM_CbchOverlap(benchmark::State& state) {
  Bytes data = MakeInput(1 << 20);  // smaller: the paper-style scan is slow
  CbchParams params;
  params.window_m = 20;
  params.boundary_bits_k = 14;
  params.advance_p = 1;
  params.recompute_per_window = state.range(0) == 1;
  ContentBasedChunker chunker(params);
  for (auto _ : state) {
    auto spans = chunker.Split(data);
    benchmark::DoNotOptimize(spans);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_CbchOverlap)
    ->Arg(1)   // paper-style per-window recompute
    ->Arg(2);  // gear scan (the write hot path)

// The gear streaming scanner fed in application-write-sized pieces
// (256 KiB). Arg 0: min_chunk (0 = every position hashed, 4096 = skip-ahead
// active). Arg 1 is always 0, which keeps the case names of the recorded
// results.
void BM_CbchScannerStreaming(benchmark::State& state) {
  Bytes data = MakeInput(8 << 20);
  CbchParams params;
  params.window_m = 20;
  params.boundary_bits_k = 14;
  params.advance_p = 1;
  params.min_chunk = static_cast<std::uint32_t>(state.range(0));
  ContentBasedChunker chunker(params);
  constexpr std::size_t kPiece = 256 << 10;
  for (auto _ : state) {
    auto scanner = chunker.MakeScanner();
    std::vector<std::uint64_t> ends;
    for (std::size_t pos = 0; pos < data.size(); pos += kPiece) {
      scanner->Feed(ByteSpan(data.data() + pos,
                             std::min(kPiece, data.size() - pos)),
                    ends);
    }
    scanner->Finish(ends);
    benchmark::DoNotOptimize(ends);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_CbchScannerStreaming)
    ->Args({0, 0})      // no minimum
    ->Args({4096, 0});  // min-chunk skip-ahead

// The gear scanner as the write path drives it (ChunkPlanner::Drain): fed
// one sliding-window drain generation (1 MiB) at a time, timed on the wall
// clock because the mark phase runs on the shared HashPool.
void BM_CbchScannerDrain(benchmark::State& state) {
  Bytes data = MakeInput(8 << 20);
  ContentBasedChunker chunker(CbchParams{});
  constexpr std::size_t kPiece = 1 << 20;
  for (auto _ : state) {
    auto scanner = chunker.MakeScanner();
    std::vector<std::uint64_t> ends;
    for (std::size_t pos = 0; pos < data.size(); pos += kPiece) {
      scanner->Feed(ByteSpan(data.data() + pos,
                             std::min(kPiece, data.size() - pos)),
                    ends);
    }
    scanner->Finish(ends);
    benchmark::DoNotOptimize(ends);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_CbchScannerDrain)->UseRealTime();

class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      double bytes_per_second = 0;
      auto it = run.counters.find("bytes_per_second");
      if (it != run.counters.end()) bytes_per_second = it->second;
      bench::JsonLine("bench_micro_hash")
          .Str("case", run.benchmark_name())
          .Num("mb_s", bytes_per_second / (1024.0 * 1024.0))
          .Num("real_time_ns", run.GetAdjustedRealTime())
          .Emit();
    }
  }
};

}  // namespace
}  // namespace stdchk

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  stdchk::JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
