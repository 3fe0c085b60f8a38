// End-to-end chunk data path: write + read wall-clock MB/s on 64 MiB
// checkpoint images, FsCH and CbCH, through the full functional stack
// (WriteSession -> Transport -> Benefactor -> ChunkStore and back through
// the pipelined read engine).
//
// Configurations measured side by side:
//   current   — the zero-copy path: ref-counted BufferSlice payloads shared
//               from planner staging through to store insertion, hardware
//               SHA-1, gear-hash CbCH boundary scan, parallel drain naming.
//   hashN     — FsCH with the drain-naming fan-out pinned to N threads
//               (the paper's "offload the intensive hashing" lever; N=1 is
//               the serial engine), fed in 8 MiB writes so each drain has
//               8 chunks to name.
//   disk      — benefactors persist chunks in the log-structured segment
//               store; proves disk reads are zero-copy (BufferSlice views
//               of the mmap'd segments, no materialization at all).
//
// Speedups are reported against recorded figures of data paths that no
// longer exist in the tree (see the kRecorded* constants).
//
// Invariants proven while measuring (nonzero exit on violation):
//   * current FsCH write: 0 payload copies chunker -> memory-store insert;
//   * current memory-store read: 0 materializations (slices shared);
//   * disk-store read: 0 materializations (zero-copy mmap'd segments);
//   * every read-back byte-identical.
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench_util.h"
#include "common/buffer.h"
#include "common/rng.h"
#include "core/cluster.h"

namespace stdchk {
namespace {

constexpr std::size_t kImageBytes = 64_MiB;
constexpr std::size_t kWritePiece = 256_KiB;
// The hashN sweep's application write. A sliding-window drain seals what
// one write completes: 256 KiB writes seal at most one 1 MiB chunk per
// drain, so naming never fans out and every row runs one worker. 8 MiB
// writes give each drain 8 chunks to name across N workers.
constexpr std::size_t kSweepWritePiece = 8_MiB;

// Pre-PR seed tree (commit da87164, Bytes-valued data path + textbook
// scalar SHA-1) measured with this exact harness on the dev machine.
constexpr double kSeedFschWriteMbps = 70.3;
constexpr double kSeedFschReadMbps = 123.2;

// Recorded in the committed BENCH_RESULTS.json by this harness, before the
// emulations were deleted: the "FsCH(1MiB)/baseline" row (textbook SHA-1
// compressor, a store that copied payloads on every Put and Get, no digest
// stamps) and the "CbCH(rolling)/current" row (the Mix64 rolling-hash
// boundary scan the gear scan replaced). The summary's speedups are read
// against these.
constexpr double kRecordedFschBaselineWriteMbps = 78.87;
constexpr double kRecordedMix64CbchWriteMbps = 194.75;

// PR-3 committed snapshot (commit 67c9207): the Mix64 rolling-scan CbCH
// write the gear scanner's speedup is reported against (>= 2x at the time
// this snapshot was recorded), and the FsCH write the hashN sweep is read
// against. Reported, not exit-gated: wall-clock ratios on shared runners
// are too noisy to fail a build on — scripts/bench_compare.py diffs the
// committed snapshot for that, on like-for-like hardware.
constexpr double kPr3CbchWriteMbps = 188.1;
constexpr double kPr3FschWriteMbps = 453.2;

double MbPerSec(std::size_t bytes, double seconds) {
  return (static_cast<double>(bytes) / (1024.0 * 1024.0)) / seconds;
}

CopyStatsSnapshot Delta(const CopyStatsSnapshot& before,
                        const CopyStatsSnapshot& after) {
  CopyStatsSnapshot d;
  d.payload_copies = after.payload_copies - before.payload_copies;
  d.payload_copy_bytes = after.payload_copy_bytes - before.payload_copy_bytes;
  d.materializations = after.materializations - before.materializations;
  d.materialized_bytes = after.materialized_bytes - before.materialized_bytes;
  return d;
}

struct RunResult {
  double write_mb_s = 0;
  double read_mb_s = 0;
  bool identical = false;
  CopyStatsSnapshot write_copies;  // delta over the write phase
  CopyStatsSnapshot read_copies;   // delta over the read phase
  WriteStats write_stats;
  // Disk configs: segment-store I/O shape summed across benefactors.
  std::uint64_t disk_data_syscalls = 0;
  std::uint64_t disk_fsyncs = 0;
  std::uint64_t disk_mmap_reads = 0;
};

RunResult RunDatapath(ClientOptions client, bool disk, const Bytes& data,
                      std::size_t write_piece = kWritePiece) {
  ClusterOptions options;
  options.benefactor_count = 8;
  options.client = client;
  std::filesystem::path disk_root;
  if (disk) {
    disk_root = std::filesystem::temp_directory_path() /
                ("stdchk_bench_datapath_" + std::to_string(::getpid()));
    std::filesystem::remove_all(disk_root);
    options.disk_root = disk_root.string();
  }
  // Every exit path — including failure early-returns — must drop the
  // temp tree.
  struct Cleanup {
    std::filesystem::path dir;
    ~Cleanup() {
      if (!dir.empty()) std::filesystem::remove_all(dir);
    }
  } cleanup{disk_root};

  RunResult out;
  {
    StdchkCluster cluster(options);

    CheckpointName name{"bench", "datapath", 1};

    auto session = cluster.client().CreateFile(name);
    if (!session.ok()) return out;

    CopyStatsSnapshot before = copy_stats::Snapshot();
    auto t0 = std::chrono::steady_clock::now();
    std::size_t pos = 0;
    while (pos < data.size()) {
      std::size_t n = std::min(write_piece, data.size() - pos);
      if (!session.value()->Write(ByteSpan(data.data() + pos, n)).ok()) {
        return out;
      }
      pos += n;
    }
    if (!session.value()->Close().ok()) return out;
    auto t1 = std::chrono::steady_clock::now();
    out.write_copies = Delta(before, copy_stats::Snapshot());
    out.write_stats = session.value()->stats();

    CopyStatsSnapshot read_before = copy_stats::Snapshot();
    auto t2 = std::chrono::steady_clock::now();
    auto read = cluster.client().ReadFile(name);
    auto t3 = std::chrono::steady_clock::now();
    out.read_copies = Delta(read_before, copy_stats::Snapshot());
    if (!read.ok()) return out;
    out.identical = read.value() == data;
    out.write_mb_s = MbPerSec(kImageBytes,
                              std::chrono::duration<double>(t1 - t0).count());
    out.read_mb_s = MbPerSec(kImageBytes,
                             std::chrono::duration<double>(t3 - t2).count());
    for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
      ChunkStoreStats stats = cluster.benefactor(i).StoreStats();
      out.disk_data_syscalls += stats.data_syscalls;
      out.disk_fsyncs += stats.fsyncs;
      out.disk_mmap_reads += stats.mmap_reads;
    }
  }
  return out;
}

void Report(const char* label, const char* heuristic, const RunResult& r) {
  bench::PrintRow("  %-22s write %8.1f MB/s   read %8.1f MB/s   %s", label,
                  r.write_mb_s, r.read_mb_s,
                  r.identical ? "read-back identical" : "READ-BACK MISMATCH");
  bench::JsonLine(std::string("bench_datapath"))
      .Str("config", label)
      .Str("heuristic", heuristic)
      .Num("write_mb_s", r.write_mb_s)
      .Num("read_mb_s", r.read_mb_s)
      .Int("write_payload_copies", r.write_copies.payload_copies)
      .Int("write_payload_copy_bytes", r.write_copies.payload_copy_bytes)
      .Int("read_materializations", r.read_copies.materializations)
      .Int("read_materialized_bytes", r.read_copies.materialized_bytes)
      .Num("hash_ms", static_cast<double>(r.write_stats.hash_ns) / 1e6)
      .Int("hash_workers_peak", r.write_stats.hash_workers_peak)
      .Int("disk_data_syscalls", r.disk_data_syscalls)
      .Int("disk_fsyncs", r.disk_fsyncs)
      .Int("disk_mmap_reads", r.disk_mmap_reads)
      .Int("identical", r.identical ? 1 : 0)
      .Emit();
}

}  // namespace
}  // namespace stdchk

int main() {
  using namespace stdchk;

  bench::PrintHeader("datapath",
                     "end-to-end write+read MB/s, 64 MiB images (wall clock)");
  Rng rng(7);
  Bytes image = rng.RandomBytes(kImageBytes);

  ClientOptions fsch;
  fsch.protocol = WriteProtocol::kSlidingWindow;  // push-as-produced

  CbchParams gear_params;  // paper geometry (m=20, k=14, p=1), gear scan
  ClientOptions cbch_gear = fsch;
  cbch_gear.chunker = std::make_shared<ContentBasedChunker>(gear_params);

  bench::PrintSection("current (zero-copy slices + accelerated SHA-1)");
  RunResult fsch_now = RunDatapath(fsch, /*disk=*/false, image);
  Report("FsCH(1MiB)/current", "fsch", fsch_now);
  RunResult cbch_now = RunDatapath(cbch_gear, /*disk=*/false, image);
  Report("CbCH(gear)/current", "cbch", cbch_now);

  bench::PrintSection("hashing-worker sweep (FsCH drain naming fan-out)");
  RunResult fsch_by_workers[3];
  const int kWorkerSweep[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    ClientOptions opts = fsch;
    opts.hash_workers = kWorkerSweep[i];
    fsch_by_workers[i] =
        RunDatapath(opts, /*disk=*/false, image, kSweepWritePiece);
    char label[32];
    std::snprintf(label, sizeof label, "FsCH(1MiB)/hash%d", kWorkerSweep[i]);
    Report(label, "fsch", fsch_by_workers[i]);
  }

  bench::PrintSection("disk-backed stores (zero-copy mmap reads)");
  RunResult fsch_disk = RunDatapath(fsch, /*disk=*/true, image);
  Report("FsCH(1MiB)/disk", "fsch", fsch_disk);

  double write_speedup = fsch_now.write_mb_s / kRecordedFschBaselineWriteMbps;
  double cbch_gear_speedup_vs_pr3 = cbch_now.write_mb_s / kPr3CbchWriteMbps;
  double cbch_gear_vs_mix = cbch_now.write_mb_s / kRecordedMix64CbchWriteMbps;
  double fsch_hash4_vs_hash1 =
      fsch_by_workers[0].write_mb_s > 0
          ? fsch_by_workers[2].write_mb_s / fsch_by_workers[0].write_mb_s
          : 0;
  bench::PrintSection("verdict");
  bench::PrintRow("  FsCH write speedup vs recorded baseline (%.2f MB/s): %.2fx",
                  kRecordedFschBaselineWriteMbps, write_speedup);
  bench::PrintRow("  FsCH write speedup vs recorded seed (%.1f MB/s): %.2fx",
                  kSeedFschWriteMbps,
                  fsch_now.write_mb_s / kSeedFschWriteMbps);
  bench::PrintRow("  CbCH gear write vs PR-3 snapshot (%.1f MB/s): %.2fx",
                  kPr3CbchWriteMbps, cbch_gear_speedup_vs_pr3);
  bench::PrintRow("  CbCH gear write vs recorded Mix64 scan (%.2f MB/s): %.2fx",
                  kRecordedMix64CbchWriteMbps, cbch_gear_vs_mix);
  bench::PrintRow("  FsCH write, 4 hashing workers vs 1: %.2fx "
                  "(workers engaged hash1/hash2/hash4: %llu/%llu/%llu)",
                  fsch_hash4_vs_hash1,
                  static_cast<unsigned long long>(
                      fsch_by_workers[0].write_stats.hash_workers_peak),
                  static_cast<unsigned long long>(
                      fsch_by_workers[1].write_stats.hash_workers_peak),
                  static_cast<unsigned long long>(
                      fsch_by_workers[2].write_stats.hash_workers_peak));
  bench::PrintRow("  FsCH write payload copies (chunker -> store): %llu",
                  static_cast<unsigned long long>(
                      fsch_now.write_copies.payload_copies));
  bench::JsonLine("bench_datapath")
      .Str("config", "summary")
      .Num("fsch_write_speedup_vs_baseline", write_speedup)
      .Num("fsch_baseline_write_mb_s", kRecordedFschBaselineWriteMbps)
      .Num("fsch_current_write_mb_s", fsch_now.write_mb_s)
      .Num("fsch_seed_write_mb_s", kSeedFschWriteMbps)
      .Num("fsch_seed_read_mb_s", kSeedFschReadMbps)
      .Num("fsch_write_speedup_vs_seed",
           fsch_now.write_mb_s / kSeedFschWriteMbps)
      .Num("cbch_pr3_write_mb_s", kPr3CbchWriteMbps)
      .Num("fsch_pr3_write_mb_s", kPr3FschWriteMbps)
      .Num("cbch_gear_write_speedup_vs_pr3", cbch_gear_speedup_vs_pr3)
      .Num("cbch_gear_write_speedup_vs_mix64", cbch_gear_vs_mix)
      .Num("fsch_hash4_write_speedup_vs_hash1", fsch_hash4_vs_hash1)
      .Int("fsch_zero_copy_write",
           fsch_now.write_copies.payload_copies == 0 ? 1 : 0)
      .Emit();

  // Invariants: zero-copy write, share-not-copy memory reads, zero-copy
  // disk reads (slices of the mmap'd segment log, nothing materialized),
  // vectored disk writes (at most one pwritev per batched PUT a benefactor
  // received), byte-identical read-backs.
  bool ok = fsch_now.identical && cbch_now.identical && fsch_disk.identical &&
            fsch_now.write_copies.payload_copies == 0 &&
            fsch_now.read_copies.materializations == 0 &&
            fsch_disk.read_copies.materializations == 0 &&
            fsch_disk.read_copies.materialized_bytes == 0 &&
            fsch_disk.disk_data_syscalls > 0 &&
            fsch_disk.disk_data_syscalls <=
                fsch_disk.write_stats.batched_puts &&
            fsch_disk.disk_mmap_reads == fsch_disk.write_stats.chunks_total;
  for (const RunResult& r : fsch_by_workers) {
    ok = ok && r.identical && r.write_copies.payload_copies == 0;
  }
  if (!ok) {
    bench::PrintRow("  FAILED: zero-copy or integrity invariant violated");
    return 1;
  }
  return 0;
}
