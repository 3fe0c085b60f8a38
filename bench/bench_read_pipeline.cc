// Extension experiment: the functional pipelined read engine measured on
// the modeled clock. The paper requires "a reasonable read performance ...
// to support timely job restarts" (§III.B) and §IV.E attributes it to
// read-ahead over the stripe. Unlike bench_ext_read_restart (a pure DES
// model), this bench drives the *real* client read path — ReadSession over
// the async transport with per-node links configured from the paper's
// platform model — and checks the pipelined result byte-for-byte against
// the serial one.
#include <memory>

#include "bench_util.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "perf/platform_model.h"

using namespace stdchk;

namespace {

constexpr std::size_t kFileBytes = 64_MiB;

struct ReadRun {
  double mbps = 0.0;
  std::uint64_t gets = 0;  // GET ops the read engine issued
  bool identical = false;
};

ReadRun TimedRead(StdchkCluster& cluster, const CheckpointName& name,
                  const Bytes& expected, int read_ahead) {
  ClientOptions options = cluster.client().options();
  options.read_ahead_chunks = read_ahead;
  auto reader = cluster.MakeClient(options);
  SimTime t0 = cluster.transport().now();
  auto session = reader->OpenFile(name);
  if (!session.ok()) return {};
  auto got = session.value()->ReadAll();
  SimTime elapsed = cluster.transport().now() - t0;
  if (!got.ok()) return {};
  const ReadStats stats = session.value()->stats();
  return ReadRun{ThroughputMBps(static_cast<double>(expected.size()), elapsed),
                 stats.single_gets + stats.batch_gets,
                 got.value() == expected};
}

// A cluster of `width` benefactors striping 1 MiB transfer chunks, holding
// `data` as checkpoint `name` cut by `chunker` (null: FsCH at 1 MiB), with
// the modeled links switched on after the write so a measurement isolates
// the read.
std::unique_ptr<StdchkCluster> WrittenCluster(
    int width, const CheckpointName& name, const Bytes& data,
    std::shared_ptr<const Chunker> chunker, const sim::LinkModel& link) {
  ClusterOptions options;
  options.benefactor_count = width;
  options.capacity_per_node = 4_GiB;
  options.client.stripe_width = width;
  options.client.chunk_size = 1_MiB;
  options.client.chunker = std::move(chunker);
  auto cluster = std::make_unique<StdchkCluster>(options);
  if (!cluster->client().WriteFile(name, data).ok()) return nullptr;
  for (std::size_t i = 0; i < cluster->benefactor_count(); ++i) {
    cluster->transport().SetLinkModel(cluster->benefactor(i).id(), link);
  }
  return cluster;
}

}  // namespace

int main() {
  bench::PrintHeader("Extension",
                     "Pipelined read engine: restart-read throughput of the "
                     "functional client under modeled LAN links");

  perf::PlatformModel platform = perf::PaperLanTestbed();
  sim::LinkModel link = perf::BenefactorLink(platform);

  bench::PrintRow("per-node link: %.0f us per op + %.1f MB/s",
                  static_cast<double>(link.latency) / 1000.0,
                  link.bandwidth_mbps);
  bench::PrintRow("%-10s %12s %12s %12s %12s %10s", "stripe", "serial",
                  "window 2", "window 4", "window 8", "identical");

  const CheckpointName name{"bench", "n0", 1};
  Rng rng(2024);
  bool all_identical = true;
  for (int width : {1, 2, 4, 8}) {
    Bytes data = rng.RandomBytes(kFileBytes);
    auto written = WrittenCluster(width, name, data, nullptr, link);
    if (!written) {
      bench::PrintRow("%-10d write failed", width);
      all_identical = false;
      continue;
    }
    StdchkCluster& cluster = *written;

    ReadRun serial = TimedRead(cluster, name, data, 0);
    ReadRun w2 = TimedRead(cluster, name, data, 1);
    ReadRun w4 = TimedRead(cluster, name, data, 3);
    ReadRun w8 = TimedRead(cluster, name, data, 7);
    bool identical =
        serial.identical && w2.identical && w4.identical && w8.identical;
    all_identical = all_identical && identical;
    bench::PrintRow("%-10d %12.1f %12.1f %12.1f %12.1f %10s", width,
                    serial.mbps, w2.mbps, w4.mbps, w8.mbps,
                    identical ? "yes" : "NO");
    bench::JsonLine("bench_read_pipeline")
        .Int("stripe", static_cast<std::uint64_t>(width))
        .Num("serial_mb_s", serial.mbps)
        .Num("window2_mb_s", w2.mbps)
        .Num("window4_mb_s", w4.mbps)
        .Num("window8_mb_s", w8.mbps)
        .Int("identical", identical ? 1 : 0)
        .Emit();
  }

  // Content-defined chunks (CbCH, about 16 KiB each) under the same 1 MiB
  // transfer chunk size: the window spans read-ahead + 1 transfer chunks of
  // bytes, so each refill carries dozens of chunks per GET.
  bench::PrintRow("");
  bench::PrintRow("CbCH image (default params), 1 MiB transfer chunks:");
  bench::PrintRow("%-10s %18s %18s %18s %10s", "stripe", "window 2 (GETs)",
                  "window 4 (GETs)", "window 8 (GETs)", "identical");
  Bytes cbch_image = Rng(2025).RandomBytes(kFileBytes);
  auto cbch = std::make_shared<ContentBasedChunker>(CbchParams{});
  for (int width : {4, 8}) {
    auto written = WrittenCluster(width, name, cbch_image, cbch, link);
    if (!written) {
      bench::PrintRow("%-10d write failed", width);
      all_identical = false;
      continue;
    }
    ReadRun w2 = TimedRead(*written, name, cbch_image, 1);
    ReadRun w4 = TimedRead(*written, name, cbch_image, 3);
    ReadRun w8 = TimedRead(*written, name, cbch_image, 7);
    bool identical = w2.identical && w4.identical && w8.identical;
    all_identical = all_identical && identical;
    bench::PrintRow("%-10d %10.1f (%5llu) %10.1f (%5llu) %10.1f (%5llu) %10s",
                    width, w2.mbps, static_cast<unsigned long long>(w2.gets),
                    w4.mbps, static_cast<unsigned long long>(w4.gets),
                    w8.mbps, static_cast<unsigned long long>(w8.gets),
                    identical ? "yes" : "NO");
    bench::JsonLine("bench_read_pipeline")
        .Str("chunker", "cbch")
        .Int("stripe", static_cast<std::uint64_t>(width))
        .Num("window2_mb_s", w2.mbps)
        .Num("window4_mb_s", w4.mbps)
        .Num("window8_mb_s", w8.mbps)
        .Int("window2_get_ops", w2.gets)
        .Int("window4_get_ops", w4.gets)
        .Int("window8_get_ops", w8.gets)
        .Int("identical", identical ? 1 : 0)
        .Emit();
  }

  bench::PrintRow("");
  bench::PrintRow("baselines: local disk read %.1f MB/s, NFS %.1f MB/s",
                  platform.local_disk_read_mbps, platform.nfs_mbps);
  bench::PrintNote(
      "shape to check: the serial reader pays latency + transfer once per "
      "chunk regardless of stripe width; the pipelined window overlaps "
      "fetches across benefactors (and coalesces same-node window chunks "
      "into batch GETs once the window exceeds the stripe), so throughput "
      "scales with min(window, stripe) up to the per-node link rate — the "
      "striped restart read beats local disk, matching §III.B/§IV.E. "
      "The CbCH image's ~16 KiB chunks share GETs (at most two per MiB, "
      "not one per chunk), so it reads within reach of the FsCH image. "
      "Results must stay byte-for-byte identical to the serial read.");
  return all_identical ? 0 : 1;
}
