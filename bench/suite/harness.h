// Shared machinery of the benchmark workloads: run configuration, step
// budgets, the process-wide result accumulator, and Bench — one cluster
// plus the timed, verified user operations every workload is built from.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/hash_pool.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/cluster.h"
#include "core/cluster_stats.h"
#include "decorators.h"
#include "trace.h"

namespace stdchk::suite {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Step budgets per timed phase. Empty: each phase runs for its share of
  // `seconds`. The traced pass replays the untraced pass's step counts so
  // both do identical work.
  std::vector<std::int64_t> steps;
  std::string data_dir = ".bench_data";
  int setups = 3;
  int scale = 1;  // image-size divisor (smoke runs)
};

// Bounds one timed phase by wall time or by a step count. Take() is safe
// to call from several threads; each true return is one step.
class Budget {
 public:
  Budget(const RunConfig& config, std::size_t phase, double share)
      : steps_(phase < config.steps.size() ? config.steps[phase] : -1),
        deadline_ns_(NowNs() + static_cast<std::int64_t>(
                                   config.seconds * share * 1e9)) {}

  bool Take() {
    if (steps_ >= 0) return taken_.fetch_add(1) < steps_;
    if (NowNs() >= deadline_ns_) return false;
    taken_.fetch_add(1);
    return true;
  }
  std::int64_t taken() const {
    std::int64_t t = taken_.load();
    return steps_ >= 0 ? std::min(t, steps_) : t;
  }

 private:
  std::int64_t steps_;
  std::int64_t deadline_ns_;
  std::atomic<std::int64_t> taken_{0};
};

// Whether an op's latency is part of the reported sample.
enum class Timing { kUntimed, kTimed };

// Everything measured across the whole process (all set-ups and the timed
// phase). Thread-safe: burst writers record concurrently.
struct Results {
  std::mutex mu;
  Sample write_ms, read_ms, open_ms, delete_ms, tick_ms;
  Sample rss_bytes;  // after every timed op
  Sample probe_ns;   // ProbeNs() at quiescent points of the timed phase
  std::vector<double> setup_s;
  std::uint64_t write_bytes = 0, read_bytes = 0;
  double write_busy_s = 0, read_busy_s = 0;
  double write_wall_s = 0;  // set by workloads that report aggregate MB/s
  std::uint64_t writes = 0, reads = 0;  // timed ops
  std::uint64_t attempted = 0, failed = 0, mismatches = 0;
  std::uint64_t restart_fallbacks = 0;
  // Timed writes' network accounting (end-to-end ratio).
  std::uint64_t bytes_written = 0, bytes_transferred = 0;

  // Per-layer inputs, from traced ops only: the span trees cover exactly
  // these, so per-image figures and self times line up.
  std::uint64_t traced_writes = 0, traced_reads = 0;
  std::int64_t traced_latency_ns = 0;  // for the self-time sum check
  std::uint64_t chunks_total = 0, chunks_deduplicated = 0;
  std::uint64_t hash_ns = 0, hash_bytes = 0;
  std::uint64_t erasure_ns = 0, erasure_bytes = 0, parity_bytes = 0;
  std::uint64_t read_inflight_peak = 0, read_failovers = 0;
  std::uint64_t read_cache_evictions = 0, reconstructions = 0;
  // Background pump, set-up through timed phase.
  std::uint64_t gc_reclaimed = 0, replication_copies = 0;
  std::uint64_t replication_failures = 0, shard_repairs = 0;
  std::uint64_t under_replicated_max = 0;
  // Footprint over stored bytes, sampled after every timed-phase tick and
  // once after the final settle.
  Sample footprint_ratio;
};

// Where a Bench is in its life: ticks are recorded through set-up and the
// timed phase, footprint sampled in the timed phase only.
enum class Stage { kSetup, kTimed, kFinal };

// Verification digest of a whole image: SHA-1 over the SHA-1s of its
// 1 MiB pieces, the pieces hashed on up to `workers` threads of the shared
// pool (0 = all) so checking an image costs a fraction of writing it.
inline Sha1Digest ImageDigest(ByteSpan image, int workers) {
  constexpr std::size_t kPiece = 1_MiB;
  std::size_t n = (image.size() + kPiece - 1) / kPiece;
  std::vector<Sha1Digest> pieces(n);
  int threads = workers > 0 ? workers : HashPool::ResolveThreads(0);
  HashPool::Shared().ParallelFor(n, threads, [&](std::size_t i) {
    pieces[i] = Sha1(image.subspan(i * kPiece,
                                   std::min(kPiece, image.size() - i * kPiece)));
  });
  Sha1Hasher hasher;
  for (const Sha1Digest& d : pieces) hasher.Update(ByteSpan(d.bytes));
  return hasher.Finish();
}

// Host-speed probe: a fixed piece of bench-owned CPU work, timed. The
// benchmark runs on shared VMs whose speed drifts by ±30% over minutes
// (co-tenants, power limits), which moves every wall-clock number of a
// run together. Probing only while the system under test is idle, and
// scaling the run's wall-clock figures by kProbeRefNs / its median probe,
// removes that drift: the ref_* metrics read as if the host ran at the
// reference speed. The kernel mixes a dependent multiply chain (core
// clock) with a gear-style table-lookup scan (load throughput, which
// co-tenants slow most) over an L2-resident buffer. It lives here, not in
// src/, so no change to the system can change it. Returns the fastest of
// three passes, in ns.
inline std::int64_t ProbeNs() {
  static const std::vector<std::uint64_t> words = [] {
    std::vector<std::uint64_t> w(128 * 1024);  // 1 MiB
    Rng rng(0x5eed);
    for (std::uint64_t& v : w) v = rng.Next();
    return w;
  }();
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(256);
    Rng rng(0x7ab1e);
    for (std::uint64_t& v : t) v = rng.Next();
    return t;
  }();
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(words.data());
  static std::atomic<std::uint64_t> sink{0};
  std::int64_t best = INT64_MAX;
  for (int pass = 0; pass < 3; ++pass) {
    std::int64_t t0 = NowNs();
    std::uint64_t chain = 0;
    for (std::uint64_t v : words) chain = (chain ^ v) * 0x9E3779B97F4A7C15ull;
    std::uint64_t gear = 0;
    for (std::size_t i = 0; i < 256 * 1024; ++i) gear = (gear << 1) + table[bytes[i]];
    sink.fetch_add(chain ^ gear, std::memory_order_relaxed);
    best = std::min(best, NowNs() - t0);
  }
  return best;
}

// About the probe's median time on the development box (Xeon Sapphire
// Rapids vCPU): the reference the ref_* metrics are scaled to.
constexpr double kProbeRefNs = 400'000;

// Current resident set size of this process (heap plus touched pages of
// the disk stores' mmap'd segments).
inline std::uint64_t RssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages = 0, resident = 0;
  int got = std::fscanf(f, "%llu %llu", &pages, &resident);
  std::fclose(f);
  return got == 2 ? resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE))
                  : 0;
}

// Store counters summed over the pool.
struct PoolCounters {
  std::uint64_t fsyncs = 0, data_syscalls = 0, mmap_reads = 0;
  std::uint64_t segments_compacted = 0, compacted_bytes = 0;
  std::uint64_t generations_released = 0;
  std::uint64_t catalog_ops = 0, catalog_lock_contended = 0;
  std::uint64_t placement_rpcs = 0;
};

// One cluster, built fresh under its own data directory (disk workloads)
// and torn down with it. In traced mode the chunk stores are wrapped by
// TimedStore and clients talk through TimedTransport.
class Bench {
 public:
  Bench(const RunConfig& config, ClusterOptions options, Results* results,
        int instance)
      : config_(config), results_(results) {
    if (!options.disk_root.empty()) {
      dir_ = std::filesystem::absolute(config.data_dir) /
             (config.workload + "-" + std::to_string(::getpid()) + "-" +
              std::to_string(instance));
      std::filesystem::remove_all(dir_);
      std::filesystem::create_directories(dir_);
      options.disk_root = dir_.string();
    }
    if (config.trace) {
      options.store_decorator = [](std::unique_ptr<ChunkStore> inner) {
        return std::unique_ptr<ChunkStore>(
            std::make_unique<TimedStore>(std::move(inner)));
      };
    }
    cluster_ = std::make_unique<StdchkCluster>(options);
    if (config.trace) {
      timed_ = std::make_unique<TimedTransport>(&cluster_->transport());
    }
  }

  ~Bench() {
    cluster_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  StdchkCluster& cluster() { return *cluster_; }
  Results& results() { return *results_; }
  bool disk() const { return !dir_.empty(); }

  std::unique_ptr<ClientProxy> MakeClient(ClientOptions options) {
    if (config_.trace) {
      std::shared_ptr<const Chunker> inner = options.chunker;
      if (!inner) inner = std::make_shared<FixedSizeChunker>(options.chunk_size);
      options.chunker = std::make_shared<TimedChunker>(std::move(inner));
    }
    Transport* transport = timed_ ? static_cast<Transport*>(timed_.get())
                                  : &cluster_->transport();
    return std::make_unique<ClientProxy>(&cluster_->manager(), transport,
                                         options);
  }

  std::uint64_t transport_failed_ops() const {
    return timed_ ? timed_->failed_ops() : 0;
  }

  void set_stage(Stage stage) { stage_.store(stage); }
  // Threads ImageDigest may use. Concurrent writers set 1 so verification
  // never takes a core from another writer's timed op.
  void set_digest_workers(int workers) { digest_workers_ = workers; }

  // One checkpoint: CreateFile, the image in 256 KiB application writes,
  // Close. The latency is the time the application is blocked. The image's
  // digest is taken beforehand, outside the timed span, for verification.
  bool Write(ClientProxy& client, const CheckpointName& name, ByteSpan image,
             Timing timing) {
    constexpr std::size_t kPiece = 256_KiB;
    Sha1Digest digest = ImageDigest(image, digest_workers_);
    bool traced = timing == Timing::kTimed && Tracer::Get().enabled();
    std::unique_ptr<WriteSession> session;
    Status status;
    std::int64_t t0 = NowNs();
    {
      std::uint64_t root = traced ? Tracer::Get().Begin("client", "write") : 0;
      auto created = client.CreateFile(name);
      if (created.ok()) {
        session = std::move(created).value();
        for (std::size_t pos = 0; pos < image.size() && status.ok();
             pos += kPiece) {
          status = session->Write(
              image.subspan(pos, std::min(kPiece, image.size() - pos)));
        }
        if (status.ok()) status = session->Close().status();
      } else {
        status = created.status();
      }
      Tracer::Get().End(root, image.size());
    }
    std::int64_t t1 = NowNs();
    std::uint64_t rss = timing == Timing::kTimed ? RssBytes() : 0;

    std::lock_guard<std::mutex> lock(results_->mu);
    Results& r = *results_;
    ++r.attempted;
    if (!status.ok()) {
      ++r.failed;
      Log("write " + name.ToString() + ": " + status.ToString());
      return false;
    }
    expected_[name.ToString()] = digest;
    latest_[{name.app, name.node}] = name.timestep;
    if (timing == Timing::kUntimed) return true;
    double ms = static_cast<double>(t1 - t0) / 1e6;
    r.rss_bytes.Add(static_cast<double>(rss));
    r.write_ms.Add(ms);
    r.write_busy_s += ms / 1e3;
    r.write_bytes += image.size();
    ++r.writes;
    const WriteStats& s = session->stats();
    r.bytes_written += s.bytes_written;
    r.bytes_transferred += s.bytes_transferred;
    if (!traced) return true;
    ++r.traced_writes;
    r.traced_latency_ns += t1 - t0;
    r.chunks_total += s.chunks_total;
    r.chunks_deduplicated += s.chunks_deduplicated;
    r.hash_ns += s.hash_ns;
    r.hash_bytes += s.hash_bytes;
    if (client.options().erasure.enabled()) {
      r.erasure_ns += s.erasure_encode_ns;
      r.erasure_bytes += s.bytes_written;
      r.parity_bytes += s.parity_bytes_written;
    }
    return true;
  }

  // One job restart: open `name` (OpenLatest of its lineage when `latest`),
  // then ReadAll. If that fails and `fallback` is given, the job restarts
  // from that older retained image instead, as a real restart would. The
  // bytes read are checked outside the timed span — byte for byte against
  // `held` (the image as written, when the caller still has it), else
  // against the digest recorded at write time; a mismatch is a failed op.
  bool Restart(ClientProxy& client, const CheckpointName& name, bool latest,
               Timing timing, const CheckpointName* fallback = nullptr,
               const Bytes* held = nullptr) {
    bool traced = timing == Timing::kTimed && Tracer::Get().enabled();
    CheckpointName read = name;
    Result<Bytes> data = InternalError("not read");
    std::int64_t open_ns = 0;
    std::unique_ptr<ReadSession> session;
    std::vector<ReadStats> stats;  // one per session opened
    bool fell_back = false;
    std::int64_t t0 = NowNs();
    {
      std::uint64_t root = traced ? Tracer::Get().Begin("client", "read") : 0;
      data = ReadOnce(client, name, latest, &session, &open_ns);
      if (!data.ok() && fallback != nullptr) {
        if (session) stats.push_back(session->stats());
        session.reset();
        fell_back = true;
        read = *fallback;
        data = ReadOnce(client, read, false, &session, &open_ns);
      }
      Tracer::Get().End(root, data.ok() ? data.value().size() : 0);
    }
    std::int64_t t1 = NowNs();
    if (session) stats.push_back(session->stats());
    session.reset();

    bool ok = data.ok() && Verify(read, data.value(), fell_back ? nullptr : held);
    std::uint64_t rss = timing == Timing::kTimed ? RssBytes() : 0;
    std::lock_guard<std::mutex> lock(results_->mu);
    Results& r = *results_;
    ++r.attempted;
    if (fell_back && ok) ++r.restart_fallbacks;
    if (!ok) {
      ++r.failed;
      Log("restart " + name.ToString() + ": " +
          (data.ok() ? std::string("content mismatch")
                     : data.status().ToString()));
      return false;
    }
    if (timing == Timing::kUntimed) return true;
    double ms = static_cast<double>(t1 - t0) / 1e6;
    r.rss_bytes.Add(static_cast<double>(rss));
    r.read_ms.Add(ms);
    r.open_ms.Add(static_cast<double>(open_ns) / 1e6);
    r.read_busy_s += ms / 1e3;
    r.read_bytes += data.value().size();
    ++r.reads;
    if (!traced) return true;
    ++r.traced_reads;
    r.traced_latency_ns += t1 - t0;
    for (const ReadStats& st : stats) {
      r.read_inflight_peak =
          std::max<std::uint64_t>(r.read_inflight_peak, st.inflight_peak);
      r.read_failovers += st.failovers;
      r.read_cache_evictions += st.cache_evictions;
      r.reconstructions += st.reconstructions;
    }
    return true;
  }

  bool Delete(ClientProxy& client, const CheckpointName& name) {
    Status status;
    std::int64_t t0 = NowNs();
    {
      ScopedSpan span("manager", "delete");
      status = client.Delete(name);
    }
    std::int64_t t1 = NowNs();
    std::lock_guard<std::mutex> lock(results_->mu);
    ++results_->attempted;
    if (!status.ok()) {
      ++results_->failed;
      Log("delete " + name.ToString() + ": " + status.ToString());
      return false;
    }
    results_->delete_ms.Add(static_cast<double>(t1 - t0) / 1e6);
    return true;
  }

  // The bench's own background pump: each call is timed and its report
  // folded into the results (until the final settle). Timed-phase ticks
  // also sample the footprint ratio.
  StdchkCluster::TickReport Tick(double advance_seconds) {
    std::int64_t t0 = NowNs();
    StdchkCluster::TickReport report;
    {
      ScopedSpan span("core", "tick");
      report = cluster_->Tick(advance_seconds);
    }
    std::int64_t t1 = NowNs();
    Stage stage = stage_.load();
    if (stage == Stage::kFinal) return report;
    if (stage == Stage::kTimed) SampleFootprint();
    std::lock_guard<std::mutex> lock(results_->mu);
    Results& r = *results_;
    r.tick_ms.Add(static_cast<double>(t1 - t0) / 1e6);
    r.gc_reclaimed += report.gc_reclaimed_chunks;
    r.replication_copies += report.replication_commands;
    r.replication_failures += report.replication_failures;
    r.shard_repairs += report.shard_repair_commands;
    return report;
  }

  // StdchkCluster::Settle's convergence rule, pumped through Tick() above
  // so every tick is timed.
  void Settle(std::size_t max_ticks = 512) {
    MetadataManager& manager = cluster_->manager();
    for (std::size_t i = 0; i < max_ticks; ++i) {
      StdchkCluster::TickReport report = Tick(1.0);
      if (report.replication_commands == 0 &&
          manager.pending_replications() == 0 &&
          report.shard_repair_commands == 0 &&
          manager.pending_shard_repairs() == 0 &&
          report.gc_reclaimed_chunks == 0 && report.purged.empty()) {
        return;
      }
    }
  }

  // Call only while no op of the system under test is in flight.
  void Probe() {
    double ns = static_cast<double>(ProbeNs());
    std::lock_guard<std::mutex> lock(results_->mu);
    results_->probe_ns.Add(ns);
  }

  void SampleFootprint() {
    double stored = static_cast<double>(StoredBytes());
    if (stored == 0) return;
    double ratio = static_cast<double>(FootprintBytes()) / stored;
    std::lock_guard<std::mutex> lock(results_->mu);
    results_->footprint_ratio.Add(ratio);
  }

  // Chunks below their replication target counting only online donors.
  void SampleUnderReplicated() {
    std::set<NodeId> online;
    for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
      if (cluster_->benefactor(i).online()) {
        online.insert(cluster_->benefactor(i).id());
      }
    }
    std::uint64_t n =
        cluster_->manager().catalog().FindUnderReplicated(online).size();
    std::lock_guard<std::mutex> lock(results_->mu);
    results_->under_replicated_max =
        std::max(results_->under_replicated_max, n);
  }

  PoolCounters Counters() {
    PoolCounters c;
    for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
      ChunkStoreStats s = cluster_->benefactor(i).StoreStats();
      c.fsyncs += s.fsyncs;
      c.data_syscalls += s.data_syscalls;
      c.mmap_reads += s.mmap_reads;
      c.segments_compacted += s.segments_compacted;
      c.compacted_bytes += s.compacted_bytes_rewritten;
      c.generations_released += s.generations_released;
    }
    ClusterStats stats = CollectStats(*cluster_);
    c.catalog_ops = stats.catalog_ops;
    c.catalog_lock_contended = stats.catalog_lock_contended;
    c.placement_rpcs =
        stats.placement_table_fetches + stats.server_side_placements;
    return c;
  }

  // Physical bytes held for the donors' stored bytes: segment files on
  // disk, or the memory stores' pinned backings. Files a concurrent
  // compaction or GC unlinks mid-walk are skipped.
  std::uint64_t FootprintBytes() {
    std::uint64_t total = 0;
    if (disk()) {
      std::error_code ec;
      for (std::filesystem::recursive_directory_iterator it(dir_, ec), end;
           !ec && it != end; it.increment(ec)) {
        std::error_code size_ec;
        std::uintmax_t size = it->file_size(size_ec);
        if (!size_ec && it->is_regular_file(size_ec)) total += size;
      }
      return total;
    }
    for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
      total += cluster_->benefactor(i).ResidentBytes();
    }
    return total;
  }

  std::uint64_t StoredBytes() {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
      total += cluster_->benefactor(i).BytesUsed();
    }
    return total;
  }

  // Reads back every retained version (untimed) and checks each against
  // the digest recorded when it was written; the newest image of every
  // lineage must still be there.
  void VerifyRetained(ClientProxy& client) {
    std::set<std::pair<std::string, std::string>> seen_latest;
    auto apps = cluster_->manager().ListApps();
    for (const std::string& app : apps.ok() ? apps.value()
                                            : std::vector<std::string>{}) {
      auto versions = cluster_->manager().ListVersions(app);
      if (!versions.ok()) continue;
      for (const CheckpointName& name : versions.value()) {
        Restart(client, name, false, Timing::kUntimed);
        auto it = latest_.find({name.app, name.node});
        if (it != latest_.end() && it->second == name.timestep) {
          seen_latest.insert(it->first);
        }
      }
    }
    if (seen_latest.size() != latest_.size()) {
      std::lock_guard<std::mutex> lock(results_->mu);
      ++results_->attempted;
      ++results_->failed;
      ++results_->mismatches;
      Log("newest image of a lineage missing after the final settle");
    }
  }

 private:
  Result<Bytes> ReadOnce(ClientProxy& client, const CheckpointName& name,
                         bool latest, std::unique_ptr<ReadSession>* session,
                         std::int64_t* open_ns) {
    std::int64_t t0 = NowNs();
    Result<std::unique_ptr<ReadSession>> opened = InternalError("unopened");
    {
      ScopedSpan span("manager", "open");
      opened = latest ? client.OpenLatest(name.app, name.node)
                      : client.OpenFile(name);
    }
    *open_ns += NowNs() - t0;
    if (!opened.ok()) return opened.status();
    *session = std::move(opened).value();
    return (*session)->ReadAll();
  }

  bool Verify(const CheckpointName& name, const Bytes& data,
              const Bytes* held) {
    bool ok;
    if (held != nullptr) {
      ok = data == *held;
    } else {
      Sha1Digest digest = ImageDigest(data, digest_workers_);
      std::lock_guard<std::mutex> lock(results_->mu);
      auto it = expected_.find(name.ToString());
      ok = it != expected_.end() && it->second == digest;
    }
    if (!ok) {
      std::lock_guard<std::mutex> lock(results_->mu);
      ++results_->mismatches;
    }
    return ok;
  }

  void Log(const std::string& message) {
    std::fprintf(stderr, "[%s] %s\n", config_.workload.c_str(),
                 message.c_str());
  }

  const RunConfig& config_;
  Results* results_;
  std::filesystem::path dir_;
  std::unique_ptr<StdchkCluster> cluster_;
  std::unique_ptr<TimedTransport> timed_;
  std::atomic<Stage> stage_{Stage::kSetup};
  int digest_workers_ = 0;
  // Guarded by results_->mu.
  std::map<std::string, Sha1Digest> expected_;
  std::map<std::pair<std::string, std::string>, std::uint64_t> latest_;
};

}  // namespace stdchk::suite
