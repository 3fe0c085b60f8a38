// The four closed-loop workloads. Each drives the real client ->
// LocalTransport -> benefactor -> chunk store path and the real manager on
// the wall clock; the model clock stays at zero and nothing in src/perf or
// src/sim is used. Every input — image bytes, BLCR-like evolution, read
// targets, the crash schedule — derives from the run's seed.
#pragma once

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "workload/trace_generators.h"

namespace stdchk::suite {

class Workload {
 public:
  virtual ~Workload() = default;
  // The cluster this workload runs on. A non-empty disk_root asks for
  // disk-backed benefactors; Bench substitutes the run's own directory.
  virtual ClusterOptions Options() const = 0;
  // Everything between cluster construction and the first timed op: input
  // generation, preload + settle, warm-up. Counted in setup_s.
  virtual void Setup(Bench& bench) = 0;
  // The timed phases. Records the steps each phase took in `steps`.
  virtual void Run(Bench& bench) = 0;
  // Returns the cluster to a quiescent, fully online state before the
  // final settle.
  virtual void Finish(Bench& bench) { (void)bench; }
  // True for one client thread that ticks inline: the op sequence, and so
  // every store/manager counter, is a pure function of the seed and step
  // counts, and the system is idle between steps, where the host-speed
  // probe can run. burst_write's writers and ticker never pause.
  virtual bool deterministic() const { return true; }

  std::vector<std::int64_t> steps;

 protected:
  explicit Workload(const RunConfig& config)
      : config_(config), seeds_(config.seed) {}

  std::size_t Scaled(std::size_t bytes) const {
    return bytes / static_cast<std::size_t>(config_.scale);
  }

  const RunConfig& config_;
  Rng seeds_;  // derives one seed per generator
};

// ---- burst_write ------------------------------------------------------------
// Checkpoint bursts from many desktops (paper Fig 8): 3 writers, one
// ClientProxy each, write fresh app-level images while a fourth thread
// pumps Tick() every 250 ms. Phase 1 (2/3 of the run) is the burst; its
// write MB/s is aggregate bytes over the phase's wall time. Phase 2 (1/3)
// is the restart storm that follows: all three jobs restart from their
// newest image, concurrently and repeatedly.
class BurstWrite final : public Workload {
 public:
  static constexpr int kWriters = 3;

  explicit BurstWrite(const RunConfig& config) : Workload(config) {}
  ~BurstWrite() override { StopTicker(); }

  ClusterOptions Options() const override {
    ClusterOptions options;
    options.benefactor_count = 8;
    options.disk_root = "disk";
    return options;
  }

  void Setup(Bench& bench) override {
    FolderPolicy policy;
    policy.retention = RetentionPolicy::kAutomatedReplace;
    policy.keep_last = 2;
    (void)bench.cluster().manager().SetFolderPolicy("burst", policy);
    bench.set_digest_workers(1);
    ClientOptions options;
    options.protocol = WriteProtocol::kSlidingWindow;
    options.hash_workers = 1;
    for (int w = 0; w < kWriters; ++w) {
      clients_.push_back(bench.MakeClient(options));
      AppLevelTraceOptions trace;
      trace.image_bytes = Scaled(32_MiB);
      trace.size_jitter = 0;
      trace.seed = seeds_.Next();
      traces_.push_back(MakeAppLevelTrace(trace));
      next_step_.push_back(1);
    }
    StartTicker(bench);
    // Warm-up: two untimed checkpoints per writer, concurrently.
    Parallel([&](int w) {
      for (int i = 0; i < 2; ++i) WriteNext(bench, w, Timing::kUntimed);
    });
  }

  void Run(Bench& bench) override {
    Budget burst(config_, 0, 2.0 / 3.0);
    std::int64_t t0 = NowNs();
    Parallel([&](int w) {
      while (burst.Take()) WriteNext(bench, w, Timing::kTimed);
    });
    double wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    {
      std::lock_guard<std::mutex> lock(bench.results().mu);
      bench.results().write_wall_s += wall_s;
    }
    Parallel([&](int w) { RestartLatest(bench, w, Timing::kUntimed); });
    Budget storm(config_, 1, 1.0 / 3.0);
    Parallel([&](int w) {
      while (storm.Take()) RestartLatest(bench, w, Timing::kTimed);
    });
    steps = {burst.taken(), storm.taken()};
  }

  void Finish(Bench& bench) override {
    (void)bench;
    StopTicker();
  }

  bool deterministic() const override { return false; }

 private:
  static std::string Node(int w) { return "desktop" + std::to_string(w); }

  void WriteNext(Bench& bench, int w, Timing timing) {
    Bytes image = traces_[w]->Next();
    CheckpointName name{"burst", Node(w), next_step_[w]++};
    bench.Write(*clients_[w], name, image, timing);
  }

  void RestartLatest(Bench& bench, int w, Timing timing) {
    CheckpointName name{"burst", Node(w), next_step_[w] - 1};
    bench.Restart(*clients_[w], name, true, timing);
  }

  template <typename Fn>
  static void Parallel(Fn fn) {
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) threads.emplace_back(fn, w);
    for (std::thread& t : threads) t.join();
  }

  void StartTicker(Bench& bench) {
    ticker_ = std::thread([this, &bench] {
      std::int64_t next = NowNs();
      while (!stop_.load()) {
        next += 250'000'000;
        bench.Tick(0.25);
        std::int64_t now = NowNs();
        if (next > now) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
        } else {
          next = now;
        }
      }
    });
  }

  void StopTicker() {
    stop_.store(true);
    if (ticker_.joinable()) ticker_.join();
  }

  std::vector<std::unique_ptr<ClientProxy>> clients_;
  std::vector<std::unique_ptr<CheckpointTrace>> traces_;
  std::vector<std::uint64_t> next_step_;  // each writer touches its own
  std::atomic<bool> stop_{false};
  std::thread ticker_;  // last: joined before the members it uses die
};

// ---- incremental_cbch ---------------------------------------------------------
// Library-level incremental checkpointing (paper §IV.C): successive
// BLCR-like images through CbCH (gear, m=20, k=14) with compare-by-hash
// dedup on memory benefactors. Each step writes the next image, restarts
// from it, then ticks inline with compaction on. (Restarting every step,
// not every 2nd, gives about 100 read samples in a 15 s run.)
class IncrementalCbch final : public Workload {
 public:
  explicit IncrementalCbch(const RunConfig& config) : Workload(config) {}

  ClusterOptions Options() const override {
    ClusterOptions options;
    options.benefactor_count = 8;
    options.compaction_enabled = true;
    return options;
  }

  void Setup(Bench& bench) override {
    FolderPolicy policy;
    policy.retention = RetentionPolicy::kAutomatedReplace;
    policy.keep_last = 4;
    (void)bench.cluster().manager().SetFolderPolicy("blast", policy);
    ClientOptions options;
    options.protocol = WriteProtocol::kSlidingWindow;
    options.chunker = std::make_shared<ContentBasedChunker>(CbchParams{});
    options.incremental_fsch = true;
    client_ = bench.MakeClient(options);
    BlcrTraceOptions trace;
    trace.initial_pages = Scaled(32_MiB) / trace.page_bytes;
    trace.seed = seeds_.Next();
    trace_ = MakeBlcrLikeTrace(trace);
    for (int i = 0; i < 5; ++i) Step(bench, Timing::kUntimed);
  }

  void Run(Bench& bench) override {
    Budget budget(config_, 0, 1.0);
    while (budget.Take()) Step(bench, Timing::kTimed);
    steps = {budget.taken()};
  }

 private:
  void Step(Bench& bench, Timing timing) {
    Bytes image = trace_->Next();
    CheckpointName name{"blast", "node0", ++timestep_};
    bench.Write(*client_, name, image, timing);
    bench.Restart(*client_, name, true, timing, nullptr, &image);
    bench.Tick(1.0);
    if (timing == Timing::kTimed) bench.Probe();
  }

  std::unique_ptr<ClientProxy> client_;
  std::unique_ptr<CheckpointTrace> trace_;
  std::uint64_t timestep_ = 0;
};

// ---- restart_read -------------------------------------------------------------
// Job restart after failure (paper §III.B). Set-up writes 8 app-level
// 64 MiB images to disk benefactors with replication target 2 — pessimistic
// semantics, so both replicas land at write time — and settles. These
// preload writes are the workload's write sample. The timed phase restarts
// from seeded-random images: working set 512 MiB, each image the size of
// the 64 MiB read-ahead budget.
class RestartRead final : public Workload {
 public:
  static constexpr int kImages = 8;

  explicit RestartRead(const RunConfig& config) : Workload(config) {}

  ClusterOptions Options() const override {
    ClusterOptions options;
    options.benefactor_count = 8;
    options.disk_root = "disk";
    return options;
  }

  void Setup(Bench& bench) override {
    FolderPolicy policy;
    policy.replication_target = 2;
    (void)bench.cluster().manager().SetFolderPolicy("restart", policy);
    ClientOptions options;
    options.protocol = WriteProtocol::kSlidingWindow;
    options.semantics = WriteSemantics::kPessimistic;
    options.replication_target = 2;
    client_ = bench.MakeClient(options);
    AppLevelTraceOptions trace;
    trace.image_bytes = Scaled(64_MiB);
    trace.size_jitter = 0;
    trace.seed = seeds_.Next();
    std::unique_ptr<CheckpointTrace> images = MakeAppLevelTrace(trace);
    for (int i = 0; i < kImages; ++i) {
      bench.Write(*client_, Name(i), images->Next(), Timing::kTimed);
    }
    bench.Settle();
    pick_.Seed(seeds_.Next());
    for (int i = 0; i < 5; ++i) Read(bench, Timing::kUntimed);
  }

  void Run(Bench& bench) override {
    Budget budget(config_, 0, 1.0);
    while (budget.Take()) Read(bench, Timing::kTimed);
    steps = {budget.taken()};
  }

 private:
  static CheckpointName Name(int i) {
    return CheckpointName{"restart", "job" + std::to_string(i), 1};
  }

  void Read(Bench& bench, Timing timing) {
    CheckpointName name = Name(static_cast<int>(pick_.NextBelow(kImages)));
    bench.Restart(*client_, name, false, timing);
    if (timing == Timing::kTimed) bench.Probe();
  }

  std::unique_ptr<ClientProxy> client_;
  Rng pick_;
};

// ---- grid_churn ---------------------------------------------------------------
// A long-running desktop grid: one client thread runs rounds over 10 disk
// benefactors. Each round checkpoints three 8 MiB applications, each
// keeping two images:
//   fresh — app-level images, replication target 2, pessimistic writes;
//           the application deletes its own image t-2;
//   blcr  — BLCR-like images, FsCH 256 KiB with compare-by-hash dedup,
//           replication target 2, pessimistic writes;
//   ec    — app-level images erasure-coded RS(4,2).
// Every 2nd round each job restarts from its newest image (falling back to
// the one before when the newest has no reachable replica). Each round
// ends with Tick(2.0), compaction on. A seeded online donor crashes every
// 25 rounds and restarts 10 rounds later.
class GridChurn final : public Workload {
 public:
  explicit GridChurn(const RunConfig& config) : Workload(config) {}

  ClusterOptions Options() const override {
    ClusterOptions options;
    options.benefactor_count = 10;
    options.disk_root = "disk";
    options.compaction_enabled = true;
    return options;
  }

  void Setup(Bench& bench) override {
    MetadataManager& manager = bench.cluster().manager();
    FolderPolicy manual;
    manual.replication_target = 2;
    (void)manager.SetFolderPolicy("fresh", manual);
    FolderPolicy replace = manual;
    replace.retention = RetentionPolicy::kAutomatedReplace;
    replace.keep_last = 2;
    (void)manager.SetFolderPolicy("blcr", replace);
    (void)manager.SetFolderPolicy("ec", replace);

    // Replicated apps write pessimistically: both replicas land before
    // Close returns. With optimistic writes the 8-copies-per-tick
    // replication budget falls behind (~20 new chunks a round), so a crash
    // can take the only replica of a chunk both retained images share and
    // a restart fails; this workload must complete every op.
    ClientOptions base;
    base.protocol = WriteProtocol::kSlidingWindow;
    base.semantics = WriteSemantics::kPessimistic;
    ClientOptions blcr = base;
    blcr.chunk_size = 256_KiB;
    blcr.incremental_fsch = true;
    ClientOptions ec;
    ec.protocol = WriteProtocol::kSlidingWindow;
    ec.erasure = ErasureCoded{4, 2};
    apps_.push_back(App{"fresh", bench.MakeClient(base), AppLevel()});
    BlcrTraceOptions blcr_trace;
    blcr_trace.initial_pages = Scaled(8_MiB) / blcr_trace.page_bytes;
    blcr_trace.seed = seeds_.Next();
    apps_.push_back(
        App{"blcr", bench.MakeClient(blcr), MakeBlcrLikeTrace(blcr_trace)});
    apps_.push_back(App{"ec", bench.MakeClient(ec), AppLevel()});
    churn_.Seed(seeds_.Next());
    for (int i = 0; i < 5; ++i) Round(bench, Timing::kUntimed);
  }

  void Run(Bench& bench) override {
    Budget budget(config_, 0, 1.0);
    while (budget.Take()) Round(bench, Timing::kTimed);
    steps = {budget.taken()};
  }

  void Finish(Bench& bench) override {
    for (const auto& [idx, round] : crashed_) {
      (void)bench.cluster().RestartBenefactor(idx);
    }
    crashed_.clear();
  }

 private:
  struct App {
    std::string name;
    std::unique_ptr<ClientProxy> client;
    std::unique_ptr<CheckpointTrace> trace;
  };

  std::unique_ptr<CheckpointTrace> AppLevel() {
    AppLevelTraceOptions trace;
    trace.image_bytes = Scaled(8_MiB);
    trace.seed = seeds_.Next();
    return MakeAppLevelTrace(trace);
  }

  void Round(Bench& bench, Timing timing) {
    StdchkCluster& cluster = bench.cluster();
    ++round_;
    for (App& app : apps_) {
      CheckpointName name{app.name, "node0", round_};
      bench.Write(*app.client, name, app.trace->Next(), timing);
      if (app.name == "fresh" && round_ > 2) {
        bench.Delete(*app.client, CheckpointName{app.name, "node0", round_ - 2});
      }
    }
    if (round_ % 2 == 0) {
      for (App& app : apps_) {
        CheckpointName name{app.name, "node0", round_};
        CheckpointName previous{app.name, "node0", round_ - 1};
        bench.Restart(*app.client, name, true, timing, &previous);
      }
    }
    // Churn: a donor reclaimed by its owner comes back 10 rounds later.
    for (auto it = crashed_.begin(); it != crashed_.end();) {
      if (it->second + 10 <= round_) {
        (void)cluster.RestartBenefactor(it->first);
        it = crashed_.erase(it);
      } else {
        ++it;
      }
    }
    if (round_ % 25 == 0) {
      std::vector<std::size_t> online;
      for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
        if (cluster.benefactor(i).online()) online.push_back(i);
      }
      std::size_t victim = online[churn_.NextBelow(online.size())];
      (void)cluster.CrashBenefactor(victim);
      crashed_.emplace_back(victim, round_);
    }
    bench.Tick(2.0);
    bench.SampleUnderReplicated();
    if (timing == Timing::kTimed) bench.Probe();
  }

  std::vector<App> apps_;
  Rng churn_;
  std::vector<std::pair<std::size_t, std::uint64_t>> crashed_;  // idx, round
  std::uint64_t round_ = 0;
};

inline const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "burst_write", "incremental_cbch", "restart_read", "grid_churn"};
  return names;
}

inline std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "burst_write") {
    return std::make_unique<BurstWrite>(config);
  }
  if (config.workload == "incremental_cbch") {
    return std::make_unique<IncrementalCbch>(config);
  }
  if (config.workload == "restart_read") {
    return std::make_unique<RestartRead>(config);
  }
  if (config.workload == "grid_churn") {
    return std::make_unique<GridChurn>(config);
  }
  return nullptr;
}

}  // namespace stdchk::suite
