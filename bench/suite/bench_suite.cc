// stdchk-bench: four wall-clock checkpoint workloads through the real
// client -> transport -> benefactor -> store path and the real manager.
//
//   bench_suite --workload W --seed S --seconds T [--trace 0|1]
//               [--steps a,b] [--data-dir DIR] [--trace-out FILE]
//
// Prints a human summary and, as its last stdout line, one JSON object:
// the end-to-end metrics, the per-layer metrics (traced runs), the op
// counts, the steps each timed phase took, and the deterministic counters
// that a traced replay of the same steps must reproduce. Exits 1 if any op
// failed or any read-back differed from what was written.
//
// With no arguments it runs every workload at 1/20 scale for a fraction
// of a second each and prints BENCHJSON rows (a smoke test; the benchmark
// proper runs through run.py). See README.md for the metric definitions.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace stdchk::suite {
namespace {

using MetricMap = std::map<std::string, double>;

double Median(std::vector<double> v) {
  Sample s;
  for (double x : v) s.Add(x);
  return s.Percentile(50);
}

double Div(double a, double b) { return b == 0 ? 0 : a / b; }

constexpr double kMiB = 1024.0 * 1024.0;

// Per-layer totals over the span trees of timed writes and reads.
struct LayerTotals {
  double scan_ns = 0, scan_bytes = 0;
  double write_self_ns = 0, read_self_ns = 0;
  double submit_ns = 0, submit_self_ns = 0, wait_ns = 0, submits = 0;
  double put_ns = 0, put_bytes = 0, puts = 0;
  double get_ns = 0, get_bytes = 0, gets = 0;
  double compact_ns = 0;
  double self_sum_ns = 0;  // every layer's self time, write + read trees
};

LayerTotals AggregateSpans(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  LayerTotals t;
  for (const SpanRecord& s : spans) {
    std::string layer = s.layer, name = s.name;
    double dur = static_cast<double>(s.end_ns - s.start_ns);
    double self = dur - static_cast<double>(child_ns[s.id]);
    if (layer == "chunk" && name == "compact") t.compact_ns += dur;
    auto root_it = index.find(s.op);
    if (root_it == index.end()) continue;
    std::string root = spans[root_it->second].name;
    bool in_write = std::string(spans[root_it->second].layer) == "client" &&
                    root == "write";
    bool in_read = std::string(spans[root_it->second].layer) == "client" &&
                   root == "read";
    if (!in_write && !in_read) continue;
    t.self_sum_ns += self;
    if (s.id == s.op) {
      (in_write ? t.write_self_ns : t.read_self_ns) += self;
    } else if (layer == "chkpt") {
      t.scan_ns += dur;
      t.scan_bytes += static_cast<double>(s.bytes);
    } else if (layer == "core" && name == "submit") {
      t.submit_ns += dur;
      t.submit_self_ns += self;
      t.submits += 1;
    } else if (layer == "core" && name == "wait") {
      t.wait_ns += dur;
    } else if (layer == "chunk" && name == "put" && in_write) {
      t.put_ns += dur;
      t.put_bytes += static_cast<double>(s.bytes);
      t.puts += 1;
    } else if (layer == "chunk" && name == "get" && in_read) {
      t.get_ns += dur;
      t.get_bytes += static_cast<double>(s.bytes);
      t.gets += 1;
    }
  }
  return t;
}

struct Outcome {
  bool correct = false;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::int64_t> steps;
  bool deterministic = false;
  MetricMap metrics;   // end-to-end
  MetricMap layers;    // per-layer (traced runs only)
  MetricMap counters;  // must match between untraced and traced replays
  std::size_t write_samples = 0, read_samples = 0;
};

Outcome RunWorkload(const RunConfig& config) {
  Results results;
  std::unique_ptr<Bench> bench;
  std::unique_ptr<Workload> work;
  for (int i = 0; i < config.setups; ++i) {
    work.reset();
    bench.reset();
    std::int64_t t0 = NowNs();
    work = MakeWorkload(config);
    bench = std::make_unique<Bench>(config, work->Options(), &results, i);
    work->Setup(*bench);
    double setup_s = static_cast<double>(NowNs() - t0) / 1e9;
    // At reference host speed, like the ref_* metrics (see ProbeNs).
    if (work->deterministic()) {
      Sample probe;
      for (int p = 0; p < 3; ++p) probe.Add(static_cast<double>(ProbeNs()));
      setup_s *= kProbeRefNs / probe.Percentile(50);
    }
    results.setup_s.push_back(setup_s);
  }

  PoolCounters before = bench->Counters();
  std::uint64_t failed_before_run = bench->transport_failed_ops();
  Tracer::Get().Clear();
  Tracer::Get().Enable(config.trace);
  bench->set_stage(Stage::kTimed);
  work->Run(*bench);
  Tracer::Get().Enable(false);
  PoolCounters after = bench->Counters();

  work->Finish(*bench);
  bench->set_stage(Stage::kFinal);
  bench->Settle();
  double stored = static_cast<double>(bench->StoredBytes());
  double logical = static_cast<double>(
      bench->cluster().manager().catalog().TotalLogicalBytes());
  bench->SampleFootprint();
  auto verifier = bench->MakeClient(ClientOptions{});
  bench->VerifyRetained(*verifier);
  PoolCounters end = bench->Counters();

  Results& r = results;
  Outcome out;
  out.attempted = r.attempted;
  out.failed = r.failed;
  out.correct = r.failed == 0 && r.mismatches == 0 && r.writes > 0 &&
                r.reads > 0;
  out.steps = work->steps;
  out.deterministic = work->deterministic();
  out.write_samples = r.write_ms.count();
  out.read_samples = r.read_ms.count();

  double stored_per_byte = Div(stored, logical);
  double network_per_byte = Div(static_cast<double>(r.bytes_transferred),
                                static_cast<double>(r.bytes_written));
  double footprint_per_stored = r.footprint_ratio.Mean();
  out.counters = {
      {"fsyncs", static_cast<double>(end.fsyncs)},
      {"data_syscalls", static_cast<double>(end.data_syscalls)},
      {"mmap_reads", static_cast<double>(end.mmap_reads)},
      {"segments_compacted", static_cast<double>(end.segments_compacted)},
      {"compacted_bytes", static_cast<double>(end.compacted_bytes)},
      {"generations_released", static_cast<double>(end.generations_released)},
      {"stored_bytes_per_byte", stored_per_byte},
      {"write_network_bytes_per_byte", network_per_byte},
      {"footprint_per_stored_byte", footprint_per_stored},
      {"attempted", static_cast<double>(r.attempted)},
      {"failed", static_cast<double>(r.failed)},
  };

  double write_s = r.write_wall_s > 0 ? r.write_wall_s : r.write_busy_s;
  double write_mb_s = Div(static_cast<double>(r.write_bytes) / kMiB, write_s);
  double read_mb_s =
      Div(static_cast<double>(r.read_bytes) / kMiB, r.read_busy_s);
  // >1 when the host ran faster than the reference, <1 when slower; 1 for
  // burst_write, which is never idle enough to probe.
  double host_speed =
      r.probe_ns.count() ? kProbeRefNs / r.probe_ns.Percentile(50) : 1.0;
  out.metrics = {
      {"setup_s", Median(r.setup_s)},
      {"ref_write_mb_s", write_mb_s / host_speed},
      {"ref_write_p50_ms", r.write_ms.Percentile(50) * host_speed},
      {"ref_read_mb_s", read_mb_s / host_speed},
      {"ref_read_p50_ms", r.read_ms.Percentile(50) * host_speed},
      {"stored_bytes_per_byte", stored_per_byte},
      {"write_network_bytes_per_byte", network_per_byte},
      {"footprint_per_stored_byte", footprint_per_stored},
      {"rss_mb", r.rss_bytes.Mean() / kMiB},
      // Wall clock as measured; printed, not bounded (README "Host speed").
      {"host_speed", host_speed},
      {"write_mb_s", write_mb_s},
      {"write_p50_ms", r.write_ms.Percentile(50)},
      {"write_p90_ms", r.write_ms.Percentile(90)},
      {"read_mb_s", read_mb_s},
      {"read_p50_ms", r.read_ms.Percentile(50)},
      {"read_p90_ms", r.read_ms.Percentile(90)},
  };
  if (!config.trace) return out;

  std::vector<SpanRecord> spans = Tracer::Get().Collect();
  LayerTotals t = AggregateSpans(spans);
  auto delta = [&](std::uint64_t PoolCounters::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  double hash_ns = static_cast<double>(r.hash_ns);
  double writes = static_cast<double>(r.traced_writes);
  double reads = static_cast<double>(r.traced_reads);
  double ops = writes + reads;
  out.layers = {
      {"chkpt.scan_ns_per_byte", Div(t.scan_ns, t.scan_bytes)},
      {"chkpt.scan_ms_per_img", Div(t.scan_ns / 1e6, writes)},
      {"client.naming_ns_per_byte",
       Div(hash_ns, static_cast<double>(r.hash_bytes))},
      {"client.naming_ms_per_img", Div(hash_ns / 1e6, writes)},
      {"client.write_self_ms_per_img",
       Div((t.write_self_ns - hash_ns) / 1e6, writes)},
      {"client.read_self_ms_per_img", Div(t.read_self_ns / 1e6, reads)},
      {"client.write_p90_ms", r.write_ms.Percentile(90)},
      {"client.read_p90_ms", r.read_ms.Percentile(90)},
      {"client.read_inflight_peak", static_cast<double>(r.read_inflight_peak)},
      {"client.read_failovers", static_cast<double>(r.read_failovers)},
      {"client.read_cache_evictions",
       static_cast<double>(r.read_cache_evictions)},
      {"client.restart_fallbacks", static_cast<double>(r.restart_fallbacks)},
      {"client.dedup_hit_ratio",
       Div(static_cast<double>(r.chunks_deduplicated),
           static_cast<double>(r.chunks_total))},
      {"core.submit_ms_per_img", Div(t.submit_ns / 1e6, ops)},
      {"core.submit_self_ms_per_img", Div(t.submit_self_ns / 1e6, ops)},
      {"core.wait_ms_per_img", Div(t.wait_ns / 1e6, ops)},
      {"core.transport_ops_per_img", Div(t.submits, ops)},
      {"core.transport_failed_ops",
       static_cast<double>(bench->transport_failed_ops() - failed_before_run)},
      {"core.tick_p50_ms", r.tick_ms.Percentile(50)},
      {"core.tick_p90_ms", r.tick_ms.Percentile(90)},
      {"core.ticks", static_cast<double>(r.tick_ms.count())},
      {"benefactor.gc_reclaimed_chunks", static_cast<double>(r.gc_reclaimed)},
      {"benefactor.replication_copies",
       static_cast<double>(r.replication_copies)},
      {"benefactor.replication_failures",
       static_cast<double>(r.replication_failures)},
      {"chunk.put_ns_per_byte", Div(t.put_ns, t.put_bytes)},
      {"chunk.put_batches_per_img", Div(t.puts, writes)},
      {"chunk.get_ns_per_byte", Div(t.get_ns, t.get_bytes)},
      {"chunk.gets_per_img", Div(t.gets, reads)},
      {"chunk.compact_ms", t.compact_ns / 1e6},
      {"chunk.fsyncs_per_img", Div(delta(&PoolCounters::fsyncs), writes)},
      {"chunk.data_syscalls_per_img",
       Div(delta(&PoolCounters::data_syscalls), writes)},
      {"chunk.mmap_reads_per_img",
       Div(delta(&PoolCounters::mmap_reads), reads)},
      {"chunk.segments_compacted", delta(&PoolCounters::segments_compacted)},
      {"chunk.compacted_bytes", delta(&PoolCounters::compacted_bytes)},
      {"manager.catalog_ops_per_img",
       Div(delta(&PoolCounters::catalog_ops), ops)},
      {"manager.catalog_lock_contended",
       delta(&PoolCounters::catalog_lock_contended)},
      {"manager.placement_rpcs_per_img",
       Div(delta(&PoolCounters::placement_rpcs), writes)},
      {"manager.open_p50_ms", r.open_ms.Percentile(50)},
      {"manager.delete_p50_ms", r.delete_ms.Percentile(50)},
      {"manager.under_replicated_max",
       static_cast<double>(r.under_replicated_max)},
      {"erasure.encode_ns_per_byte",
       Div(static_cast<double>(r.erasure_ns),
           static_cast<double>(r.erasure_bytes))},
      {"erasure.parity_bytes_per_byte",
       Div(static_cast<double>(r.parity_bytes),
           static_cast<double>(r.erasure_bytes))},
      {"erasure.reconstructions", static_cast<double>(r.reconstructions)},
      {"erasure.shard_repairs", static_cast<double>(r.shard_repairs)},
      {"trace.self_sum_error_pct",
       100.0 * std::fabs(Div(t.self_sum_ns, static_cast<double>(
                                                r.traced_latency_ns)) -
                         1.0)},
  };
  return out;
}

std::string Json(const Outcome& out, const RunConfig& config) {
  std::string s = "{\"workload\":\"" + config.workload + "\"";
  s += ",\"seed\":" + std::to_string(config.seed);
  s += ",\"trace\":" + std::string(config.trace ? "1" : "0");
  s += ",\"correct\":" + std::string(out.correct ? "true" : "false");
  s += ",\"attempted\":" + std::to_string(out.attempted);
  s += ",\"failed\":" + std::to_string(out.failed);
  s += ",\"deterministic\":" + std::string(out.deterministic ? "true" : "false");
  s += ",\"samples\":{\"write\":" + std::to_string(out.write_samples) +
       ",\"read\":" + std::to_string(out.read_samples) + "}";
  s += ",\"steps\":[";
  for (std::size_t i = 0; i < out.steps.size(); ++i) {
    s += (i ? "," : "") + std::to_string(out.steps[i]);
  }
  s += "]";
  auto object = [](const MetricMap& m) {
    std::string o = "{";
    bool first = true;
    for (const auto& [name, value] : m) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(value) ? value : 0.0);
      o += (first ? "\"" : ",\"") + name + "\":" + buf;
      first = false;
    }
    return o + "}";
  };
  s += ",\"metrics\":" + object(out.metrics);
  s += ",\"layers\":" + object(out.layers);
  s += ",\"counters\":" + object(out.counters);
  return s + "}";
}

void PrintSummary(const Outcome& out, const RunConfig& config) {
  std::printf("== %s seed=%llu %s: %s, %llu ops, %llu failed, "
              "%zu write / %zu read samples ==\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? "traced" : "untraced",
              out.correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), out.write_samples,
              out.read_samples);
  for (const MetricMap* m : {&out.metrics, &out.layers}) {
    for (const auto& [name, value] : *m) {
      std::printf("  %-34s %14.4f\n", name.c_str(), value);
    }
  }
}

// No arguments: every workload at 1/20 scale, briefly, as BENCHJSON rows.
int Smoke() {
  bool ok = true;
  for (const std::string& name : WorkloadNames()) {
    RunConfig config;
    config.workload = name;
    config.seconds = 0.5;
    config.setups = 1;
    config.scale = 20;
    Outcome out = RunWorkload(config);
    PrintSummary(out, config);
    std::string row = "{\"bench\":\"bench_suite\",\"workload\":\"" + name +
                      "\",\"correct\":" + (out.correct ? "1" : "0");
    for (const auto& [metric, value] : out.metrics) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6g", value);
      row += ",\"" + metric + "\":" + buf;
    }
    std::printf("BENCHJSON %s}\n", row.c_str());
    ok = ok && out.correct;
  }
  return ok ? 0 : 1;
}

int Usage(const char* problem) {
  std::fprintf(stderr,
               "bench_suite: %s\nusage: bench_suite --workload "
               "{burst_write|incremental_cbch|restart_read|grid_churn} "
               "--seed N --seconds T [--trace 0|1] [--steps a,b] "
               "[--data-dir DIR] [--trace-out FILE]\n",
               problem);
  return 2;
}

}  // namespace
}  // namespace stdchk::suite

int main(int argc, char** argv) {
  using namespace stdchk::suite;
  if (argc == 1) return Smoke();

  RunConfig config;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--steps") {
      for (std::size_t pos = 0; pos < value.size();) {
        std::size_t comma = value.find(',', pos);
        if (comma == std::string::npos) comma = value.size();
        config.steps.push_back(
            std::strtoll(value.substr(pos, comma - pos).c_str(), nullptr, 10));
        pos = comma + 1;
      }
    } else if (flag == "--data-dir") {
      config.data_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (MakeWorkload(config) == nullptr) return Usage("unknown workload");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");

  Outcome out = RunWorkload(config);
  if (config.trace && !trace_out.empty() &&
      !Tracer::Get().WriteJson(trace_out)) {
    std::fprintf(stderr, "bench_suite: cannot write %s\n", trace_out.c_str());
  }
  PrintSummary(out, config);
  std::printf("%s\n", Json(out, config).c_str());
  return out.correct ? 0 : 1;
}
