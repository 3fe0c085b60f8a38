#!/usr/bin/env python3
"""Bench regression gate: diff a fresh BENCH_RESULTS.json against a baseline.

Rows are keyed by their bench name plus every non-metric field (config
labels, stripe widths, sweep parameters, ...). Metric fields are recognized
by name pattern and classified by direction:

  higher is better:  *_mb_s, *speedup*, *reduction_pct
  lower  is better:  *_ns, *modeled*_s, *overhead_pct

A metric that moves against its direction by more than --tolerance
(relative) on a row present in both files is a regression; the script
prints a report and exits 1 if any were found (0 otherwise). Added/removed
rows and metrics are reported but never fail the gate — benches evolve.

A second class of metrics is DETERMINISTIC: counts and invariants (payload
copies, syscalls, fsyncs, mmap reads, placement RPCs,
erasure shard puts/reconstructions/GC releases, chunk-boundary similarity
and average chunk size) that depend only on the workload, not the
hardware. These are compared exactly — any drift is a regression, because
a copy or RPC appearing on a zero-copy / zero-RPC path, or a boundary
moving, is a behavior change, not noise.

Usage:
  scripts/bench_compare.py --baseline BENCH_RESULTS.json \
                           --fresh fresh.json [--tolerance 0.25] \
                           [--gate all|deterministic|perf]

CI runs --gate deterministic as a BLOCKING step (exact counters are
machine-independent) and the perf comparison as a non-blocking report —
runners are noisy shared VMs, so wall-clock gating is meant for
like-for-like hardware (run locally before refreshing the snapshot).
"""

import argparse
import json
import sys

HIGHER_BETTER = ("_mb_s", "_per_sec", "speedup", "reduction_pct",
                 "improvement_pct")
LOWER_BETTER = ("_ns", "overhead_pct", "overhead_x")
# modeled_*_s / *_total_s style wall-clock models: lower is better.
LOWER_BETTER_TIME_HINTS = ("modeled", "total_s", "real_time")

# Machine- or run-varying side measurements that must identify nothing
# (a 32-core box reports hash_workers_peak=32 where the snapshot says 1).
# Not gated — the benches assert their own invariants on these.
INFORMATIONAL = ("hash_workers_peak", "lock_contended")

# Workload-determined counts: identical on every machine for a given build,
# so any change is a real behavior change. Compared exactly, blocking.
DETERMINISTIC = ("_payload_copies", "_copy_bytes", "materializations",
                 "materialized_bytes", "identical", "zero_copy", "syscalls",
                 "mmap_reads", "fsyncs", "placement_rpcs", "per_write",
                 # Erasure path: shard puts, parity reconstructions and
                 # shard-group GC releases are workload-determined counts.
                 "parity_shards", "data_shards", "reconstruction",
                 "shard_gc_reclaims", "replica_fallback",
                 # Live compaction: victims rewritten and generation
                 # releases are a function of the op sequence alone.
                 "segments_compacted", "compacted_bytes",
                 "generations_released",
                 # Chunk boundaries: similarity between versions and the
                 # average chunk size are a pure function of the chunker
                 # and the seeded traces, so boundary drift shows here.
                 "similarity_pct", "avg_chunk_kb")


def deterministic(name):
    return any(pattern in name for pattern in DETERMINISTIC)


def metric_direction(name):
    """Returns +1 (higher better), -1 (lower better) or 0 (not a metric)."""
    if informational(name) or deterministic(name):
        return 0
    for suffix in HIGHER_BETTER:
        if name.endswith(suffix) or suffix in name:
            return +1
    for suffix in LOWER_BETTER:
        if name.endswith(suffix):
            return -1
    if name.endswith("_s") and any(h in name for h in LOWER_BETTER_TIME_HINTS):
        return -1
    return 0


def informational(name):
    return any(pattern in name for pattern in INFORMATIONAL)


def row_key(row):
    """Identity of a result row: bench + every stable non-metric field.

    Floats never identify a row: an unclassified float (e.g. a wall-clock
    side measurement like hash_ms) is noise that would make keys unique
    per run and silently ungate the row's real metrics. Such fields are
    simply not compared either (no known direction). Informational integer
    measurements are likewise excluded — they vary across machines.
    Integer sweep parameters (stripe, chunk_kib, k, ...) remain identity.
    """
    parts = []
    for k in sorted(row):
        if (metric_direction(k) == 0 and not informational(k)
                and not deterministic(k) and not isinstance(row[k], float)):
            parts.append((k, row[k]))
    return tuple(parts)


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for row in doc.get("results", []):
        key = row_key(row)
        if key in rows:
            # Duplicate identity (e.g. repeated run): keep the last row,
            # matching how a reader scanning the file top-down resolves it.
            pass
        rows[key] = row
    return rows


def fmt_key(key):
    return " ".join(f"{k}={v}" for k, v in key)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_RESULTS.json snapshot")
    parser.add_argument("--fresh", required=True,
                        help="freshly generated results to check")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative slack before a move counts as a "
                             "regression (default 0.25 = 25%%)")
    parser.add_argument("--gate", choices=("all", "deterministic", "perf"),
                        default="all",
                        help="which metric classes can fail the run: "
                             "exact-match counters, directional perf "
                             "metrics, or both (default)")
    args = parser.parse_args()

    base = load_rows(args.baseline)
    fresh = load_rows(args.fresh)
    check_perf = args.gate in ("all", "perf")
    check_deterministic = args.gate in ("all", "deterministic")

    regressions = []
    improvements = []
    for key, fresh_row in sorted(fresh.items()):
        base_row = base.get(key)
        if base_row is None:
            continue
        for name, fresh_value in fresh_row.items():
            if not isinstance(fresh_value, (int, float)):
                continue
            base_value = base_row.get(name)
            if not isinstance(base_value, (int, float)):
                continue
            if deterministic(name):
                if check_deterministic and fresh_value != base_value:
                    regressions.append(
                        f"{fmt_key(key)} :: {name} "
                        f"{base_value:.6g} != {fresh_value:.6g} "
                        f"(deterministic counter drifted)")
                continue
            direction = metric_direction(name)
            if direction == 0 or not check_perf or base_value == 0:
                continue
            ratio = fresh_value / base_value
            delta = (ratio - 1.0) * direction  # negative = got worse
            line = (f"{fmt_key(key)} :: {name} "
                    f"{base_value:.4g} -> {fresh_value:.4g} "
                    f"({(ratio - 1.0) * 100.0:+.1f}%)")
            if delta < -args.tolerance:
                regressions.append(line)
            elif delta > args.tolerance:
                improvements.append(line)

    added = [k for k in fresh if k not in base]
    removed = [k for k in base if k not in fresh]

    if improvements:
        print(f"== improvements beyond {args.tolerance:.0%} tolerance "
              f"({len(improvements)}) ==")
        for line in improvements:
            print("  " + line)
    if added:
        print(f"== new rows ({len(added)}) ==")
        for key in sorted(added):
            print("  " + fmt_key(key))
    if removed:
        print(f"== rows missing from fresh run ({len(removed)}) ==")
        for key in sorted(removed):
            print("  " + fmt_key(key))
    if regressions:
        print(f"== REGRESSIONS beyond {args.tolerance:.0%} tolerance "
              f"({len(regressions)}) ==")
        for line in regressions:
            print("  " + line)
        return 1
    print("no regressions beyond tolerance "
          f"({len(fresh)} fresh rows, {len(base)} baseline rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
