#!/usr/bin/env python3
"""stdchk-bench runner: builds bench_suite, runs workloads, checks outputs.

Single run (the form a benchmark harness calls); the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics:

  python3 bench/suite/run.py --workload W --seed S --seconds T --trace 0|1

--trace 0 reports every end-to-end metric of BENCHMARK.json. --trace 1 runs
the workload untraced, then replays the same step counts traced, and
reports every per-layer metric plus trace_overhead_pct; for deterministic
workloads it also requires the store/manager counters of the two passes
to match exactly (tracing must change no behaviour).

Without --workload every workload runs. --repeat N runs each workload N
times (seeds S..S+N-1) and reports median and quartiles; --out FILE writes
all runs and summaries as JSON. --agree A.json B.json exits 1 if the
medians of two result files differ by more than the BENCHMARK.json bounds.

The build goes to $CARGO_TARGET_DIR if set, else .bench_build; disk-backed
benefactors live under .bench_data (--data-dir). Both default to the
checkout root.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
WORKLOADS = ["burst_write", "incremental_cbch", "restart_read", "grid_churn"]
RUN_TIMEOUT_S = 170  # one invocation must end within 180 s, build aside


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures and builds bench_suite; returns the binary path."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", str(SUITE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    binary = out / "bench_suite"
    if not binary.exists():
        raise RuntimeError(f"build produced no {binary}")
    return binary


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def run_binary(binary, data, workload, seed, seconds, trace, steps, deadline):
    """One bench_suite process; returns its result object."""
    shutil.rmtree(data, ignore_errors=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--data-dir", str(data)]
    if steps:
        cmd += ["--steps", ",".join(str(s) for s in steps)]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1, deadline - time.time()))
    finally:
        shutil.rmtree(data, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if not lines:
        raise RuntimeError(f"{workload}: bench_suite printed nothing "
                           f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    return result


def counters_match(a, b):
    for name, x in a["counters"].items():
        y = b["counters"].get(name)
        if y is None or abs(x - y) > 1e-9 * max(1.0, abs(x)):
            log(f"counter {name} differs: untraced {x} traced {y}")
            return False
    return True


def run_one(binary, data, spec, workload, seed, seconds, trace):
    """The harness-shaped result of one run of one workload."""
    deadline = time.time() + RUN_TIMEOUT_S
    plain = run_binary(binary, data, workload, seed, seconds, False, None,
                       deadline)
    correct = plain["correct"] and plain["exit_code"] == 0
    attempted, failed = plain["attempted"], plain["failed"]
    if not trace:
        wanted = spec["end_to_end"]
        values = plain["metrics"]
    else:
        traced = run_binary(binary, data, workload, seed, seconds, True,
                            plain["steps"], deadline)
        correct = correct and traced["correct"] and traced["exit_code"] == 0
        if plain["deterministic"]:
            correct = correct and counters_match(plain, traced)
        attempted += traced["attempted"]
        failed += traced["failed"]
        values = dict(traced["layers"])
        overheads = [100.0 * (plain["metrics"][m] / traced["metrics"][m] - 1)
                     for m in ("write_mb_s", "read_mb_s")
                     if traced["metrics"].get(m)]
        values["trace_overhead_pct"] = (statistics.mean(overheads)
                                        if overheads else 0.0)
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{workload}: metrics missing: {missing}")
    gated = {m["name"] for m in spec["end_to_end"]}
    return {
        "workload": workload,
        "seed": seed,
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "samples": plain["samples"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
        # End-to-end numbers printed but not bounded (the p90 latencies).
        "diagnostics": {k: v for k, v in plain["metrics"].items()
                        if k not in gated},
    }


def print_run(result):
    print(f"== {result['workload']} seed={result['seed']}: "
          f"{'correct' if result['correct'] else 'INCORRECT'}, "
          f"{result['attempted']} ops, {result['failed']} failed, "
          f"samples write={result['samples']['write']} "
          f"read={result['samples']['read']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']}")
    for name, value in result["diagnostics"].items():
        print(f"  {name:34s} {value:14.4f} (not bounded)")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(runs):
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0,
                         "unit": runs[0]["metrics"][name]["unit"]}
    return summary


def agree(spec, path_a, path_b):
    """Exit status 1 if any workload's median moved more than its bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    ok = True
    for workload, wa in sorted(a["workloads"].items()):
        wb = b["workloads"].get(workload)
        if wb is None:
            print(f"{workload}: missing from {path_b}")
            ok = False
            continue
        for name, sa in wa["summary"].items():
            if name not in bounds or name not in wb["summary"]:
                continue
            ma, mb = sa["median"], wb["summary"][name]["median"]
            diff = abs(mb - ma) / abs(ma) if ma else 0.0
            verdict = "ok" if diff <= bounds[name] else "DIFFERS"
            ok = ok and verdict == "ok"
            print(f"{workload:17s} {name:30s} {ma:12.4f} {mb:12.4f} "
                  f"{100 * diff:6.2f}% (bound {100 * bounds[name]:.0f}%) "
                  f"{verdict}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--data-dir", default=str(ROOT / ".bench_data"),
                        help="where disk benefactors live (emptied per run)")
    parser.add_argument("--agree", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    spec = load_spec()
    if args.agree:
        return agree(spec, *args.agree)
    seconds = args.seconds or spec["run_seconds"]
    binary = build()
    # A directory of our own inside --data-dir: it is emptied before and
    # after every run.
    data = Path(args.data_dir).resolve() / "stdchk-bench"
    workloads = [args.workload] if args.workload else WORKLOADS

    results = {"machine": machine(), "seconds": seconds,
               "trace": args.trace, "workloads": {}}
    all_correct = True
    last = None
    for workload in workloads:
        runs = []
        for i in range(args.repeat):
            last = run_one(binary, data, spec, workload, args.seed + i,
                           seconds, args.trace == 1)
            print_run(last)
            runs.append(last)
            all_correct = all_correct and last["correct"]
        results["workloads"][workload] = {"runs": runs,
                                          "summary": summarize(runs)}
        if args.repeat > 1:
            print(f"-- {workload}: median [q1, q3] over {args.repeat} runs")
            for name, s in results["workloads"][workload]["summary"].items():
                print(f"  {name:34s} {s['median']:14.4f} "
                      f"[{s['q1']:.4f}, {s['q3']:.4f}] {s['unit']} "
                      f"spread {100 * s['spread']:.1f}%")

    out = Path(args.out) if args.out else build_dir() / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
    log(f"results: {out} ({machine()['nproc']} cpus, {machine()['cpu']})")

    if len(workloads) == 1 and args.repeat == 1:
        print(json.dumps({k: last[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        sys.exit(1)
