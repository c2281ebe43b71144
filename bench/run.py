"""Benchmark for v2xmac: one workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-recipes, fixed-point-grid, simulate-highway (see README.md).
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run. The last line of its output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The whole
record of the run is also written to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import import_times, per_layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("cli-recipes", "fixed-point-grid", "simulate-highway")
END_TO_END = (("setup_s", "s", "lower"), ("round_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower"))
SETUP_PROBES = 4      # set-up-only interpreters; the workload's own is one more
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def launch(cmd, env, timeout):
    """Run a worker; return (launch-to-READY seconds, RESULT dict or None)."""
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {timeout} s: {cmd}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {cmd}")
    ready = result = None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1]) - started
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if ready is None:
        raise BenchError(f"worker never became ready: {cmd}")
    return ready, result


def peak_rss_mb():
    """Largest resident set of this process or any waited-for descendant."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run(workload, seed, seconds, trace):
    src = ROOT / "src"
    if not (src / "v2xmac" / "__init__.py").is_file():
        raise BenchError(f"no v2xmac sources under {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    # users run from cached bytecode; without the cache every set-up compiles
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    work_dir = OUT_DIR / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work-dir", str(work_dir), "--src", str(src)]
    try:
        setups = []
        if not trace:
            # the first interpreter compiles and caches; users pay that once
            launch(cmd + ["--setup-only"], env, PROBE_TIMEOUT_S)
            setups = [launch(cmd + ["--setup-only"], env, PROBE_TIMEOUT_S)[0]
                      for _ in range(SETUP_PROBES)]
        setup, result = launch(cmd + ["--seconds", str(seconds), "--trace", str(trace)],
                               env, WORKER_TIMEOUT_S)
        setups.append(setup)
        imports = import_times(sys.executable, env) if trace else None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    rounds = len(result["round_s"])
    round_s = statistics.median(result["round_s"])
    if trace:
        metrics = per_layer_metrics(result["totals"], rounds, imports)
    else:
        values = {"setup_s": statistics.median(setups), "round_s": round_s,
                  "peak_rss_mb": peak_rss_mb()}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "setup_samples_s": setups, **result, "metrics": metrics}
    (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))

    for msg in result["failures"] + result["problems"]:
        print(msg, file=sys.stderr)
    print(f"{workload}, seed {seed}, {'traced' if trace else 'untraced'}: "
          f"{rounds} rounds of {result['attempted'] // rounds} operations, "
          f"round_s median {round_s:.4f} s")
    if not trace:
        print(f"setup_s is the median of {len(setups)} fresh interpreters")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}")
    return {"correct": not result["problems"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        summary = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
