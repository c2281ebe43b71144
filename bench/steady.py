"""Steadiness of the benchmark: two sets of runs of one workload.

Usage, from the root of a checkout:

    python3 bench/steady.py --workload NAME

Set A uses seeds 1..10, set B seeds 11..20; every run lasts BENCHMARK.json's
run_seconds. For each end-to-end metric it prints both medians, each set's
quartile spread (the distance between the first and third quartile as a
share of the median) and the medians' difference as a share of the smaller.
The sets agree when every spread and the difference are within the metric's
bound, and both sets fail the same share of operations. The runs are written
to bench/out/steady-NAME.json. Exits 0 when the sets agree.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900
RUNS = 10   # per set


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(workload, seeds, seconds):
    runs = []
    for seed in seeds:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        summary = json.loads(proc.stdout.splitlines()[-1])
        print(f"  seed {seed}: " + ", ".join(
            f"{name} {m['value']:.5g}" for name, m in summary["metrics"].items()),
            flush=True)
        runs.append({"seed": seed, **summary})
    return runs


def compare(spec, set_a, set_b):
    """Rows of (name, bound, medians, spreads, difference, agree) and the verdict."""
    rows, agree_all = [], True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r["metrics"][name]["value"] for r in set_a]
        b = [r["metrics"][name]["value"] for r in set_b]
        med_a, med_b = statistics.median(a), statistics.median(b)
        diff = abs(med_b - med_a) / min(med_a, med_b)
        agree = max(spread(a), spread(b), diff) <= bound
        agree_all &= agree
        rows.append((name, bound, med_a, med_b, spread(a), spread(b), diff, agree))
    shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
              for s in (set_a, set_b)]
    correct = all(r["correct"] for r in set_a + set_b)
    return rows, shares, agree_all and shares[0] == shares[1] and correct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    sets = []
    for label, first in (("A", 1), ("B", 1 + RUNS)):
        print(f"set {label}: {args.workload}, seeds {first}..{first + RUNS - 1}, "
              f"{seconds} s each", flush=True)
        sets.append(run_set(args.workload, range(first, first + RUNS), seconds))
    rows, shares, ok = compare(spec, *sets)

    print(f"{'metric':<12} {'bound':>6} {'median A':>10} {'median B':>10} "
          f"{'spread A':>9} {'spread B':>9} {'diff':>8}  agree")
    for name, bound, med_a, med_b, sp_a, sp_b, diff, agree in rows:
        print(f"{name:<12} {bound:>6.2f} {med_a:>10.5g} {med_b:>10.5g} "
              f"{sp_a:>9.2%} {sp_b:>9.2%} {diff:>8.2%}  {'yes' if agree else 'NO'}")
    print(f"failed share: A {shares[0]:.6g}, B {shares[1]:.6g}; "
          f"all outputs correct: {all(r['correct'] for s in sets for r in s)}")
    print("sets agree" if ok else "sets DISAGREE")
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps(
        {"workload": args.workload, "run_seconds": seconds, "A": sets[0], "B": sets[1]},
        indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
