#!/usr/bin/env python3
"""Analytics-vs-simulation comparison at the default highway scenario.

Writes results/compare_defaults.csv for N in {10, 50, 100} and both
technologies, one `v2xmac compare` run per N. Mirrors the cross-validation
sweep used by the acceptance suite but with tunable effort.
"""
import argparse
import sys
import tempfile
from pathlib import Path

from v2xmac.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(seed, duration_s, replications, jobs, out):
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in (10, 50, 100):
            cfg, csv = Path(tmp) / f"n{n}.cfg", Path(tmp) / f"n{n}.csv"
            cfg.write_text(f"n={n}\n")
            code = main(["compare", "--config", str(cfg), "--out", str(csv),
                         "--seed", str(seed), "--duration-s", str(duration_s),
                         "--replications", str(replications), "--jobs", str(jobs)])
            if code != 0:
                return code
            rows = csv.read_text().splitlines()
            lines += rows if not lines else rows[2:]   # one schema line and header
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--duration-s", type=float, default=60.0)
    ap.add_argument("--replications", type=int, default=20)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", type=Path, default=ROOT / "results" / "compare_defaults.csv")
    a = ap.parse_args()
    sys.exit(run(a.seed, a.duration_s, a.replications, a.jobs, a.out))
