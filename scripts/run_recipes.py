#!/usr/bin/env python3
"""Solve every shipped recipe and drop one CSV per recipe into results/."""
import sys
from pathlib import Path

from v2xmac.cli import RECIPE_DIR, main, recipe_names

ROOT = Path(__file__).resolve().parent.parent


def run(out_dir="results"):
    out = ROOT / out_dir
    out.mkdir(exist_ok=True)
    for name in recipe_names():
        cfg = RECIPE_DIR / f"{name}.cfg"
        csv = out / f"{name}.csv"
        code = main(["solve", "--config", str(cfg), "--out", str(csv)])
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{name}: {status} -> {csv}")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
