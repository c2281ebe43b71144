#!/usr/bin/env python3
"""Fixed-point digests over the robustness grid of acceptance criterion 2.

Each scenario is solved with `solve_coupled` and evaluated with
`evaluate_fixed_point`. One SHA-256 covers, at full float precision, the
coupling state, iterations, residual, trace and rates of the report, the
fields of every closed-form solution in it (CAM, DENM, queue, MAC) and the
metrics; an error raised on the way is digested by its type and message.
It prints one JSON list, one entry per scenario in grid order: C-V2X
(Gamma x T_C x T_D x K x lambda x p_rk, 1,620 scenarios) and then 802.11p
(N x T_C x T_D x K x lambda, 1,080 scenarios). Two checkouts that print
the same output solve those scenarios bit for bit alike.

    PYTHONPATH=src python scripts/fixed_point_digests.py [--stride 50]

`--stride S` keeps every S-th scenario of each lane. With `--golden` it
writes that subsample to `tests/fixed_point_golden.json`, which
`tests/test_fixed_point_golden.py` checks; regenerate it only for a change
that is meant to alter fixed-point output.
"""
import argparse
import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS))

from chain_helpers import scenario  # noqa: E402
from v2xmac.coupling import solve_coupled  # noqa: E402
from v2xmac.errors import V2xMacError  # noqa: E402
from v2xmac.metrics import evaluate_fixed_point  # noqa: E402

GOLDEN = TESTS / "fixed_point_golden.json"
T_CS = tuple(range(100, 1001, 100))
LANES = {
    "cv2x": ("gamma", "t_c", "t_d", "k", "lam", "p_rk"),
    "dot11p": ("n", "t_c", "t_d", "k", "lam"),
}


def grid(tech):
    """The lane's criterion 2 scenarios as parameter dicts, in grid order."""
    if tech == "cv2x":
        values = itertools.product((20, 50, 100), T_CS, (100, 200, 300), (1, 5, 9),
                                   (0.2, 1.0), (0.0, 0.4, 0.8))
    else:
        values = itertools.product((50, 100, 150, 200, 250, 300), T_CS, (100, 200, 300),
                                   (1, 5, 9), (0.2, 1.0))
    return [dict(zip(LANES[tech], v)) for v in values]


def _fields(obj):
    """A dataclass's compared fields, nested dataclasses as dicts; None stays None."""
    if obj is None:
        return None
    out = {}
    for f in dataclasses.fields(obj):
        if f.compare:
            value = getattr(obj, f.name)
            out[f.name] = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
    return out


def record(tech, params):
    """Everything the solve and its metrics give for one scenario, as JSON data."""
    s = scenario(**params)
    try:
        rep = solve_coupled(tech, s)
    except V2xMacError as exc:
        return {"solve_error": [type(exc).__name__, str(exc), getattr(exc, "trace", None)]}
    out = {"state": _fields(rep.state), "iterations": rep.iterations,
           "residual": rep.residual, "converged": rep.converged,
           "trace": rep.trace,
           "generated_per_s": rep.generated_per_s, "dropped_per_s": rep.dropped_per_s,
           "cam": _fields(rep.cam), "denm": _fields(rep.denm), "queue": _fields(rep.queue),
           "cv2x": _fields(rep.cv2x), "dot11p": _fields(rep.dot11p)}
    try:
        out["metrics"] = _fields(evaluate_fixed_point(rep, s))
    except V2xMacError as exc:
        out["metrics_error"] = [type(exc).__name__, str(exc)]
    return out


def digest(tech, params):
    text = json.dumps(record(tech, params), sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digests(stride=1):
    """[{"tech", "index", "params", "sha256"}] for every stride-th scenario of each lane."""
    return [{"tech": tech, "index": i, "params": params, "sha256": digest(tech, params)}
            for tech in LANES for i, params in enumerate(grid(tech)) if i % stride == 0]


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stride", type=int, default=1)
    ap.add_argument("--golden", action="store_true",
                    help=f"write the subsample to {GOLDEN.name} instead of printing it")
    a = ap.parse_args()
    rows = digests(a.stride)
    if a.golden:
        GOLDEN.write_text(json.dumps({"stride": a.stride, "digests": rows}, indent=1) + "\n")
    else:
        json.dump(rows, sys.stdout, indent=1)
        print()
