"""Simulator output pinned byte for byte.

Each case runs one 10 s `run_replication` with a trace sink and compares two
SHA-256 digests against a golden file: one of `vars(stats)` as JSON with
sorted keys, one of the trace in the `--trace` line format.

The 802.11p cases (`dot11p_golden.json`) cover AIFSN 6 and 9 at C_min = 15,
a C_min = 63 corner (a countdown outlasts tx_slots + Omega) and an
AIFSN = 2, C_min = 3 corner. Corners that stress how a burst delays every
pending countdown follow at N = 20 and 120: tx_slots = 1 and 60, AIFSN = 2
with C_min = 1023 (countdowns interrupted many times), and M = 1 at
lambda = 20. The C-V2X cases (`cv2x_golden.json`) cover N = 10, 50 and 300
at Gamma = 20 and 100.

Regenerate the digests with `PYTHONPATH=src python tests/test_sim_golden.py`,
only for a change that is meant to alter simulator output.
"""
import hashlib
import json
from pathlib import Path

import pytest

from v2xmac.config import Cv2xParams, Dot11pParams, ScenarioConfig, TrafficParams
from v2xmac.sim import cv2x, dot11p

GOLDEN = {tech: Path(__file__).with_name(f"{tech}_golden.json") for tech in ("dot11p", "cv2x")}
DURATION_S = 10.0
SEEDS = range(1, 6)


def dot11p_case(n, aifsn, c_min, seed, **extra):
    """One 802.11p case; `extra` sets tx_slots, m or lam (DENM lambda)."""
    return (n, aifsn, c_min, tuple(sorted(extra.items())), seed)


DOT11P_CASES = (
    [dot11p_case(n, aifsn, 15, seed) for aifsn in (6, 9) for n in (10, 50) for seed in SEEDS]
    + [dot11p_case(300, aifsn, 15, seed) for aifsn in (6, 9) for seed in (1, 2)]
    + [dot11p_case(n, aifsn, c_min, seed) for aifsn, c_min in ((6, 63), (2, 3))
       for n in (10, 50) for seed in SEEDS]
    + [dot11p_case(300, aifsn, c_min, 1) for aifsn, c_min in ((6, 63), (2, 3))]
    + [dot11p_case(n, aifsn, c_min, 7, **extra) for n in (20, 120)
       for aifsn, c_min, extra in ((6, 15, {"tx_slots": 1}), (6, 15, {"tx_slots": 60}),
                                   (2, 1023, {}), (6, 15, {"m": 1, "lam": 20.0}))])

CV2X_CASES = [(n, gamma, seed) for n in (10, 50, 300) for gamma in (20, 100)
              for seed in (1, 2, 3)]


def dot11p_id(n, aifsn, c_min, extra, seed):
    suffix = "".join(f"-{key}{value:g}" for key, value in extra)
    return f"n{n}-aifsn{aifsn}-cmin{c_min}{suffix}-seed{seed}"


def cv2x_id(n, gamma, seed):
    return f"n{n}-gamma{gamma}-seed{seed}"


def dot11p_digests(n, aifsn, c_min, extra, seed):
    extra = dict(extra)
    traffic = {key: extra.pop(key) for key in ("m", "lam") if key in extra}
    s = ScenarioConfig(tech="dot11p", n=n, traffic=TrafficParams(**traffic),
                       dot11p=Dot11pParams(aifsn=aifsn, c_min=c_min, **extra)).validate()
    return digests(dot11p.run_replication, s, seed)


def cv2x_digests(n, gamma, seed):
    s = ScenarioConfig(tech="cv2x", n=n, cv2x=Cv2xParams(gamma=gamma)).validate()
    return digests(cv2x.run_replication, s, seed)


def digests(runner, scenario, seed):
    trace = hashlib.sha256()

    def sink(t_us, vid, event, detail):
        trace.update(f"{t_us},{vid},{event},{detail}\n".encode())

    stats = runner(scenario, seed, 0, DURATION_S, trace=sink)
    record = json.dumps(vars(stats), sort_keys=True).encode()
    return {"stats": hashlib.sha256(record).hexdigest(), "trace": trace.hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return {tech: json.loads(path.read_text()) for tech, path in GOLDEN.items()}


@pytest.mark.parametrize("case", DOT11P_CASES, ids=[dot11p_id(*c) for c in DOT11P_CASES])
def test_replication_matches_golden_digests(case, golden):
    assert dot11p_digests(*case) == golden["dot11p"][dot11p_id(*case)]


@pytest.mark.parametrize("case", CV2X_CASES, ids=[cv2x_id(*c) for c in CV2X_CASES])
def test_cv2x_replication_matches_golden_digests(case, golden):
    assert cv2x_digests(*case) == golden["cv2x"][cv2x_id(*case)]


if __name__ == "__main__":
    for tech, table in (("dot11p", {dot11p_id(*c): dot11p_digests(*c) for c in DOT11P_CASES}),
                        ("cv2x", {cv2x_id(*c): cv2x_digests(*c) for c in CV2X_CASES})):
        GOLDEN[tech].write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
