"""Simulator output pinned byte for byte.

Each case runs one 10 s `run_replication` with a trace sink and compares two
SHA-256 digests against a golden file: one of `vars(stats)` as JSON with
sorted keys, one of the trace in the `--trace` line format. Every case also
runs without a trace sink, and its `vars(stats)` must equal the traced one.

The 802.11p cases (`dot11p_golden.json`) cover AIFSN 6 and 9 at C_min = 15,
a C_min = 63 corner (a countdown outlasts tx_slots + Omega) and an
AIFSN = 2, C_min = 3 corner. Corners that stress how a burst delays every
pending countdown follow at N = 20 and 120: tx_slots = 1 and 60, AIFSN = 2
with C_min = 1023 (countdowns interrupted many times), M = 1 at
lambda = 20, and slot_us = 9 and 12.5 (the microsecond-to-slot conversion).
The C-V2X cases (`cv2x_golden.json`) cover N = 10, 50 and 300 at
Gamma = 20 and 100. Corners follow at N = 20 and 120: M = 1 at lambda = 20
(a drop at nearly every arrival), p_rk = 0 and 0.8, one CSR per subframe
(transmissions sharing a cell), Gamma = 2, and r_low = r_high = 1.

Regenerate the digests with `PYTHONPATH=src python tests/test_sim_golden.py`,
only for a change that is meant to alter simulator output. The same digests
drive `scripts/sim_digests.py`, which one test runs on two scenarios.
"""
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from v2xmac.config import Cv2xParams, Dot11pParams, ScenarioConfig, TrafficParams
from v2xmac.sim import cv2x, dot11p
from v2xmac.sim.traffic import CAM, DENM, arrival_stream, vehicle_rngs

GOLDEN = {tech: Path(__file__).with_name(f"{tech}_golden.json") for tech in ("dot11p", "cv2x")}
DURATION_S = 10.0
SEEDS = range(1, 6)
TRAFFIC_KEYS = ("m", "lam")


def dot11p_case(n, aifsn, c_min, seed, **extra):
    """One 802.11p case; `extra` sets tx_slots, slot_us, m or lam (DENM lambda)."""
    return (n, aifsn, c_min, tuple(sorted(extra.items())), seed)


def cv2x_case(n, gamma, seed, **extra):
    """One C-V2X case; `extra` sets p_rk, csrs_per_subframe, r_low, r_high, m or lam."""
    return (n, gamma, tuple(sorted(extra.items())), seed)


DOT11P_CASES = (
    [dot11p_case(n, aifsn, 15, seed) for aifsn in (6, 9) for n in (10, 50) for seed in SEEDS]
    + [dot11p_case(300, aifsn, 15, seed) for aifsn in (6, 9) for seed in (1, 2)]
    + [dot11p_case(n, aifsn, c_min, seed) for aifsn, c_min in ((6, 63), (2, 3))
       for n in (10, 50) for seed in SEEDS]
    + [dot11p_case(300, aifsn, c_min, 1) for aifsn, c_min in ((6, 63), (2, 3))]
    + [dot11p_case(n, aifsn, c_min, 7, **extra) for n in (20, 120)
       for aifsn, c_min, extra in ((6, 15, {"tx_slots": 1}), (6, 15, {"tx_slots": 60}),
                                   (2, 1023, {}), (6, 15, {"m": 1, "lam": 20.0}),
                                   (6, 15, {"slot_us": 9.0}), (6, 15, {"slot_us": 12.5}))])

CV2X_CASES = (
    [cv2x_case(n, gamma, seed) for n in (10, 50, 300) for gamma in (20, 100)
     for seed in (1, 2, 3)]
    + [cv2x_case(n, gamma, 7, **extra) for n in (20, 120)
       for gamma, extra in ((100, {"m": 1, "lam": 20.0}), (100, {"p_rk": 0.0}),
                            (100, {"p_rk": 0.8}), (100, {"csrs_per_subframe": 1}),
                            (2, {}), (100, {"r_low": 1, "r_high": 1}))])


def _id(head, extra, seed):
    return head + "".join(f"-{key}{value:g}" for key, value in extra) + f"-seed{seed}"


def dot11p_id(n, aifsn, c_min, extra, seed):
    return _id(f"n{n}-aifsn{aifsn}-cmin{c_min}", extra, seed)


def cv2x_id(n, gamma, extra, seed):
    return _id(f"n{n}-gamma{gamma}", extra, seed)


def _split(extra):
    """`extra` as (TrafficParams, the MAC's own keyword arguments)."""
    mac = dict(extra)
    return TrafficParams(**{key: mac.pop(key) for key in TRAFFIC_KEYS if key in mac}), mac


def dot11p_scenario(n, aifsn, c_min, extra):
    traffic, mac = _split(extra)
    return ScenarioConfig(tech="dot11p", n=n, traffic=traffic,
                          dot11p=Dot11pParams(aifsn=aifsn, c_min=c_min, **mac)).validate()


def cv2x_scenario(n, gamma, extra):
    traffic, mac = _split(extra)
    return ScenarioConfig(tech="cv2x", n=n, traffic=traffic,
                          cv2x=Cv2xParams(gamma=gamma, **mac)).validate()


def stats_digest(stats):
    """SHA-256 of `vars(stats)` as JSON with sorted keys."""
    return hashlib.sha256(json.dumps(vars(stats), sort_keys=True).encode()).hexdigest()


def run_traced(runner, scenario, seed):
    """Replication 0 of `runner` with a trace sink: (stats, SHA-256 of the trace)."""
    trace = hashlib.sha256()

    def sink(t_us, vid, event, detail):
        trace.update(f"{t_us},{vid},{event},{detail}\n".encode())

    return runner(scenario, seed, 0, DURATION_S, trace=sink), trace.hexdigest()


def digests(runner, scenario, seed):
    """Stats and trace digests of replication 0 of `runner`, run with a trace sink."""
    stats, trace = run_traced(runner, scenario, seed)
    return {"stats": stats_digest(stats), "trace": trace}


SIMULATORS = {"dot11p": (dot11p.run_replication, dot11p_scenario),
              "cv2x": (cv2x.run_replication, cv2x_scenario)}
CASES = [("dot11p", c) for c in DOT11P_CASES] + [("cv2x", c) for c in CV2X_CASES]
IDS = {"dot11p": dot11p_id, "cv2x": cv2x_id}


@functools.lru_cache(maxsize=None)
def case_run(tech, case):
    """(runner, scenario, seed, traced stats, trace digest) of one case, run once."""
    runner, scenario = SIMULATORS[tech]
    scenario = scenario(*case[:-1])
    return (runner, scenario, case[-1]) + run_traced(runner, scenario, case[-1])


def case_digests(tech, case):
    stats, trace = case_run(tech, case)[3:]
    return {"stats": stats_digest(stats), "trace": trace}


@pytest.fixture(scope="module")
def golden():
    return {tech: json.loads(path.read_text()) for tech, path in GOLDEN.items()}


@pytest.mark.parametrize("case", DOT11P_CASES, ids=[dot11p_id(*c) for c in DOT11P_CASES])
def test_replication_matches_golden_digests(case, golden):
    assert case_digests("dot11p", case) == golden["dot11p"][dot11p_id(*case)]


@pytest.mark.parametrize("case", CV2X_CASES, ids=[cv2x_id(*c) for c in CV2X_CASES])
def test_cv2x_replication_matches_golden_digests(case, golden):
    assert case_digests("cv2x", case) == golden["cv2x"][cv2x_id(*case)]


@pytest.mark.parametrize("tech, case", CASES, ids=[f"{t}-{IDS[t](*c)}" for t, c in CASES])
def test_trace_sink_leaves_stats_unchanged(tech, case):
    runner, scenario, seed, traced, _ = case_run(tech, case)
    assert vars(traced) == vars(runner(scenario, seed, 0, DURATION_S))


def denm_before_cam_ties(n, traffic, seed, unit_us):
    """Arrivals in replication 0 where a vehicle's DENM precedes its CAM within one unit."""
    times, vids, kinds = arrival_stream(vehicle_rngs(seed, 0, n)[0], traffic,
                                        int(DURATION_S * 1e6))
    order = np.lexsort((kinds, times, vids))   # each vehicle's arrivals in (time, kind) order
    times, vids, kinds = times[order], vids[order], kinds[order]
    units = times // unit_us
    return int(((vids[:-1] == vids[1:]) & (units[:-1] == units[1:])
                & (kinds[:-1] == DENM) & (kinds[1:] == CAM)).sum())


@pytest.mark.parametrize("tech", ["dot11p", "cv2x"])
def test_golden_cases_pin_the_tie_rule(tech):
    # the simulators order a vehicle's arrivals within one unit differently:
    # 802.11p queues a CAM before a DENM in the same slot, C-V2X keeps stream
    # (time) order, so the digests pin each rule only where such a tie occurs
    streams = set()   # (n, traffic, seed, unit_us): the cases that share one share arrivals
    for case in (c for t, c in CASES if t == tech):
        s = SIMULATORS[tech][1](*case[:-1])
        streams.add((s.n, s.traffic, case[-1], s.dot11p.slot_us if tech == "dot11p" else 1000))
    assert sum(denm_before_cam_ties(*key) for key in streams) >= 1


def test_digest_script_runs_both_simulators_traced_and_untraced():
    # scripts/sim_digests.py is the byte-identity gate for simulator changes
    script = Path(__file__).resolve().parents[1] / "scripts" / "sim_digests.py"
    env = {**os.environ, "PYTHONPATH": str(Path(cv2x.__file__).resolve().parents[2])}
    out = subprocess.run([sys.executable, str(script), "--count", "2"], capture_output=True,
                         text=True, check=True, env=env).stdout
    rows = json.loads(out)
    assert len(rows) == 2
    for row in rows:
        for tech in ("cv2x", "dot11p"):
            assert row[f"{tech}_digests"]["untraced_stats"] == row[f"{tech}_digests"]["stats"]


if __name__ == "__main__":
    for tech in GOLDEN:
        table = {IDS[t](*c): case_digests(t, c) for t, c in CASES if t == tech}
        GOLDEN[tech].write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
