#!/usr/bin/env python3
"""Simulator digests over a seeded random sweep of scenarios.

Draws K scenarios from a seeded stream: N 1-200, Gamma 2-100, CSRs per
subframe 1-25, p_rk 0-0.8, M 1-10, lambda 0.2-50, AIFSN 1-9, C_min 3-1023,
tx_slots 1-60 and slot_us 9-13. Each runs one 10 s replication of both
simulators with a trace sink and one without. It prints one JSON object:
per scenario, its parameters and, per simulator, the stats and trace
digests of `tests/test_sim_golden.py` plus the stats digest of the untraced
run. Two checkouts that print the same output simulate those scenarios
byte for byte alike.

    PYTHONPATH=src python scripts/sim_digests.py --count 140 --seed 1
"""
import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_sim_golden import DURATION_S, digests, stats_digest  # noqa: E402
from v2xmac.config import (Cv2xParams, Dot11pParams, ScenarioConfig,  # noqa: E402
                           TrafficParams)
from v2xmac.sim import cv2x, dot11p  # noqa: E402


def draw(rng):
    """One random scenario and simulation seed."""
    scenario = ScenarioConfig(
        n=rng.randint(1, 200),
        traffic=TrafficParams(m=rng.randint(1, 10), lam=round(rng.uniform(0.2, 50.0), 3)),
        cv2x=Cv2xParams(gamma=rng.randint(2, 100), csrs_per_subframe=rng.randint(1, 25),
                        p_rk=round(rng.uniform(0.0, 0.8), 3)),
        dot11p=Dot11pParams(aifsn=rng.randint(1, 9), c_min=rng.randint(3, 1023),
                            tx_slots=rng.randint(1, 60), slot_us=round(rng.uniform(9.0, 13.0), 2)))
    return scenario.validate(), rng.randint(1, 10 ** 6)


def sweep(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        scenario, sim_seed = draw(rng)
        row = {"n": scenario.n, "seed": sim_seed, "traffic": vars(scenario.traffic),
               "cv2x": vars(scenario.cv2x), "dot11p": vars(scenario.dot11p)}
        for tech, module in (("cv2x", cv2x), ("dot11p", dot11p)):
            result = digests(module.run_replication, scenario, sim_seed)
            result["untraced_stats"] = stats_digest(
                module.run_replication(scenario, sim_seed, 0, DURATION_S))
            row[f"{tech}_digests"] = result
        out.append(row)
    return out


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=140)
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()
    json.dump(sweep(a.count, a.seed), sys.stdout, indent=1)
    print()
