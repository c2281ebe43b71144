"""Simulation front end: replication dispatch, merging and tracing."""
from __future__ import annotations

import math
import operator
from itertools import repeat
from typing import Callable, Optional

from ..config import ScenarioConfig
from ..errors import InvalidArgument, InvalidDuration
from . import cv2x as _cv2x
from . import dot11p as _dot11p
from .report import ReplicationStats, SimReport, merge_replications

TraceSink = Callable[[int, int, str, str], None]

MIN_DURATION_S = 10.0


def run_sim(tech: str, scenario: ScenarioConfig, seed: int, duration_s: float,
            replications: int, jobs: int = 1,
            trace: Optional[TraceSink] = None) -> SimReport:
    """Run `replications` independent replications and merge their statistics.

    Replications are independent (one RNG stream per vehicle per replication,
    derived from seed, replication and vehicle id) and may run in a process
    pool; merging is order-independent. A trace sink receives
    (time_us, vehicle, event, detail) records from replication 0 and forces
    in-process execution for that replication.
    """
    if tech not in ("cv2x", "dot11p"):
        raise InvalidArgument(f"unknown technology {tech!r}")
    try:
        seed_ok = operator.index(seed) >= 0
    except TypeError:
        seed_ok = False
    if not seed_ok:
        raise InvalidArgument(f"seed must be a non-negative integer, not {seed!r}")
    if not (math.isfinite(duration_s) and duration_s >= MIN_DURATION_S):
        raise InvalidDuration(f"duration must be finite and >= {MIN_DURATION_S} s, "
                              f"not {duration_s}")
    if replications < 1:
        raise InvalidDuration("need at least one replication")
    if jobs < 1:
        raise InvalidArgument(f"jobs must be >= 1, not {jobs}")
    scenario.validate()

    runner = _cv2x.run_replication if tech == "cv2x" else _dot11p.run_replication
    stats = []
    reps = list(range(replications))
    if trace is not None:
        stats.append(runner(scenario, seed, 0, duration_s, trace=trace))
        reps = reps[1:]
    if jobs > 1 and len(reps) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            stats.extend(pool.map(runner, repeat(scenario), repeat(seed), reps,
                                  repeat(duration_s)))
    else:
        for r in reps:
            stats.append(runner(scenario, seed, r, duration_s))

    if tech == "cv2x":
        normalizer = 1.0 / scenario.cv2x.csrs_per_subframe
    else:
        normalizer = float(scenario.dot11p.tx_slots)
    return merge_replications(tech, scenario.n, stats, normalizer, seed, duration_s)


__all__ = ["run_sim", "SimReport", "ReplicationStats", "MIN_DURATION_S"]
