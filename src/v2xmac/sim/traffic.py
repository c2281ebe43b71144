"""Per-vehicle CAM/DENM arrival streams for the simulators.

All times are integer microseconds. CAM arrivals are strictly periodic with a
random initial phase; DENM events are Poisson-triggered trains of K copies
spaced T_D apart, with no new trigger while a train is running.
"""
from __future__ import annotations

import numpy as np

from ..config import TrafficParams

CAM = 0
DENM = 1


def vehicle_rngs(seed: int, replication: int, vid: int):
    """The (traffic, MAC) generators of one vehicle in one replication.

    They draw what the two children of
    `SeedSequence(seed, spawn_key=(replication, vid)).spawn(2)` would draw,
    without building the parent.
    """
    return tuple(np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(replication, vid, j))) for j in (0, 1))


def arrival_stream(rng: np.random.Generator, params: TrafficParams,
                   duration_us: int):
    """Sorted (time_us, kind) arrivals for one vehicle over [0, duration_us)."""
    t_c_us = params.t_c * 1000
    t_d_us = params.t_d * 1000
    out = []
    t = int(rng.integers(0, t_c_us))
    while t < duration_us:
        out.append((t, CAM))
        t += t_c_us
    t = 0
    while True:
        gap = rng.exponential(1.0 / params.lam)
        t += int(round(gap * 1e6))
        if t >= duration_us:
            break
        for copy in range(params.k):
            at = t + copy * t_d_us
            if at < duration_us:
                out.append((at, DENM))
        t += (params.k - 1) * t_d_us  # triggers are blocked during the train
    out.sort()
    return out
