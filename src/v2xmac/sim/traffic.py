"""Per-vehicle CAM/DENM arrival streams for the simulators.

All times are integer microseconds. CAM arrivals are strictly periodic with a
random initial phase; DENM events are Poisson-triggered trains of K copies
spaced T_D apart, with no new trigger while a train is running. A stream is
one int64 array of (time_us, kind) rows sorted by (time, kind).

Both simulators consume all vehicles' arrivals as one order, merged up
front by `merge_arrivals`; each sorts it by its own rule for ties within
one time unit (see its module docstring).
"""
from __future__ import annotations

import numpy as np

from ..config import TrafficParams

CAM = 0
DENM = 1
KINDS = ("cam", "denm")   # trace labels, by kind


def vehicle_rngs(seed: int, replication: int, vid: int):
    """The (traffic, MAC) generators of one vehicle in one replication.

    They draw what the two children of
    `SeedSequence(seed, spawn_key=(replication, vid)).spawn(2)` would draw,
    without building the parent.
    """
    return tuple(np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(replication, vid, j))) for j in (0, 1))


def arrival_stream(rng: np.random.Generator, params: TrafficParams,
                   duration_us: int) -> np.ndarray:
    """Sorted (time_us, kind) rows of one vehicle's arrivals over [0, duration_us)."""
    t_c_us = int(params.t_c) * 1000
    t_d_us = int(params.t_d) * 1000
    train_us = int(params.k) * t_d_us
    cams = np.arange(int(rng.integers(0, t_c_us)), duration_us, t_c_us, dtype=np.int64)
    denms = []
    t = 0
    while True:
        t += int(round(rng.exponential(1.0 / params.lam) * 1e6))
        if t >= duration_us:
            break
        denms.extend(range(t, min(t + train_us, duration_us), t_d_us))
        t += train_us - t_d_us  # triggers are blocked during the train
    times = np.concatenate((cams, np.array(denms, dtype=np.int64)))
    # a stable sort keeps each CAM ahead of a DENM at the same time
    order = np.argsort(times, kind="stable")
    return np.stack((times[order], np.where(order < len(cams), CAM, DENM)), axis=1)


def merge_arrivals(streams, unit_us):
    """The (unit, vid, kind) columns of all vehicles' arrivals, vehicle by vehicle.

    streams[vid] holds the rows of vehicle vid's `arrival_stream`; its times
    become whole units of unit_us. Each vehicle's rows keep their stream
    order, so a stable sort by (unit, vid) keeps it within a unit. The list
    is emptied as soon as it is read, to lower the peak memory of a
    replication.
    """
    counts = [len(a) for a in streams]
    rows = np.concatenate(streams)
    streams.clear()
    units = (rows[:, 0] // unit_us).astype(np.int64)
    kinds = rows[:, 1].astype(np.int8)
    del rows
    vids = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    return units, vids, kinds
