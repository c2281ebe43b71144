"""Discrete-event simulator of N vehicles running C-V2X Mode 4 SPS.

Time advances in 1 ms subframes. The resource grid wraps modulo Gamma with
csrs_per_subframe CSRs per subframe; a collision is two or more data
transmissions in the same (subframe, CSR) cell. Sensing is SCI-announced
occupancy: a reservation becomes visible to others at the first transmission
on the new cell, so vehicles reselecting in overlapping windows can pick the
same cell, which is the modeled collision mechanism.

Arrivals come in one order of all vehicles' arrivals, built up front from
the columns of `traffic.arrival_stream` with one sort by (subframe, vid),
then by time, a CAM before a DENM at the same time. At each subframe with an
arrival or an opportunity, the loop first queues that subframe's
arrivals, each while fewer than M packets are queued and dropped
otherwise, then runs its opportunities in the order they were scheduled,
which fixes the occupancy each reselection sees.

Every next opportunity lies in (t, t + Gamma], so the schedule is a ring of
Gamma + 1 buckets: subframe t's opportunities sit in bucket t % (Gamma + 1),
which nothing appends to while it runs.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from ..config import ScenarioConfig
from .report import ReplicationStats, warmup_units
from .traffic import KINDS, arrival_stream, vehicle_rngs

SENSING_WINDOW_MS = 1000


class _Vehicle:
    __slots__ = ("vid", "queue", "cell", "rc", "announced", "own_history",
                 "generated", "dropped", "transmitted")

    def __init__(self, vid):
        self.vid = vid
        self.queue = deque()      # generation subframes of the queued packets
        self.cell = -1
        self.rc = 0
        self.announced = False
        self.own_history = {}  # cell -> last used subframe
        self.generated = 0
        self.dropped = 0
        self.transmitted = 0


def run_replication(scenario: ScenarioConfig, seed: int, replication: int,
                    duration_s: float, trace=None) -> ReplicationStats:
    p = scenario.cv2x
    m = scenario.traffic.m
    gamma, csrs = p.gamma, p.csrs_per_subframe
    n_cells = gamma * csrs
    l2_size = max(1, int(np.ceil(0.2 * n_cells)))
    duration_ms = int(round(duration_s * 1000))
    warmup = warmup_units(duration_ms, 1000)

    vehicles = []
    occupancy4 = np.zeros(n_cells)   # 4.0 per other vehicle's announced reservation, by cell
    score_buffer = np.empty(n_cells)
    ring = gamma + 1
    ops = [[] for _ in range(ring)]   # bucket t % ring: vids with an opportunity at t, in order
    traffic_rngs, mac_rngs = vehicle_rngs(seed, replication, scenario.n)
    for vid, mac_rng in enumerate(mac_rngs):
        v = _Vehicle(vid)
        # steady-state start: an existing announced reservation per vehicle
        offset = int(mac_rng.integers(0, gamma))
        csr = int(mac_rng.integers(0, csrs))
        v.cell = offset * csrs + csr
        v.rc = int(mac_rng.integers(p.r_low, p.r_high + 1))
        v.announced = True
        occupancy4[v.cell] += 4.0
        v.own_history[v.cell] = 0
        ops[offset if offset > 0 else gamma].append(vid)
        vehicles.append(v)

    times, vids, kinds = arrival_stream(traffic_rngs, scenario.traffic, duration_ms * 1000)
    del traffic_rngs
    subframes = times // 1000
    # by (subframe, vid), then in time order, a CAM before a DENM at the same
    # time: keys (subframe N + vid, 2 time_us + kind), the second built in place
    vehicle_key = subframes * scenario.n
    vehicle_key += vids
    time_key = np.multiply(times, 2, out=times)
    time_key += kinds
    order = np.lexsort((time_key, vehicle_key))
    del times, time_key, vehicle_key
    arr_t, arr_vids, arr_kinds = (col[order].tolist() for col in (subframes, vids, kinds))
    del subframes, vids, kinds, order
    arr_t.append(duration_ms)   # a sentinel ends the arrivals

    def select_new_cell(v, rng, now):
        """SPS steps 1-3 with occupancy standing in for RSSI sensing.

        Callers drop the vehicle's own announcement first, so `occupancy4`
        holds other vehicles' reservations only.
        """
        scores = rng.random(out=score_buffer)
        scores += occupancy4
        for cell, last in v.own_history.items():
            if last >= now - SENSING_WINDOW_MS:
                scores[cell] += 1e9  # half-duplex: own past cells are excluded
        l2 = scores.argpartition(l2_size - 1)[:l2_size]
        return int(l2[rng.integers(0, l2_size)])

    transmissions = collided = 0
    delay_sum = 0.0
    ai = 0
    for t in range(duration_ms):
        while arr_t[ai] == t:
            vid = arr_vids[ai]
            v = vehicles[vid]
            v.generated += 1
            if trace is not None:
                trace(t * 1000, vid, "generation", KINDS[arr_kinds[ai]])
            ai += 1
            if len(v.queue) < m:
                v.queue.append(t)
                if trace is not None:
                    trace(t * 1000, vid, "enqueue", str(len(v.queue)))
            else:
                v.dropped += 1
                if trace is not None:
                    trace(t * 1000, vid, "drop", "")
        todo = ops[t % ring]
        if not todo:
            continue
        ops[t % ring] = []
        in_window = t >= warmup
        sent = []             # (vid, cell) of this subframe's transmissions
        for vid in todo:
            v = vehicles[vid]
            if not v.announced:
                occupancy4[v.cell] += 4.0  # first SCI on the new cell
                v.announced = True
            v.own_history[v.cell] = t
            if v.queue:
                gen = v.queue.popleft()
                v.transmitted += 1
                sent.append((vid, v.cell))
                if in_window:
                    transmissions += 1
                    delay_sum += t - gen
                rng = mac_rngs[vid]
                if v.rc > 1:
                    v.rc -= 1
                    next_op = t + gamma
                elif rng.random() < p.p_rk:
                    v.rc = int(rng.integers(p.r_low, p.r_high + 1))
                    next_op = t + gamma
                else:
                    occupancy4[v.cell] -= 4.0
                    v.announced = False
                    new_cell = select_new_cell(v, rng, t)
                    offset = new_cell // csrs
                    v.cell = new_cell
                    v.rc = int(rng.integers(p.r_low, p.r_high + 1))
                    next_op = t + 1 + (offset - (t + 1)) % gamma
                    if trace is not None:
                        trace(t * 1000, vid, "reservation",
                              f"{offset}:{new_cell % csrs}:{v.rc}")
            else:
                next_op = t + gamma  # RC held while the queue is empty
            ops[next_op % ring].append(vid)

        shared = ()           # cells that two or more transmissions share
        if len(sent) > 1 and len({cell for _, cell in sent}) < len(sent):
            by_cell = {}
            for tx in sent:
                by_cell.setdefault(tx[1], []).append(tx)
            sent = [tx for group in by_cell.values() for tx in group]
            shared = {cell for cell, group in by_cell.items() if len(group) > 1}
            if in_window:
                collided += sum(len(by_cell[cell]) for cell in shared)
        if trace is not None:
            for vid, cell in sent:
                detail = f"{cell // csrs}:{cell % csrs}"
                trace(t * 1000, vid, "transmission", detail)
                if cell in shared:
                    trace(t * 1000, vid, "collision", detail)

    stats = ReplicationStats(transmissions=transmissions, collided=collided,
                             delay_sum_ms=delay_sum, delay_end_sum_ms=delay_sum,
                             delayed_packets=transmissions,
                             successful=transmissions - collided,
                             window_units=duration_ms - warmup)
    for v in vehicles:
        stats.count_vehicle(v.vid, v.generated, v.transmitted, v.dropped, len(v.queue))
    return stats
