"""Discrete-event simulator of N vehicles running C-V2X Mode 4 SPS.

Time advances in 1 ms subframes. The resource grid wraps modulo Gamma with
csrs_per_subframe CSRs per subframe; a collision is two or more data
transmissions in the same (subframe, CSR) cell. Sensing is SCI-announced
occupancy: a reservation becomes visible to others at the first transmission
on the new cell, so vehicles reselecting in overlapping windows can pick the
same cell, which is the modeled collision mechanism.
"""
from __future__ import annotations

from collections import defaultdict, deque

import numpy as np

from ..config import ScenarioConfig
from .report import WARMUP_S, ReplicationStats
from .traffic import CAM, arrival_stream

SENSING_WINDOW_MS = 1000


class _Vehicle:
    __slots__ = ("vid", "queue", "arrivals", "arr_idx", "cell", "rc", "next_op",
                 "announced", "own_history", "generated", "dropped", "transmitted")

    def __init__(self, vid):
        self.vid = vid
        self.queue = deque()
        self.arrivals = []
        self.arr_idx = 0
        self.cell = -1
        self.rc = 0
        self.next_op = 0
        self.announced = False
        self.own_history = {}  # cell -> last used subframe
        self.generated = 0
        self.dropped = 0
        self.transmitted = 0


def run_replication(scenario: ScenarioConfig, seed: int, replication: int,
                    duration_s: float, trace=None) -> ReplicationStats:
    p = scenario.cv2x
    traffic = scenario.traffic
    gamma, csrs = p.gamma, p.csrs_per_subframe
    n_cells = gamma * csrs
    l2_size = max(1, int(np.ceil(0.2 * n_cells)))
    duration_ms = int(round(duration_s * 1000))
    warmup = min(int(round(WARMUP_S * 1000)), duration_ms // 4)

    vehicles = []
    occupancy = np.zeros(n_cells, dtype=np.int32)
    ops = defaultdict(list)
    arrivals_at = defaultdict(list)
    mac_rngs = []
    for vid in range(scenario.n):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication, vid))
        traffic_rng, mac_rng = [np.random.default_rng(c) for c in ss.spawn(2)]
        v = _Vehicle(vid)
        v.arrivals = [(t // 1000, kind)
                      for t, kind in arrival_stream(traffic_rng, traffic,
                                                    duration_ms * 1000)]
        for t_ms, kind in v.arrivals:
            arrivals_at[t_ms].append((vid, kind))
        # steady-state start: an existing announced reservation per vehicle
        offset = int(mac_rng.integers(0, gamma))
        csr = int(mac_rng.integers(0, csrs))
        v.cell = offset * csrs + csr
        v.rc = int(mac_rng.integers(p.r_low, p.r_high + 1))
        v.next_op = offset if offset > 0 else gamma
        v.announced = True
        occupancy[v.cell] += 1
        v.own_history[v.cell] = 0
        ops[v.next_op].append(vid)
        vehicles.append(v)
        mac_rngs.append(mac_rng)

    stats = ReplicationStats()
    tx_now = []

    def select_new_cell(v, rng, now):
        """SPS steps 1-3 with occupancy standing in for RSSI sensing.

        Callers drop the vehicle's own announcement first, so `occupancy`
        holds other vehicles' reservations only.
        """
        scores = occupancy.astype(np.float64) * 4.0 + rng.random(n_cells)
        for cell, last in v.own_history.items():
            if last >= now - SENSING_WINDOW_MS:
                scores[cell] += 1e9  # half-duplex: own past cells are excluded
        l2 = np.argpartition(scores, l2_size - 1)[:l2_size]
        return int(l2[rng.integers(0, l2_size)])

    for t in range(duration_ms):
        for vid, kind in arrivals_at.get(t, ()):
            v = vehicles[vid]
            v.generated += 1
            if trace is not None:
                trace(t * 1000, vid, "generation", "cam" if kind == CAM else "denm")
            if len(v.queue) < traffic.m:
                v.queue.append(t)
                if trace is not None:
                    trace(t * 1000, vid, "enqueue", str(len(v.queue)))
            else:
                v.dropped += 1
                if trace is not None:
                    trace(t * 1000, vid, "drop", "")

        todo = ops.pop(t, None)
        if todo:
            tx_now.clear()
            for vid in todo:
                v = vehicles[vid]
                rng = mac_rngs[vid]
                if not v.announced:
                    occupancy[v.cell] += 1  # first SCI on the new cell
                    v.announced = True
                v.own_history[v.cell] = t
                if v.queue:
                    gen = v.queue.popleft()
                    v.transmitted += 1
                    tx_now.append((vid, v.cell, gen))
                    if v.rc > 1:
                        v.rc -= 1
                        v.next_op = t + gamma
                    elif rng.random() < p.p_rk:
                        v.rc = int(rng.integers(p.r_low, p.r_high + 1))
                        v.next_op = t + gamma
                    else:
                        occupancy[v.cell] -= 1
                        v.announced = False
                        new_cell = select_new_cell(v, rng, t)
                        offset = new_cell // csrs
                        v.cell = new_cell
                        v.rc = int(rng.integers(p.r_low, p.r_high + 1))
                        v.next_op = t + 1 + (offset - (t + 1)) % gamma
                        if trace is not None:
                            trace(t * 1000, vid, "reservation",
                                  f"{offset}:{new_cell % csrs}:{v.rc}")
                else:
                    v.next_op = t + gamma  # RC held while the queue is empty
                ops[v.next_op].append(vid)

            if tx_now:
                by_cell = defaultdict(list)
                for vid, cell, gen in tx_now:
                    by_cell[cell].append((vid, gen))
                in_window = t >= warmup
                for cell, players in by_cell.items():
                    collided = len(players) > 1
                    for vid, gen in players:
                        if trace is not None:
                            trace(t * 1000, vid, "transmission",
                                  f"{cell // csrs}:{cell % csrs}")
                            if collided:
                                trace(t * 1000, vid, "collision",
                                      f"{cell // csrs}:{cell % csrs}")
                        if in_window:
                            stats.transmissions += 1
                            stats.delay_sum_ms += t - gen
                            stats.delay_end_sum_ms += t - gen
                            stats.delayed_packets += 1
                            if collided:
                                stats.collided += 1
                            else:
                                stats.successful += 1

    stats.window_units = duration_ms - warmup
    for v in vehicles:
        stats.generated += v.generated
        stats.dropped += v.dropped
        stats.in_queue_end += len(v.queue)
        stats.per_vehicle[v.vid] = [v.generated, v.transmitted, v.dropped,
                                    len(v.queue)]
    return stats
