"""Discrete-event simulator of N vehicles running 802.11p CSMA/CA broadcast.

Time advances in aSlotTime slots (13 us). Each vehicle walks the MAC state
machine: a sensed AIFS line after arrival, residual busy wait when the
arrival finds the channel busy, a fixed busy wait plus re-AIFS per backoff
stage, sensing states that count down on idle slots, and a tx_slots-long
transmission. Stage 0 is drawn with twice the weight of stages 2..C_min-1;
the per-stage AIFS wait does not re-sense the channel, matching the
analytical chain. All concurrent transmissions start on the same slot, so a
collision is a start-slot burst of two or more vehicles.
"""
from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from ..config import ScenarioConfig
from ..errors import SimulatorInvariant
from .report import WARMUP_S, ReplicationStats
from .traffic import CAM, arrival_stream

# event phases: transmissions register before sensing; arrivals settle last
PH_TXSTART = 0
PH_MAC = 1
PH_ARRIVAL = 2

EV_SENSE_AIFS = 0
EV_DRAW = 1
EV_SENSE_BO = 2
EV_TXSTART = 3
EV_TXEND = 4


class _Vehicle:
    __slots__ = ("vid", "queue", "busy_mac", "generated", "dropped", "transmitted")

    def __init__(self, vid):
        self.vid = vid
        self.queue = deque()
        self.busy_mac = False
        self.generated = 0
        self.dropped = 0
        self.transmitted = 0


def run_replication(scenario: ScenarioConfig, seed: int, replication: int,
                    duration_s: float, trace=None) -> ReplicationStats:
    p = scenario.dot11p
    cmin, om, th = p.c_min, p.omega, p.tx_slots
    slot_us = p.slot_us
    duration_slots = int(round(duration_s * 1e6 / slot_us))
    warmup = min(int(round(WARMUP_S * 1e6 / slot_us)), duration_slots // 4)

    vehicles = []
    mac_rngs = []
    heap = []
    for vid in range(scenario.n):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication, vid))
        traffic_rng, mac_rng = [np.random.default_rng(c) for c in ss.spawn(2)]
        v = _Vehicle(vid)
        for t_us, kind in arrival_stream(traffic_rng, scenario.traffic,
                                         int(duration_s * 1e6)):
            heapq.heappush(heap, (int(t_us // slot_us), PH_ARRIVAL, vid,
                                  EV_SENSE_AIFS, kind))
        vehicles.append(v)
        mac_rngs.append(mac_rng)

    stats = ReplicationStats()
    busy_until = 0            # first slot at which the channel is free again
    burst_start = -1
    burst = []                # (vid, gen_slot) transmissions starting together

    def draw_stage(rng):
        u = int(rng.integers(0, cmin))
        return 0 if u <= 1 else u

    def finish_burst():
        nonlocal burst
        if not burst:
            return
        collided = len(burst) > 1
        start = burst_start
        end_slot = start + th - 1
        if start >= warmup:
            for vid, gen in burst:
                stats.transmissions += 1
                stats.delay_sum_ms += (start - gen) * slot_us / 1000.0
                stats.delay_end_sum_ms += (end_slot - gen) * slot_us / 1000.0
                stats.delayed_packets += 1
                if collided:
                    stats.collided += 1
                else:
                    stats.successful += 1
        if trace is not None:
            for vid, gen in burst:
                trace(int(start * slot_us), vid, "transmission", str(len(burst)))
                if collided:
                    trace(int(start * slot_us), vid, "collision", str(len(burst)))
        burst = []

    while heap:
        slot, phase, vid, kind, arg = heapq.heappop(heap)
        if slot >= duration_slots:
            break
        v = vehicles[vid]

        if phase == PH_ARRIVAL:
            v.generated += 1
            if trace is not None:
                trace(int(slot * slot_us), vid, "generation",
                      "cam" if arg == CAM else "denm")
            if len(v.queue) < scenario.traffic.m:
                v.queue.append(slot)
                if trace is not None:
                    trace(int(slot * slot_us), vid, "enqueue", str(len(v.queue)))
                if not v.busy_mac:
                    v.busy_mac = True
                    heapq.heappush(heap, (slot + 1, PH_MAC, vid, EV_SENSE_AIFS, 1))
            else:
                v.dropped += 1
                if trace is not None:
                    trace(int(slot * slot_us), vid, "drop", "")
            continue

        if kind == EV_TXSTART:
            # the sensing rules make concurrent transmissions share a start
            # slot: nobody starts while an earlier burst is still on the air
            if slot < busy_until and slot != burst_start:
                raise SimulatorInvariant(f"vehicle {vid} starts at slot {slot} inside "
                                         f"the burst that began at slot {burst_start}")
            if burst_start != slot:
                finish_burst()
                burst_start = slot
            busy_until = max(busy_until, slot + th)
            gen = v.queue.popleft()
            v.transmitted += 1
            burst.append((vid, gen))
            heapq.heappush(heap, (slot + th, PH_MAC, vid, EV_TXEND, 0))
            continue

        if kind == EV_TXEND:
            # one idle-state slot after transmission, then the next packet
            if v.queue:
                heapq.heappush(heap, (slot + 1, PH_MAC, vid, EV_SENSE_AIFS, 1))
            else:
                v.busy_mac = False
            continue

        if kind == EV_SENSE_AIFS:
            i = arg
            if slot < busy_until:
                if i == 1:
                    # arrival found the channel busy: wait out the residue
                    draw_at = busy_until
                else:
                    draw_at = slot + th
                heapq.heappush(heap, (draw_at, PH_MAC, vid, EV_DRAW, 0))
            elif i == om:
                heapq.heappush(heap, (slot + 1, PH_TXSTART, vid, EV_TXSTART, 0))
            else:
                heapq.heappush(heap, (slot + 1, PH_MAC, vid, EV_SENSE_AIFS, i + 1))
            continue

        if kind == EV_DRAW:
            stage = draw_stage(mac_rngs[vid])
            heapq.heappush(heap, (slot + om, PH_MAC, vid, EV_SENSE_BO, stage))
            continue

        if kind == EV_SENSE_BO:
            stage = arg
            if slot < busy_until:
                # fixed tx-length wait, then re-AIFS at the same stage
                heapq.heappush(heap, (slot + th + om, PH_MAC, vid, EV_SENSE_BO, stage))
            elif stage == 0:
                heapq.heappush(heap, (slot + 1, PH_TXSTART, vid, EV_TXSTART, 0))
            else:
                nxt = 0 if stage == 2 else stage - 1
                heapq.heappush(heap, (slot + 1, PH_MAC, vid, EV_SENSE_BO, nxt))
            continue

    finish_burst()
    stats.window_units = duration_slots - warmup
    for v in vehicles:
        stats.generated += v.generated
        stats.dropped += v.dropped
        stats.in_queue_end += len(v.queue)
        stats.per_vehicle[v.vid] = [v.generated, v.transmitted, v.dropped,
                                    len(v.queue)]
    return stats
