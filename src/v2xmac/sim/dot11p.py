"""Discrete-event simulator of N vehicles running 802.11p CSMA/CA broadcast.

Time advances in aSlotTime slots (13 us). Each vehicle walks the MAC state
machine: a sensed AIFS line after arrival, residual busy wait when the
arrival finds the channel busy, a fixed busy wait plus re-AIFS per backoff
stage, sensing states that count down on idle slots, and a tx_slots-long
transmission. Stage 0 is drawn with twice the weight of stages 2..C_min-1;
the per-stage AIFS wait does not re-sense the channel, matching the
analytical chain. All concurrent transmissions start on the same slot, so a
collision is a start-slot burst of two or more vehicles.

Idle slots cost no events. Only the first slot of an AIFS line or a backoff
countdown is an event. If that slot is idle, the countdown is set aside as
(kind, first slot, stage) with no further event. This is exact because only
a burst start changes what a sensing vehicle sees: a channel idle at the
first slot stays idle until the next burst starts. So the next burst starts
one slot after the earliest countdown ends, and at that slot every other
running countdown is interrupted, on the slot where a slot-by-slot walk
would first have sensed it busy; after k idle slots a backoff at stage s
resumes at s - k (0 once that falls below 2). Each vehicle draws its
backoff stages from its own stream and has one countdown at a time, so
drawing a stage when its AIFS line is interrupted, not when the busy wait
ends, changes no draw.

Within a slot a burst start comes first, then MAC events from the heap in
vehicle order, then arrivals, which are merged from one pre-sorted list.
"""
from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from ..config import ScenarioConfig
from ..errors import SimulatorInvariant
from .report import WARMUP_S, ReplicationStats
from .traffic import CAM, arrival_stream

# MAC events: (slot, vid, kind, stage); a vehicle has at most one pending
EV_SENSE_AIFS = 0     # first slot of an AIFS line
EV_SENSE_BO = 1       # first slot of a backoff countdown at `stage`
EV_TXEND = 2


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
    arrivals = []             # (slot, vid, kind), sorted; a sentinel ends it
    for vid in range(scenario.n):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication, vid))
        traffic_rng, mac_rng = [np.random.default_rng(c) for c in ss.spawn(2)]
        arrivals.extend((int(t_us // slot_us), vid, kind) for t_us, kind in
                        arrival_stream(traffic_rng, scenario.traffic, int(duration_s * 1e6)))
        vehicles.append(_Vehicle(vid))
        mac_rngs.append(mac_rng)
    arrivals.sort()
    arrivals.append((duration_slots, -1, CAM))

    stats = ReplicationStats()
    heap = []
    counting = {}             # vid -> (kind, first slot, stage) of an idle countdown
    next_start = duration_slots   # slot after the earliest countdown ends
    starters = []             # the vehicles whose countdown ends just before it
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

    ai = 0
    while True:
        a_slot = arrivals[ai][0]
        h_slot = heap[0][0] if heap else duration_slots

        if next_start <= h_slot and next_start <= a_slot:
            slot = next_start
            if slot >= duration_slots:
                break
            starters.sort()
            # the sensing rules make concurrent transmissions share a start
            # slot: nobody starts while an earlier burst is still on the air
            if slot < busy_until:
                raise SimulatorInvariant(f"vehicle {starters[0]} starts at slot {slot} "
                                         f"inside the burst that began at slot {burst_start}")
            finish_burst()
            burst_start = slot
            busy_until = slot + th
            for vid in starters:
                v = vehicles[vid]
                v.transmitted += 1
                burst.append((vid, v.queue.popleft()))
                heapq.heappush(heap, (slot + th, vid, EV_TXEND, 0))
                del counting[vid]
            starters = []
            # every other countdown senses this slot busy: wait th, re-AIFS
            for vid, (kind, first, stage) in counting.items():
                if kind == EV_SENSE_AIFS:
                    stage = draw_stage(mac_rngs[vid])
                else:
                    stage -= slot - first
                    if stage < 2:
                        stage = 0
                heapq.heappush(heap, (slot + th + om, vid, EV_SENSE_BO, stage))
            counting.clear()
            next_start = duration_slots
            continue

        if h_slot <= a_slot:
            if h_slot >= duration_slots:
                break
            slot, vid, kind, stage = heapq.heappop(heap)
            if kind == EV_TXEND:
                # one idle-state slot after transmission, then the next packet
                if vehicles[vid].queue:
                    heapq.heappush(heap, (slot + 1, vid, EV_SENSE_AIFS, 0))
                else:
                    vehicles[vid].busy_mac = False
            elif slot < busy_until:
                if kind == EV_SENSE_AIFS:
                    # the AIFS line found the channel busy: wait out the residue
                    heapq.heappush(heap, (busy_until + om, vid, EV_SENSE_BO,
                                          draw_stage(mac_rngs[vid])))
                else:
                    # fixed tx-length wait, then re-AIFS at the same stage
                    heapq.heappush(heap, (slot + th + om, vid, EV_SENSE_BO, stage))
            else:
                # AIFS senses om slots, stage s >= 2 senses s (s, s-1, ..., 2,
                # then 0) and stage 0 one; the transmission starts right after
                counting[vid] = (kind, slot, stage)
                tx_at = slot + (om if kind == EV_SENSE_AIFS else stage or 1)
                if tx_at < next_start:
                    next_start = tx_at
                    starters = [vid]
                elif tx_at == next_start:
                    starters.append(vid)
            continue

        if a_slot >= duration_slots:
            break
        slot, vid, kind = arrivals[ai]
        ai += 1
        v = vehicles[vid]
        v.generated += 1
        if trace is not None:
            trace(int(slot * slot_us), vid, "generation", "cam" if kind == CAM else "denm")
        if len(v.queue) < scenario.traffic.m:
            v.queue.append(slot)
            if trace is not None:
                trace(int(slot * slot_us), vid, "enqueue", str(len(v.queue)))
            if not v.busy_mac:
                v.busy_mac = True
                heapq.heappush(heap, (slot + 1, vid, EV_SENSE_AIFS, 0))
        else:
            v.dropped += 1
            if trace is not None:
                trace(int(slot * slot_us), vid, "drop", "")

    finish_burst()
    stats.window_units = duration_slots - warmup
    for v in vehicles:
        stats.generated += v.generated
        stats.dropped += v.dropped
        stats.in_queue_end += len(v.queue)
        stats.per_vehicle[v.vid] = [v.generated, v.transmitted, v.dropped,
                                    len(v.queue)]
    return stats
