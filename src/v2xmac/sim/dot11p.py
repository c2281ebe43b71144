"""Discrete-event simulator of N vehicles running 802.11p CSMA/CA broadcast.

Time advances in aSlotTime slots (13 us). Each vehicle walks the MAC state
machine: a sensed AIFS line after arrival, residual busy wait when the
arrival finds the channel busy, a fixed busy wait plus re-AIFS per backoff
stage, sensing states that count down on idle slots, and a tx_slots-long
transmission. Stage 0 is drawn with twice the weight of stages 2..C_min-1;
the per-stage AIFS wait does not re-sense the channel, matching the
analytical chain. All concurrent transmissions start on the same slot, so a
collision is a start-slot burst of two or more vehicles.

Idle slots cost no events, and neither do backoff countdowns or the ends
of transmissions. Only a burst start changes what a sensing vehicle sees,
so each countdown is kept as the slot on which it would transmit, and the
next burst starts on the earliest of them. The events left are arrivals,
in one order built up front from the columns of `traffic.arrival_stream`
with one sort, the first slots of AIFS lines, on a heap, and burst starts.

An AIFS line starts one slot after its packet's arrival, or one idle-state
slot after the vehicle's own transmission ends; an arrival during that
transmission waits for it. If the line's first slot is idle, it ends Omega
slots later unless a burst starts first. An AIFS line that a burst
interrupts, or whose first slot is busy, draws u from U{0..C_min-1} and
backs off: it waits out the burst, waits Omega slots, then senses at stage
s = u (0 for u <= 1), s slots (s, s-1, ..., 2, then 0) or one slot at
stage 0, and transmits max(u, 1) slots after the wait.

Every burst that starts before a backoff transmits moves that transmission
by exactly tx_slots + Omega:
- a countdown at stage s interrupted after k idle slots (1 <= k < s) waits
  tx_slots + Omega and resumes at stage s - k, so it ends tx_slots + Omega
  after its old end. For s - k = 1 the clamp sends it to stage 0, which
  also senses one slot and so ends on the same slot;
- a stage-0 countdown transmits on the slot after the one it senses, so no
  burst starts in between: it is only ever started, never interrupted;
- a countdown whose first slot is busy waits tx_slots + Omega and starts
  again at the same stage.
A delayed countdown senses again tx_slots + Omega after the busy slot it
met, and bursts start at least tx_slots + Omega apart, so the next burst
meets it before that burst ends: each burst meets every pending backoff
exactly once. The backoffs therefore sit in one heap keyed by (transmission
slot - shift, vid), and each burst raises the shared shift by
tx_slots + Omega. Each vehicle draws its stages from its own stream,
STAGE_BATCH at a time, and has one countdown at a time, so when a draw
happens changes no value.

Within a slot a burst start comes first, then the first slots of AIFS
lines in vehicle order, then arrivals in vehicle order, a vehicle's CAMs
before its DENMs, each kind in time order.
"""
from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from ..config import ScenarioConfig
from ..errors import SimulatorInvariant
from .report import ReplicationStats, warmup_units
from .traffic import DENM, KINDS, arrival_stream, vehicle_rngs

STAGE_BATCH = 64      # backoff draws taken from a vehicle's stream at a time


def _backoff_delays(rng, c_min):
    """Slots from each backoff's wait to its transmission: max(u, 1), u ~ U{0..C_min-1}."""
    while True:
        yield from np.maximum(rng.integers(0, c_min, size=STAGE_BATCH), 1).tolist()


class _Vehicle:
    __slots__ = ("vid", "queue", "free_at", "generated", "dropped", "transmitted")

    def __init__(self, vid):
        self.vid = vid
        self.queue = deque()      # its head is in the MAC
        self.free_at = 0          # first slot after its last transmission
        self.generated = 0
        self.dropped = 0
        self.transmitted = 0


def run_replication(scenario: ScenarioConfig, seed: int, replication: int,
                    duration_s: float, trace=None) -> ReplicationStats:
    # bound per call, so that a shim put in place of the module's heapq sees every push and pop
    heappush, heappop = heapq.heappush, heapq.heappop
    p = scenario.dot11p
    cmin, om, th = p.c_min, p.omega, p.tx_slots
    slot_us = p.slot_us
    duration_slots = int(round(duration_s * 1e6 / slot_us))
    warmup = warmup_units(duration_slots, slot_us)
    # arrivals only in the run's slots (t < duration_slots slot_us, exactly): each is generated
    num, den = slot_us.as_integer_ratio()
    duration_us = min(int(duration_s * 1e6), -(-duration_slots * num // den))

    vehicles = [_Vehicle(vid) for vid in range(scenario.n)]
    traffic_rngs, mac_rngs = vehicle_rngs(seed, replication, scenario.n)
    delays = [_backoff_delays(rng, cmin) for rng in mac_rngs]   # per vehicle, in draw order
    times, vids, kinds = arrival_stream(traffic_rngs, scenario.traffic, duration_us)
    del traffic_rngs
    slots = (times // slot_us).astype(np.int64)
    # by (slot, vid), then a CAM before a DENM, each kind in time order: keys
    # (slot N + vid, kind duration_us + time_us), the second built in place
    vehicle_key = slots * scenario.n
    vehicle_key += vids
    time_key = np.add(times, duration_us, out=times, where=kinds == DENM)
    order = np.lexsort((time_key, vehicle_key))
    del times, time_key, vehicle_key
    arr_slots, arr_vids, arr_kinds = (col[order].tolist() for col in (slots, vids, kinds))
    del slots, vids, kinds, order
    arr_slots.append(duration_slots)   # a sentinel ends the arrivals

    stats = ReplicationStats()
    heap = []                 # (first slot, vid) of AIFS lines
    aifs = deque()            # (end slot, vid) of AIFS lines sensing idle, in order
    backoff = []              # heap of (transmission slot - shift, vid)
    shift = 0                 # slots by which the bursts so far delayed every backoff
    slide = th + om           # the delay one burst adds to each pending backoff
    busy_until = 0            # first slot at which the channel is free again
    burst_start = -1
    burst = []                # (vid, gen_slot) transmissions starting together

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
        a_slot = arr_slots[ai]
        h_slot = heap[0][0] if heap else duration_slots
        slot = aifs[0][0] if aifs else duration_slots
        if backoff and backoff[0][0] + shift < slot:
            slot = backoff[0][0] + shift

        if slot <= h_slot and slot <= a_slot:
            if slot >= duration_slots:
                break
            starters = []
            while aifs and aifs[0][0] == slot:
                starters.append(aifs.popleft()[1])
            key = slot - shift
            while backoff and backoff[0][0] == key:
                starters.append(heappop(backoff)[1])
            starters.sort()
            # the sensing rules make concurrent transmissions share a start
            # slot: nobody starts while an earlier burst is still on the air
            if slot < busy_until:
                raise SimulatorInvariant(f"vehicle {starters[0]} starts at slot {slot} "
                                         f"inside the burst that began at slot {burst_start}")
            finish_burst()
            burst_start = slot
            busy_until = slot + th
            # every AIFS line still sensing is interrupted and backs off from
            # slot + slide; every pending backoff moves by slide
            for _, vid in aifs:
                heappush(backoff, (key + next(delays[vid]), vid))
            aifs.clear()
            shift += slide
            for vid in starters:
                v = vehicles[vid]
                v.transmitted += 1
                burst.append((vid, v.queue.popleft()))
                # one idle-state slot after the transmission, then the next packet
                v.free_at = busy_until
                if v.queue:
                    heappush(heap, (busy_until + 1, vid))
            continue

        if h_slot <= a_slot:
            if h_slot >= duration_slots:
                break
            slot, vid = heappop(heap)
            if slot < busy_until:
                # the AIFS line found the channel busy: wait out the residue
                heappush(backoff, (busy_until + om + next(delays[vid]) - shift, vid))
            else:
                aifs.append((slot + om, vid))
            continue

        if a_slot >= duration_slots:
            break
        slot, vid, kind = a_slot, arr_vids[ai], arr_kinds[ai]
        ai += 1
        v = vehicles[vid]
        v.generated += 1
        if trace is not None:
            trace(int(slot * slot_us), vid, "generation", KINDS[kind])
        if len(v.queue) < scenario.traffic.m:
            v.queue.append(slot)
            if trace is not None:
                trace(int(slot * slot_us), vid, "enqueue", str(len(v.queue)))
            if len(v.queue) == 1:
                # the MAC was idle; the vehicle's own transmission may still be on
                heappush(heap, (max(slot, v.free_at) + 1, vid))
        else:
            v.dropped += 1
            if trace is not None:
                trace(int(slot * slot_us), vid, "drop", "")

    finish_burst()
    stats.window_units = duration_slots - warmup
    for v in vehicles:
        stats.count_vehicle(v.vid, v.generated, v.transmitted, v.dropped, len(v.queue))
    return stats
