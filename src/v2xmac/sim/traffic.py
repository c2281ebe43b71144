"""All vehicles' CAM/DENM arrivals in one replication, built in one pass.

All times are integer microseconds. CAM arrivals are strictly periodic with a
random initial phase; DENM events are Poisson-triggered trains of K copies
spaced T_D apart, with no new trigger while a train is running.

`vehicle_rngs` seeds the traffic and MAC generators of every vehicle in a
replication at once, and `arrival_stream` turns the traffic generators into
the (time_us, vid, kind) columns of all vehicles' arrivals. Each simulator
sorts those columns once, by its own rule for one vehicle's arrivals within
one time unit (see its module docstring).
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np

from ..config import SUBFRAME_US, TrafficParams
from ..errors import InvalidArgument

CAM = 0
DENM = 1
KINDS = ("cam", "denm")   # trace labels, by kind
GAP_BATCH = 1024          # the most DENM trigger gaps a vehicle draws at a time

# numpy's SeedSequence hash, whose output numpy keeps fixed across releases
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(value: int) -> list:
    """A non-negative int's 32-bit words, lowest first, as SeedSequence splits it."""
    value = operator.index(value)
    if value < 0:
        raise InvalidArgument(f"expected a non-negative integer, not {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _spawn_states(seed: int, replication: int, n: int) -> np.ndarray:
    """`SeedSequence(seed, spawn_key=(replication, vid, j)).generate_state(4, np.uint64)`
    for every vid < n and j in (0, 1), as row 2 vid + j of a (2n, 4) array.

    The 2n keys share every entropy word but the last two, so the hash runs
    on all of them at once in uint32 lanes.
    """
    run = _uint32_words(seed)
    # with a spawn key, the run entropy is padded with zeros to the pool size
    shared = run + [0] * (_POOL_SIZE - len(run)) + _uint32_words(replication)
    lanes = np.arange(2 * n, dtype=np.uint32)
    entropy = [np.full(2 * n, word, dtype=np.uint32) for word in shared]
    entropy += [lanes >> 1, lanes & 1]    # vid and j, one word each

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = np.empty((2 * n, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _spawn_state_type():
    """A numpy `ISeedSequence` holding the four words a PCG64 seeds itself from."""
    from numpy.random.bit_generator import ISeedSequence

    class SpawnState(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise InvalidArgument("holds only the 4 uint64 words that seed a PCG64")
            return self.words

    return SpawnState


def vehicle_rngs(seed: int, replication: int, n: int):
    """The traffic and the MAC generators of vehicles 0..n-1 in one replication.

    Vehicle vid's pair is (traffic[vid], mac[vid]), in the state of
    `default_rng(SeedSequence(seed, spawn_key=(replication, vid, j)))` for
    j = 0 and 1.
    """
    # numpy loads numpy.random on first use; importing it here keeps it off every import
    from numpy.random import PCG64, Generator

    spawn_state = _spawn_state_type()
    rngs = [Generator(PCG64(spawn_state(words)))
            for words in _spawn_states(seed, replication, n)]
    return rngs[0::2], rngs[1::2]


def arrival_stream(rngs, params: TrafficParams, duration_us: int):
    """The (time_us, vid, kind) columns of all vehicles' arrivals over [0, duration_us).

    rngs[vid] is vehicle vid's traffic generator, which draws its CAM phase
    and then its DENM trigger gaps, a batch at a time. The rows come in no
    particular order: each simulator sorts them. A vehicle's DENM triggers
    may come at most once per 1 ms subframe on average (lambda <= 1000/s at
    K = 1; a train of K > 1 copies blocks triggers for longer than that).
    Faster triggers raise InvalidArgument before any draw: at K = 1 their
    gaps round to 0 us and the stream would never end.
    """
    t_c_us = int(params.t_c) * 1000
    t_d_us = int(params.t_d) * 1000
    k = int(params.k)
    scale = 1.0 / params.lam
    block_us = (k - 1) * t_d_us   # triggers are blocked during a train
    if scale * 1e6 + block_us < SUBFRAME_US:
        raise InvalidArgument(
            f"lambda = {params.lam!r}/s with K = {k} triggers DENMs more often than "
            f"once per {SUBFRAME_US:g} us subframe on average, the most the simulator takes")
    # about the number of gaps a vehicle draws, with room for their spread
    expected = duration_us / (scale * 1e6 + block_us)
    batch = min(GAP_BATCH, int(expected + 3 * math.sqrt(expected)) + 2)
    blocks = np.arange(batch, dtype=np.int64) * block_us

    def trigger_times(gaps, origin):
        """Trigger j of a batch comes j + 1 gaps and j blocks after origin."""
        # a gap that reaches the end is the last one; clipping it keeps the sums in int64
        at = np.rint(np.minimum(gaps * 1e6, duration_us)).astype(np.int64).cumsum(axis=-1)
        at += blocks
        at += origin
        return at

    n = len(rngs)
    phases = np.empty(n, dtype=np.int64)
    gaps = np.empty((n, batch))
    for vid, rng in enumerate(rngs):
        phases[vid] = rng.integers(0, t_c_us)
        gaps[vid] = rng.exponential(scale, batch)
    at = trigger_times(gaps, 0)
    del gaps
    inside = at < duration_us
    triggers, trigger_vids = [at[inside]], [np.nonzero(inside)[0]]
    for vid in np.flatnonzero(inside[:, -1]):   # every gap it drew ended inside the run
        last = int(at[vid, -1])
        while last < duration_us:
            more = trigger_times(rngs[vid].exponential(scale, batch), last + block_us)
            triggers.append(more[more < duration_us])
            trigger_vids.append(np.full(len(triggers[-1]), vid))
            last = int(more[-1])
    del at, inside

    # the i-th CAM of vehicle vid comes at phases[vid] + i t_c
    cams = (duration_us - phases + t_c_us - 1) // t_c_us
    n_cam = int(cams.sum())
    copies = np.concatenate(triggers)[:, None] + np.arange(0, k * t_d_us, t_d_us)
    kept = copies < duration_us
    times = np.empty(n_cam + int(np.count_nonzero(kept)), dtype=np.int64)
    vids = np.empty(len(times), dtype=np.int32)
    kinds = np.empty(len(times), dtype=np.int8)
    kinds[:n_cam] = CAM
    kinds[n_cam:] = DENM
    vids[:n_cam] = np.repeat(np.arange(n, dtype=np.int32), cams)
    times[:n_cam] = np.arange(0, n_cam * t_c_us, t_c_us)
    times[:n_cam] += (phases - (np.cumsum(cams) - cams) * t_c_us)[vids[:n_cam]]
    times[n_cam:] = copies[kept]
    vids[n_cam:] = np.broadcast_to(np.concatenate(trigger_vids)[:, None], copies.shape)[kept]
    return times, vids, kinds
