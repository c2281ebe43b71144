"""Closed-form steady state, busy-ratio update and per-state delays for 802.11p."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .config import Dot11pParams
from .errors import ChannelSaturated


def dot11p_stages(c_min: int):
    """Backoff stage set: counter values 0 and 1 both map to stage 0."""
    return [0] + list(range(2, c_min))


@dataclass(frozen=True)
class Dot11pSolution:
    """Steady state of the 802.11p chain at aSlotTime resolution.

    Stage-indexed families are dicts keyed by the existing backoff stages
    ({0} union [2, C_min - 1]); per-stage line values are constant along the
    line, so a single number is stored per stage.
    """

    pi_idle: float
    pi_a: np.ndarray              # A_1..A_Omega
    pi_b: np.ndarray              # (B, 1..tx_slots)
    pi_sense: Dict[int, float]    # (I, s)
    pi_delta: Dict[int, float]    # (Delta_s, j), constant in j
    pi_backoff_aifs: Dict[int, float]  # (s, A_j), constant in j
    pi_tx: np.ndarray             # (Tx, 1..tx_slots)
    theta: float
    p_t: float


def solve_dot11p(params: Dot11pParams, p_qe: float, p_arr: float,
                 theta: float) -> Dot11pSolution:
    """Assemble the 802.11p steady state for the given linking probabilities.

    All inputs are per aSlotTime slot: p_qe is the probability that the idle
    MAC finds the queue empty, p_arr the probability that a packet arrives
    in a slot. They enter only through the idle exit h = 1 - p_qe (1 - p_arr).
    All state families follow the per-state closed forms and scale with h;
    pi_Idle is fixed by the sum-to-one condition over the families actually
    present (stage 1 does not exist: backoff counter values 0 and 1 both map
    to stage 0).
    """
    if not 0.0 <= theta < 1.0:
        raise ChannelSaturated(f"theta = {theta!r}; the closed form needs theta < 1")
    cmin, om, th = params.c_min, params.omega, params.tx_slots
    stages = dot11p_stages(cmin)
    h = 1.0 - p_qe * (1.0 - p_arr)
    one_m = 1.0 - theta

    a = h * one_m ** np.arange(om)
    i_b = np.arange(1, th + 1)
    b = h * (theta / th * i_b - one_m ** om - theta + 1.0)
    f = float(b[-1])  # pi_{B, tx_slots} relative to pi_idle
    sense = {s: f * (cmin - s) / (cmin * one_m) for s in stages}
    delta = {s: f * (cmin - s) * theta / (cmin * one_m) for s in stages}
    backoff_aifs = {}
    for s in stages:
        if s == 0:
            backoff_aifs[0] = f * (2.0 - 2.0 * theta + cmin * theta) / (cmin * one_m)
        else:
            backoff_aifs[s] = f * (1.0 + (cmin - s - 1) * theta) / (cmin * one_m)
    tx = np.full(th, h)

    total = (1.0 + a.sum() + b.sum() + sum(sense.values())
             + th * sum(delta.values()) + (om - 1) * sum(backoff_aifs.values())
             + tx.sum())
    pi_idle = 1.0 / total
    return Dot11pSolution(
        pi_idle=pi_idle,
        pi_a=a * pi_idle,
        pi_b=b * pi_idle,
        pi_sense={s: v * pi_idle for s, v in sense.items()},
        pi_delta={s: v * pi_idle for s, v in delta.items()},
        pi_backoff_aifs={s: v * pi_idle for s, v in backoff_aifs.items()},
        pi_tx=tx * pi_idle,
        theta=theta,
        p_t=float(tx.sum() * pi_idle),
    )


def update_theta(p_t: float, n: int) -> float:
    """Channel busy ratio seen by one vehicle among n: 1 - (1 - P_t)^(n-1)."""
    if not 0.0 <= p_t <= 1.0:
        raise ValueError(f"P_t = {p_t!r} outside [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1.0 - (1.0 - p_t) ** (n - 1)


@dataclass(frozen=True)
class DelayTable:
    """Expected slots from each non-idle state to the end of transmission.

    Unit is aSlotTime; the idle state is defined to have zero delay.
    """

    sense: Dict[int, float]                 # D_{I, s}
    backoff_aifs: Dict[Tuple[int, int], float]   # D_{s, A_j}
    delta: Dict[Tuple[int, int], float]     # D_{Delta_s, j}
    busy: Dict[int, float]                  # D_{B, i}
    tx: Dict[int, float]                    # D_{Tx, i}
    aifs: Dict[int, float]                  # D_{A_i}


def state_delays(params: Dot11pParams, theta: float) -> DelayTable:
    """Per-state delay recurrences of the 802.11p chain, solved exactly."""
    if not 0.0 <= theta < 1.0:
        raise ChannelSaturated(f"theta = {theta!r}; delays diverge at theta = 1")
    cmin, om, th = params.c_min, params.omega, params.tx_slots
    stages = dot11p_stages(cmin)
    one_m = 1.0 - theta

    d_sense = {0: (1.0 + th + theta * (om - 1)) / one_m}
    for i in range(2, cmin):
        d_sense[i] = (i + th * (1.0 + theta * (i - 1)) + i * theta * (om - 1)) / one_m

    d_backoff_aifs = {(s, j): (om - j) + d_sense[s]
                      for s in stages for j in range(1, om)}
    d_delta = {(s, j): (th - j + 1) + (om - 1) + d_sense[s]
               for s in stages for j in range(1, th + 1)}

    # stage draw at (B, tx_slots): weight 2/C for stage 0, 1/C for others
    d_busy = {th: 1.0 + (2.0 / cmin) * ((om - 1) + d_sense[0])
              + ((cmin - 2) * (om - 1)) / cmin
              + sum(d_sense[i] for i in range(2, cmin)) / cmin}
    for i in range(th - 1, 0, -1):
        d_busy[i] = 1.0 + d_busy[i + 1]

    d_tx = {i: float(th - (i - 1)) for i in range(1, th + 1)}

    d_aifs = {om: 1.0 + one_m * d_tx[1] + theta * d_busy[1]}
    for i in range(om - 1, 1, -1):
        d_aifs[i] = 1.0 + one_m * d_aifs[i + 1] + theta * d_busy[1]
    mean_busy = sum(d_busy[j] for j in range(1, th + 1)) / th
    d_aifs[1] = 1.0 + one_m * d_aifs[2] + theta * mean_busy

    return DelayTable(sense=d_sense, backoff_aifs=d_backoff_aifs, delta=d_delta,
                      busy=d_busy, tx=d_tx, aifs=d_aifs)
