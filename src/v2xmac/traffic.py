"""Closed-form steady states of the CAM/DENM generators and the device queue."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TrafficParams
from .errors import DegenerateQueue, DegenerateTransmitProbability, ModelValidityError

SUBFRAME_US = 1000.0  # the generators and the queue step once per 1 ms subframe


@dataclass(frozen=True)
class GeneratorSolution:
    """Steady state of one packet generator.

    pi_tx[j] is the probability of (tx, j), pi_txp[j] of (txp, j) for
    j in [0, T_l - 1]; pi_idle_denm is the DENM idle-state mass (0 for CAM).
    """

    pi_tx: np.ndarray
    pi_txp: np.ndarray
    pi_idle_denm: float = 0.0

    @property
    def total_mass(self) -> float:
        return float(self.pi_tx.sum() + self.pi_txp.sum() + self.pi_idle_denm)

    @property
    def generation_rate(self) -> float:
        """Packets generated per subframe: the mass of the j = 0 column.

        Each visit to (tx, 0) or (txp, 0) is one generation instant, which
        makes the CAM rate exactly 1/T_C and the DENM rate K per train.
        """
        return float(self.pi_tx[0] + self.pi_txp[0])


@dataclass(frozen=True)
class QueueSolution:
    pi: np.ndarray
    p_qe: float
    alpha: float
    alpha1: float
    beta: float
    p_arr: float

    @property
    def p_qne(self) -> float:
        return 1.0 - self.p_qe


def _generator_arrays(t_l: int, p_t: float, repeat_weight: float):
    """Shared CAM/DENM tail structure; repeat_weight is 1 for CAM, (1-1/K) for DENM.

    pi values are reported relative to pi_tx[0] = 1; the caller normalizes.
    """
    q = 1.0 - p_t
    z = 1.0 - q ** (t_l - 1)
    j = np.arange(t_l)
    txp = repeat_weight * np.power(q, t_l - j) / z
    tx = np.empty(t_l)
    tx[0] = 1.0
    # tx[j] = P_t (repeat_weight + sum_{l > j} txp[l]) for j >= 1
    tail = np.concatenate([np.cumsum(txp[::-1])[::-1][1:], [0.0]])
    tx[1:] = p_t * (repeat_weight + tail[1:])
    return tx, txp


def _check_generator(period: int, p_t: float, name: str):
    if not 0.0 < p_t <= 1.0:
        raise DegenerateTransmitProbability(
            f"P_t = {p_t!r}; the blocked states have no exit at P_t = 0")
    if period < 2:
        # z = 1 - (1 - P_t)^(period - 1) vanishes, and every family divides by it
        raise ModelValidityError(f"{name} = {period!r}; the generator closed form "
                                 "needs a period of at least 2 subframes")


def solve_cam(params: TrafficParams, p_t: float) -> GeneratorSolution:
    """CAM generator steady state for a given transmit probability."""
    t_c = params.t_c
    _check_generator(t_c, p_t, "T_C")
    q = 1.0 - p_t
    z = 1.0 - q ** (t_c - 1)
    tx0 = z / (t_c * (1.0 - p_t * q ** (t_c - 1)))
    tx, txp = _generator_arrays(t_c, p_t, 1.0)
    return GeneratorSolution(pi_tx=tx * tx0, pi_txp=txp * tx0)


def solve_denm(params: TrafficParams, p_t: float) -> GeneratorSolution:
    """DENM generator steady state, including the idle-state mass."""
    t_d, k = params.t_d, params.k
    _check_generator(t_d, p_t, "T_D")
    sigma = params.sigma
    q = 1.0 - p_t
    z = 1.0 - q ** (t_d - 1)
    f = 1.0 - 1.0 / k
    tx0 = 1.0 / (f * t_d * (1.0 - p_t * q ** (t_d - 1)) / z
                 + 1.0 / k + 1.0 / (k * sigma))
    tx, txp = _generator_arrays(t_d, p_t, f)
    return GeneratorSolution(pi_tx=tx * tx0, pi_txp=txp * tx0,
                             pi_idle_denm=tx0 / (k * sigma))


def per_slot_rate(per_subframe: float, slot_us: float) -> float:
    """Convert a per-subframe rate to the rate per slot of `slot_us` microseconds."""
    return per_subframe * slot_us / SUBFRAME_US


def per_subframe_prob(per_slot: float, slot_us: float) -> float:
    """Probability of at least one event per subframe, given its per-slot probability.

    Slots are treated as independent: 1 - (1 - p)^(SUBFRAME_US / slot_us).
    """
    return -math.expm1(SUBFRAME_US / slot_us * math.log1p(-per_slot))


def _union(a: float, b: float) -> float:
    return a + b - a * b


def combine_transition_probs(cam: GeneratorSolution, denm: GeneratorSolution,
                             p_t: float, params: TrafficParams):
    """Queue transition probabilities from the two generators running together.

    Per-generator contributions are merged with the union rule
    x = x_cam + x_denm - x_cam * x_denm. Returns (alpha, alpha1, beta, p_arr).
    """
    f = 1.0 - 1.0 / params.k
    a_c = float(cam.pi_txp[0])
    a1_c = float(cam.pi_tx[0]) * (1.0 - p_t)
    b_c = float(cam.pi_txp[1:].sum()) * p_t
    a_d = float(denm.pi_txp[0])
    a1_d = float(denm.pi_tx[0]) * f * (1.0 - p_t)
    b_d = float(denm.pi_txp[1:].sum()) * p_t
    alpha = _union(a_c, a_d)
    alpha1 = _union(a1_c, a1_d)
    beta = _union(b_c, b_d)
    p_arr = _union(float(cam.pi_tx[0]), params.sigma)
    return alpha, alpha1, beta, p_arr


def solve_queue(alpha: float, alpha1: float, beta: float, m_cap: int,
                p_arr: float = 0.0) -> QueueSolution:
    """Device-queue steady state on 0..M.

    pi_0 follows the closed form written as the geometric sum
    1 / (1 + alpha1 sum_i alpha^(i-1) / beta^i), which is exact for
    alpha != beta and equals the analytic limit 1 / (1 + alpha1 M / beta)
    at alpha = beta.
    """
    if m_cap < 1:
        raise DegenerateQueue("queue capacity must be >= 1")
    if beta <= 0.0:
        if alpha1 > 0.0:
            raise DegenerateQueue("beta = 0 with alpha1 > 0: the queue never drains")
        pi = np.zeros(m_cap + 1)
        pi[0] = 1.0
        return QueueSolution(pi=pi, p_qe=1.0, alpha=alpha, alpha1=alpha1,
                             beta=beta, p_arr=p_arr)
    pi = np.empty(m_cap + 1)
    pi[0] = 1.0
    term = alpha1 / beta
    for i in range(1, m_cap + 1):
        pi[i] = term
        term *= alpha / beta
    pi /= pi.sum()
    return QueueSolution(pi=pi, p_qe=float(pi[0]), alpha=alpha, alpha1=alpha1,
                         beta=beta, p_arr=p_arr)
