"""Closed-form steady states of the CAM/DENM generators and the device queue."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .config import SUBFRAME_US, TrafficParams
from .errors import (DegenerateQueue, DegenerateTransmitProbability, ModelValidityError,
                     SaturatedQueue)
from .lazy import state_array

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class GeneratorSolution:
    """Steady state of one packet generator.

    Its fields are its parameters, period T_l, transmit probability P_t and
    repeat_weight (1 for CAM, 1 - 1/K for DENM), plus its normalization
    tx_first = pi_tx[0] and, for DENM, the idle-state mass pi_idle_denm.
    pi_tx[j] is the probability of (tx, j), pi_txp[j] of (txp, j) for
    j in [0, T_l - 1]; both are built from `state` when first read.
    """

    t_l: int
    p_t: float
    repeat_weight: float
    tx_first: float
    pi_idle_denm: float = 0.0
    pi_tx: np.ndarray = field(default=state_array(
        lambda s: [s.state("tx", j) for j in range(s.t_l)]), compare=False, repr=False)
    pi_txp: np.ndarray = field(default=state_array(
        lambda s: [s.state("txp", j) for j in range(s.t_l)]), compare=False, repr=False)

    @property
    def txp_first(self) -> float:
        return self.state("txp", 0)

    @property
    def txp_tail(self) -> float:
        """The blocked row's mass beyond j = 0, the geometric sum of pi_txp[1:]."""
        return blocked_tail(self.p_t, self.repeat_weight, self.tx_first)

    @property
    def generation_rate(self) -> float:
        """Packets generated per subframe: the mass of the j = 0 column.

        Each visit to (tx, 0) or (txp, 0) is one generation instant, which
        makes the CAM rate exactly 1/T_C and the DENM rate K per train.
        """
        return self.tx_first + self.txp_first

    def state(self, family: str, index) -> float:
        """The probability of the DENM idle state, of (tx, j) or of (txp, j).

        With q = 1 - P_t, z = 1 - q^(T_l - 1) and w the repeat weight, relative
        to pi_tx[0]: pi_txp[j] = w q^(T_l - j) / z, and for j >= 1 pi_tx[j] =
        P_t (w + sum of pi_txp[l] over l > j) = w (P_t + q (1 - q^(T_l - 1 - j)) / z).
        """
        if family == "idle":
            return self.pi_idle_denm
        if family == "txp":
            return blocked_state(self.t_l, self.p_t, self.repeat_weight, self.tx_first, index)
        q = 1.0 - self.p_t
        z = 1.0 - q ** (self.t_l - 1)
        w = self.repeat_weight
        if index == 0:
            return self.tx_first
        return w * (self.p_t + q * (1.0 - q ** (self.t_l - 1 - index)) / z) * self.tx_first


@dataclass(frozen=True)
class QueueSolution:
    """Steady state of the device queue on 0..M.

    Its fields are its rates (alpha, alpha1, beta) and capacity M plus its
    normalization P_qe = pi_0; pi is built from `state` when first read.
    """

    p_qe: float
    alpha: float
    alpha1: float
    beta: float
    m_cap: int
    pi: np.ndarray = field(default=state_array(
        lambda s: [s.state("q", i) for i in range(s.m_cap + 1)]), compare=False, repr=False)

    @property
    def p_qne(self) -> float:
        return 1.0 - self.p_qe

    @property
    def delay_sum(self) -> float:
        """sum over i >= 1 of (2 i - 1) pi_i, the queue-position weights of the delay."""
        return sum((2 * i - 1) * self.state("q", i) for i in range(1, self.m_cap + 1))

    def state(self, family: str, index: int) -> float:
        """pi_i of queue length i: P_qe (alpha1 / beta) (alpha / beta)^(i - 1) for i >= 1."""
        if index == 0:
            return self.p_qe
        if self.alpha1 == 0.0 or self.beta <= 0.0:
            return 0.0
        return self.p_qe * self.alpha1 / self.beta * (self.alpha / self.beta) ** (index - 1)


def _check_generator(period: int, p_t: float, name: str):
    if not (0.0 < p_t <= 1.0 and 1.0 - p_t < 1.0):
        raise DegenerateTransmitProbability(
            f"P_t = {p_t!r}; the blocked states have no exit at P_t = 0, "
            "and 1 - P_t must differ from 1 in double precision")
    if period < 2:
        # z = 1 - (1 - P_t)^(period - 1) vanishes, and every family divides by it
        raise ModelValidityError(f"{name} = {period!r}; the generator closed form "
                                 "needs a period of at least 2 subframes")


def cam_tx_first(params: TrafficParams, p_t: float) -> float:
    """The CAM generator's normalization pi_tx[0] at transmit probability P_t."""
    t_c = params.t_c
    _check_generator(t_c, p_t, "T_C")
    q = 1.0 - p_t
    z = 1.0 - q ** (t_c - 1)
    return z / (t_c * (1.0 - p_t * q ** (t_c - 1)))


def denm_repeat_weight(k: int) -> float:
    """The DENM repeat weight 1 - 1/K: the share of sends that another copy follows."""
    return 1.0 - 1.0 / k


def denm_tx_first(params: TrafficParams, p_t: float) -> float:
    """The DENM generator's normalization pi_tx[0] at transmit probability P_t."""
    t_d, k = params.t_d, params.k
    _check_generator(t_d, p_t, "T_D")
    q = 1.0 - p_t
    z = 1.0 - q ** (t_d - 1)
    f = denm_repeat_weight(k)
    return 1.0 / (f * t_d * (1.0 - p_t * q ** (t_d - 1)) / z
                  + 1.0 / k + 1.0 / (k * params.sigma))


def blocked_state(t_l: int, p_t: float, w: float, tx_first: float, j: int) -> float:
    """pi_txp[j] of a generator of period T_l and repeat weight w: w q^(T_l - j) / z pi_tx[0]."""
    q = 1.0 - p_t
    return w * q ** (t_l - j) / (1.0 - q ** (t_l - 1)) * tx_first


def blocked_tail(p_t: float, w: float, tx_first: float) -> float:
    """The geometric sum of pi_txp[1:]: w q / (1 - q) pi_tx[0]."""
    q = 1.0 - p_t
    return w * q / (1.0 - q) * tx_first


def solve_cam(params: TrafficParams, p_t: float) -> GeneratorSolution:
    """CAM generator steady state for a given transmit probability."""
    return GeneratorSolution(t_l=params.t_c, p_t=p_t, repeat_weight=1.0,
                             tx_first=cam_tx_first(params, p_t))


def solve_denm(params: TrafficParams, p_t: float) -> GeneratorSolution:
    """DENM generator steady state, including the idle-state mass."""
    tx0 = denm_tx_first(params, p_t)
    return GeneratorSolution(t_l=params.t_d, p_t=p_t, repeat_weight=denm_repeat_weight(params.k),
                             tx_first=tx0, pi_idle_denm=tx0 / (params.k * params.sigma))


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


def union_rates(p_t: float, sigma: float, t_c: int, cam_first: float,
                t_d: int, f: float, denm_first: float):
    """Queue transition probabilities from the two generators running together.

    Both run at the transmit probability P_t: the CAM generator of period
    T_C and normalization cam_first, the DENM one of period T_D, repeat
    weight f and normalization denm_first. Per-generator contributions are
    merged with the union rule x = x_cam + x_denm - x_cam * x_denm.
    Returns (alpha, alpha1, beta, p_arr).
    """
    alpha = _union(blocked_state(t_c, p_t, 1.0, cam_first, 0),
                   blocked_state(t_d, p_t, f, denm_first, 0))
    alpha1 = _union(cam_first * (1.0 - p_t), denm_first * f * (1.0 - p_t))
    beta = _union(blocked_tail(p_t, 1.0, cam_first) * p_t,
                  blocked_tail(p_t, f, denm_first) * p_t)
    p_arr = _union(cam_first, sigma)
    return alpha, alpha1, beta, p_arr


def combine_transition_probs(cam: GeneratorSolution, denm: GeneratorSolution,
                             params: TrafficParams):
    """`union_rates` of two generator solutions, both at the transmit probability cam.p_t."""
    return union_rates(cam.p_t, params.sigma, cam.t_l, cam.tx_first,
                       denm.t_l, denm.repeat_weight, denm.tx_first)


def _geometric_sum(r: float, m: int) -> float:
    """1 + r + ... + r^(m - 1), accurate also for r near 1."""
    if r == 1.0:
        return float(m)
    if r == 0.0 or m == 1:
        return 1.0
    if r == math.inf:
        return math.inf
    log_r = math.log(r)
    try:
        return math.expm1(m * log_r) / math.expm1(log_r)
    except OverflowError:
        return math.inf


def queue_p_qe(alpha: float, alpha1: float, beta: float, m_cap: int) -> float:
    """The queue's normalization P_qe = pi_0 on 0..M.

    pi_i = pi_0 (alpha1 / beta) (alpha / beta)^(i-1) for i >= 1, so
    pi_0 = 1 / (1 + (alpha1 / beta) sum_{i<M} (alpha / beta)^i); the sum is
    M at alpha = beta; at alpha1 = 0 the queue stays empty. The rates must
    define the explicit chain: each in [0, 1], and alpha + beta <= 1, and
    alpha1 > 0 needs beta > 0 to drain. Where the mass above 0 overflows, so
    that pi_0 underflows to 0, the queue is saturated in double precision.
    """
    if m_cap < 1:
        raise DegenerateQueue("queue capacity must be >= 1")
    if not (0.0 <= alpha <= 1.0 and 0.0 <= alpha1 <= 1.0 and 0.0 <= beta <= 1.0
            and alpha + beta <= 1.0):
        raise DegenerateQueue(f"rates alpha = {alpha!r}, alpha1 = {alpha1!r}, "
                              f"beta = {beta!r}: each must lie in [0, 1], "
                              "and alpha + beta must not exceed 1")
    if alpha1 == 0.0:
        return 1.0
    if beta == 0.0:
        raise DegenerateQueue("beta = 0 with alpha1 > 0: the queue never drains")
    p_qe = 1.0 / (1.0 + alpha1 / beta * _geometric_sum(alpha / beta, m_cap))
    if p_qe == 0.0:
        raise SaturatedQueue(f"alpha = {alpha!r}, alpha1 = {alpha1!r}, beta = {beta!r}, "
                             f"M = {m_cap}: the mass above the empty queue overflows, "
                             "so P_qe underflows to 0")
    return p_qe


def solve_queue(alpha: float, alpha1: float, beta: float, m_cap: int) -> QueueSolution:
    """Device-queue steady state on 0..M, normalized by `queue_p_qe`; pi is built when read."""
    return QueueSolution(p_qe=queue_p_qe(alpha, alpha1, beta, m_cap), alpha=alpha,
                         alpha1=alpha1, beta=beta, m_cap=m_cap)
