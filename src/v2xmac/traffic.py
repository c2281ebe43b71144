"""Closed-form steady states of the CAM/DENM generators and the device queue."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .config import SUBFRAME_US, TrafficParams
from .errors import DegenerateQueue, DegenerateTransmitProbability, ModelValidityError
from .lazy import state_array

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class GeneratorSolution:
    """Steady state of one packet generator.

    The fields up to txp_tail are its closed form: period T_l, transmit
    probability P_t, repeat_weight (1 for CAM, 1 - 1/K for DENM) and the
    three scalars the fixed point reads. pi_tx[j] is the probability of
    (tx, j), pi_txp[j] of (txp, j) for j in [0, T_l - 1]; both are built from
    `state` when first read. pi_idle_denm is the DENM idle-state mass
    (0 for CAM).
    """

    t_l: int
    p_t: float
    repeat_weight: float
    tx_first: float     # pi_tx[0], the normalization
    txp_first: float    # pi_txp[0]
    txp_tail: float     # the blocked row's mass beyond j = 0: sum of pi_txp[1:]
    pi_idle_denm: float = 0.0
    pi_tx: np.ndarray = field(default=state_array(
        lambda s: [s.state("tx", j) for j in range(s.t_l)]), compare=False, repr=False)
    pi_txp: np.ndarray = field(default=state_array(
        lambda s: [s.state("txp", j) for j in range(s.t_l)]), compare=False, repr=False)

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
        q = 1.0 - self.p_t
        z = 1.0 - q ** (self.t_l - 1)
        w = self.repeat_weight
        if family == "txp":
            return w * q ** (self.t_l - index) / z * self.tx_first
        if index == 0:
            return self.tx_first
        return w * (self.p_t + q * (1.0 - q ** (self.t_l - 1 - index)) / z) * self.tx_first


@dataclass(frozen=True)
class QueueSolution:
    """Steady state of the device queue on 0..M.

    The rates (alpha, alpha1, beta), the capacity M and P_qe = pi_0 are its
    closed form; pi is built from `state` when first read.
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
        """sum over i >= 1 of (2 i - 1) pi_i, the queue-position weights of the delay.

        The terms are normalized by their direct sum, not read from `state`,
        whose P_qe-based values round differently: the C-V2X delays that
        `solve` prints keep their bytes. Nothing enters the queue at beta = 0.
        """
        if self.beta <= 0.0:
            return 0.0
        terms = [1.0]
        term = self.alpha1 / self.beta
        for _ in range(self.m_cap):
            terms.append(term)
            term *= self.alpha / self.beta
        total = sum(terms)
        return sum((2 * i - 1) * (terms[i] / total) for i in range(1, len(terms)))

    def state(self, family: str, index: int) -> float:
        """pi_i of queue length i: P_qe (alpha1 / beta) (alpha / beta)^(i - 1) for i >= 1."""
        if index == 0:
            return self.p_qe
        if self.beta <= 0.0:
            return 0.0
        return self.p_qe * self.alpha1 / self.beta * (self.alpha / self.beta) ** (index - 1)


def _generator_solution(t_l: int, p_t: float, repeat_weight: float, tx0: float,
                        pi_idle_denm: float = 0.0) -> GeneratorSolution:
    """A generator's closed form, with the O(1) scalars the fixed point reads.

    pi_txp[j] = w q^(T_l - j) / z for z = 1 - q^(T_l - 1) (`state`), so its
    tail j >= 1 is the geometric sum w q / (1 - q).
    """
    q = 1.0 - p_t
    z = 1.0 - q ** (t_l - 1)
    return GeneratorSolution(t_l=t_l, p_t=p_t, repeat_weight=repeat_weight,
                             tx_first=tx0,
                             txp_first=repeat_weight * q ** t_l / z * tx0,
                             txp_tail=repeat_weight * q / (1.0 - q) * tx0,
                             pi_idle_denm=pi_idle_denm)


def _check_generator(period: int, p_t: float, name: str):
    if not (0.0 < p_t <= 1.0 and 1.0 - p_t < 1.0):
        raise DegenerateTransmitProbability(
            f"P_t = {p_t!r}; the blocked states have no exit at P_t = 0, "
            "and 1 - P_t must differ from 1 in double precision")
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
    return _generator_solution(t_c, p_t, 1.0, tx0)


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
    return _generator_solution(t_d, p_t, f, tx0, pi_idle_denm=tx0 / (k * sigma))


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
                             params: TrafficParams):
    """Queue transition probabilities from the two generators running together.

    Both run at the transmit probability cam.p_t. Per-generator contributions
    are merged with the union rule x = x_cam + x_denm - x_cam * x_denm.
    Returns (alpha, alpha1, beta, p_arr).
    """
    p_t, f = cam.p_t, denm.repeat_weight
    alpha = _union(cam.txp_first, denm.txp_first)
    alpha1 = _union(cam.tx_first * (1.0 - p_t), denm.tx_first * f * (1.0 - p_t))
    beta = _union(cam.txp_tail * p_t, denm.txp_tail * p_t)
    p_arr = _union(cam.tx_first, params.sigma)
    return alpha, alpha1, beta, p_arr


def _geometric_sum(r: float, m: int) -> float:
    """1 + r + ... + r^(m - 1), accurate also for r near 1."""
    if r == 1.0:
        return float(m)
    if r == 0.0:
        return 1.0
    log_r = math.log(r)
    try:
        return math.expm1(m * log_r) / math.expm1(log_r)
    except OverflowError:
        return math.inf


def solve_queue(alpha: float, alpha1: float, beta: float, m_cap: int) -> QueueSolution:
    """Device-queue steady state on 0..M.

    pi_i = pi_0 (alpha1 / beta) (alpha / beta)^(i-1) for i >= 1, so
    pi_0 = 1 / (1 + (alpha1 / beta) sum_{i<M} (alpha / beta)^i); the sum is
    M at alpha = beta; at beta = 0 (and so alpha1 = 0) the queue stays empty.
    Only P_qe = pi_0 is computed here; pi is built when read.
    """
    if m_cap < 1:
        raise DegenerateQueue("queue capacity must be >= 1")
    if beta <= 0.0:
        if alpha1 > 0.0:
            raise DegenerateQueue("beta = 0 with alpha1 > 0: the queue never drains")
        p_qe = 1.0
    else:
        p_qe = 1.0 / (1.0 + alpha1 / beta * _geometric_sum(alpha / beta, m_cap))
    return QueueSolution(p_qe=p_qe, alpha=alpha, alpha1=alpha1, beta=beta, m_cap=m_cap)
