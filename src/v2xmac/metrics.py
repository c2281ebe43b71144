"""Performance metrics evaluated at a converged fixed point."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .config import Dot11pParams, ScenarioConfig
from .coupling import FixedPointReport, solve_coupled
from .cv2x import Cv2xSolution
from .dot11p import Dot11pSolution, state_delays
from .errors import (EmptySystem, InvalidArgument, ModelValidityError,
                     NoTransmitter, ResourceExhaustion)
from .traffic import QueueSolution


@dataclass(frozen=True)
class MetricsReport:
    tech: str
    n: int
    p_col: float
    d_avg_ms: float
    cu_avg: float
    p_t: float
    p_qe: float
    theta: float
    p_txo: Optional[float]
    csr_total: Optional[int]
    iterations: int
    converged: bool


def collision_prob_cv2x(sol: Cv2xSolution, n: int) -> float:
    """Schedule-collision probability for Mode 4.

    The per-window reuse probability is built from the cycle time of the
    RC = 1 opportunity state; the excluded-CSR count is approximated by n - 1.
    """
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    params = sol.params
    csr_tot = params.csr_total
    if csr_tot - n + 1 < 1:
        raise ResourceExhaustion(
            f"n = {n} vehicles exceed the {csr_tot} CSRs of one window")
    if n == 1:
        return 0.0
    pi_10 = sol.pi_10
    cycle = 1.0 / pi_10
    if cycle <= params.gamma - 1:
        raise ModelValidityError(
            f"1/pi_(1,0) = {cycle:.3f} must exceed Gamma - 1 = {params.gamma - 1} "
            "for the overlap product to stay in [0, 1]")
    log_miss = 0.0
    for i in range(params.gamma):
        log_miss += math.log1p(-1.0 / (cycle - i))
    p_tilde = -math.expm1(log_miss)
    per_neighbor = p_tilde * (1.0 - params.p_rk) / (csr_tot - n + 1)
    return -math.expm1((n - 1) * math.log1p(-per_neighbor))


def collision_prob_dot11p(sol: Dot11pSolution, n: int) -> float:
    """Collision probability as 1 - P(exactly one transmits | at least one)."""
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    sense_first, a_last, p_t = sol.sense_first, sol.a_last, sol.p_t
    access = sense_first + a_last + p_t
    if access <= 0.0:
        raise NoTransmitter("zero access probability; no vehicle ever transmits")
    if n == 1:
        return 0.0
    succ_one = (1.0 - sol.theta) * (sense_first + a_last) + p_t
    any_tx = -math.expm1(n * math.log1p(-min(access, 1.0)))
    if any_tx <= 0.0:
        raise NoTransmitter("P(at least one transmission) = 0")
    p_suc = n * succ_one * (1.0 - access) ** (n - 1) / any_tx
    return 1.0 - p_suc


def avg_delay_cv2x(queue: QueueSolution, p_txo: float) -> float:
    """Average generation-to-service delay in subframes (= ms), Mode 4.

    Serving the head packet costs half an opportunity cycle on average and
    each deeper position a full cycle; the average is conditioned on a
    non-empty queue.
    """
    if p_txo <= 0.0:
        raise InvalidArgument("p_txo must be positive")
    if queue.p_qe >= 1.0:
        raise EmptySystem("P_qe = 1; no packets are ever queued")
    return queue.delay_sum / (2.0 * p_txo) / (1.0 - queue.p_qe)


def avg_delay_dot11p(params: Dot11pParams, theta: float) -> float:
    """Average generation-to-transmission-end delay in aSlotTime units, 802.11p.

    A packet enters the MAC at A_1, so its delay is the chain's expected
    first-passage time from A_1 to the end of its transmission, D_{A_1}.
    This is continuous in theta and equals Omega + tx_slots on an idle
    channel. By Little's law it also equals (1 - pi_Idle) / pi_{A_1} of the
    MAC steady state at busy ratio theta.
    """
    return state_delays(params, theta).aifs[1]


def channel_utilization(tech: str, p_t: float, n: int, p_col: float,
                        csrs_per_subframe: int) -> float:
    """Average number of users successfully on the channel at once.

    C-V2X is normalized by the csrs_per_subframe CSRs of a single subframe.
    """
    base = p_t * n * (1.0 - p_col)
    if tech == "cv2x":
        return base / csrs_per_subframe
    return base


def evaluate_fixed_point(report: FixedPointReport, scenario: ScenarioConfig) -> MetricsReport:
    """Compute the full metric set from a converged fixed point."""
    state = report.state
    if report.tech == "cv2x":
        sol = report.cv2x
        p_col = collision_prob_cv2x(sol, scenario.n)
        d_ms = avg_delay_cv2x(report.queue, sol.p_txo)
        theta, p_txo, csr_total = 0.0, sol.p_txo, scenario.cv2x.csr_total
    else:
        sol = report.dot11p
        p_col = collision_prob_dot11p(sol, scenario.n)
        d_ms = avg_delay_dot11p(scenario.dot11p, sol.theta) * scenario.dot11p.slot_us / 1000.0
        theta, p_txo, csr_total = sol.theta, None, None
    cu = channel_utilization(report.tech, state.p_t, scenario.n, p_col,
                             scenario.cv2x.csrs_per_subframe)
    return MetricsReport(tech=report.tech, n=scenario.n, p_col=p_col, d_avg_ms=d_ms,
                         cu_avg=cu, p_t=state.p_t, p_qe=state.p_qe, theta=theta,
                         p_txo=p_txo, csr_total=csr_total,
                         iterations=report.iterations, converged=report.converged)


def evaluate_scenario(tech: str, scenario: ScenarioConfig) -> MetricsReport:
    """Solve the coupled fixed point for one technology and report metrics."""
    report = solve_coupled(tech, scenario)
    return evaluate_fixed_point(report, scenario)
