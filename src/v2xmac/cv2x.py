"""Closed-form steady state of the C-V2X Mode 4 state machine."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .config import Cv2xParams
from .errors import InvalidMass, SaturatedQueue
from .lazy import state_array

if TYPE_CHECKING:
    import numpy as np

_MASS_TOL = 1e-8


def _rc_grid(sol: Cv2xSolution):
    """pi_rc as nested rows, with row 0 as padding so that row i holds RC = i."""
    g = sol.params.gamma
    return [[0.0] * g] + [[sol.state("rc", (i, j)) for j in range(g)]
                          for i in range(1, sol.params.r_high + 1)]


@dataclass(frozen=True)
class Cv2xSolution:
    """Steady state of the Mode 4 chain.

    params, p_qne, a, b and w0 = pi_{w,0} are its closed form; p_txo and p_t
    come from its family sums. pi_w[j] covers the waiting states (w, j),
    j in [0, Gamma-2]; pi_rc[i, j] covers the RC grid for i in [1, R_h] (row 0
    of the array is unused padding so indices match RC values),
    j in [0, Gamma-1]. The arrays are built from `state` when first read.
    """

    pi_idle: float
    p_txo: float
    p_t: float
    params: Cv2xParams
    p_qne: float
    a: float
    b: float
    w0: float
    pi_w: np.ndarray = field(default=state_array(
        lambda s: [s.state("w", j) for j in range(s.params.gamma - 1)]),
        compare=False, repr=False)
    pi_rc: np.ndarray = field(default=state_array(_rc_grid), compare=False, repr=False)

    @property
    def pi_10(self) -> float:
        """pi_(1,0), the RC = 1 opportunity state."""
        return self.state("rc", (1, 0))

    def state(self, family: str, index) -> float:
        """The probability of the idle state, of (w, j) or of (rc, (i, j)).

        pi_(w,j) = w0 (a b s + s (1 - P_rk) P_sch + P_rk), s = (Gamma - 1 - j) / (Gamma - 1).
        RC rows below R_l hold w0 / p_qne; from R_l on, pi_(i,0) = w0 n_i / (p_qne w_cnt)
        for n_i = R_h - i + 1, and the gated countdown j >= 1 divides it by p_qne again.
        """
        if family == "idle":
            return self.pi_idle
        p = self.params
        if family == "w":
            shape = (p.gamma - 1.0 - index) / (p.gamma - 1.0)
            return self.w0 * (self.a * self.b * shape + shape * (1.0 - p.p_rk) * p.p_sch
                              + p.p_rk)
        i, j = index
        if i < p.r_low:
            return self.w0 / self.p_qne
        w_cnt = 1 + p.r_high - p.r_low
        if j == 0:
            return self.w0 * (p.r_high - i + 1) / (self.p_qne * w_cnt)
        return self.w0 * (p.r_high - i + 1) / (self.p_qne ** 2 * w_cnt)


def solve_cv2x(params: Cv2xParams, p_qne: float, p_arr: float) -> Cv2xSolution:
    """Assemble the Mode 4 steady state for the given linking probabilities.

    The waiting-state and RC-grid families follow the per-state closed forms;
    pi_{w,0} is fixed by the sum-to-one condition over all families.
    """
    if p_qne <= 0.0:
        raise SaturatedQueue("P_qne = 0 leaves the RC-grid closed form undefined")
    g, rl, rh = params.gamma, params.r_low, params.r_high
    w_cnt = 1 + rh - rl
    p_sch, p_rk = params.p_sch, params.p_rk
    a = (p_arr + p_qne - p_arr * p_qne) * p_sch
    b = (1.0 - p_rk) * (1.0 / p_sch - 1.0) / (p_arr + p_qne * (1.0 - p_arr))

    # family masses relative to pi_{w,0}
    mass_idle = b
    mass_w = a * b * g / 2.0 + (g / 2.0) * (1.0 - p_rk) * p_sch + (g - 1.0) * p_rk
    mass_low = (rl - 1) * g / p_qne
    mass_hi0 = (w_cnt + 1) / (2.0 * p_qne)
    mass_hiw = (w_cnt + 1) * (g - 1) / (2.0 * p_qne ** 2)
    w0 = 1.0 / (mass_idle + mass_w + mass_low + mass_hi0 + mass_hiw)

    # column j = 0 of the RC grid: pi_{i,0} = w0 / p_qne for the rows below
    # R_l, w0 n_i / (p_qne w_cnt) with n_i = R_h - i + 1 from R_l on
    low_rows, hi_rows = _rc_rows(rl, rh)
    n_sum = hi_rows * (hi_rows + 1) // 2
    p_txo = w0 / p_qne * (low_rows + (n_sum / w_cnt if hi_rows else 0.0))
    sol = Cv2xSolution(pi_idle=b * w0, p_txo=p_txo, p_t=p_txo * p_qne,
                       params=params, p_qne=p_qne, a=a, b=b, w0=w0)
    _check_mass(sol, low_rows, hi_rows)
    return sol


def _rc_rows(rl: int, rh: int):
    """(rows i in [1, R_h] below R_l, rows from R_l on) of the RC grid."""
    hi_rows = max(rh - max(rl, 1) + 1, 0)
    return rh - hi_rows, hi_rows


def _check_mass(sol: Cv2xSolution, low_rows: int, hi_rows: int):
    """Sum-to-one and sign checks on the states of `sol`, from their sums.

    pi_w is linear in shape = (Gamma - 1 - j) / (Gamma - 1), which runs from
    1 down to 1 / (Gamma - 1) and sums to Gamma / 2, so its extremes are its
    end values. Every RC entry is w0 times a positive coefficient, so the
    most negative one, if any, has the largest coefficient.
    """
    params, w0, p_qne = sol.params, sol.w0, sol.p_qne
    g, p_rk, p_sch = params.gamma, params.p_rk, params.p_sch
    w_cnt = 1 + params.r_high - params.r_low
    c = sol.a * sol.b
    if g >= 2:
        w_ends = [w0 * (c * s + s * (1.0 - p_rk) * p_sch + p_rk)
                  for s in (1.0, 1.0 / (g - 1.0))]
        sum_w = w0 * (c * g / 2.0 + g / 2.0 * (1.0 - p_rk) * p_sch + (g - 1.0) * p_rk)
    else:
        w_ends, sum_w = [], 0.0
    rc_coefs = [1.0 / p_qne] if low_rows else []
    sum_rc = w0 * g * low_rows / p_qne
    if hi_rows:
        n_sum = hi_rows * (hi_rows + 1) // 2
        sum_rc += w0 * n_sum / (p_qne * w_cnt) * (1.0 + (g - 1) / p_qne)
        rc_coefs.append(hi_rows / (p_qne * w_cnt))
        if g >= 2:
            rc_coefs.append(hi_rows / (p_qne ** 2 * w_cnt))
    mass = sol.b * w0 + sum_w + sum_rc
    if abs(mass - 1.0) > _MASS_TOL:
        raise InvalidMass(f"steady-state mass {mass!r} deviates from 1 by more "
                          f"than {_MASS_TOL:g}; parameters are outside the "
                          "closed form's validity region")
    rc_min = min([w0 * k for k in rc_coefs] + [0.0])
    if sol.b * w0 < -1e-15 or min(w_ends, default=0.0) < -1e-15 or rc_min < -1e-15:
        raise InvalidMass("negative steady-state probability; parameters are "
                          "outside the closed form's validity region")
