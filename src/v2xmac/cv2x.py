"""Closed-form steady state of the C-V2X Mode 4 state machine."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .config import Cv2xParams
from .errors import InvalidArgument, SaturatedQueue
from .lazy import state_array

if TYPE_CHECKING:
    import numpy as np


def _rc_grid(sol: Cv2xSolution):
    """pi_rc as nested rows, with row 0 as padding so that row i holds RC = i."""
    g = sol.params.gamma
    return [[0.0] * g] + [[sol.state("rc", (i, j)) for j in range(g)]
                          for i in range(1, sol.params.r_high + 1)]


@dataclass(frozen=True)
class Cv2xSolution:
    """Steady state of the Mode 4 chain.

    Its fields are its parameters p_qne and params plus its normalization
    w0 = pi_{w,0}; p_txo and p_t are properties that read them. Every
    selection schedules, as in the simulator, so nothing enters the idle
    state and pi_idle is 0. pi_w[j] covers the waiting states (w, j),
    j in [0, Gamma-2]; pi_rc[i, j] the RC grid, i in [1, R_h] (row 0 is
    padding, so indices are RC values), j in [0, Gamma-1]. The arrays are
    built from `state` when read.
    """

    p_qne: float
    w0: float
    params: Cv2xParams
    pi_w: np.ndarray = field(default=state_array(
        lambda s: [s.state("w", j) for j in range(s.params.gamma - 1)]),
        compare=False, repr=False)
    pi_rc: np.ndarray = field(default=state_array(_rc_grid), compare=False, repr=False)

    @property
    def pi_idle(self) -> float:
        """0: nothing enters the idle state, since every selection schedules."""
        return 0.0

    @property
    def p_txo(self) -> float:
        return mode4_p_txo(self.params, self.w0, self.p_qne)

    @property
    def p_t(self) -> float:
        return mode4_p_t(self.params, self.w0, self.p_qne)

    @property
    def pi_10(self) -> float:
        """pi_(1,0), the RC = 1 opportunity state."""
        return self.state("rc", (1, 0))

    def state(self, family: str, index) -> float:
        """The probability of the idle state, of (w, j) or of (rc, (i, j)).

        The idle state has 0. pi_(w,j) = w0 (s (1 - P_rk) + P_rk),
        s = (Gamma - 1 - j) / (Gamma - 1). RC rows below R_l hold
        w0 / p_qne; from R_l on, pi_(i,0) = w0 n_i / (p_qne w_cnt) for
        n_i = R_h - i + 1, and the gated countdown j >= 1 divides it by p_qne again.
        """
        if family == "idle":
            return self.pi_idle
        p = self.params
        if family == "w":
            shape = (p.gamma - 1.0 - index) / (p.gamma - 1.0)
            return self.w0 * (shape * (1.0 - p.p_rk) + p.p_rk)
        i, j = index
        if i < p.r_low:
            return self.w0 / self.p_qne
        w_cnt = 1 + p.r_high - p.r_low
        if j == 0:
            return self.w0 * (p.r_high - i + 1) / (self.p_qne * w_cnt)
        return self.w0 * (p.r_high - i + 1) / (self.p_qne ** 2 * w_cnt)


def mode4_p_txo(params: Cv2xParams, w0: float, p_qne: float) -> float:
    """P_txo, the mass of column j = 0 of the RC grid.

    Its rows are given in `Cv2xSolution.state`. The R_l - 1 rows below R_l
    hold w0 / p_qne each; the coefficients n_i / w_cnt of the rows from R_l
    on average (w_cnt + 1) / 2.
    """
    w_cnt = 1 + params.r_high - params.r_low
    return w0 / p_qne * (params.r_low - 1 + (w_cnt + 1) / 2)


def mode4_p_t(params: Cv2xParams, w0: float, p_qne: float) -> float:
    """P_t: an opportunity transmits when the queue is not empty."""
    return mode4_p_txo(params, w0, p_qne) * p_qne


def mode4_w0(params: Cv2xParams, p_qne: float) -> float:
    """The normalization pi_{w,0} of the Mode 4 chain of valid `params` at the queue's P_qne.

    The waiting-state and RC-grid families follow the per-state closed forms
    of `Cv2xSolution.state`; pi_{w,0} is fixed by the sum-to-one condition
    over all families. Every selection schedules, as in the simulator, so
    the idle state holds no mass. Inside the checked domain (0 < P_qne <= 1
    and a normalization that does not underflow) every state is >= 0 and
    the states sum to 1 by construction.
    """
    if p_qne <= 0.0 or p_qne ** 2 == 0.0:
        raise SaturatedQueue(f"P_qne = {p_qne!r}; the RC-grid closed form divides "
                             "by P_qne^2, which must be > 0 in double precision")
    if not p_qne <= 1.0:
        raise InvalidArgument(f"P_qne = {p_qne!r} is not a probability")
    g, rl, rh = params.gamma, params.r_low, params.r_high
    w_cnt = 1 + rh - rl
    p_rk = params.p_rk

    # family masses relative to pi_{w,0}
    mass_w = (g / 2.0) * (1.0 - p_rk) + (g - 1.0) * p_rk
    mass_low = (rl - 1) * g / p_qne
    mass_hi0 = (w_cnt + 1) / (2.0 * p_qne)
    mass_hiw = (w_cnt + 1) * (g - 1) / (2.0 * p_qne ** 2)
    w0 = 1.0 / (mass_w + mass_low + mass_hi0 + mass_hiw)
    if w0 == 0.0:
        raise SaturatedQueue(f"P_qne = {p_qne!r}; the RC-grid mass overflows, so "
                             "its normalization underflows to 0")
    return w0


def solve_cv2x(params: Cv2xParams, p_qne: float) -> Cv2xSolution:
    """Mode 4 steady state for the queue's P_qne: validated params, normalized by `mode4_w0`."""
    params.validate()
    return Cv2xSolution(p_qne=p_qne, w0=mode4_w0(params, p_qne), params=params)
