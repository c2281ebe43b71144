"""Closed-form steady state of the C-V2X Mode 4 state machine."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Cv2xParams
from .errors import InvalidMass, SaturatedQueue

_MASS_TOL = 1e-8


@dataclass(frozen=True)
class Cv2xSolution:
    """Steady state of the Mode 4 chain.

    pi_w[j] covers the waiting states (w, j), j in [0, Gamma-2]; pi_rc[i, j]
    covers the RC grid for i in [1, R_h] (row 0 of the array is unused
    padding so indices match RC values), j in [0, Gamma-1].
    """

    pi_idle: float
    pi_w: np.ndarray
    pi_rc: np.ndarray
    p_txo: float
    p_t: float

    @property
    def pi_w0(self) -> float:
        return float(self.pi_w[0])

    @property
    def pi_10(self) -> float:
        return float(self.pi_rc[1, 0])

    @property
    def total_mass(self) -> float:
        return float(self.pi_idle + self.pi_w.sum() + self.pi_rc[1:].sum())


def solve_cv2x(params: Cv2xParams, p_qe: float, p_qne: float, p_arr: float) -> Cv2xSolution:
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

    j = np.arange(g - 1)
    shape = (g - 1.0 - j) / (g - 1.0)
    pi_w = w0 * (a * b * shape + shape * (1.0 - p_rk) * p_sch + p_rk)

    pi_rc = np.zeros((rh + 1, g))
    for i in range(1, rh + 1):
        if i >= rl:
            n_i = rh - i + 1
            pi_rc[i, 0] = w0 * n_i / (p_qne * w_cnt)
            pi_rc[i, 1:] = w0 * n_i / (p_qne ** 2 * w_cnt)
        else:
            pi_rc[i, :] = w0 / p_qne

    p_txo = float(pi_rc[1:, 0].sum())
    sol = Cv2xSolution(pi_idle=b * w0, pi_w=pi_w, pi_rc=pi_rc,
                       p_txo=p_txo, p_t=p_txo * p_qne)
    _check_mass(sol)
    return sol


def _check_mass(sol: Cv2xSolution):
    mass = sol.total_mass
    if abs(mass - 1.0) > _MASS_TOL:
        raise InvalidMass(f"steady-state mass {mass!r} deviates from 1 by more "
                          f"than {_MASS_TOL:g}; parameters are outside the "
                          "closed form's validity region")
    if sol.pi_idle < -1e-15 or sol.pi_w.min() < -1e-15 or sol.pi_rc.min() < -1e-15:
        raise InvalidMass("negative steady-state probability; parameters are "
                          "outside the closed form's validity region")
