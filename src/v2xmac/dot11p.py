"""Closed-form steady state, busy-ratio update and per-state delays for 802.11p."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from .config import Dot11pParams
from .errors import ChannelSaturated, InvalidArgument, ModelValidityError
from .lazy import Lazy, state_array

if TYPE_CHECKING:
    import numpy as np


def check_omega(params: Dot11pParams):
    """Reject an AIFS shorter than 2 slots, outside the chain's domain.

    Every backoff stage re-enters through its AIFS rows (s, A_1) ..
    (s, A_{Omega-1}), and the delay of A_1 runs through A_2.
    `Dot11pParams.validate` enforces the same bound.
    """
    if params.omega < 2:
        raise ModelValidityError(f"Omega = {params.omega}; the 802.11p chain needs "
                                 "an AIFS of at least 2 slots")


def dot11p_stages(c_min: int):
    """Backoff stage set: counter values 0 and 1 both map to stage 0."""
    return [0] + list(range(2, c_min))


def _backoff_aifs_weight(s, cmin, theta):
    if s == 0:
        return 2.0 - 2.0 * theta + cmin * theta
    return 1.0 + (cmin - s - 1) * theta


def _line(family, length):
    """A `Lazy` array of a family's states 1..length(params)."""
    return state_array(lambda sol: [sol.state(family, i)
                                    for i in range(1, length(sol.params) + 1)])


def _per_stage(family):
    """A `Lazy` dict of a stage-keyed family's value by stage; a row's states share it."""
    return Lazy(lambda sol: {s: sol.state(family, s if family == "sense" else (s, 1))
                             for s in dot11p_stages(sol.params.c_min)})


@dataclass(frozen=True)
class Dot11pSolution:
    """Steady state of the 802.11p chain at aSlotTime resolution.

    theta, params, the idle exit probability h, f = pi_{B, tx_slots} / pi_Idle
    and pi_Idle itself are its closed form; pi_Idle and P_t come from the
    family sums. Stage-indexed families are dicts keyed by the
    existing backoff stages ({0} union [2, C_min - 1]); per-stage line values
    are constant along the line, so a single number is stored per stage. The
    families are built from `state` when first read.
    """

    pi_idle: float
    theta: float
    p_t: float
    params: Dot11pParams
    h: float
    f: float
    pi_a: np.ndarray = field(                       # A_1..A_Omega
        default=_line("a", lambda p: p.omega), compare=False, repr=False)
    pi_b: np.ndarray = field(                       # (B, 1..tx_slots)
        default=_line("b", lambda p: p.tx_slots), compare=False, repr=False)
    pi_sense: Dict[int, float] = field(             # (I, s)
        default=_per_stage("sense"), compare=False, repr=False)
    pi_delta: Dict[int, float] = field(             # (Delta_s, j), constant in j
        default=_per_stage("delta"), compare=False, repr=False)
    pi_backoff_aifs: Dict[int, float] = field(      # (s, A_j)
        default=_per_stage("bo"), compare=False, repr=False)
    pi_tx: np.ndarray = field(                      # (Tx, 1..tx_slots)
        default=_line("txm", lambda p: p.tx_slots), compare=False, repr=False)

    @property
    def a_last(self) -> float:
        """pi_{A_Omega}: h (1 - theta)^(Omega - 1) pi_Idle."""
        return self.state("a", self.params.omega)

    @property
    def tx_total(self) -> float:
        """The sum of pi_Tx over its tx_slots states: tx_slots h pi_Idle."""
        return self.params.tx_slots * self.h * self.pi_idle

    @property
    def sense_first(self) -> float:
        """pi_{I,0}: f C_min / (C_min (1 - theta)) pi_Idle."""
        return self.state("sense", 0)

    def state(self, family: str, index) -> float:
        """The probability of one state, named as `chains._states` names it.

        Each is pi_Idle times h (1 - theta)^(i - 1) at A_i, h (theta i / tx_slots
        - (1 - theta)^Omega - theta + 1) at (B, i) and h at (Tx, i). A stage-s row
        takes f / (C_min (1 - theta)) times its stage weight at every j.
        """
        theta, p = self.theta, self.params
        if family == "idle":
            return self.pi_idle
        if family == "a":
            return self.h * (1.0 - theta) ** (index - 1) * self.pi_idle
        if family == "b":
            return (self.h * (theta / p.tx_slots * index - (1.0 - theta) ** p.omega
                              - theta + 1.0) * self.pi_idle)
        if family == "txm":
            return self.h * self.pi_idle
        cmin = p.c_min
        if family == "sense":
            weight = cmin - index
        elif family == "delta":
            weight = (cmin - index[0]) * theta
        else:
            weight = _backoff_aifs_weight(index[0], cmin, theta)
        return weight * (self.f / (cmin * (1.0 - theta)) * self.pi_idle)


def _line_sum(theta: float, n: int) -> float:
    """1 + (1 - theta) + ... + (1 - theta)^(n - 1), accurate also at tiny theta."""
    if theta == 0.0:
        return float(n)
    return -math.expm1(n * math.log1p(-theta)) / theta


def solve_dot11p(params: Dot11pParams, h: float, theta: float) -> Dot11pSolution:
    """Assemble the 802.11p steady state at idle exit h and busy ratio theta.

    Both are per aSlotTime slot: h is the probability that the idle MAC
    leaves idle for the AIFS line A_1, theta that a slot is sensed busy.
    All state families follow the per-state closed forms and scale with h;
    pi_Idle is fixed by the sum-to-one condition over the families actually
    present (stage 1 does not exist: backoff counter values 0 and 1 both map
    to stage 0). The families' sums are taken in closed form, so this costs
    O(1); the families themselves are built when first read.
    """
    if not 0.0 <= h <= 1.0:
        raise InvalidArgument(f"h = {h!r} outside [0, 1]")
    if not 0.0 <= theta < 1.0:
        raise ChannelSaturated(f"theta = {theta!r}; the closed form needs theta < 1")
    check_omega(params)
    cmin, om, th = params.c_min, params.omega, params.tx_slots
    one_m = 1.0 - theta
    idle_line = one_m ** om
    f = h * (theta - idle_line - theta + 1.0)  # the (B, tx_slots) entry of pi_b

    # the stage weights summed over the stages {0} union [2, C_min - 1]
    upper = max(cmin - 2, 0)   # stages from 2 on
    sense_w = cmin + upper * (upper + 1) / 2.0
    backoff_w = (_backoff_aifs_weight(0, cmin, theta) + upper
                 + theta * upper * (upper - 1) / 2.0)
    stage_scale = f / (cmin * one_m)

    total = (1.0 + h * _line_sum(theta, om)
             + h * (theta * (th + 1) / 2.0 + th * (1.0 - idle_line - theta))
             + stage_scale * (sense_w * (1.0 + th * theta) + (om - 1) * backoff_w)
             + th * h)
    pi_idle = 1.0 / total
    return Dot11pSolution(pi_idle=pi_idle, theta=theta, p_t=th * h * pi_idle,
                          params=params, h=h, f=f)


def update_theta(p_t: float, n: int) -> float:
    """Channel busy ratio seen by one vehicle among n: 1 - (1 - P_t)^(n-1)."""
    if not 0.0 <= p_t <= 1.0:
        raise InvalidArgument(f"P_t = {p_t!r} outside [0, 1]")
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    return 1.0 - (1.0 - p_t) ** (n - 1)


@dataclass(frozen=True)
class DelayTable:
    """Expected slots from each non-idle state to the end of transmission.

    Unit is aSlotTime; the idle state is defined to have zero delay. The
    fields hold what the coupled recurrences give; `state` gives every state.
    """

    sense: Dict[int, float]                 # D_{I, s}
    busy: Dict[int, float]                  # D_{B, i}
    aifs: Dict[int, float]                  # D_{A_i}
    params: Dot11pParams

    def state(self, family: str, index) -> float:
        """The delay of one state, named as `chains._states` names it.

        A backoff AIFS row and a busy-wait row count down one slot per step to
        their stage's sensing state: D_{s, A_j} = (Omega - j) + D_{I,s} and
        D_{Delta_s, j} = (tx_slots - j + 1) + (Omega - 1) + D_{I,s}. The Tx
        line ends after D_{Tx, i} = tx_slots - i + 1 slots.
        """
        om, th = self.params.omega, self.params.tx_slots
        if family == "idle":
            return 0.0
        if family == "a":
            return self.aifs[index]
        if family == "b":
            return self.busy[index]
        if family == "sense":
            return self.sense[index]
        if family == "txm":
            return float(th - (index - 1))
        s, j = index
        if family == "bo":
            return (om - j) + self.sense[s]
        return (th - j + 1) + (om - 1) + self.sense[s]


def delay_recurrences(params: Dot11pParams, theta: float):
    """(D_{I,s} by stage s, D_{B,i} by i, D_{A_i} by i): the coupled delay recurrences.

    The delays of the backoff, Delta and Tx rows follow from these in closed
    form (`DelayTable.state`); the mean delay D_{A_1} needs only these.
    """
    if not 0.0 <= theta < 1.0:
        raise ChannelSaturated(f"theta = {theta!r}; delays diverge at theta = 1")
    check_omega(params)
    cmin, om, th = params.c_min, params.omega, params.tx_slots
    one_m = 1.0 - theta

    d_sense = {0: (1.0 + th + theta * (om - 1)) / one_m}
    for i in range(2, cmin):
        d_sense[i] = (i + th * (1.0 + theta * (i - 1)) + i * theta * (om - 1)) / one_m

    # stage draw at (B, tx_slots): weight 2/C for stage 0, 1/C for others
    d_busy = {th: 1.0 + (2.0 / cmin) * ((om - 1) + d_sense[0])
              + ((cmin - 2) * (om - 1)) / cmin
              + sum(d_sense[i] for i in range(2, cmin)) / cmin}
    for i in range(th - 1, 0, -1):
        d_busy[i] = 1.0 + d_busy[i + 1]

    # D_{Tx,1} = tx_slots
    d_aifs = {om: 1.0 + one_m * float(th) + theta * d_busy[1]}
    for i in range(om - 1, 1, -1):
        d_aifs[i] = 1.0 + one_m * d_aifs[i + 1] + theta * d_busy[1]
    mean_busy = sum(d_busy[j] for j in range(1, th + 1)) / th
    d_aifs[1] = 1.0 + one_m * d_aifs[2] + theta * mean_busy
    return d_sense, d_busy, d_aifs


def state_delays(params: Dot11pParams, theta: float) -> DelayTable:
    """Per-state delay recurrences of the 802.11p chain, solved exactly."""
    return DelayTable(*delay_recurrences(params, theta), params=params)
