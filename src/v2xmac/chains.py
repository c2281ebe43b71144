"""Generic finite DTMC solvers and explicit builders for the five chains.

The five chains (CAM generator, DENM generator, device queue, C-V2X Mode 4,
IEEE 802.11p) are materialized as explicit row-stochastic matrices so that
every closed-form solution elsewhere in the package can be checked against a
plain linear solve of pi P = pi, and the 802.11p per-state delays against
exact mean first-passage times. `closed_form_states` maps a closed-form
solution onto the same state labels the builders use.

Importing this module loads numpy only; the sparse builders and solvers
import scipy when first called, so code that imports the oracle without
building a chain never pays for scipy.

State enumeration is fixed and documented per chain (row-major over the
(i, j) grids) so that regression snapshots stay stable; `_states` is its one
source:

  cam:    (tx, 0..T_C-1) then (txp, 0..T_C-1)
  denm:   idle, (tx, 0..T_D-1), (txp, 0..T_D-1)
  queue:  0..M
  cv2x:   idle, (w, 0..Gamma-2), then rows (rc, i=1..R_h) x (j=0..Gamma-1)
  dot11p: idle, A_1..A_Omega, (B, 1..tx_slots), per-stage backoff AIFS rows,
          per-stage busy-wait rows, sensing states, (Tx, 1..tx_slots)
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from .config import ScenarioConfig
from .dot11p import check_omega, dot11p_stages
from .errors import NoConvergence, NonStochasticMatrix, UnknownChainKind

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

ROW_SUM_TOL = 1e-12
RESIDUAL_TOL = 1e-10

CHAIN_KINDS = ("cam", "denm", "queue", "cv2x", "dot11p")


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition matrix with a state-name-to-index map."""

    rows: csr_matrix
    labels: Dict[str, int]

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def __post_init__(self):
        n = self.rows.shape[0]
        if self.rows.shape != (n, n):
            raise NonStochasticMatrix("matrix must be square")
        data = self.rows.data
        if data.size and (data.min() < -ROW_SUM_TOL or data.max() > 1 + ROW_SUM_TOL):
            raise NonStochasticMatrix("entries must lie in [0, 1]")
        sums = np.asarray(self.rows.sum(axis=1)).ravel()
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if bad.any():
            i = int(np.argmax(bad))
            raise NonStochasticMatrix(f"row {i} sums to {sums[i]!r}")
        if len(self.labels) != n or set(self.labels.values()) != set(range(n)):
            raise NonStochasticMatrix("labels must be a bijection onto [0, n)")


@dataclass(frozen=True)
class SteadyStateVector:
    probs: np.ndarray
    labels: Dict[str, int]
    residual: float

    def __getitem__(self, state: str) -> float:
        return float(self.probs[self.labels[state]])


def _linear_solve(a, b) -> np.ndarray:
    """Solve the sparse system a x = b; a singular or non-finite result raises."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import MatrixRankWarning, spsolve
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MatrixRankWarning)
            x = np.atleast_1d(spsolve(csr_matrix(a), b))
    except Exception as exc:  # singular factorization
        raise NoConvergence(f"linear solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise NoConvergence("linear solve produced non-finite entries")
    return x


def solve_steady_state(m: TransitionMatrix) -> SteadyStateVector:
    """Solve pi P = pi, sum(pi) = 1 as a linear system.

    One balance equation is replaced by the normalization row, so periodic
    chains (which defeat power iteration) still solve exactly.
    """
    from scipy.sparse import identity
    n = m.n
    a = (m.rows.T - identity(n, format="csr")).tolil()
    a[n - 1, :] = 1.0
    b = np.zeros(n)
    b[n - 1] = 1.0
    pi = _linear_solve(a, b)
    residual = float(np.max(np.abs(pi @ m.rows - pi)))
    if residual > RESIDUAL_TOL or abs(pi.sum() - 1.0) > RESIDUAL_TOL:
        raise NoConvergence(
            f"residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}; "
            "chain is likely reducible with several closed classes")
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    return SteadyStateVector(probs=pi, labels=m.labels, residual=residual)


def hitting_times(m: TransitionMatrix, target: str) -> Dict[str, float]:
    """Expected steps from each state to its first visit of `target`, by label.

    The target itself has 0. With Q the transitions among the other states,
    the mean first-passage times solve (I - Q) d = 1 (Kemeny and Snell,
    Finite Markov Chains, 1960). A state that cannot reach `target` makes
    I - Q singular, which raises NoConvergence.
    """
    from scipy.sparse import identity
    t = m.labels[target]
    rest = np.delete(np.arange(m.n), t)
    a = identity(m.n - 1, format="csr") - m.rows[rest][:, rest]
    d = _linear_solve(a, np.ones(m.n - 1))
    residual = float(np.max(np.abs(a @ d - 1.0)))
    if residual > RESIDUAL_TOL * max(1.0, float(d.max())):
        raise NoConvergence(f"hitting-time residual {residual:.3e}; "
                            f"some state cannot reach {target!r}")
    times = np.insert(d, t, 0.0)
    return {label: float(times[k]) for label, k in m.labels.items()}


@dataclass(frozen=True)
class CouplingInputs:
    """Linking probabilities consumed by the chain builders."""

    p_t: float = 0.5
    p_qe: float = 0.5
    p_arr: float = 0.1
    theta: float = 0.0
    alpha: float = 0.1
    alpha1: float = 0.1
    beta: float = 0.3

    @property
    def p_qne(self) -> float:
        return 1.0 - self.p_qe

    @property
    def h(self) -> float:
        """The 802.11p idle exit 1 - P_qe (1 - P_arr): a packet waits or arrives."""
        return 1.0 - self.p_qe * (1.0 - self.p_arr)


def _states(kind: str, params: ScenarioConfig) -> List[Tuple[str, str, object]]:
    """The states of chain `kind` in matrix order, as (label, family, index).

    The builders place their transitions by (family, index) and take their
    labels from here, and `closed_form_states` reads each state's value by
    (family, index), so every chain's layout is written once.
    """
    if kind in ("cam", "denm"):
        t_l = params.traffic.t_c if kind == "cam" else params.traffic.t_d
        head = [("idle", "idle", None)] if kind == "denm" else []
        return (head + [(f"tx,{j}", "tx", j) for j in range(t_l)]
                + [(f"txp,{j}", "txp", j) for j in range(t_l)])
    if kind == "queue":
        return [(f"q{i}", "q", i) for i in range(params.traffic.m + 1)]
    if kind == "cv2x":
        g, rh = params.cv2x.gamma, params.cv2x.r_high
        return ([("idle", "idle", None)] + [(f"w,{j}", "w", j) for j in range(g - 1)]
                + [(f"rc,{i},{j}", "rc", (i, j))
                   for i in range(1, rh + 1) for j in range(g)])
    if kind == "dot11p":
        p = params.dot11p
        om, th = p.omega, p.tx_slots
        stages = dot11p_stages(p.c_min)
        return ([("idle", "idle", None)]
                + [(f"a,{i}", "a", i) for i in range(1, om + 1)]
                + [(f"b,{i}", "b", i) for i in range(1, th + 1)]
                + [(f"bo,{s},a,{j}", "bo", (s, j)) for s in stages for j in range(1, om)]
                + [(f"delta,{s},{j}", "delta", (s, j))
                   for s in stages for j in range(1, th + 1)]
                + [(f"sense,{s}", "sense", s) for s in stages]
                + [(f"txm,{i}", "txm", i) for i in range(1, th + 1)])
    raise UnknownChainKind(f"unknown chain kind {kind!r}")


def build_chain(kind: str, params: ScenarioConfig, coupling: CouplingInputs) -> TransitionMatrix:
    """Materialize one of the five chains as an explicit TransitionMatrix."""
    from scipy.sparse import csr_matrix, lil_matrix
    states = _states(kind, params)
    at = {(family, index): k for k, (_, family, index) in enumerate(states)}
    m = lil_matrix((len(states), len(states)))
    if kind == "cam":
        _build_generator(m, at, params.traffic.t_c, coupling.p_t, denm=False)
    elif kind == "denm":
        _build_generator(m, at, params.traffic.t_d, coupling.p_t, denm=True,
                         k=params.traffic.k, sigma=params.traffic.sigma)
    elif kind == "queue":
        _build_queue(m, at, coupling.alpha, coupling.alpha1, coupling.beta,
                     params.traffic.m)
    elif kind == "cv2x":
        _build_cv2x(m, at, params, coupling)
    else:
        _build_dot11p(m, at, params, coupling)
    return TransitionMatrix(rows=csr_matrix(m),
                            labels={label: k for k, (label, _, _) in enumerate(states)})


def closed_form_states(kind: str, scenario: ScenarioConfig, solution) -> Dict[str, float]:
    """A closed-form solution of chain `kind` as {state label: value}.

    The labels are those `build_chain(kind, scenario, ...)` gives its states,
    and each value is `solution.state(family, index)`: a solver's steady
    state, or a DelayTable's per-state delays on the 802.11p states.
    """
    return {label: solution.state(family, index)
            for label, family, index in _states(kind, scenario)}


def _build_generator(m, at, t_l: int, p_t: float, denm: bool, k: int = 1,
                     sigma: float = 0.0):
    """CAM generator, or DENM generator when `denm` is set.

    Row tx tracks "current packet already sent", row txp "still blocked"; j
    counts down the subframes remaining until the next generation instant.
    A blocked packet is transmitted with probability p_t in each subframe,
    hopping from (txp, j) to (tx, j-1). The DENM variant adds the idle state
    with per-subframe trigger probability sigma and ends a repetition train
    with probability 1/K at each generation instant.
    """
    q = 1.0 - p_t
    tx = lambda j: at["tx", j]
    txp = lambda j: at["txp", j]
    for j in range(1, t_l):
        m[tx(j), tx(j - 1)] = 1.0
        m[txp(j), tx(j - 1)] = p_t
        m[txp(j), txp(j - 1)] = q
    m[txp(0), txp(t_l - 1)] = 1.0
    if denm:
        idle = at["idle", None]
        f = 1.0 - 1.0 / k
        m[idle, idle] = 1.0 - sigma
        m[idle, tx(0)] = sigma
        m[tx(0), idle] = 1.0 / k
        if f > 0.0:
            m[tx(0), tx(t_l - 1)] = f * p_t
            m[tx(0), txp(t_l - 1)] = f * q
    else:
        m[tx(0), tx(t_l - 1)] = p_t
        m[tx(0), txp(t_l - 1)] = q


def _build_queue(m, at, alpha: float, alpha1: float, beta: float, m_cap: int):
    """Birth-death device queue on 0..M; arrivals at a full queue are dropped."""
    q = lambda i: at["q", i]
    m[q(0), q(0)] = 1.0 - alpha1
    if m_cap >= 1:
        m[q(0), q(1)] = alpha1
    for i in range(1, m_cap):
        m[q(i), q(i + 1)] = alpha
        m[q(i), q(i - 1)] = beta
        m[q(i), q(i)] = 1.0 - alpha - beta
    m[q(m_cap), q(m_cap - 1)] = beta
    m[q(m_cap), q(m_cap)] = 1.0 - beta


def _build_cv2x(m, at, params: ScenarioConfig, c: CouplingInputs):
    """C-V2X Mode 4 state machine.

    Layout: idle; waiting line (w, 0..Gamma-2) counting down to the RC draw;
    RC grid rows i = 1..R_h with j = 0..Gamma-1. Rows at or above R_l (the
    rows entered by a fresh RC draw) advance their waiting countdown only
    when the queue is non-empty; rows below R_l count down every subframe.
    A fresh draw lands at (rc, i, Gamma-1); transmission opportunities are
    the (rc, i, 0) states.
    """
    p = params.cv2x
    g, rl, rh = p.gamma, p.r_low, p.r_high
    w_cnt = 1 + rh - rl
    p_qne = c.p_qne
    p_qe = c.p_qe
    a = (c.p_arr + p_qne - c.p_arr * p_qne) * p.p_sch
    idle = at["idle", None]
    w = lambda j: at["w", j]
    rc = lambda i, j: at["rc", (i, j)]

    m[idle, idle] = 1.0 - a
    for j in range(g - 1):
        m[idle, w(j)] = a / (g - 1)
    for j in range(1, g - 1):
        m[w(j), w(j - 1)] = 1.0
    for i in range(rl, rh + 1):
        m[w(0), rc(i, g - 1)] = 1.0 / w_cnt
    for i in range(1, rh + 1):
        gated = i >= rl
        for j in range(1, g):
            if gated:
                m[rc(i, j), rc(i, j - 1)] = p_qne
                m[rc(i, j), rc(i, j)] = p_qe
            else:
                m[rc(i, j), rc(i, j - 1)] = 1.0
        if i >= 2:
            m[rc(i, 0), rc(i - 1, g - 1)] = p_qne
            m[rc(i, 0), rc(i, g - 1)] = p_qe
    # (1, 0): transmit, then keep the CSR or reselect via the waiting line
    m[rc(1, 0), rc(1, g - 1)] = p_qe
    m[rc(1, 0), w(g - 2)] = p_qne * p.p_rk
    for j in range(g - 1):
        m[rc(1, 0), w(j)] += p_qne * (1.0 - p.p_rk) * p.p_sch / (g - 1)
    if p.p_sch < 1.0:
        m[rc(1, 0), idle] = p_qne * (1.0 - p.p_rk) * (1.0 - p.p_sch)


def _build_dot11p(m, at, params: ScenarioConfig, c: CouplingInputs):
    """IEEE 802.11p state machine at aSlotTime resolution.

    Idle exits with probability h = 1 - P_qe (1 - P_arr), from the per-slot
    P_qe and P_arr, into the sensed AIFS line A_1..A_Omega. Busy during A_1
    enters the residual busy wait uniformly; busy later enters (B, 1). The
    backoff stage is drawn at (B, tx_slots) with stage 0 twice as likely as
    any other stage; per-stage AIFS rows are deterministic and the sensing
    states (I, s) chain down on idle slots, skipping the absent stage 1.
    """
    p = params.dot11p
    check_omega(p)
    cmin, om, th = p.c_min, p.omega, p.tx_slots
    theta = c.theta
    stages = dot11p_stages(cmin)
    idle = at["idle", None]

    m[idle, idle] = 1.0 - c.h
    m[idle, at["a", 1]] = c.h
    for i in range(1, om):
        m[at["a", i], at["a", i + 1]] = 1.0 - theta
    m[at["a", om], at["txm", 1]] = 1.0 - theta
    for i in range(1, th + 1):
        m[at["a", 1], at["b", i]] = theta / th
    for i in range(2, om + 1):
        m[at["a", i], at["b", 1]] = theta
    for i in range(1, th):
        m[at["b", i], at["b", i + 1]] = 1.0
    for s in stages:
        weight = 2.0 / cmin if s == 0 else 1.0 / cmin
        entry = at["bo", (s, 1)]
        m[at["b", th], entry] += weight
        for j in range(1, om - 1):
            m[at["bo", (s, j)], at["bo", (s, j + 1)]] = 1.0
        m[at["bo", (s, om - 1)], at["sense", s]] = 1.0
        m[at["sense", s], at["delta", (s, 1)]] = theta
        for j in range(1, th):
            m[at["delta", (s, j)], at["delta", (s, j + 1)]] = 1.0
        m[at["delta", (s, th)], entry] = 1.0
    for pos, s in enumerate(stages):
        if s == 0:
            m[at["sense", 0], at["txm", 1]] = 1.0 - theta
        else:
            m[at["sense", s], at["sense", stages[pos - 1]]] = 1.0 - theta
    for i in range(1, th):
        m[at["txm", i], at["txm", i + 1]] = 1.0
    m[at["txm", th], idle] = 1.0
