"""Generic finite DTMC steady-state solver and explicit builders for the five chains.

The five chains (CAM generator, DENM generator, device queue, C-V2X Mode 4,
IEEE 802.11p) are materialized as explicit row-stochastic matrices so that
every closed-form solution elsewhere in the package can be checked against a
plain linear solve of pi P = pi.

State enumeration is fixed and documented per chain (row-major over the
(i, j) grids) so that regression snapshots stay stable:

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
from typing import Dict

import numpy as np
from scipy.sparse import csr_matrix, identity, lil_matrix
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .config import ScenarioConfig
from .dot11p import dot11p_stages
from .errors import NoConvergence, NonStochasticMatrix, UnknownChainKind

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


def solve_steady_state(m: TransitionMatrix) -> SteadyStateVector:
    """Solve pi P = pi, sum(pi) = 1 as a linear system.

    One balance equation is replaced by the normalization row, so periodic
    chains (which defeat power iteration) still solve exactly.
    """
    n = m.n
    a = (m.rows.T - identity(n, format="csr")).tolil()
    a[n - 1, :] = 1.0
    b = np.zeros(n)
    b[n - 1] = 1.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MatrixRankWarning)
            pi = spsolve(csr_matrix(a), b)
    except Exception as exc:  # singular factorization
        raise NoConvergence(f"linear solve failed: {exc}") from exc
    if not np.all(np.isfinite(pi)):
        raise NoConvergence("linear solve produced non-finite entries")
    residual = float(np.max(np.abs(pi @ m.rows - pi)))
    if residual > RESIDUAL_TOL or abs(pi.sum() - 1.0) > RESIDUAL_TOL:
        raise NoConvergence(
            f"residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}; "
            "chain is likely reducible with several closed classes")
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    return SteadyStateVector(probs=pi, labels=m.labels, residual=residual)


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


def build_chain(kind: str, params: ScenarioConfig, coupling: CouplingInputs) -> TransitionMatrix:
    """Materialize one of the five chains as an explicit TransitionMatrix."""
    if kind == "cam":
        return _build_generator(params.traffic.t_c, coupling.p_t, denm=False)
    if kind == "denm":
        return _build_generator(params.traffic.t_d, coupling.p_t, denm=True,
                                k=params.traffic.k, sigma=params.traffic.sigma)
    if kind == "queue":
        return _build_queue(coupling.alpha, coupling.alpha1, coupling.beta,
                            params.traffic.m)
    if kind == "cv2x":
        return _build_cv2x(params, coupling)
    if kind == "dot11p":
        return _build_dot11p(params, coupling)
    raise UnknownChainKind(f"unknown chain kind {kind!r}")


def _build_generator(t_l: int, p_t: float, denm: bool, k: int = 1, sigma: float = 0.0):
    """CAM generator, or DENM generator when `denm` is set.

    Row tx tracks "current packet already sent", row txp "still blocked"; j
    counts down the subframes remaining until the next generation instant.
    A blocked packet is transmitted with probability p_t in each subframe,
    hopping from (txp, j) to (tx, j-1). The DENM variant adds the idle state
    with per-subframe trigger probability sigma and ends a repetition train
    with probability 1/K at each generation instant.
    """
    q = 1.0 - p_t
    off = 1 if denm else 0
    n = off + 2 * t_l
    labels = {}
    if denm:
        labels["idle"] = 0
    for j in range(t_l):
        labels[f"tx,{j}"] = off + j
        labels[f"txp,{j}"] = off + t_l + j
    m = lil_matrix((n, n))
    tx = lambda j: off + j
    txp = lambda j: off + t_l + j
    for j in range(1, t_l):
        m[tx(j), tx(j - 1)] = 1.0
        m[txp(j), tx(j - 1)] = p_t
        m[txp(j), txp(j - 1)] = q
    m[txp(0), txp(t_l - 1)] = 1.0
    if denm:
        f = 1.0 - 1.0 / k
        m[0, 0] = 1.0 - sigma
        m[0, tx(0)] = sigma
        m[tx(0), 0] = 1.0 / k
        if f > 0.0:
            m[tx(0), tx(t_l - 1)] = f * p_t
            m[tx(0), txp(t_l - 1)] = f * q
    else:
        m[tx(0), tx(t_l - 1)] = p_t
        m[tx(0), txp(t_l - 1)] = q
    return TransitionMatrix(rows=csr_matrix(m), labels=labels)


def _build_queue(alpha: float, alpha1: float, beta: float, m_cap: int):
    """Birth-death device queue on 0..M; arrivals at a full queue are dropped."""
    n = m_cap + 1
    labels = {f"q{i}": i for i in range(n)}
    m = lil_matrix((n, n))
    m[0, 0] = 1.0 - alpha1
    if m_cap >= 1:
        m[0, 1] = alpha1
    for i in range(1, m_cap):
        m[i, i + 1] = alpha
        m[i, i - 1] = beta
        m[i, i] = 1.0 - alpha - beta
    m[m_cap, m_cap - 1] = beta
    m[m_cap, m_cap] = 1.0 - beta
    return TransitionMatrix(rows=csr_matrix(m), labels=labels)


def _build_cv2x(params: ScenarioConfig, c: CouplingInputs):
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
    n = 1 + (g - 1) + rh * g
    labels = {"idle": 0}
    for j in range(g - 1):
        labels[f"w,{j}"] = 1 + j
    for i in range(1, rh + 1):
        for j in range(g):
            labels[f"rc,{i},{j}"] = 1 + (g - 1) + (i - 1) * g + j
    w = lambda j: 1 + j
    rc = lambda i, j: 1 + (g - 1) + (i - 1) * g + j

    m = lil_matrix((n, n))
    m[0, 0] = 1.0 - a
    for j in range(g - 1):
        m[0, w(j)] = a / (g - 1)
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
        m[rc(1, 0), 0] = p_qne * (1.0 - p.p_rk) * (1.0 - p.p_sch)
    return TransitionMatrix(rows=csr_matrix(m), labels=labels)


def _build_dot11p(params: ScenarioConfig, c: CouplingInputs):
    """IEEE 802.11p state machine at aSlotTime resolution.

    Idle exits with probability 1 - P_qe (1 - P_arr) into the sensed AIFS
    line A_1..A_Omega; P_qe and P_arr are per-slot probabilities here. Busy during A_1 enters the residual busy wait
    uniformly; busy later enters (B, 1). The backoff stage is drawn at
    (B, tx_slots) with stage 0 twice as likely as any other stage; per-stage
    AIFS rows are deterministic and the sensing states (I, s) chain down on
    idle slots, skipping the absent stage 1.
    """
    p = params.dot11p
    cmin, om, th = p.c_min, p.omega, p.tx_slots
    theta = c.theta
    h = 1.0 - c.p_qe * (1.0 - c.p_arr)
    stages = dot11p_stages(cmin)

    labels = {"idle": 0}
    k = 1
    for i in range(1, om + 1):
        labels[f"a,{i}"] = k; k += 1
    for i in range(1, th + 1):
        labels[f"b,{i}"] = k; k += 1
    for s in stages:
        for j in range(1, om):
            labels[f"bo,{s},a,{j}"] = k; k += 1
    for s in stages:
        for j in range(1, th + 1):
            labels[f"delta,{s},{j}"] = k; k += 1
    for s in stages:
        labels[f"sense,{s}"] = k; k += 1
    for i in range(1, th + 1):
        labels[f"txm,{i}"] = k; k += 1
    n = k
    ix = labels

    m = lil_matrix((n, n))
    m[0, 0] = 1.0 - h
    m[0, ix["a,1"]] = h
    for i in range(1, om):
        m[ix[f"a,{i}"], ix[f"a,{i + 1}"]] = 1.0 - theta
    m[ix[f"a,{om}"], ix["txm,1"]] = 1.0 - theta
    for i in range(1, th + 1):
        m[ix["a,1"], ix[f"b,{i}"]] = theta / th
    for i in range(2, om + 1):
        m[ix[f"a,{i}"], ix["b,1"]] = theta
    for i in range(1, th):
        m[ix[f"b,{i}"], ix[f"b,{i + 1}"]] = 1.0
    for s in stages:
        weight = 2.0 / cmin if s == 0 else 1.0 / cmin
        entry = ix[f"bo,{s},a,1"] if om > 1 else ix[f"sense,{s}"]
        m[ix[f"b,{th}"], entry] += weight
        for j in range(1, om - 1):
            m[ix[f"bo,{s},a,{j}"], ix[f"bo,{s},a,{j + 1}"]] = 1.0
        if om > 1:
            m[ix[f"bo,{s},a,{om - 1}"], ix[f"sense,{s}"]] = 1.0
        m[ix[f"sense,{s}"], ix[f"delta,{s},1"]] = theta
        for j in range(1, th):
            m[ix[f"delta,{s},{j}"], ix[f"delta,{s},{j + 1}"]] = 1.0
        m[ix[f"delta,{s},{th}"], entry] = 1.0
    for pos, s in enumerate(stages):
        if s == 0:
            m[ix["sense,0"], ix["txm,1"]] = 1.0 - theta
        else:
            m[ix[f"sense,{s}"], ix[f"sense,{stages[pos - 1]}"]] = 1.0 - theta
    for i in range(1, th):
        m[ix[f"txm,{i}"], ix[f"txm,{i + 1}"]] = 1.0
    m[ix[f"txm,{th}"], 0] = 1.0
    return TransitionMatrix(rows=csr_matrix(m), labels=labels)
