"""Generic finite DTMC solvers and explicit builders for the five chains.

The five chains (CAM generator, DENM generator, device queue, C-V2X Mode 4,
IEEE 802.11p) are materialized as explicit row-stochastic matrices so that
every closed-form solution elsewhere in the package can be checked against an
exact solve of pi P = pi, and the 802.11p per-state delays against
exact mean first-passage times. `closed_form_states` maps a closed-form
solution onto the same state labels the builders use.

Each chain is a tuple of sparse rows, one {column: probability} dict per
state, and both solvers run one Grassmann-Taksar-Heyman state reduction over
those rows. Importing this module, building a chain and solving it load
numpy only.

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

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import ScenarioConfig
from .dot11p import check_omega, dot11p_stages
from .errors import NoConvergence, NonStochasticMatrix, UnknownChainKind

ROW_SUM_TOL = 1e-12
RESIDUAL_TOL = 1e-10

CHAIN_KINDS = ("cam", "denm", "queue", "cv2x", "dot11p")

Rows = Tuple[Dict[int, float], ...]


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition matrix with a state-name-to-index map.

    rows[i] maps each state j that state i can move to in one step to the
    probability of that step; absent columns are 0.
    """

    rows: Rows
    labels: Dict[str, int]

    @property
    def n(self) -> int:
        return len(self.rows)

    def __post_init__(self):
        n = self.n
        src, dst, p = _entries(self.rows)
        if dst.size and (dst.min() < 0 or dst.max() >= n):
            raise NonStochasticMatrix("matrix must be square: columns must lie in [0, n)")
        if p.size and not (p.min() >= -ROW_SUM_TOL and p.max() <= 1 + ROW_SUM_TOL):
            raise NonStochasticMatrix("entries must lie in [0, 1]")
        sums = np.bincount(src, weights=p, minlength=n)
        bad = ~(np.abs(sums - 1.0) <= ROW_SUM_TOL)
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


def _entries(rows: Rows) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (row, column, probability) arrays of every stored entry."""
    count = sum(len(row) for row in rows)
    src = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    dst = np.fromiter((j for row in rows for j in row), dtype=np.int64, count=count)
    p = np.fromiter((v for row in rows for v in row.values()), dtype=float, count=count)
    return src, dst, p


def _reduce(rows: List[Dict[int, float]], steps: Optional[List[float]] = None):
    """Grassmann-Taksar-Heyman state reduction, from the highest state down.

    Eliminating state k folds it into the states below it: each i < k with
    an entry p_ik gains p_ik p_kj / s_k on every j < k, where s_k is the sum
    of row k's entries to lower states. Dividing by s_k, never by 1 - p_kk,
    keeps every step free of subtraction (Grassmann, Taksar and Heyman,
    Oper. Res. 33(5), 1985). `steps[i]`, when given, is the expected number
    of steps from i to its next visit to the states not yet eliminated, and
    gains p_ik steps[k] / s_k.

    `rows` is rewritten in place: once k is eliminated, row k holds its
    entries j <= k of that moment and column k is moved out of the rows
    below it. Returns the root, the highest k with s_k = 0 or else 0, with
    s_k and the moved column {i: p_ik} of every eliminated state k.
    """
    n = len(rows)
    into = [set() for _ in range(n)]   # into[j]: the states i < j with an entry to j
    for i, row in enumerate(rows):
        for j in row:
            if i < j:
                into[j].add(i)
    sums = [0.0] * n
    cols: List[Dict[int, float]] = [{} for _ in range(n)]
    for k in range(n - 1, 0, -1):
        lower = [(j, p) for j, p in rows[k].items() if j < k]
        s_k = sum(p for _, p in lower)
        if s_k == 0.0:
            return k, sums, cols
        sums[k] = s_k
        cols[k] = {i: rows[i].pop(k) for i in into[k]}
        for i, p_ik in cols[k].items():
            f = p_ik / s_k
            row = rows[i]
            for j, p in lower:
                row[j] = row.get(j, 0.0) + f * p
                if i < j:
                    into[j].add(i)
            if steps is not None:
                steps[i] += f * steps[k]
    return 0, sums, cols


def _target_first(rows, target: int):
    """The state order with `target` first, and `rows` in that order with `target` absorbing."""
    order = [target] + [k for k in range(len(rows)) if k != target]
    at = {old: new for new, old in enumerate(order)}
    return order, [{0: 1.0}] + [{at[j]: p for j, p in rows[old].items()} for old in order[1:]]


def _label_of(m: TransitionMatrix, k: int) -> str:
    return next(label for label, index in m.labels.items() if index == k)


def solve_steady_state(m: TransitionMatrix) -> SteadyStateVector:
    """Solve pi P = pi, sum(pi) = 1 exactly by state reduction.

    The reduction runs down to the root, state 0 or the highest state that
    cannot reach a lower one; pi is then built upward from the root, state k
    from the columns into k that the reduction moved out, and normalized.
    The states below a higher root are transient and get pi = 0, which holds
    only if every one of them reaches the root: otherwise the chain has
    several closed classes and NoConvergence is raised. Periodic chains,
    which defeat power iteration, solve exactly.
    """
    n = m.n
    rows = [dict(row) for row in m.rows]
    root, sums, cols = _reduce(rows)
    # rows[:root + 1] is now the chain watched only on the states up to the root
    if root and _reduce(_target_first(rows[:root + 1], root)[1])[0]:
        raise NoConvergence(f"some state cannot reach {_label_of(m, root)!r}, which "
                            "reaches no lower state: the chain has several closed classes")
    x = [0.0] * n
    x[root] = 1.0
    for k in range(root + 1, n):
        x[k] = sum(x[i] * p for i, p in cols[k].items()) / sums[k]
    pi = np.array(x)
    pi /= pi.sum()
    src, dst, p = _entries(m.rows)
    residual = float(np.max(np.abs(np.bincount(dst, weights=pi[src] * p, minlength=n) - pi)))
    if not (residual <= RESIDUAL_TOL and abs(pi.sum() - 1.0) <= RESIDUAL_TOL):
        raise NoConvergence(f"residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}")
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    return SteadyStateVector(probs=pi, labels=m.labels, residual=residual)


def hitting_times(m: TransitionMatrix, target: str) -> Dict[str, float]:
    """Expected steps from each state to its first visit of `target`, by label.

    The target itself has 0. The target moves to the root and absorbs, and
    the state reduction carries each state's steps per reduced transition;
    the times are then built upward from the root. They solve (I - Q) d = 1,
    with Q the transitions among the other states (Kemeny and Snell, Finite
    Markov Chains, 1960), which is checked. A state that cannot reach
    `target` raises NoConvergence.
    """
    n, t = m.n, m.labels[target]
    order, rows = _target_first(m.rows, t)
    steps = [1.0] * n
    root, sums, _ = _reduce(rows, steps)
    if root:
        raise NoConvergence(f"state {_label_of(m, order[root])!r} cannot reach {target!r}")
    d = [0.0] * n
    for k in range(1, n):
        d[k] = (steps[k] + sum(p * d[j] for j, p in rows[k].items() if j < k)) / sums[k]
    times = np.empty(n)
    times[order] = d
    src, dst, p = _entries(m.rows)
    # times[t] = 0 leaves the target's column out of Q d
    excess = times - np.bincount(src, weights=p * times[dst], minlength=n) - 1.0
    residual = float(np.max(np.abs(np.delete(excess, t)), initial=0.0))
    if not residual <= RESIDUAL_TOL * max(1.0, float(times.max())):
        raise NoConvergence(f"hitting-time residual {residual:.3e}; "
                            f"some state cannot reach {target!r}")
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
        check_omega(p)
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
    states = _states(kind, params)
    at = {(family, index): k for k, (_, family, index) in enumerate(states)}
    m = [defaultdict(float) for _ in states]
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
    return TransitionMatrix(rows=tuple({j: p for j, p in row.items() if p} for row in m),
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
        m[tx(j)][tx(j - 1)] = 1.0
        m[txp(j)][tx(j - 1)] = p_t
        m[txp(j)][txp(j - 1)] = q
    m[txp(0)][txp(t_l - 1)] = 1.0
    if denm:
        idle = at["idle", None]
        f = 1.0 - 1.0 / k
        m[idle][idle] = 1.0 - sigma
        m[idle][tx(0)] = sigma
        m[tx(0)][idle] = 1.0 / k
        if f > 0.0:
            m[tx(0)][tx(t_l - 1)] = f * p_t
            m[tx(0)][txp(t_l - 1)] = f * q
    else:
        m[tx(0)][tx(t_l - 1)] = p_t
        m[tx(0)][txp(t_l - 1)] = q


def _build_queue(m, at, alpha: float, alpha1: float, beta: float, m_cap: int):
    """Birth-death device queue on 0..M; arrivals at a full queue are dropped."""
    q = lambda i: at["q", i]
    m[q(0)][q(0)] = 1.0 - alpha1
    if m_cap >= 1:
        m[q(0)][q(1)] = alpha1
    for i in range(1, m_cap):
        m[q(i)][q(i + 1)] = alpha
        m[q(i)][q(i - 1)] = beta
        m[q(i)][q(i)] = 1.0 - alpha - beta
    m[q(m_cap)][q(m_cap - 1)] = beta
    m[q(m_cap)][q(m_cap)] = 1.0 - beta


def _build_cv2x(m, at, params: ScenarioConfig, c: CouplingInputs):
    """C-V2X Mode 4 state machine.

    Layout: idle; waiting line (w, 0..Gamma-2) counting down to the RC draw;
    RC grid rows i = 1..R_h with j = 0..Gamma-1. Rows at or above R_l (the
    rows entered by a fresh RC draw) advance their waiting countdown only
    when the queue is non-empty; rows below R_l count down every subframe.
    A fresh draw lands at (rc, i, Gamma-1); transmission opportunities are
    the (rc, i, 0) states. Every selection schedules, as in the simulator,
    so nothing enters idle: it only exits, with a = P_arr + P_qne - P_arr P_qne.
    """
    p = params.cv2x
    g, rl, rh = p.gamma, p.r_low, p.r_high
    w_cnt = 1 + rh - rl
    p_qne = c.p_qne
    p_qe = c.p_qe
    a = c.p_arr + p_qne - c.p_arr * p_qne
    idle = at["idle", None]
    w = lambda j: at["w", j]
    rc = lambda i, j: at["rc", (i, j)]

    m[idle][idle] = 1.0 - a
    for j in range(g - 1):
        m[idle][w(j)] = a / (g - 1)
    for j in range(1, g - 1):
        m[w(j)][w(j - 1)] = 1.0
    for i in range(rl, rh + 1):
        m[w(0)][rc(i, g - 1)] = 1.0 / w_cnt
    for i in range(1, rh + 1):
        gated = i >= rl
        for j in range(1, g):
            if gated:
                m[rc(i, j)][rc(i, j - 1)] = p_qne
                m[rc(i, j)][rc(i, j)] = p_qe
            else:
                m[rc(i, j)][rc(i, j - 1)] = 1.0
        if i >= 2:
            m[rc(i, 0)][rc(i - 1, g - 1)] = p_qne
            m[rc(i, 0)][rc(i, g - 1)] = p_qe
    # (1, 0): transmit, then keep the CSR or reselect via the waiting line
    m[rc(1, 0)][rc(1, g - 1)] = p_qe
    m[rc(1, 0)][w(g - 2)] = p_qne * p.p_rk
    for j in range(g - 1):
        m[rc(1, 0)][w(j)] += p_qne * (1.0 - p.p_rk) / (g - 1)


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
    cmin, om, th = p.c_min, p.omega, p.tx_slots
    theta = c.theta
    stages = dot11p_stages(cmin)
    idle = at["idle", None]

    m[idle][idle] = 1.0 - c.h
    m[idle][at["a", 1]] = c.h
    for i in range(1, om):
        m[at["a", i]][at["a", i + 1]] = 1.0 - theta
    m[at["a", om]][at["txm", 1]] = 1.0 - theta
    for i in range(1, th + 1):
        m[at["a", 1]][at["b", i]] = theta / th
    for i in range(2, om + 1):
        m[at["a", i]][at["b", 1]] = theta
    for i in range(1, th):
        m[at["b", i]][at["b", i + 1]] = 1.0
    for s in stages:
        weight = 2.0 / cmin if s == 0 else 1.0 / cmin
        entry = at["bo", (s, 1)]
        m[at["b", th]][entry] += weight
        for j in range(1, om - 1):
            m[at["bo", (s, j)]][at["bo", (s, j + 1)]] = 1.0
        m[at["bo", (s, om - 1)]][at["sense", s]] = 1.0
        m[at["sense", s]][at["delta", (s, 1)]] = theta
        for j in range(1, th):
            m[at["delta", (s, j)]][at["delta", (s, j + 1)]] = 1.0
        m[at["delta", (s, th)]][entry] = 1.0
    for pos, s in enumerate(stages):
        if s == 0:
            m[at["sense", 0]][at["txm", 1]] = 1.0 - theta
        else:
            m[at["sense", s]][at["sense", stages[pos - 1]]] = 1.0 - theta
    for i in range(1, th):
        m[at["txm", i]][at["txm", i + 1]] = 1.0
    m[at["txm", th]][idle] = 1.0
