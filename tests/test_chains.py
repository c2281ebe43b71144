"""Oracle solver and explicit chain builders."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_helpers import coupling, oracle_gap, scenario
from v2xmac.chains import (CHAIN_KINDS, TransitionMatrix, build_chain, hitting_times,
                           solve_steady_state)
from v2xmac.config import Cv2xParams, Dot11pParams, ScenarioConfig, TrafficParams
from v2xmac.cv2x import solve_cv2x
from v2xmac.dot11p import solve_dot11p
from v2xmac.errors import NoConvergence, NonStochasticMatrix, UnknownChainKind
from v2xmac.traffic import solve_cam, solve_denm, solve_queue


def dense_matrix(rows, labels=None):
    rows = np.asarray(rows, dtype=float)
    labels = labels or {f"s{i}": i for i in range(rows.shape[0])}
    return TransitionMatrix(rows=tuple({j: p for j, p in enumerate(row) if p} for row in rows),
                            labels=labels)


class TestSolver:
    def test_periodic_two_state_solves_exactly(self):
        # the linear solve is required behavior: periodicity must not block it
        pi = solve_steady_state(dense_matrix([[0, 1], [1, 0]]))
        assert np.allclose(pi.probs, [0.5, 0.5], atol=1e-12)

    def test_symmetric_two_state(self):
        pi = solve_steady_state(dense_matrix([[0.5, 0.5], [0.5, 0.5]]))
        assert np.allclose(pi.probs, [0.5, 0.5], atol=1e-12)

    def test_residual_reported(self):
        pi = solve_steady_state(dense_matrix([[0.9, 0.1], [0.4, 0.6]]))
        assert pi.residual <= 1e-10
        assert abs(pi.probs.sum() - 1.0) <= 1e-10

    def test_row_sum_check(self):
        with pytest.raises(NonStochasticMatrix):
            dense_matrix([[0.5, 0.5], [0.5, 0.49]])

    def test_entry_range_check(self):
        with pytest.raises(NonStochasticMatrix):
            dense_matrix([[1.5, -0.5], [0.5, 0.5]])

    def test_label_bijection_check(self):
        with pytest.raises(NonStochasticMatrix):
            dense_matrix([[0.5, 0.5], [0.5, 0.5]], labels={"a": 0, "b": 0})

    def test_two_closed_classes_rejected(self):
        with pytest.raises(NoConvergence):
            solve_steady_state(dense_matrix([[1, 0], [0, 1]]))

    @given(st.integers(min_value=2, max_value=12), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, n, rnd):
        rng = np.random.default_rng(rnd.randrange(2 ** 32))
        rows = rng.random((n, n)) + 0.05
        rows /= rows.sum(axis=1, keepdims=True)
        m = dense_matrix(rows)
        pi = solve_steady_state(m)
        perm = rng.permutation(n)
        prows = rows[np.ix_(perm, perm)]
        plabels = {f"s{orig}": new for new, orig in enumerate(perm)}
        ppi = solve_steady_state(dense_matrix(prows, plabels))
        for i in range(n):
            assert abs(pi.probs[i] - ppi.probs[perm.tolist().index(i)]) < 1e-12

    def test_getitem_by_label(self):
        pi = solve_steady_state(dense_matrix([[0.9, 0.1], [0.4, 0.6]]))
        assert pi["s0"] == pi.probs[0]

    def test_hitting_times_geometric(self):
        # leaving s0 is a Bernoulli(0.1) trial per step; s2 is one step past s1
        m = dense_matrix([[0.9, 0.1, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        d = hitting_times(m, "s2")
        assert d == pytest.approx({"s0": 11.0, "s1": 1.0, "s2": 0.0}, rel=1e-12)

    def test_hitting_times_unreachable_target(self):
        with pytest.raises(NoConvergence):
            hitting_times(dense_matrix([[1, 0], [0.5, 0.5]]), "s1")

    def test_transient_states_below_the_root_get_zero(self):
        pi = solve_steady_state(dense_matrix([[0.5, 0.5, 0], [0, 0, 1], [0, 1, 0]]))
        assert list(pi.probs) == [0.0, 0.5, 0.5]

    @pytest.mark.parametrize("rows", [
        [[0.2, 0.4, 0.4], [0, 1, 0], [0, 0, 1]],          # the root is the top state
        [[1, 0, 0], [0.5, 0, 0.5], [0, 0, 1]],            # a closed class below it
        [[1, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]],        # a root found mid-way
        [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],  # two closed pairs
    ])
    def test_closed_classes_around_the_root_rejected(self, rows):
        with pytest.raises(NoConvergence):
            solve_steady_state(dense_matrix(rows))

    @pytest.mark.parametrize("rows,target", [
        ([[0.5, 0.5, 0], [0, 1, 0], [0.3, 0.3, 0.4]], "s0"),
        ([[0.5, 0.5, 0], [0, 1, 0], [0.3, 0.3, 0.4]], "s2"),
        ([[0, 1, 0], [1, 0, 0], [0, 0.5, 0.5]], "s2"),
    ])
    def test_hitting_times_unreachable_targets(self, rows, target):
        with pytest.raises(NoConvergence):
            hitting_times(dense_matrix(rows), target)


class TestBuilders:
    def test_unknown_kind(self):
        with pytest.raises(UnknownChainKind):
            build_chain("wat", scenario(), coupling())

    def test_cam_state_count(self):
        m = build_chain("cam", scenario(t_c=100), coupling())
        assert m.n == 200

    def test_queue_state_count(self):
        m = build_chain("queue", scenario(m=10), coupling())
        assert m.n == 11

    def test_cv2x_state_count_regression(self):
        # frozen after counting the built matrix: idle + (Gamma-1) + R_h * Gamma
        m = build_chain("cv2x", scenario(gamma=20, t_c=100), coupling())
        assert m.n == 1 + 19 + 75 * 20 == 1520

    def test_dot11p_state_count(self):
        m = build_chain("dot11p", scenario(), coupling())
        # idle + Omega + tx + 14 stages * (tx + Omega - 1 + 1) + tx
        assert m.n == 1 + 9 + 14 + 14 * (14 + 8 + 1) + 14 == 360

    @pytest.mark.parametrize("kind", ["cam", "denm", "queue", "cv2x", "dot11p"])
    def test_rows_stochastic_and_solvable(self, kind):
        m = build_chain(kind, scenario(t_c=120, t_d=110, gamma=50), coupling())
        pi = solve_steady_state(m)
        assert pi.residual <= 1e-10

    def test_backoff_stage_zero_weight_doubled(self):
        # stage draw at the end of the busy line: stage 0 carries twice the
        # weight of any other stage, and stage 1 does not exist
        s = scenario()
        m = build_chain("dot11p", s, coupling(theta=0.3))
        row = m.rows[m.labels["b,14"]]
        w0 = row[m.labels["bo,0,a,1"]]
        for stage in range(2, 15):
            assert abs(row[m.labels[f"bo,{stage},a,1"]] - w0 / 2) < 1e-15
        assert "bo,1,a,1" not in m.labels
        assert "sense,1" not in m.labels

    def test_cam_p_t_one_is_pure_cycle(self):
        m = build_chain("cam", scenario(t_c=100), coupling(p_t=1.0))
        pi = solve_steady_state(m)
        assert abs(pi["tx,0"] - 1.0 / 100) < 1e-12
        assert all(pi[f"txp,{j}"] == 0.0 for j in range(100))


# the smallest valid shape of every chain: one waiting state, one RC row, a
# two-subframe DENM period with K = 1, a one-packet queue, Omega = 2 and a
# one-slot transmission
SMALLEST = ScenarioConfig(
    traffic=TrafficParams(t_d=2, k=1, m=1),
    cv2x=Cv2xParams(gamma=2, r_low=1, r_high=1, p_rk=0.8),
    dot11p=Dot11pParams(c_min=3, aifsn=2, sifs_us=0.0, tx_slots=1))


@pytest.mark.parametrize("kind", CHAIN_KINDS)
def test_smallest_shapes_match_oracle(kind):
    s = SMALLEST.validate()
    assert s.dot11p.omega == 2
    c = coupling(p_t=0.3, p_qe=0.4, p_arr=0.2, theta=0.3, alpha=0.2, alpha1=0.1, beta=0.3)
    closed = {"cam": solve_cam(s.traffic, c.p_t), "denm": solve_denm(s.traffic, c.p_t),
              "queue": solve_queue(c.alpha, c.alpha1, c.beta, s.traffic.m),
              "cv2x": solve_cv2x(s.cv2x, c.p_qne),
              "dot11p": solve_dot11p(s.dot11p, c.h, c.theta)}
    assert oracle_gap(kind, s, closed[kind], c) < 1e-9


def dense(m):
    p = np.zeros((m.n, m.n))
    for i, row in enumerate(m.rows):
        for j, v in row.items():
            p[i, j] = v
    return p


def dense_steady_state(m):
    """pi from a dense solve of (P^T - I) pi = 0 with its last row made sum(pi) = 1."""
    a = dense(m).T - np.eye(m.n)
    a[-1] = 1.0
    b = np.zeros(m.n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def dense_hitting_times(m, target):
    """d from a dense solve of (I - Q) d = 1, with 0 at the target."""
    keep = np.arange(m.n) != m.labels[target]
    q = dense(m)[np.ix_(keep, keep)]
    d = np.zeros(m.n)
    d[keep] = np.linalg.solve(np.eye(m.n - 1) - q, np.ones(m.n - 1))
    return d


# every chain at its smallest shape and at a few shapes of at most 300 states,
# each with a target that every state reaches; the state reduction is checked
# against dense numpy.linalg solves, which share none of its code
SMALL_CHAINS = [
    ("cam", SMALLEST, coupling(p_t=0.3), "tx,0"),
    ("denm", SMALLEST, coupling(p_t=0.3), "idle"),
    ("queue", SMALLEST, coupling(alpha=0.2, alpha1=0.1, beta=0.3), "q0"),
    ("cv2x", SMALLEST, coupling(p_qe=0.4, p_arr=0.2), "rc,1,0"),
    ("dot11p", SMALLEST, coupling(theta=0.3, p_qe=0.4, p_arr=0.2), "idle"),
    ("cam", scenario(t_c=100), coupling(p_t=0.01), "txp,0"),
    ("cam", scenario(t_c=100), coupling(p_t=0.9), "tx,50"),
    ("denm", scenario(t_d=100, k=5), coupling(p_t=0.3), "idle"),
    ("denm", scenario(t_d=100, k=1, lam=1e3), coupling(p_t=0.6), "tx,0"),
    ("queue", scenario(m=10), coupling(alpha=0.2, alpha1=0.1, beta=0.3), "q5"),
    ("queue", scenario(m=299), coupling(alpha=0.25, alpha1=0.2, beta=0.3), "q0"),
    ("cv2x", scenario(gamma=20, r_low=3, r_high=9), coupling(p_qe=0.4, p_arr=0.2), "w,7"),
    ("cv2x", scenario(gamma=10, r_low=5, r_high=15), coupling(p_qe=0.9, p_arr=0.01),
     "rc,1,0"),
    ("dot11p", ScenarioConfig(dot11p=Dot11pParams(c_min=15, aifsn=3, tx_slots=6)).validate(),
     coupling(theta=0.9, p_qe=0.4, p_arr=0.2), "idle"),
    ("dot11p", ScenarioConfig(dot11p=Dot11pParams(c_min=31, aifsn=2, tx_slots=4)).validate(),
     coupling(theta=0.3, p_qe=0.9, p_arr=0.05), "sense,0"),
]
SMALL_IDS = [f"{kind}-{m}-{target}" for m, (kind, _, _, target) in enumerate(SMALL_CHAINS)]


@pytest.mark.parametrize("kind,s,c,target", SMALL_CHAINS, ids=SMALL_IDS)
def test_steady_state_matches_a_dense_solve(kind, s, c, target):
    m = build_chain(kind, s, c)
    assert m.n <= 300
    assert np.max(np.abs(solve_steady_state(m).probs - dense_steady_state(m))) <= 1e-13


@pytest.mark.parametrize("kind,s,c,target", SMALL_CHAINS, ids=SMALL_IDS)
def test_hitting_times_match_a_dense_solve(kind, s, c, target):
    m = build_chain(kind, s, c)
    d = hitting_times(m, target)
    want = dense_hitting_times(m, target)
    assert d[target] == 0.0
    for label, k in m.labels.items():
        assert d[label] == pytest.approx(want[k], rel=1e-12)


@pytest.mark.parametrize("s", [SMALLEST, scenario(gamma=20, r_low=3, r_high=9)])
def test_cv2x_idle_gets_exactly_zero(s):
    # nothing enters idle: the reduction stops above it and idle reaches the root
    m = build_chain("cv2x", s.validate(), coupling(p_qe=0.4, p_arr=0.2))
    pi = solve_steady_state(m)
    assert pi["idle"] == 0.0 and min(pi.probs[1:]) > 0.0
    assert np.max(np.abs(pi.probs - dense_steady_state(m))) <= 1e-13
    with pytest.raises(NoConvergence):
        hitting_times(m, "idle")


@given(st.integers(min_value=2, max_value=25), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_random_sparse_chains_match_dense_solves(n, rnd):
    # a random sparse chain made irreducible by a cycle through every state
    rng = np.random.default_rng(rnd.randrange(2 ** 32))
    rows = rng.random((n, n)) * (rng.random((n, n)) < 0.2)
    rows[np.arange(n), (np.arange(n) + 1) % n] += rng.random(n) + 0.01
    rows /= rows.sum(axis=1, keepdims=True)
    m = dense_matrix(rows)
    assert np.max(np.abs(solve_steady_state(m).probs - dense_steady_state(m))) <= 1e-13
    target = f"s{rng.integers(n)}"
    d = hitting_times(m, target)
    want = dense_hitting_times(m, target)
    assert [d[f"s{k}"] for k in range(n)] == pytest.approx(list(want), rel=1e-12)
