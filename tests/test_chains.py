"""Oracle solver and explicit chain builders."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

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
    return TransitionMatrix(rows=csr_matrix(rows), labels=labels)


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
        rows = m.rows.toarray()
        src = m.labels["b,14"]
        w0 = rows[src, m.labels["bo,0,a,1"]]
        for stage in range(2, 15):
            assert abs(rows[src, m.labels[f"bo,{stage},a,1"]] - w0 / 2) < 1e-15
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
    cv2x=Cv2xParams(gamma=2, r_low=1, r_high=1, p_rk=0.8, p_sch=0.5),
    dot11p=Dot11pParams(c_min=3, aifsn=2, sifs_us=0.0, tx_slots=1))


@pytest.mark.parametrize("kind", CHAIN_KINDS)
def test_smallest_shapes_match_oracle(kind):
    s = SMALLEST.validate()
    assert s.dot11p.omega == 2
    c = coupling(p_t=0.3, p_qe=0.4, p_arr=0.2, theta=0.3, alpha=0.2, alpha1=0.1, beta=0.3)
    closed = {"cam": solve_cam(s.traffic, c.p_t), "denm": solve_denm(s.traffic, c.p_t),
              "queue": solve_queue(c.alpha, c.alpha1, c.beta, s.traffic.m),
              "cv2x": solve_cv2x(s.cv2x, c.p_qe, c.p_qne, c.p_arr),
              "dot11p": solve_dot11p(s.dot11p, c.p_qe, c.p_arr, c.theta)}
    assert oracle_gap(kind, s, closed[kind], c) < 1e-9
