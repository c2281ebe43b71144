"""Generator and queue closed forms against the chain oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_helpers import coupling, oracle_gap, scenario
from v2xmac.chains import closed_form_states
from v2xmac.config import ScenarioConfig, TrafficParams
from v2xmac.coupling import solve_coupled
from v2xmac.errors import (ConfigParseError, DegenerateQueue,
                           DegenerateTransmitProbability, ModelValidityError)
from v2xmac.traffic import (combine_transition_probs, per_slot_rate,
                            per_subframe_prob, solve_cam, solve_denm,
                            solve_queue)


class TestCam:
    def test_always_transmit_is_periodic(self):
        sol = solve_cam(TrafficParams(t_c=100), 1.0)
        assert abs(sol.pi_tx[0] - 1.0 / 100) < 1e-12
        assert np.all(sol.pi_txp == 0.0)

    def test_known_point_matches_oracle_value(self):
        # T_C=5 is below the standard range but pins the algebra: 6/31
        s = scenario(t_c=100)
        sol = solve_cam(s.traffic, 0.5)
        assert oracle_gap("cam", s, sol, coupling(p_t=0.5)) < 1e-12
        p = TrafficParams.__new__(TrafficParams)  # bypass range check for T_C=5
        object.__setattr__(p, "t_c", 5)
        sol5 = solve_cam(p, 0.5)
        assert abs(sol5.pi_tx[0] - 6.0 / 31.0) < 1e-12

    @pytest.mark.parametrize("t_c,p_t", [(100, 0.01), (250, 0.3), (1000, 0.007),
                                         (100, 0.9), (130, 1.0)])
    def test_matches_oracle(self, t_c, p_t):
        s = scenario(t_c=t_c)
        sol = solve_cam(s.traffic, p_t)
        assert oracle_gap("cam", s, sol, coupling(p_t=p_t)) < 1e-9

    @given(st.integers(min_value=100, max_value=1000),
           st.floats(min_value=0.005, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_normalization(self, t_c, p_t):
        s = scenario(t_c=t_c)
        sol = solve_cam(s.traffic, p_t)
        assert abs(sum(closed_form_states("cam", s, sol).values()) - 1.0) < 1e-10

    def test_rejects_zero_p_t(self):
        with pytest.raises(DegenerateTransmitProbability):
            solve_cam(TrafficParams(), 0.0)


class TestDenm:
    def test_k1_collapses_repetitions(self):
        p = TrafficParams(k=1, lam=1.0)
        sol = solve_denm(p, 0.7)
        sigma = p.sigma
        assert abs(sol.pi_tx[0] - 1.0 / (1.0 + 1.0 / sigma)) < 1e-12
        assert np.all(sol.pi_txp == 0.0)
        assert np.all(sol.pi_tx[1:] == 0.0)

    @pytest.mark.parametrize("solve,params", [
        (solve_denm, TrafficParams(t_d=1)), (solve_cam, TrafficParams(t_c=1))])
    def test_rejects_period_below_two(self, solve, params):
        # unvalidated params: the closed form would divide by 1 - (1 - P_t)^0
        with pytest.raises(ModelValidityError):
            solve(params, 0.5)

    @pytest.mark.parametrize("tech", ["cv2x", "dot11p"])
    def test_coupled_solve_rejects_t_d_one(self, tech):
        with pytest.raises(ConfigParseError):
            solve_coupled(tech, ScenarioConfig(n=50, traffic=TrafficParams(t_d=1)))

    def test_instant_retrigger_limit(self):
        # lambda * 1 ms -> inf with K=1 alternates idle <-> transmit
        p = TrafficParams(k=1, lam=1e12)
        sol = solve_denm(p, 0.3)
        assert abs(sol.pi_tx[0] - 0.5) < 1e-9

    @pytest.mark.parametrize("t_d,k,lam,p_t", [
        (100, 5, 1.0, 0.9), (100, 5, 1.0, 0.01), (300, 9, 0.2, 0.3),
        (200, 2, 0.2, 0.6), (100, 9, 1.0, 0.004),
    ])
    def test_matches_oracle(self, t_d, k, lam, p_t):
        s = scenario(t_d=t_d, k=k, lam=lam)
        sol = solve_denm(s.traffic, p_t)
        assert oracle_gap("denm", s, sol, coupling(p_t=p_t)) < 1e-9

    @given(st.integers(min_value=50, max_value=400),
           st.integers(min_value=1, max_value=9),
           st.floats(min_value=0.05, max_value=2.0),
           st.floats(min_value=0.005, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_normalization(self, t_d, k, lam, p_t):
        s = scenario(t_d=t_d, k=k, lam=lam)
        sol = solve_denm(s.traffic, p_t)
        assert abs(sum(closed_form_states("denm", s, sol).values()) - 1.0) < 1e-10


class TestGenerationRate:
    @pytest.mark.parametrize("p_t", [0.01, 0.3, 1.0])
    def test_cam_one_packet_per_period(self, p_t):
        sol = solve_cam(TrafficParams(t_c=250), p_t)
        assert sol.generation_rate == pytest.approx(1.0 / 250, rel=1e-12)

    def test_denm_k_packets_per_train(self):
        # at P_t = 1 nothing blocks: one cycle is the idle wait 1/sigma, K - 1
        # repetition intervals and the closing generation instant
        params = TrafficParams(t_d=100, k=5, lam=1.0)
        cycle = 1.0 / params.sigma + (params.k - 1) * params.t_d + 1
        sol = solve_denm(params, 1.0)
        assert sol.generation_rate == pytest.approx(params.k / cycle, rel=1e-12)


class TestUnitConversion:
    def test_per_slot_rate_scales_with_step(self):
        assert per_slot_rate(0.01, 13.0) == pytest.approx(1.3e-4, rel=1e-12)
        assert per_slot_rate(0.01, 1000.0) == pytest.approx(0.01, rel=1e-12)

    def test_per_subframe_prob(self):
        assert per_subframe_prob(0.0, 13.0) == 0.0
        assert per_subframe_prob(0.2, 1000.0) == pytest.approx(0.2, rel=1e-12)
        assert per_subframe_prob(1e-3, 13.0) == pytest.approx(
            1.0 - (1.0 - 1e-3) ** (1000.0 / 13.0), rel=1e-12)


class TestCombine:
    def test_union_rule_degenerate_operands(self):
        from v2xmac.traffic import _union
        assert _union(0.0, 0.37) == 0.37
        assert _union(0.42, 0.0) == 0.42
        assert _union(1.0, 1.0) == 1.0
        assert _union(1.0, 0.3) == 1.0

    def test_union_rule_edges(self):
        p = TrafficParams()
        cam = solve_cam(p, 0.4)
        denm = solve_denm(p, 0.4)
        alpha, alpha1, beta, p_arr = combine_transition_probs(cam, denm, p)
        a_c = cam.pi_txp[0]
        a_d = denm.pi_txp[0]
        assert abs(alpha - (a_c + a_d - a_c * a_d)) < 1e-15
        assert 0.0 <= p_arr <= 1.0

    def test_p_arr_formula(self):
        p = TrafficParams(lam=1.0)
        cam = solve_cam(p, 0.4)
        denm = solve_denm(p, 0.4)
        _, _, _, p_arr = combine_transition_probs(cam, denm, p)
        sigma = p.sigma
        expect = cam.pi_tx[0] + sigma - cam.pi_tx[0] * sigma
        assert abs(p_arr - expect) < 1e-15


class TestQueue:
    def test_no_arrivals_while_empty(self):
        sol = solve_queue(0.2, 0.0, 0.5, 10)
        assert sol.p_qe == 1.0
        assert np.all(sol.pi[1:] == 0.0)

    def test_alpha_equals_beta_limit(self):
        # Eq-form 0/0 point: the geometric sum gives the analytic limit,
        # and it matches the matrix solve
        sol = solve_queue(0.3, 0.25, 0.3, 10)
        assert abs(sol.p_qe - 1.0 / (1.0 + 0.25 * 10 / 0.3)) < 1e-12
        assert oracle_gap("queue", scenario(m=10), sol,
                          coupling(alpha=0.3, alpha1=0.25, beta=0.3)) < 1e-10

    @pytest.mark.parametrize("alpha,alpha1,beta,m_cap", [
        (0.2, 0.3, 0.5, 10), (0.01, 0.02, 0.015, 10), (0.4, 0.1, 0.45, 3),
        (0.0, 0.2, 0.3, 10),
    ])
    def test_matches_oracle(self, alpha, alpha1, beta, m_cap):
        sol = solve_queue(alpha, alpha1, beta, m_cap)
        assert oracle_gap("queue", scenario(m=m_cap), sol,
                          coupling(alpha=alpha, alpha1=alpha1, beta=beta)) < 1e-10

    def test_degenerate_queue(self):
        with pytest.raises(DegenerateQueue):
            solve_queue(0.1, 0.2, 0.0, 10)

    @given(st.floats(min_value=0.01, max_value=0.45),
           st.floats(min_value=0.01, max_value=0.5),
           st.floats(min_value=0.01, max_value=0.5),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_geometric_sum_reproduces_closed_ratio(self, alpha, alpha1, beta, m_cap):
        # the bracketed term of the pi_0 closed form equals the geometric sum
        if abs(alpha - beta) < 1e-6:
            return
        sol = solve_queue(alpha, alpha1, beta, m_cap)
        bracket = alpha1 * (1.0 - beta ** (-m_cap) * alpha ** m_cap) / (beta - alpha)
        assert abs(sol.p_qe - 1.0 / (1.0 + bracket)) < 1e-12

    @given(st.floats(min_value=0.001, max_value=0.4),
           st.floats(min_value=0.001, max_value=0.4),
           st.floats(min_value=0.001, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_mass_and_support(self, alpha, alpha1, beta):
        sol = solve_queue(alpha, alpha1, beta, 10)
        assert abs(sol.pi.sum() - 1.0) < 1e-10
        assert np.all(sol.pi >= 0.0)


class TestMonotonicity:
    def _p_qe(self, lam, p_t):
        p = TrafficParams(lam=lam)
        cam = solve_cam(p, p_t)
        denm = solve_denm(p, p_t)
        alpha, alpha1, beta, _ = combine_transition_probs(cam, denm, p)
        return solve_queue(alpha, alpha1, beta, p.m).p_qe

    def test_p_qe_nonincreasing_in_lambda(self):
        for p_t in (0.01, 0.05, 0.3):
            vals = [self._p_qe(lam, p_t) for lam in (0.2, 0.5, 1.0, 2.0)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_p_qe_nondecreasing_in_p_t(self):
        for lam in (0.2, 1.0):
            vals = [self._p_qe(lam, p_t) for p_t in (0.005, 0.02, 0.1, 0.5)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_blocked_mass_decreasing_in_p_t(self):
        # more transmit opportunities leave less probability in blocked states
        for j in (0, 40, 99):
            vals = [solve_cam(TrafficParams(), p_t).pi_txp[j]
                    for p_t in (0.01, 0.1, 0.4, 0.9)]
            assert all(b < a for a, b in zip(vals, vals[1:]))
