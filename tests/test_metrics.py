"""Collision, delay and utilization formulas."""
import numpy as np
import pytest

from conftest import scenario
from v2xmac.config import Cv2xParams, Dot11pParams
from v2xmac.coupling import solve_coupled
from v2xmac.cv2x import solve_cv2x
from v2xmac.dot11p import solve_dot11p, state_delays
from v2xmac.errors import EmptySystem, ResourceExhaustion
from v2xmac.metrics import (avg_delay_cv2x, avg_delay_dot11p,
                            channel_utilization, collision_prob_cv2x,
                            collision_prob_dot11p, evaluate_fixed_point)
from v2xmac.traffic import QueueSolution


def cv2x_sol(p_qne=0.6, p_arr=0.2, params=None):
    return solve_cv2x(params or Cv2xParams(), 1.0 - p_qne, p_qne, p_arr)


def queue_sol(pi):
    pi = np.asarray(pi, dtype=float)
    return QueueSolution(pi=pi, p_qe=float(pi[0]), alpha=0.1, alpha1=0.1,
                         beta=0.3, p_arr=0.1)


class TestCollisionCv2x:
    def test_single_vehicle(self):
        assert collision_prob_cv2x(cv2x_sol(), Cv2xParams(), 1) == 0.0

    def test_monotone_in_n(self):
        sol = cv2x_sol()
        vals = [collision_prob_cv2x(sol, Cv2xParams(), n)
                for n in (2, 50, 100, 200, 300)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_resource_exhaustion(self):
        with pytest.raises(ResourceExhaustion):
            collision_prob_cv2x(cv2x_sol(), Cv2xParams(gamma=20, r_low=25, r_high=75), 501)

    def test_keep_probability_reduces_collisions(self):
        lo = collision_prob_cv2x(cv2x_sol(params=Cv2xParams(p_rk=0.8)),
                                 Cv2xParams(p_rk=0.8), 100)
        hi = collision_prob_cv2x(cv2x_sol(params=Cv2xParams(p_rk=0.0)),
                                 Cv2xParams(p_rk=0.0), 100)
        assert lo < hi

    def test_short_cycle_is_model_validity_error(self):
        # the overlap product needs the (1,0) cycle to exceed the window
        import dataclasses
        from v2xmac.errors import ModelValidityError
        sol = cv2x_sol()
        rc = sol.pi_rc.copy()
        rc[1, 0] = 0.2  # cycle time 5 < Gamma - 1
        fake = dataclasses.replace(sol, pi_rc=rc)
        with pytest.raises(ModelValidityError):
            collision_prob_cv2x(fake, Cv2xParams(), 100)


class TestCollisionDot11p:
    def test_single_vehicle_idle_channel(self):
        sol = solve_dot11p(Dot11pParams(), 0.6, 0.2, 0.0)
        assert collision_prob_dot11p(sol, 1) == 0.0

    def test_monotone_in_n(self):
        sol = solve_dot11p(Dot11pParams(), 0.5, 0.2, 0.4)
        vals = [collision_prob_dot11p(sol, n) for n in (2, 10, 50, 100, 300)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestDelays:
    def test_single_slot_queue_half_cycle(self):
        q = queue_sol([0.4, 0.6])
        d = avg_delay_cv2x(q, 0.01)
        assert d == pytest.approx(1.0 / (2 * 0.01))

    def test_linear_in_inverse_opportunity(self):
        q = queue_sol([0.3, 0.4, 0.2, 0.1])
        assert avg_delay_cv2x(q, 0.02) == pytest.approx(avg_delay_cv2x(q, 0.01) / 2)

    def test_empty_system_rejected(self):
        with pytest.raises(EmptySystem):
            avg_delay_cv2x(queue_sol([1.0, 0.0]), 0.01)

    def test_dot11p_idle_channel_delay(self):
        params = Dot11pParams()
        d = avg_delay_dot11p(state_delays(params, 0.0))
        # A-line plus transmission, in slots
        assert d == pytest.approx(params.tx_slots + params.omega)

    def test_dot11p_delay_continuous_at_idle_channel(self):
        params = Dot11pParams()
        d0, d1 = (avg_delay_dot11p(state_delays(params, theta)) for theta in (0.0, 1e-9))
        assert abs(d1 - d0) <= 1e-6

    @pytest.mark.parametrize("theta", [0.0, 0.2, 0.7])
    def test_dot11p_delay_obeys_littles_law(self, theta):
        # busy-MAC mass per service start = slots from A_1 to the end of Tx
        params = Dot11pParams()
        sol = solve_dot11p(params, 0.6, 0.2, theta)
        d = avg_delay_dot11p(state_delays(params, theta))
        assert d == pytest.approx((1.0 - sol.pi_idle) / sol.pi_a[0], rel=1e-12)

    def test_dot11p_delay_grows_with_theta(self):
        params = Dot11pParams()
        vals = []
        for theta in (0.1, 0.3, 0.5, 0.7):
            vals.append(avg_delay_dot11p(state_delays(params, theta)))
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestChannelUtilization:
    def test_all_collisions_zero_utilization(self):
        assert channel_utilization("cv2x", 0.5, 100, 1.0) == 0.0
        assert channel_utilization("dot11p", 0.5, 100, 1.0) == 0.0

    def test_cv2x_normalized_by_csrs_per_subframe(self):
        assert channel_utilization("cv2x", 0.01, 100, 0.0) == pytest.approx(0.04)
        assert channel_utilization("dot11p", 0.01, 100, 0.0) == pytest.approx(1.0)

    def test_structural_reduction(self):
        # with one CSR per subframe both forms coincide
        assert channel_utilization("cv2x", 0.3, 10, 0.2, csrs_per_subframe=1) \
            == pytest.approx(channel_utilization("dot11p", 0.3, 10, 0.2))


class TestEvaluate:
    def test_cv2x_report_fields(self):
        s = scenario(n=100)
        rep = solve_coupled("cv2x", s)
        m = evaluate_fixed_point(rep, s)
        assert m.tech == "cv2x"
        assert m.csr_total == 2500
        assert m.p_txo is not None and 0 < m.p_txo < 1
        assert m.d_avg_ms > 0 and 0 <= m.p_col <= 1 and m.cu_avg >= 0

    def test_dot11p_report_fields(self):
        s = scenario(n=100)
        rep = solve_coupled("dot11p", s)
        m = evaluate_fixed_point(rep, s)
        assert m.tech == "dot11p"
        assert m.p_txo is None
        assert 0 < m.theta < 1
        assert m.d_avg_ms > 0
