"""Fixed-point engine: convergence, self-consistency, initial-condition independence."""
import pytest

import dataclasses
import math

from chain_helpers import scenario
from v2xmac.config import Dot11pParams, ScenarioConfig
from v2xmac.coupling import (CouplingState, adaptive_cam_rate,
                             conserving_idle_exit, resolve_adaptive_t_c,
                             solve_coupled, _cv2x_map, _search_range, _sweep)
from v2xmac.dot11p import solve_dot11p, update_theta
from v2xmac.errors import (ConfigParseError, DegenerateTransmitProbability, NoFixedPoint,
                           SaturatedQueue, V2xMacError)


def _dot11p_flows(rep, s):
    """(transmitted + dropped, generated) packets/s at an 802.11p fixed point."""
    p = s.dot11p
    tx_per_s = rep.state.p_t / p.tx_slots * 1e6 / p.slot_us
    return tx_per_s + rep.dropped_per_s, rep.generated_per_s


class TestSolveCoupled:
    def test_cv2x_converges_at_defaults(self):
        rep = solve_coupled("cv2x", scenario())
        assert rep.converged
        assert rep.residual <= 1e-8
        assert 0.0 < rep.state.p_t < 1.0
        assert rep.state.theta == 0.0

    def test_dot11p_converges_at_defaults(self):
        rep = solve_coupled("dot11p", scenario(n=50))
        assert rep.converged

    def test_dot11p_theta_self_consistent(self):
        rep = solve_coupled("dot11p", scenario(n=50), tolerance=1e-10)
        assert rep.state.theta == pytest.approx(
            update_theta(rep.state.p_t, 50), abs=1e-8)

    def test_determinism(self):
        a = solve_coupled("cv2x", scenario())
        b = solve_coupled("cv2x", scenario())
        assert a.state == b.state
        assert a.iterations == b.iterations

    def test_default_point_regression(self):
        # Gamma=100 defaults, N=50, pinned to a damped fixed-point iteration
        # run to a step of 1e-13, far below the pin's 1e-10
        rep = solve_coupled("cv2x", scenario(n=50))
        assert rep.state.p_t == pytest.approx(0.007523999687441279, abs=1e-10)
        assert rep.state.p_qe == pytest.approx(0.13341380876388642, abs=1e-10)
        assert rep.state.p_arr == pytest.approx(0.006278463828341107, abs=1e-10)

    def test_cv2x_p_t_read_back_consistent(self):
        # the converged linking P_t equals the MAC solution's own product
        rep = solve_coupled("cv2x", scenario(), tolerance=1e-12)
        assert rep.state.p_t == pytest.approx(rep.cv2x.p_t, abs=1e-10)
        assert rep.cv2x.p_t == pytest.approx(
            rep.cv2x.p_txo * (1.0 - rep.state.p_qe), abs=1e-10)

    def test_self_consistency_one_sweep(self):
        # feeding the converged P_t back through one undamped sweep moves nothing
        s = scenario()
        rep = solve_coupled("cv2x", s, tolerance=1e-12)
        sweep = _sweep("cv2x", s, rep.state.p_t)
        assert abs(sweep.residual) <= 1e-8
        assert sweep.state == rep.state

    @pytest.mark.parametrize("tech", ["cv2x", "dot11p"])
    def test_initial_condition_independence(self, tech):
        s = scenario(n=100)
        guesses = [
            CouplingState(p_t=0.01, p_qe=0.9, p_arr=0.0, theta=0.1),
            CouplingState(p_t=0.5, p_qe=0.1, p_arr=0.0, theta=0.5),
            CouplingState(p_t=0.99, p_qe=0.5, p_arr=0.0, theta=0.9),
            CouplingState(p_t=0.2, p_qe=0.2, p_arr=0.0, theta=0.0),
            CouplingState(p_t=0.001, p_qe=0.999, p_arr=0.0, theta=0.05),
        ]
        states = [solve_coupled(tech, s, initial=g, tolerance=1e-10).state
                  for g in guesses]
        ref = states[0]
        for st in states[1:]:
            assert abs(st.p_t - ref.p_t) < 1e-7
            assert abs(st.p_qe - ref.p_qe) < 1e-7
            assert abs(st.theta - ref.theta) < 1e-7

    def test_light_load_single_vehicle(self):
        # near-zero DENM load and slowest CAM at N=1: no contention, so the
        # queue is empty except while its one packet is in service, which
        # takes Omega + tx_slots slots on an idle channel; by Little's law
        # the queue is non-empty at most lambda_slot (Omega + tx_slots) of
        # the time
        s = scenario(t_c=1000, lam=1e-6, k=1, n=1)
        rep = solve_coupled("dot11p", s)
        assert rep.state.theta < 1e-6
        assert rep.converged
        p = s.dot11p
        # CAMs per second plus at most K DENMs per trigger
        per_s = 1000.0 / s.traffic.t_c + s.traffic.k * s.traffic.lam
        lambda_slot = per_s * p.slot_us * 1e-6
        assert rep.state.p_qe >= 1.0 - lambda_slot * (p.omega + p.tx_slots)

    @pytest.mark.parametrize("n", [1, 10, 100, 300])
    def test_dot11p_conserves_packets(self, n):
        # solved tighter than the 1e-8 stopping rule so that truncation error
        # stays well below the 1e-6 comparison
        s = scenario(n=n)
        rep = solve_coupled("dot11p", s, tolerance=1e-12)
        out, generated = _dot11p_flows(rep, s)
        assert out == pytest.approx(generated, rel=1e-6)
        assert rep.dropped_per_s == 0.0

    def test_dot11p_saturated_mac_drops_excess(self):
        # a nine-copy DENM train every 2 ms outruns the MAC of 20 vehicles
        s = scenario(n=20, t_d=2, lam=100.0, k=9)
        rep = solve_coupled("dot11p", s, tolerance=1e-12)
        out, generated = _dot11p_flows(rep, s)
        assert out == pytest.approx(generated, rel=1e-6)
        assert rep.dropped_per_s > 0.1 * generated
        assert rep.state.p_qe < 1e-9

    @pytest.mark.parametrize("n, theta", [(1600, 0.974043), (2000, 0.978177),
                                          (3000, 0.984158)])
    def test_dot11p_converges_at_high_n(self, n, theta):
        # the MAC saturates here; the undamped sweep map has a single root
        s = scenario(n=n)
        rep = solve_coupled("dot11p", s)
        assert rep.converged
        assert rep.state.theta == pytest.approx(theta, abs=1e-6)
        assert rep.state.theta == update_theta(rep.state.p_t, n)
        out, generated = _dot11p_flows(rep, s)
        assert out == pytest.approx(generated, rel=1e-9)
        assert rep.dropped_per_s > 0.0

    @pytest.mark.parametrize("tech", ["cv2x", "dot11p"])
    def test_report_is_the_sweep_at_the_root(self, tech):
        s = scenario(n=300)
        rep = solve_coupled(tech, s)
        sweep = _sweep(tech, s, rep.state.p_t)
        assert sweep.state == rep.state
        assert rep.residual == abs(sweep.residual)
        assert rep.iterations == len(rep.trace)
        assert (rep.state.p_t, sweep.residual) in rep.trace
        mac = rep.cv2x if tech == "cv2x" else rep.dot11p
        assert mac.p_t == sweep.p_t_out

    def test_trace_starts_at_initial_p_t(self):
        s = scenario(n=100)
        start = CouplingState(p_t=0.2, p_qe=0.5, p_arr=0.0, theta=0.0)
        rep = solve_coupled("cv2x", s, initial=start)
        assert rep.trace[0][0] == 0.2
        # the second end of the bracket is G(start) = start - f(start)
        assert rep.trace[1][0] == pytest.approx(0.2 - rep.trace[0][1], rel=1e-12)

    def test_no_fixed_point_carries_the_trace(self):
        with pytest.raises(NoFixedPoint) as info:
            solve_coupled("cv2x", scenario(), max_iterations=3)
        assert len(info.value.trace) == 3
        assert all(len(pair) == 2 for pair in info.value.trace)

    def test_theta_monotone_in_n(self):
        thetas = [solve_coupled("dot11p", scenario(n=n)).state.theta
                  for n in (50, 100, 200, 300)]
        assert all(b >= a for a, b in zip(thetas, thetas[1:]))

    def test_unknown_tech(self):
        with pytest.raises(ValueError):
            solve_coupled("wimax", scenario())

    @pytest.mark.parametrize("tech", ["cv2x", "dot11p"])
    @pytest.mark.parametrize("n", [3.5, 20.0])
    def test_unvalidated_scenario_is_refused(self, tech, n):
        # n must be an integer; the solve refuses it rather than return a P_t
        with pytest.raises(ConfigParseError) as err:
            solve_coupled(tech, ScenarioConfig(n=n))
        assert err.value.field == "n"


def _outcome(evaluate):
    """The value `evaluate` returns, or the type of the V2xMacError it raises."""
    try:
        return evaluate()
    except V2xMacError as exc:
        return type(exc)


class TestScalarSweepMap:
    @pytest.mark.parametrize("m", [1, 10])
    @pytest.mark.parametrize("p_rk", [0.0, 0.4, 0.8])
    @pytest.mark.parametrize("gamma", [20, 50, 100])
    def test_is_the_object_sweep_bit_for_bit(self, gamma, p_rk, m):
        # log-spaced across the search range, its ends, and points beyond
        # them at which the generators (P_t = 0, 1e-17) or the MAC (P_t = 1,
        # an always-empty queue) refuse
        s = scenario(gamma=gamma, p_rk=p_rk, m=m)
        low, high = _search_range("cv2x", s)
        span = math.log(high / low)
        p_ts = [low * math.exp(span * i / 40) for i in range(41)] + [
            low, high, 0.0, 1e-17, 1.0]
        outcomes = [(_outcome(lambda: _cv2x_map(s, p_t)),
                     _outcome(lambda: _sweep("cv2x", s, p_t).p_t_out)) for p_t in p_ts]
        for p_t, (scalar, solved) in zip(p_ts, outcomes):
            assert scalar == solved, p_t
        assert {scalar for scalar, _ in outcomes[-3:]} == {DegenerateTransmitProbability,
                                                           SaturatedQueue}
        assert all(isinstance(scalar, float) for scalar, _ in outcomes[:-3])


class TestConservingIdleExit:
    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.6])
    def test_start_rate_equals_arrivals(self, theta):
        params = Dot11pParams()
        h, served = conserving_idle_exit(params, 1e-4, theta)
        assert served == 1e-4
        assert 0.0 < h < 1.0
        sol = solve_dot11p(params, h, theta)
        assert sol.pi_tx[0] == pytest.approx(1e-4, rel=1e-12)

    def test_sweep_map_is_flat_where_every_arrival_is_served(self):
        # with K = 1 neither generation rate depends on P_t, and a MAC below
        # capacity sends exactly what arrives, so G(P_t) = tx_slots P_arr
        s = scenario(n=50, t_c=400, k=1, lam=0.2)
        outs = [_sweep("dot11p", s, p_t).p_t_out
                for p_t in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 2e-2, 5e-2)]
        assert max(outs) - min(outs) <= 1e-14 * min(outs)

    def test_saturated_mac_serves_its_capacity(self):
        params = Dot11pParams()
        h, served = conserving_idle_exit(params, 0.5, 0.3)
        assert h == 1.0
        assert served == pytest.approx(
            solve_dot11p(params, 1.0, 0.3).pi_tx[0], rel=1e-12)
        assert served < 0.5


class TestAdaptiveCamRate:
    def test_policy_floor(self):
        assert adaptive_cam_rate(0.0, 100) == 100
        assert adaptive_cam_rate(0.3, 100) == 100

    def test_policy_ceiling(self):
        assert adaptive_cam_rate(0.9, 100) == 500
        assert adaptive_cam_rate(1.0, 100) == 500

    def test_midpoint(self):
        assert adaptive_cam_rate(0.6, 100) == 300

    def test_clipped_to_standard_range(self):
        assert adaptive_cam_rate(1.0, 300) == 1000

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            adaptive_cam_rate(1.5, 100)

    def test_resolve_is_noop_when_disabled_or_cv2x(self):
        s = scenario(n=300)
        assert resolve_adaptive_t_c("dot11p", s) is s
        s_on = dataclasses.replace(s, adaptive_cam=True)
        assert resolve_adaptive_t_c("cv2x", s_on) is s_on

    def test_resolve_stretches_t_c_under_load(self):
        # theta at N=300 sits above the policy floor, so T_C must grow
        s = dataclasses.replace(scenario(n=300), adaptive_cam=True)
        eff = resolve_adaptive_t_c("dot11p", s)
        assert eff.traffic.t_c > 100
        assert 100 <= eff.traffic.t_c <= 1000
        # deterministic
        assert resolve_adaptive_t_c("dot11p", s).traffic.t_c == eff.traffic.t_c
