"""802.11p closed form, busy-ratio update and state delays."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_helpers import coupling, oracle_gap, scenario
from v2xmac.chains import build_chain, closed_form_states, hitting_times
from v2xmac.config import Dot11pParams, ScenarioConfig
from v2xmac.dot11p import solve_dot11p, state_delays, update_theta
from v2xmac.errors import ChannelSaturated, InvalidArgument, ModelValidityError


class TestClosedForm:
    def test_omega_default(self):
        assert Dot11pParams().omega == 9
        assert Dot11pParams(aifsn=9).omega == 12

    @pytest.mark.parametrize("theta", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_matches_oracle_over_theta(self, theta):
        s = scenario()
        c = coupling(theta=theta, p_qe=0.6, p_arr=0.2)
        sol = solve_dot11p(s.dot11p, c.h, theta)
        assert oracle_gap("dot11p", s, sol, c) < 1e-9

    def test_matches_oracle_alternate_omega(self):
        s = scenario(aifsn=9)
        c = coupling(theta=0.3, p_qe=0.5, p_arr=0.1)
        sol = solve_dot11p(s.dot11p, c.h, 0.3)
        assert oracle_gap("dot11p", s, sol, c) < 1e-9

    def test_idle_channel_empties_busy_states(self):
        params = Dot11pParams()
        sol = solve_dot11p(params, 0.52, 0.0)
        assert np.all(sol.pi_b == 0.0)
        assert np.allclose(sol.pi_a, sol.pi_idle * 0.52)

    @given(st.floats(min_value=0.0, max_value=0.95),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_mass_is_one(self, theta, h):
        s = scenario()
        sol = solve_dot11p(s.dot11p, h, theta)
        assert abs(sum(closed_form_states("dot11p", s, sol).values()) - 1.0) < 1e-10

    def test_saturated_channel_rejected(self):
        with pytest.raises(ChannelSaturated):
            solve_dot11p(Dot11pParams(), 0.55, 1.0)

    @pytest.mark.parametrize("h", [-0.5, -0.001, 1.5, float("nan")])
    def test_idle_exit_outside_unit_interval_rejected(self, h):
        # unchecked, h = -0.5 gave pi_Idle = -0.0185, h = -0.001 gave
        # P_t = -0.0157 and NaN gave NaN
        with pytest.raises(InvalidArgument):
            solve_dot11p(Dot11pParams(), h, 0.3)

    def test_p_t_is_tx_mass(self):
        sol = solve_dot11p(Dot11pParams(), 0.55, 0.25)
        assert sol.p_t == pytest.approx(float(sol.pi_tx.sum()))


class TestUpdateTheta:
    def test_single_vehicle(self):
        assert update_theta(0.3, 1) == 0.0

    def test_silent_network(self):
        assert update_theta(0.0, 50) == 0.0

    def test_known_value(self):
        # 1 - 0.99^100, checked against the brute-force product
        brute = 1.0
        for _ in range(100):
            brute *= 0.99
        assert update_theta(0.01, 101) == pytest.approx(1.0 - brute, abs=1e-15)
        assert update_theta(0.01, 101) == pytest.approx(0.6339676587267709, abs=1e-12)


# delays at the default parameters and theta = 0.3, frozen from the recurrences
FROZEN_DELAYS = [
    ("sense", 0, 24.857142857142858),
    ("sense", 7, 90.0),
    ("busy", 14, 99.72380952380952),
    ("busy", 1, 112.72380952380952),
    ("aifs", 1, 109.98876902274283),
]


class TestStateDelays:
    def test_transmission_delay_is_tx_slots(self):
        t = state_delays(Dot11pParams(), 0.3)
        assert t.state("txm", 1) == 14.0
        assert t.state("txm", 14) == 1.0

    def test_idle_channel_first_sensing_delay(self):
        t = state_delays(Dot11pParams(), 0.0)
        assert t.sense[0] == 1.0 + 14.0

    def test_busy_line_telescopes(self):
        t = state_delays(Dot11pParams(), 0.37)
        assert t.busy[1] - t.busy[14] == pytest.approx(13.0)

    @pytest.mark.parametrize("theta", [0.0, 0.2, 0.5, 0.8])
    def test_nonnegative(self, theta):
        s = ScenarioConfig()
        t = state_delays(s.dot11p, theta)
        for table in (t.sense, t.busy, t.aifs):
            assert all(v >= 0.0 for v in table.values())
        delays = closed_form_states("dot11p", s, t)
        for family in ("txm", "bo", "delta"):
            assert all(v >= 0.0 for label, v in delays.items()
                       if label.startswith(family + ","))

    def test_nondecreasing_in_theta(self):
        grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        prev = None
        for theta in grid:
            t = state_delays(Dot11pParams(), theta)
            cur = (t.sense[0], t.busy[1], t.aifs[1], t.state("delta", (2, 1)))
            if prev is not None:
                assert all(c >= p for c, p in zip(cur, prev))
            prev = cur

    def test_saturated_channel_rejected(self):
        with pytest.raises(ChannelSaturated):
            state_delays(Dot11pParams(), 1.0)

    @pytest.mark.parametrize("family,index,frozen", FROZEN_DELAYS)
    def test_frozen_values(self, family, index, frozen):
        t = state_delays(Dot11pParams(), 0.3)
        assert getattr(t, family)[index] == pytest.approx(frozen, rel=1e-12)

    @pytest.mark.parametrize("aifsn,c_min,tx_slots,theta", itertools.product(
        (2, 6, 9), (3, 15, 31), (1, 14), (0.0, 0.3, 0.95)))
    def test_equal_hitting_times(self, aifsn, c_min, tx_slots, theta):
        # each state's delay is its mean first-passage time to idle on the chain
        s = ScenarioConfig(dot11p=Dot11pParams(aifsn=aifsn, c_min=c_min,
                                               tx_slots=tx_slots)).validate()
        delays = closed_form_states("dot11p", s, state_delays(s.dot11p, theta))
        exact = hitting_times(build_chain("dot11p", s, coupling(theta=theta)), "idle")
        assert set(delays) == set(exact)
        assert delays == pytest.approx(exact, rel=1e-9)


class TestOmegaBelowTwo:
    """Omega = 1 lies outside the chain's domain; every entry point says so."""

    PARAMS = Dot11pParams(aifsn=1, sifs_us=0.0)   # unvalidated, Omega = 1

    def test_state_delays_rejects(self):
        with pytest.raises(ModelValidityError, match="Omega = 1"):
            state_delays(self.PARAMS, 0.3)

    def test_solve_dot11p_rejects(self):
        with pytest.raises(ModelValidityError, match="Omega = 1"):
            solve_dot11p(self.PARAMS, 0.55, 0.3)

    def test_build_chain_rejects(self):
        s = ScenarioConfig(tech="dot11p", n=10, dot11p=self.PARAMS)
        with pytest.raises(ModelValidityError, match="Omega = 1"):
            build_chain("dot11p", s, coupling(theta=0.3))
