"""C-V2X Mode 4 closed form against the chain oracle."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_helpers import coupling, oracle_gap, scenario
from v2xmac.chains import closed_form_states
from v2xmac.config import ScenarioConfig
from v2xmac.config import Cv2xParams
from v2xmac.cv2x import solve_cv2x
from v2xmac.errors import SaturatedQueue

TRIPLES = [(100, 5, 15), (50, 10, 30), (20, 25, 75)]


class TestClosedForm:
    @pytest.mark.parametrize("gamma,r_low,r_high", TRIPLES)
    @pytest.mark.parametrize("p_rk", [0.0, 0.4, 0.8])
    @pytest.mark.parametrize("p_qne", [0.3, 0.7, 0.99])
    def test_matches_oracle_standard_grid(self, gamma, r_low, r_high, p_rk, p_qne):
        s = scenario(gamma=gamma, r_low=r_low, r_high=r_high, p_rk=p_rk)
        sol = solve_cv2x(s.cv2x, p_qne)
        assert oracle_gap("cv2x", s, sol, coupling(p_qe=1.0 - p_qne, p_arr=0.2)) < 1e-9

    def test_full_scheduling_empties_idle(self):
        sol = solve_cv2x(Cv2xParams(), 0.6)
        assert sol.pi_idle == 0.0

    @given(st.sampled_from(TRIPLES),
           st.floats(min_value=0.0, max_value=0.8),
           st.floats(min_value=0.05, max_value=0.999))
    @settings(max_examples=25, deadline=None)
    def test_mass_is_one(self, triple, p_rk, p_qne):
        gamma, r_low, r_high = triple
        s = ScenarioConfig(cv2x=Cv2xParams(gamma=gamma, r_low=r_low, r_high=r_high,
                                           p_rk=p_rk))
        sol = solve_cv2x(s.cv2x, p_qne)
        assert abs(sum(closed_form_states("cv2x", s, sol).values()) - 1.0) < 1e-10

    def test_saturated_queue_rejected(self):
        with pytest.raises(SaturatedQueue):
            solve_cv2x(Cv2xParams(), 0.0)

    def test_longer_window_does_not_raise_opportunity_rate(self):
        vals = []
        for gamma, r_low, r_high in TRIPLES:
            sol = solve_cv2x(Cv2xParams(gamma=gamma, r_low=r_low, r_high=r_high), 0.6)
            vals.append((gamma, sol.p_txo))
        vals.sort()
        assert vals[0][1] >= vals[1][1] >= vals[2][1]
        assert all(0.0 < p <= 1.0 for _, p in vals)


class TestTransmitProbability:
    def test_product_form(self):
        sol = solve_cv2x(Cv2xParams(), 0.6)
        assert sol.p_t == pytest.approx(sol.p_txo * 0.6)
