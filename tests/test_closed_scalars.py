"""The O(1) scalars the fixed point and the metrics read against the state arrays built on demand.

Each solution's fields are its parameters plus its normalization, which the
solver fixes from family sums. Every other scalar is a property of those
fields, and `state` gives each state's value from them, from which the state
arrays are built only when they are read. These properties check that the
scalars and the arrays agree, and that each solver raises a typed error
exactly outside the domain where its states are probabilities. An array given explicitly is
kept as given, but neither the scalars nor the oracle map read it; a changed
closed-form field reaches both.
"""
import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from v2xmac.chains import closed_form_states
from v2xmac.config import Cv2xParams, Dot11pParams, ScenarioConfig, TrafficParams
from v2xmac.coupling import solve_coupled
from v2xmac.cv2x import solve_cv2x
from v2xmac.dot11p import solve_dot11p, state_delays
from v2xmac.errors import (ChannelSaturated, ConfigParseError, DegenerateQueue,
                           DegenerateTransmitProbability, InvalidArgument, SaturatedQueue,
                           V2xMacError)
from v2xmac.metrics import avg_delay_dot11p, evaluate_fixed_point
from v2xmac.traffic import queue_p_qe, solve_cam, solve_denm, solve_queue

REL = 1e-12
probability = st.floats(min_value=0.0, max_value=1.0)


def _close(scalar, from_arrays):
    return scalar == pytest.approx(from_arrays, rel=REL, abs=0.0)


# ------------------------------------------------------------- generators
@given(t_l=st.integers(2, 1000), p_t=st.floats(1e-3, 1.0), k=st.integers(1, 9),
       lam=st.floats(0.01, 100.0), denm=st.booleans())
@settings(max_examples=200, deadline=None)
def test_generator_scalars_match_arrays(t_l, p_t, k, lam, denm):
    s = ScenarioConfig(traffic=TrafficParams(t_c=t_l, t_d=t_l, k=k, lam=lam))
    sol = (solve_denm if denm else solve_cam)(s.traffic, p_t)
    assert _close(sol.tx_first, float(sol.pi_tx[0]))
    assert _close(sol.txp_first, float(sol.pi_txp[0]))
    assert _close(sol.txp_tail, float(sol.pi_txp[1:].sum()))
    assert _close(sol.generation_rate, float(sol.pi_tx[0] + sol.pi_txp[0]))
    mass = sum(closed_form_states("denm" if denm else "cam", s, sol).values())
    assert abs(mass - 1.0) < 1e-10


@given(p_t=st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, 1e-17, 1e-300]))
@settings(max_examples=100, deadline=None)
def test_generators_reject_degenerate_p_t(p_t):
    degenerate = not 0.0 < p_t <= 1.0 or 1.0 - p_t == 1.0
    for solve in (solve_cam, solve_denm):
        if degenerate:
            with pytest.raises(DegenerateTransmitProbability):
                solve(TrafficParams(), p_t)
        else:
            solve(TrafficParams(), p_t)


# ------------------------------------------------------------------- queue
@given(alpha=probability, alpha1=probability, beta=st.floats(1e-6, 1.0),
       m_cap=st.integers(1, 50))
@settings(max_examples=200, deadline=None)
def test_queue_p_qe_matches_array(alpha, alpha1, beta, m_cap):
    assume(alpha + beta <= 1.0)
    q = solve_queue(alpha, alpha1, beta, m_cap)
    assume(math.isfinite(q.pi.sum()))
    assert _close(q.p_qe, float(q.pi[0]))
    weights = 2.0 * np.arange(1, m_cap + 1) - 1.0
    assert _close(q.delay_sum, float((weights * q.pi[1:]).sum()))


@pytest.mark.parametrize("alpha, alpha1, beta", [
    (-0.1, 0.1, 0.3), (2.0, 0.1, 0.3), (0.1, -0.1, 0.3), (0.1, 1.5, 0.3), (0.1, 0.1, 1.5),
    (0.6, 0.1, 0.5), (math.nan, 0.1, 0.3), (0.1, math.nan, 0.3), (0.1, 0.1, math.nan)])
def test_queue_rejects_rates_that_define_no_chain(alpha, alpha1, beta):
    # the explicit chain needs each rate in [0, 1] and alpha + beta <= 1
    with pytest.raises(DegenerateQueue):
        solve_queue(alpha, alpha1, beta, 10)


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("m_cap", [1, 10])
def test_queue_that_nothing_enters_stays_empty(alpha, m_cap):
    # beta = 0 with alpha1 = 0: no packet ever enters the empty queue
    q = solve_queue(alpha, 0.0, 0.0, m_cap)
    assert q.p_qe == 1.0 and q.delay_sum == 0.0
    assert list(q.pi) == [1.0] + [0.0] * m_cap


@pytest.mark.parametrize("m_cap", [1, 10])
def test_queue_that_nothing_enters_stays_empty_where_its_ratio_overflows(m_cap):
    # alpha1 = 0 with alpha / beta = 3e299, whose powers overflow from M = 3 on
    q = solve_queue(0.3, 0.0, 1e-300, m_cap)
    assert q.p_qe == 1.0 and q.delay_sum == 0.0
    assert list(q.pi) == [1.0] + [0.0] * m_cap


def test_queue_whose_normalization_underflows_is_saturated():
    # alpha / beta = 5e299: the mass above the empty queue overflows, so P_qe
    # would be 0.0 and every state above it 0 times an overflowing power
    for solve in (solve_queue, queue_p_qe):
        with pytest.raises(SaturatedQueue):
            solve(0.5, 0.5, 1e-300, 10)


def test_queue_states_raise_only_typed_errors():
    # log-uniform in-domain rates down to subnormal ones: a solve either
    # raises a V2xMacError or gives finite states and delay weights
    rng = random.Random(25)
    solved = refused = 0
    for _ in range(4000):
        alpha, alpha1, beta = (10.0 ** rng.uniform(-323.0, 0.0) for _ in range(3))
        if alpha + beta > 1.0:
            continue
        m_cap = rng.randint(1, 300)
        try:
            q = solve_queue(alpha, alpha1, beta, m_cap)
            states = [q.state("q", i) for i in range(m_cap + 1)]
            delay_sum = q.delay_sum
        except V2xMacError:
            refused += 1
            continue
        assert all(0.0 <= x < math.inf for x in states), (alpha, alpha1, beta, m_cap)
        assert 0.0 <= delay_sum < math.inf
        solved += 1
    assert solved > 1000 and refused > 100


def test_queue_p_qe_near_alpha_equal_beta():
    # the geometric sum must stay accurate as alpha / beta -> 1
    for alpha in (0.3, 0.3 * (1 + 1e-12), 0.3 * (1 - 1e-9)):
        q = solve_queue(alpha, 0.2, 0.3, 10)
        assert _close(q.p_qe, float(q.pi[0]))


# ------------------------------------------------------------------ 802.11p
@given(theta=st.floats(0.0, 0.99) | st.sampled_from([6.5e-181, 5e-324, 1e-17]),
       h=probability, c_min=st.integers(3, 63), aifsn=st.integers(2, 15),
       tx_slots=st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_dot11p_scalars_match_arrays(theta, h, c_min, aifsn, tx_slots):
    s = ScenarioConfig(dot11p=Dot11pParams(c_min=c_min, aifsn=aifsn, tx_slots=tx_slots))
    sol = solve_dot11p(s.dot11p, h, theta)
    # every family is pi_Idle times its relative mass, so normalizing the
    # arrays gives pi_Idle / mass; 1 - (mass - pi_Idle) would cancel at small pi_Idle
    mass = sum(closed_form_states("dot11p", s, sol).values())
    assert _close(sol.pi_idle, sol.pi_idle / mass)
    assert _close(sol.p_t, float(sol.pi_tx.sum()))
    assert _close(sol.a_last, float(sol.pi_a[-1]))
    assert _close(sol.sense_first, sol.pi_sense[0])


@pytest.mark.parametrize("n", [10, 300, 1600])
def test_metrics_delay_is_the_tables_a1_delay(n):
    s = ScenarioConfig(n=n)
    rep = solve_coupled("dot11p", s)
    d_slots = state_delays(s.dot11p, rep.dot11p.theta).aifs[1]
    assert avg_delay_dot11p(s.dot11p, rep.dot11p.theta) == d_slots
    assert evaluate_fixed_point(rep, s).d_avg_ms == d_slots * s.dot11p.slot_us / 1000.0


@given(theta=st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, 1.0 - 1e-16]))
@settings(max_examples=60, deadline=None)
def test_dot11p_rejects_saturated_channel(theta):
    if 0.0 <= theta < 1.0:
        solve_dot11p(Dot11pParams(), 0.55, theta)
    else:
        with pytest.raises(ChannelSaturated):
            solve_dot11p(Dot11pParams(), 0.55, theta)


# ------------------------------------------------------------------- C-V2X
def _array_check(params, p_qne):
    """(w0, mass, smallest state) of the Mode 4 states assembled as arrays."""
    g, rl, rh = params.gamma, params.r_low, params.r_high
    w_cnt = 1 + rh - rl
    p_rk = params.p_rk
    w0 = 1.0 / ((g / 2.0) * (1.0 - p_rk) + (g - 1.0) * p_rk + (rl - 1) * g / p_qne
                + (w_cnt + 1) / (2.0 * p_qne) + (w_cnt + 1) * (g - 1) / (2.0 * p_qne ** 2))
    shape = (g - 1.0 - np.arange(g - 1)) / (g - 1.0)
    pi_w = w0 * (shape * (1.0 - p_rk) + p_rk)
    pi_rc = np.zeros((rh + 1, g))
    for i in range(1, rh + 1):
        if i >= rl:
            pi_rc[i, 0] = w0 * (rh - i + 1) / (p_qne * w_cnt)
            pi_rc[i, 1:] = w0 * (rh - i + 1) / (p_qne ** 2 * w_cnt)
        else:
            pi_rc[i, :] = w0 / p_qne
    return w0, pi_w.sum() + pi_rc[1:].sum(), min(pi_w.min(), pi_rc.min())


@given(gamma=st.integers(2, 100), r_low=st.integers(1, 30), width=st.integers(0, 30),
       p_rk=st.floats(0.0, 0.8), p_qne=st.floats(0.01, 1.0))
@settings(max_examples=200, deadline=None)
def test_cv2x_p_txo_matches_array(gamma, r_low, width, p_rk, p_qne):
    s = ScenarioConfig(cv2x=Cv2xParams(gamma=gamma, r_low=r_low, r_high=r_low + width,
                                       p_rk=p_rk))
    sol = solve_cv2x(s.cv2x, p_qne)
    assert _close(sol.p_txo, float(sol.pi_rc[1:, 0].sum()))
    assert _close(sol.pi_10, float(sol.pi_rc[1, 0]))
    assert sol.p_t == sol.p_txo * p_qne
    assert abs(sum(closed_form_states("cv2x", s, sol).values()) - 1.0) < 1e-10


@given(gamma=st.integers(2, 100), r_low=st.integers(-2, 30), r_high=st.integers(1, 30),
       p_rk=st.floats(-0.5, 1.5),
       p_qne=st.floats(-0.5, 2.0) | st.sampled_from([math.nan, 1e-150, 1e-170, 5e-324]))
@settings(max_examples=300, deadline=None)
def test_cv2x_rejects_the_same_inputs(gamma, r_low, r_high, p_rk, p_qne):
    # the domain: valid params, 0 < P_qne <= 1, and a normalization that
    # does not underflow; inside it the states are >= 0 and sum to 1
    params = Cv2xParams(gamma=gamma, r_low=r_low, r_high=r_high, p_rk=p_rk)
    try:
        params.validate()
        inside = 0.0 < p_qne <= 1.0 and p_qne ** 2 > 0.0
    except ConfigParseError:
        inside = False
    if inside:
        w0, mass, smallest = _array_check(params, p_qne)
        inside = w0 > 0.0
    if inside:
        assert abs(mass - 1.0) <= 1e-8 and smallest >= 0.0
        solve_cv2x(params, p_qne)
    else:
        with pytest.raises(V2xMacError):
            solve_cv2x(params, p_qne)


@pytest.mark.parametrize("p_qne, p_rk, error", [
    (math.nan, 0.4, InvalidArgument), (1.5, 0.4, InvalidArgument),
    (1e-170, 0.4, SaturatedQueue), (0.6, 1.2, ConfigParseError)])
def test_cv2x_names_what_lies_outside_its_domain(p_qne, p_rk, error):
    with pytest.raises(error):
        solve_cv2x(Cv2xParams(p_rk=p_rk), p_qne)


# ------------------------------------------------------ explicit arrays
# The benchmark's oracle check reads the arrays and corrupts one of them
# through dataclasses.replace, so a replaced array is kept as given; the
# scalars and the oracle map read the closed-form fields through `state`.
def test_a_replaced_rc_grid_reaches_neither_the_oracle_map_nor_the_scalars():
    s = ScenarioConfig()
    sol = solve_cv2x(s.cv2x, 0.6)
    rc = sol.pi_rc.copy()
    rc[1, 0] *= 2.0
    changed = dataclasses.replace(sol, pi_rc=rc)
    assert changed.pi_rc is rc
    assert closed_form_states("cv2x", s, changed) == closed_form_states("cv2x", s, sol)
    assert changed.pi_10 == sol.pi_10 == sol.pi_rc[1, 0]
    assert (changed.p_txo, changed.p_t) == (sol.p_txo, sol.p_t)


def test_a_replaced_sensing_family_reaches_neither_the_oracle_map_nor_the_scalars():
    s = ScenarioConfig()
    sol = solve_dot11p(s.dot11p, 0.6, 0.3)
    sense = dict(sol.pi_sense)
    sense[0] *= 4.0
    changed = dataclasses.replace(sol, pi_sense=sense)
    assert changed.pi_sense is sense
    assert closed_form_states("dot11p", s, changed) == closed_form_states("dot11p", s, sol)
    assert changed.sense_first == sol.sense_first == sol.pi_sense[0]
    assert changed.p_t == sol.p_t


def test_a_replaced_closed_form_field_reaches_the_oracle_map():
    s = ScenarioConfig()
    cv2x, dot11p = solve_cv2x(s.cv2x, 0.6), solve_dot11p(s.dot11p, 0.6, 0.3)
    states = closed_form_states("cv2x", s, dataclasses.replace(cv2x, w0=2.0 * cv2x.w0))
    assert states["rc,1,0"] == 2.0 * cv2x.pi_rc[1, 0]
    states = closed_form_states("dot11p", s, dataclasses.replace(dot11p, h=0.5 * dot11p.h))
    assert states["a,1"] == 0.5 * dot11p.pi_a[0]
    assert states["txm,1"] == 0.5 * dot11p.pi_tx[0]


def test_a_replaced_closed_form_field_reaches_every_scalar():
    s = ScenarioConfig()
    cv2x, dot11p = solve_cv2x(s.cv2x, 0.6), solve_dot11p(s.dot11p, 0.6, 0.3)
    changed = dataclasses.replace(cv2x, w0=2.0 * cv2x.w0)
    for name in ("p_txo", "p_t", "pi_idle", "pi_10"):
        assert getattr(changed, name) == 2.0 * getattr(cv2x, name)
    changed = dataclasses.replace(dot11p, pi_idle=2.0 * dot11p.pi_idle)
    for name in ("p_t", "sense_first", "a_last"):
        assert getattr(changed, name) == 2.0 * getattr(dot11p, name)
    changed = dataclasses.replace(dot11p, h=0.5 * dot11p.h)
    for name in ("p_t", "f", "sense_first", "a_last"):
        assert getattr(changed, name) == 0.5 * getattr(dot11p, name)
    cam = solve_cam(s.traffic, 0.3)
    changed = dataclasses.replace(cam, tx_first=2.0 * cam.tx_first)
    for name in ("txp_first", "txp_tail", "generation_rate"):
        assert getattr(changed, name) == 2.0 * getattr(cam, name)


def _solutions():
    """One solution of each class, each with the name of one of its array fields."""
    s = ScenarioConfig()
    return [(solve_cam(s.traffic, 0.3), "pi_tx"), (solve_denm(s.traffic, 0.3), "pi_txp"),
            (solve_queue(0.1, 0.1, 0.3, 10), "pi"),
            (solve_cv2x(s.cv2x, 0.6), "pi_rc"),
            (solve_dot11p(s.dot11p, 0.6, 0.3), "pi_sense")]


@pytest.mark.parametrize("sol, name", _solutions())
def test_solutions_compare_and_hash_by_their_closed_form(sol, name):
    # the arrays follow from the other fields, so they take no part
    value = getattr(sol, name)
    if isinstance(value, dict):
        doubled = {k: 2.0 * v for k, v in value.items()}
    else:
        doubled = 2.0 * value
    changed = dataclasses.replace(sol, **{name: doubled})
    assert getattr(changed, name) is doubled
    assert changed == sol
    assert hash(changed) == hash(sol)
    first = dataclasses.fields(sol)[0].name
    assert dataclasses.replace(sol, **{first: getattr(sol, first) + 1}) != sol


@pytest.mark.parametrize("tech", ["cv2x", "dot11p"])
def test_fixed_point_reports_compare_and_hash(tech):
    a, b = solve_coupled(tech, ScenarioConfig()), solve_coupled(tech, ScenarioConfig())
    assert a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("sol, name", _solutions())
def test_repr_builds_no_array(sol, name):
    lazy = [f.name for f in dataclasses.fields(sol) if not f.repr]
    assert name in lazy
    text = repr(sol)
    assert not any(f"{field}=" in text for field in lazy)
    assert not set(lazy) & set(vars(sol))
