"""Scenario and coupling builders and oracle comparisons shared by the tests.

They live here rather than in conftest.py so that test modules import them by
a name no other test directory's conftest shadows.
"""
from v2xmac.chains import (CouplingInputs, build_chain, closed_form_states,
                           solve_steady_state)
from v2xmac.config import (Cv2xParams, Dot11pParams, ScenarioConfig, TrafficParams,
                            rc_window)

ACCEPTANCE_LINES = []   # printed by conftest's terminal summary


def scenario(t_c=100, t_d=100, k=5, lam=1.0, m=10, gamma=100, r_low=None,
             r_high=None, p_rk=0.4, n=100, tech="both", aifsn=6):
    lo, hi = rc_window(gamma)
    return ScenarioConfig(
        tech=tech, n=n,
        traffic=TrafficParams(t_c=t_c, t_d=t_d, k=k, lam=lam, m=m),
        cv2x=Cv2xParams(gamma=gamma, r_low=r_low or lo, r_high=r_high or hi,
                        p_rk=p_rk),
        dot11p=Dot11pParams(aifsn=aifsn),
    ).validate()


def coupling(p_t=0.5, p_qe=0.5, p_arr=0.1, theta=0.0, alpha=0.1, alpha1=0.1, beta=0.3):
    return CouplingInputs(p_t=p_t, p_qe=p_qe, p_arr=p_arr, theta=theta,
                          alpha=alpha, alpha1=alpha1, beta=beta)


def oracle_gap(kind, s, solution, inputs):
    """Largest state-wise gap between a closed-form solution and its explicit chain.

    `inputs` are the CouplingInputs the chain is built at; the two must name
    the same states.
    """
    closed = closed_form_states(kind, s, solution)
    pi = solve_steady_state(build_chain(kind, s, inputs))
    assert set(closed) == set(pi.labels)
    return max(abs(value - pi[label]) for label, value in closed.items())
