"""Fixed-point engine linking the generators, queue and MAC chains.

One undamped sweep of the chains maps a transmit probability P_t to the
MAC's own, G(P_t). The coupled state is the root of f(P_t) = P_t - G(P_t),
found per lane with Brent's bracketed root method (Brent 1973, "Algorithms
for Minimization without Derivatives", ch. 4).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from .config import SUBFRAME_US, Dot11pParams, ScenarioConfig
from .cv2x import Cv2xSolution, solve_cv2x
from .dot11p import Dot11pSolution, solve_dot11p, update_theta
from .errors import InvalidArgument, NoFixedPoint
from .traffic import (GeneratorSolution, QueueSolution, combine_transition_probs,
                      per_slot_rate, per_subframe_prob, solve_cam, solve_denm, solve_queue)

TOLERANCE = 1e-10
MAX_ITERATIONS = 200
INIT_P_T = 0.01
P_T_FLOOR = 1e-9      # the search never evaluates a smaller P_t
MIN_IDLE = 1e-12      # ... nor a P_t whose busy ratio exceeds 1 - MIN_IDLE
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class CouplingState:
    """Linking probabilities exchanged between the chains per sweep.

    All four are per step of the MAC chain: per subframe for C-V2X, per
    aSlotTime slot for 802.11p, whose MAC runs at an idle exit h that
    p_qe = (1 - h) / (1 - p_arr) reports.
    """

    p_t: float
    p_qe: float
    p_arr: float
    theta: float  # 802.11p only; held at 0 for C-V2X


@dataclass(frozen=True)
class FixedPointReport:
    tech: str
    state: CouplingState
    iterations: int                 # sweep-map evaluations
    residual: float                 # |P_t - G(P_t)| at the returned P_t
    converged: bool
    cam: GeneratorSolution
    denm: GeneratorSolution
    queue: Optional[QueueSolution]  # C-V2X only
    generated_per_s: float          # packets/s from both generators
    cv2x: Optional[Cv2xSolution] = None
    dot11p: Optional[Dot11pSolution] = None
    dropped_per_s: Optional[float] = None  # 802.11p only: arrivals beyond capacity
    trace: Tuple[Tuple[float, float], ...] = ()  # every evaluated (P_t, f(P_t))


@dataclass(frozen=True)
class Sweep:
    """One undamped pass of the chains at the transmit probability state.p_t.

    `state` holds the linking probabilities the chains ran at, and the
    solutions are the chains' steady states there. p_t_out is G(P_t), the
    MAC's own transmit probability.
    """

    state: CouplingState
    p_t_out: float
    cam: GeneratorSolution
    denm: GeneratorSolution
    queue: Optional[QueueSolution]
    mac: Union[Cv2xSolution, Dot11pSolution]

    @property
    def residual(self) -> float:
        """f(P_t) = P_t - G(P_t), zero at the coupled state."""
        return self.state.p_t - self.p_t_out


def conserving_idle_exit(params: Dot11pParams, arrivals: float,
                         theta: float) -> Tuple[float, float]:
    """Idle exit h at which the 802.11p MAC starts `arrivals` packets per slot.

    Every family of solve_dot11p scales with h, so pi_Idle = 1 / (1 + h C)
    with C = 1 / pi_Idle(h = 1) - 1, and the start rate h pi_Idle equals
    `arrivals` at h = arrivals / (1 - arrivals C). At or above the capacity
    1 / (1 + C) the MAC is saturated: h = 1 and it serves its capacity.
    Returns (h, served packets per slot).
    """
    cost = 1.0 / float(solve_dot11p(params, 1.0, theta).pi_idle) - 1.0
    capacity = 1.0 / (1.0 + cost)
    if arrivals >= capacity:
        return 1.0, capacity
    return arrivals / (1.0 - arrivals * cost), arrivals


def _sweep(tech: str, scenario: ScenarioConfig, p_t: float) -> Sweep:
    """One Gauss-Seidel sweep at P_t: generators -> queue -> MAC chain.

    C-V2X: the generators, the queue and the MAC all step per subframe. The
    generators' flows set the queue, whose P_qe and P_arr drive the MAC.

    802.11p: the generators step per 1 ms subframe, the MAC per 13 us slot,
    so each quantity is converted to the step of the chain that receives it.
    The per-slot P_t sets the busy ratio and reaches the generators as the
    probability of being on air in a subframe. Their packet rate becomes
    P_arr, the per-slot arrival probability. The MAC runs at the idle exit h
    that starts exactly the arriving packets per slot (h = 1 when saturated:
    the queue drops the excess), and P_qe = (1 - h) / (1 - P_arr) reports h.
    """
    if tech == "cv2x":
        cam = solve_cam(scenario.traffic, p_t)
        denm = solve_denm(scenario.traffic, p_t)
        alpha, alpha1, beta, p_arr = combine_transition_probs(
            cam, denm, scenario.traffic)
        queue = solve_queue(alpha, alpha1, beta, scenario.traffic.m)
        mac = solve_cv2x(scenario.cv2x, queue.p_qne, p_arr)
        state = CouplingState(p_t=p_t, p_qe=queue.p_qe, p_arr=p_arr, theta=0.0)
    else:
        params = scenario.dot11p
        theta = update_theta(p_t, scenario.n)
        p_t_subframe = per_subframe_prob(p_t, params.slot_us)
        cam = solve_cam(scenario.traffic, p_t_subframe)
        denm = solve_denm(scenario.traffic, p_t_subframe)
        queue = None
        p_arr = per_slot_rate(cam.generation_rate + denm.generation_rate,
                              params.slot_us)
        h, _ = conserving_idle_exit(params, p_arr, theta)
        mac = solve_dot11p(params, h, theta)
        p_qe = (1.0 - h) / (1.0 - p_arr)
        state = CouplingState(p_t=p_t, p_qe=p_qe, p_arr=p_arr, theta=theta)
    return Sweep(state=state, p_t_out=mac.p_t, cam=cam, denm=denm, queue=queue,
                 mac=mac)


def _search_range(tech: str, scenario: ScenarioConfig) -> Tuple[float, float]:
    """The P_t interval the root search evaluates.

    Every sweep needs P_t > 0 (the generators' blocked states need an exit)
    and P_t < 1 (C-V2X: the queue needs a drain). An 802.11p sweep also
    needs a busy ratio below 1, which for N vehicles bounds P_t by
    1 - MIN_IDLE^(1 / (N - 1)).
    """
    upper = 1.0 - P_T_FLOOR
    if tech == "dot11p" and scenario.n > 1:
        upper = min(upper, -math.expm1(math.log(MIN_IDLE) / (scenario.n - 1)))
    return P_T_FLOOR, upper


def _opposite(a: float, b: float) -> bool:
    return a < 0.0 < b or b < 0.0 < a


def _brent(evaluate: Callable[[float], Sweep], pre: Sweep, cur: Sweep,
           tolerance: float) -> Sweep:
    """Brent's root of f from the ends pre and cur, as the Sweep at the root.

    It stops at a point whose error is below (tolerance + 4 eps) P_t: where
    |f| is that small, since f = P_t - G(P_t) rises at least as fast as P_t
    for a non-increasing G, or where the bracket has closed to that width.
    Each step is a secant or inverse quadratic interpolation step when that
    stays well inside the bracket and shrinks it fast enough, and a
    bisection otherwise. Ends with residuals of one sign are first widened
    against that sign. The result is always a point it has evaluated.
    """
    blk = pre
    step = prev_step = 0.0
    while True:
        if _opposite(pre.residual, cur.residual):
            blk = pre
            step = prev_step = cur.state.p_t - pre.state.p_t
        if abs(blk.residual) < abs(cur.residual):
            pre, cur, blk = cur, blk, cur
        x, fx = cur.state.p_t, cur.residual
        width = (tolerance + 4.0 * _EPS) * x
        if abs(fx) <= width:
            return cur
        if not _opposite(blk.residual, fx):
            # rounding in G can leave both ends on one side of the root; f
            # rises with P_t, so step against the sign of f, doubling the step
            step = -math.copysign(max(width, 2.0 * abs(step)), fx)
            pre = blk = cur
            cur = evaluate(x + step)
            if cur.state.p_t == x:
                raise NoFixedPoint(f"f(P_t) keeps one sign up to the end of the "
                                   f"search range at P_t = {x:.6g}")
            continue
        half = (blk.state.p_t - x) / 2.0
        if abs(half) < width / 2.0:
            return cur
        delta = width / 2.0
        if abs(prev_step) > delta and abs(fx) < abs(pre.residual):
            xp, fp = pre.state.p_t, pre.residual
            xb, fb = blk.state.p_t, blk.residual
            if xp == xb:   # secant
                trial = -fx * (x - xp) / (fx - fp)
            else:          # inverse quadratic interpolation
                dp = (fp - fx) / (xp - x)
                db = (fb - fx) / (xb - x)
                trial = -fx * (fb * db - fp * dp) / (db * dp * (fb - fp))
            if 2.0 * abs(trial) < min(abs(prev_step), 3.0 * abs(half) - delta):
                prev_step, step = step, trial
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        pre = cur
        cur = evaluate(x + (step if abs(step) > delta else math.copysign(delta, half)))


def solve_coupled(tech: str, scenario: ScenarioConfig,
                  initial: Optional[CouplingState] = None,
                  tolerance: float = TOLERANCE,
                  max_iterations: int = MAX_ITERATIONS) -> FixedPointReport:
    """Solve the coupled chains for the root of f(P_t) = P_t - G(P_t).

    G, one undamped sweep, does not increase with P_t, so f rises at least
    as fast as P_t and has one root, and for any start x the interval
    between x and G(x) holds it. The search starts at initial.p_t (INIT_P_T
    by default), takes G(start) as the other end, both clipped to the range
    a sweep accepts, and runs Brent's method from there. It stops once the
    returned P_t is within `tolerance` * P_t of the root, as |f(P_t)| or the
    bracket width shows. The report holds the sweep at that P_t, so its
    state is exactly what that sweep ran at, and `trace` every evaluated
    (P_t, f(P_t)) pair. `iterations` counts sweep evaluations, at most
    `max_iterations`. Raises ConfigParseError for a scenario that fails
    `validate`, and NoFixedPoint, with the trace attached, if f keeps one
    sign to the end of the range or the budget runs out.
    """
    if tech not in ("cv2x", "dot11p"):
        raise InvalidArgument(f"unknown technology {tech!r}")
    scenario.validate()
    low, high = _search_range(tech, scenario)
    trace: List[Tuple[float, float]] = []

    def evaluate(p_t: float) -> Sweep:
        if len(trace) == max_iterations:
            raise NoFixedPoint(f"no root within {max_iterations} evaluations")
        sweep = _sweep(tech, scenario, min(max(p_t, low), high))
        trace.append((sweep.state.p_t, sweep.residual))
        return sweep

    try:
        start = evaluate(INIT_P_T if initial is None else initial.p_t)
        root = _brent(evaluate, start, evaluate(start.p_t_out), tolerance)
    except NoFixedPoint as exc:
        raise NoFixedPoint(f"{tech}: {exc}", trace=tuple(trace)) from None

    state = root.state
    generated = 1e6 / SUBFRAME_US * (root.cam.generation_rate
                                     + root.denm.generation_rate)
    dropped = None
    if tech == "dot11p":
        _, served = conserving_idle_exit(scenario.dot11p, state.p_arr, state.theta)
        dropped = (state.p_arr - served) * 1e6 / scenario.dot11p.slot_us
    return FixedPointReport(
        tech=tech, state=state, iterations=len(trace), residual=abs(root.residual),
        converged=True, cam=root.cam, denm=root.denm, queue=root.queue,
        cv2x=root.mac if tech == "cv2x" else None,
        dot11p=root.mac if tech == "dot11p" else None,
        generated_per_s=generated, dropped_per_s=dropped, trace=tuple(trace))


def adaptive_cam_rate(theta: float, base_t_c: int) -> int:
    """Transmit-rate-control policy: stretch T_C with channel load.

    T_C = base * (1 + 4 * clamp((theta - 0.3) / 0.6, 0, 1)), rounded to whole
    subframes and clipped to the standard range [100, 1000]. Below theta = 0.3
    the base interval is kept.
    """
    if not 0.0 <= theta <= 1.0:
        raise InvalidArgument(f"theta = {theta!r} outside [0, 1]")
    load = min(max((theta - 0.3) / 0.6, 0.0), 1.0)
    t_c = int(round(base_t_c * (1.0 + 4.0 * load)))
    return min(max(t_c, 100), 1000)


def resolve_adaptive_t_c(tech: str, scenario: ScenarioConfig) -> ScenarioConfig:
    """Apply the rate-control policy `adaptive_cam_rate` until T_C stabilizes.

    Each round solves the fixed point at the current T_C and maps the
    resulting busy ratio through the policy against the base interval.
    A revisited T_C (policy oscillation) stops the loop at the current value.
    Only the 802.11p lane has a busy ratio, so the C-V2X lane is a no-op.
    """
    if not scenario.adaptive_cam or tech != "dot11p":
        return scenario
    base = scenario.traffic.t_c
    t_c = base
    seen = set()
    while t_c not in seen:
        seen.add(t_c)
        rep = solve_coupled(tech, scenario.with_value("t_c", t_c))
        t_c = adaptive_cam_rate(rep.state.theta, base)
    return scenario.with_value("t_c", t_c)
