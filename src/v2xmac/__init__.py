"""Analytical and simulation toolkit for the MAC layers of C-V2X Mode 4 and 802.11p.

The explicit-chain oracle (`build_chain`, `solve_steady_state`) lives in
`v2xmac.chains` and the simulator in `v2xmac.sim`; neither is imported here.
The package root, the closed forms, the metrics and `v2xmac solve` load
neither numpy nor scipy: they read O(1) scalars. A solution's state arrays
are numpy arrays, and numpy is imported when one is first read. scipy loads
with the first explicit chain built or solved, and the simulator's process
pool only when replications run with more than one job.
"""

from .config import (Cv2xParams, Dot11pParams, ScenarioConfig, TrafficParams,
                     parse_config, serialize_config)
from .coupling import (CouplingState, FixedPointReport, adaptive_cam_rate,
                       resolve_adaptive_t_c, solve_coupled)
from .cv2x import Cv2xSolution, solve_cv2x
from .dot11p import DelayTable, Dot11pSolution, solve_dot11p, state_delays, update_theta
from .metrics import (MetricsReport, avg_delay_cv2x, avg_delay_dot11p,
                      channel_utilization, collision_prob_cv2x,
                      collision_prob_dot11p, evaluate_fixed_point,
                      evaluate_scenario)
from .traffic import (GeneratorSolution, QueueSolution, combine_transition_probs,
                      solve_cam, solve_denm, solve_queue)

__version__ = "0.1.0"

__all__ = [
    "Cv2xParams", "Dot11pParams", "ScenarioConfig",
    "TrafficParams", "parse_config", "serialize_config", "CouplingState",
    "FixedPointReport", "adaptive_cam_rate", "resolve_adaptive_t_c",
    "solve_coupled", "Cv2xSolution",
    "solve_cv2x", "DelayTable", "Dot11pSolution",
    "solve_dot11p", "state_delays", "update_theta", "MetricsReport",
    "avg_delay_cv2x", "avg_delay_dot11p", "channel_utilization",
    "collision_prob_cv2x", "collision_prob_dot11p", "evaluate_fixed_point",
    "evaluate_scenario", "GeneratorSolution", "QueueSolution",
    "combine_transition_probs", "solve_cam", "solve_denm", "solve_queue",
]
