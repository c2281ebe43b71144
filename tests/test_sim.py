"""Discrete-event simulator behavior: determinism, conservation, contracts."""
import ast
from pathlib import Path

import numpy as np
import pytest

import v2xmac
from chain_helpers import scenario
from v2xmac.config import Cv2xParams, Dot11pParams, ScenarioConfig, TrafficParams
from v2xmac.coupling import adaptive_cam_rate, solve_coupled
from v2xmac.cv2x import solve_cv2x
from v2xmac.dot11p import solve_dot11p, update_theta
from v2xmac.errors import InvalidArgument, InvalidDuration
from v2xmac.metrics import avg_delay_cv2x, collision_prob_cv2x, collision_prob_dot11p
from v2xmac.sim import run_sim
from v2xmac.sim.cv2x import run_replication as cv2x_rep
from v2xmac.sim.dot11p import run_replication as dot11p_rep
from v2xmac.sim.traffic import CAM, DENM, arrival_stream
from v2xmac.traffic import solve_queue


class TestTrafficStream:
    def test_cam_is_periodic(self):
        rng = np.random.default_rng(3)
        p = TrafficParams(t_c=100, lam=1e-9)
        arr = arrival_stream(rng, p, 10_000_000)
        cams = [t for t, k in arr if k == CAM]
        gaps = np.diff(cams)
        assert np.all(gaps == 100_000)

    def test_denm_trains(self):
        rng = np.random.default_rng(4)
        p = TrafficParams(t_c=1000, t_d=100, k=5, lam=5.0)
        arr = arrival_stream(rng, p, 30_000_000)
        denms = [t for t, k in arr if k == DENM]
        # copies arrive in T_D-spaced runs of K
        gaps = np.diff(denms)
        assert np.sum(gaps == 100_000) >= 3 * len(denms) // 5

    def test_rate_scales_with_lambda(self):
        p_lo = TrafficParams(t_c=1000, k=1, lam=0.2)
        p_hi = TrafficParams(t_c=1000, k=1, lam=2.0)
        lo = len([1 for t, k in arrival_stream(np.random.default_rng(5), p_lo, 10**8)
                  if k == DENM])
        hi = len([1 for t, k in arrival_stream(np.random.default_rng(5), p_hi, 10**8)
                  if k == DENM])
        assert hi > 3 * lo


class TestDeterminismAndValidation:
    @pytest.mark.parametrize("tech", ["cv2x", "dot11p"])
    def test_identical_seed_identical_report(self, tech):
        s = scenario(n=10)
        a = run_sim(tech, s, seed=11, duration_s=10, replications=2)
        b = run_sim(tech, s, seed=11, duration_s=10, replications=2)
        assert a == b

    def test_trace_deterministic_and_reconciles(self):
        s = scenario(n=5)
        lines_a, lines_b = [], []
        rep_a = run_sim("cv2x", s, seed=3, duration_s=10, replications=1,
                        trace=lambda *r: lines_a.append(r))
        run_sim("cv2x", s, seed=3, duration_s=10, replications=1,
                trace=lambda *r: lines_b.append(r))
        assert lines_a == lines_b
        gen = sum(1 for r in lines_a if r[2] == "generation")
        enq = sum(1 for r in lines_a if r[2] == "enqueue")
        drop = sum(1 for r in lines_a if r[2] == "drop")
        assert gen == enq + drop == rep_a.generated
        # full-run transmission events match the per-vehicle counters exactly
        st = cv2x_rep(s, seed=3, replication=0, duration_s=10)
        tx_events = sum(1 for r in lines_a if r[2] == "transmission")
        assert tx_events == sum(v[1] for v in st.per_vehicle.values())

    def test_trace_near_empty_traffic_has_no_denm(self):
        s = ScenarioConfig(tech="cv2x", n=3,
                           traffic=TrafficParams(t_c=1000, lam=1e-12, k=1)).validate()
        lines = []
        run_sim("cv2x", s, seed=8, duration_s=12, replications=1,
                trace=lambda *r: lines.append(r))
        kinds = {r[3] for r in lines if r[2] == "generation"}
        assert kinds <= {"cam"}

    def test_trace_collisions_come_in_groups(self):
        s = scenario(n=40, gamma=20)
        lines = []
        run_sim("cv2x", s, seed=9, duration_s=12, replications=1,
                trace=lambda *r: lines.append(r))
        from collections import Counter
        coll = Counter((r[0], r[3]) for r in lines if r[2] == "collision")
        assert all(v >= 2 for v in coll.values())

    @pytest.mark.parametrize("duration_s", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_duration_is_rejected(self, duration_s):
        with pytest.raises(InvalidDuration):
            run_sim("cv2x", scenario(), seed=1, duration_s=duration_s, replications=1)

    def test_duration_and_replication_validation(self):
        with pytest.raises(InvalidDuration):
            run_sim("cv2x", scenario(), seed=1, duration_s=5, replications=1)
        with pytest.raises(InvalidDuration):
            run_sim("cv2x", scenario(), seed=1, duration_s=10, replications=0)

    @pytest.mark.parametrize("tech", ["cv2x", "dot11p"])
    def test_parallel_merge_matches_serial(self, tech):
        s = scenario(n=6)
        a = run_sim(tech, s, seed=2, duration_s=10, replications=3, jobs=1)
        b = run_sim(tech, s, seed=2, duration_s=10, replications=3, jobs=3)
        assert a == b


class TestConservation:
    @pytest.mark.parametrize("runner", [cv2x_rep, dot11p_rep])
    def test_generated_equals_transmitted_dropped_queued(self, runner):
        s = scenario(n=8)
        st = runner(s, seed=5, replication=0, duration_s=15)
        for vid, (gen, tx, drop, queued) in st.per_vehicle.items():
            assert gen == tx + drop + queued


class TestSingleVehicle:
    @pytest.mark.parametrize("tech", ["cv2x", "dot11p"])
    def test_no_contender_no_collision(self, tech):
        rep = run_sim(tech, scenario(n=1), seed=13, duration_s=15, replications=2)
        assert rep.p_col_hat == 0.0
        assert rep.transmissions > 0

    def test_sparse_run_flagged_unreliable(self):
        s = ScenarioConfig(tech="cv2x", n=1,
                           traffic=TrafficParams(t_c=1000, lam=1e-9, k=1)).validate()
        rep = run_sim("cv2x", s, seed=19, duration_s=10, replications=1)
        assert rep.transmissions < 100
        assert not rep.reliable

    def test_dot11p_two_vehicles_cam_only_delay_band(self):
        s = ScenarioConfig(tech="dot11p", n=2,
                           traffic=TrafficParams(t_c=100, lam=1e-9, k=1)).validate()
        rep = run_sim("dot11p", s, seed=7, duration_s=20, replications=2)
        p = s.dot11p
        lo = (p.tx_slots + p.omega) * p.slot_us / 1000.0
        hi = (p.tx_slots + p.omega + p.c_min * p.omega) * p.slot_us / 1000.0
        assert lo <= rep.d_end_avg_hat_ms <= hi


class TestDot11pContracts:
    def test_aifs_respected_at_low_load(self):
        # a lone vehicle's access delay is exactly AIFS plus transmission
        s = ScenarioConfig(tech="dot11p", n=1,
                           traffic=TrafficParams(t_c=1000, lam=1e-9, k=1)).validate()
        rep = run_sim("dot11p", s, seed=21, duration_s=15, replications=1)
        p = s.dot11p
        expect = (p.omega + p.tx_slots) * p.slot_us / 1000.0
        assert rep.d_end_avg_hat_ms == pytest.approx(expect, rel=1e-9)

    def test_collisions_appear_under_contention(self):
        rep = run_sim("dot11p", scenario(n=50), seed=17, duration_s=12,
                      replications=1)
        assert 0.0 < rep.p_col_hat < 1.0


class TestCv2xContracts:
    def test_half_duplex_own_cells_excluded(self):
        # a reselection never picks a cell the vehicle itself used within the
        # trailing 1000 ms sensing window; verified via the trace
        s = scenario(n=30, gamma=20, p_rk=0.0)
        lines = []
        run_sim("cv2x", s, seed=23, duration_s=12, replications=1,
                trace=lambda *r: lines.append(r))
        last_tx = {}
        checked = 0
        for t_us, vid, event, detail in lines:
            if event == "transmission":
                last_tx[(vid, detail)] = t_us
            elif event == "reservation":
                cell = ":".join(detail.split(":")[:2])
                prev = last_tx.get((vid, cell))
                if prev is not None:
                    assert t_us - prev > 1_000_000
                checked += 1
        assert checked > 50

    def test_saturated_vehicle_transmits_each_window(self):
        s = scenario(n=2, t_c=100, gamma=100)
        rep = run_sim("cv2x", s, seed=29, duration_s=20, replications=1)
        # CAM every 100 ms against roughly one opportunity per 100 ms
        per_vehicle_rate = rep.transmissions / 2 / (20 - 2)
        assert 8.0 < per_vehicle_rate < 11.0

    def test_collision_rate_grows_with_density(self):
        # scarcer resources per vehicle raise the schedule-collision rate
        sparse = run_sim("cv2x", scenario(n=20, gamma=20), seed=37,
                         duration_s=20, replications=3)
        dense = run_sim("cv2x", scenario(n=120, gamma=20), seed=37,
                        duration_s=20, replications=3)
        assert dense.p_col_hat > sparse.p_col_hat
        assert dense.p_col_hat > 0.0

    def test_ci_shrinks_with_replications(self):
        s = scenario(n=10)
        r1 = run_sim("cv2x", s, seed=31, duration_s=10, replications=4)
        r4 = run_sim("cv2x", s, seed=31, duration_s=10, replications=16)
        ratio = r1.ci95["d_avg_ms"] / r4.ci95["d_avg_ms"]
        assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3


def _package_nodes(match):
    """file:line of every node in the package's sources that `match` accepts."""
    root = Path(v2xmac.__file__).parent
    return [f"{path.relative_to(root)}:{node.lineno}" for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text())) if match(node)]


def test_package_has_no_assert_statements():
    # python -O strips assert, so an invariant must raise a typed V2xMacError
    assert _package_nodes(lambda node: isinstance(node, ast.Assert)) == []


def _raises_bare_value_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


def test_package_raises_no_bare_value_error():
    # errors.InvalidArgument is a ValueError and a V2xMacError at once
    assert _package_nodes(_raises_bare_value_error) == []


@pytest.mark.parametrize("call", [
    lambda: collision_prob_cv2x(solve_cv2x(Cv2xParams(), 0.4, 0.6, 0.2), Cv2xParams(), 0),
    lambda: collision_prob_dot11p(solve_dot11p(Dot11pParams(), 0.5, 0.2, 0.1), 0),
    lambda: avg_delay_cv2x(solve_queue(0.1, 0.1, 0.3, 10), 0.0),
    lambda: update_theta(1.5, 10),
    lambda: update_theta(0.1, 0),
    lambda: solve_coupled("wimax", scenario()),
    lambda: adaptive_cam_rate(1.5, 100),
    lambda: run_sim("wimax", scenario(), seed=1, duration_s=10.0, replications=1),
    lambda: run_sim("dot11p", scenario(), seed=1, duration_s=10.0, replications=2, jobs=0),
    lambda: run_sim("cv2x", scenario(), seed=1, duration_s=10.0, replications=1, jobs=-2),
])
def test_invalid_arguments_raise_typed_error(call):
    with pytest.raises(InvalidArgument):
        call()
