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
from v2xmac.sim import cv2x as sim_cv2x
from v2xmac.sim import dot11p as sim_dot11p
from v2xmac.sim import run_sim
from v2xmac.sim.cv2x import run_replication as cv2x_rep
from v2xmac.sim.dot11p import run_replication as dot11p_rep
from v2xmac.sim.report import _mean_ci, warmup_units
from v2xmac.sim.traffic import CAM, DENM, GAP_BATCH, arrival_stream, vehicle_rngs
from v2xmac.traffic import solve_queue


def reference_arrival_stream(rng, params, duration_us):
    """Arrivals as sorted (time_us, kind) tuples, built one arrival at a time."""
    t_c_us = params.t_c * 1000
    t_d_us = params.t_d * 1000
    out = []
    t = int(rng.integers(0, t_c_us))
    while t < duration_us:
        out.append((t, CAM))
        t += t_c_us
    t = 0
    while True:
        gap = rng.exponential(1.0 / params.lam)
        t += int(round(gap * 1e6))
        if t >= duration_us:
            break
        for copy in range(params.k):
            at = t + copy * t_d_us
            if at < duration_us:
                out.append((at, DENM))
        t += (params.k - 1) * t_d_us  # triggers are blocked during the train
    out.sort()
    return out


def stream_rows(rngs, params, duration_us):
    """Each vehicle's arrivals from one arrival_stream call, as sorted (time_us, kind) tuples."""
    times, vids, kinds = arrival_stream(rngs, params, duration_us)
    assert (times.dtype, len(vids), len(kinds)) == (np.int64, len(times), len(times))
    rows = [[] for _ in rngs]
    for t, vid, kind in zip(times.tolist(), vids.tolist(), kinds.tolist()):
        rows[vid].append((t, kind))
    return [sorted(r) for r in rows]


def seeded(seeds):
    return [np.random.default_rng(seed) for seed in seeds]


class TestTrafficStream:
    @pytest.mark.parametrize("k", [1, 5, 9])
    @pytest.mark.parametrize("t_d", [2, 100, 1000])
    @pytest.mark.parametrize("lam", [1e-3, 0.2, 5.0, 50.0, 500.0])
    def test_matches_reference(self, k, t_d, lam):
        p = TrafficParams(t_c=100, t_d=t_d, k=k, lam=lam)
        # durations that end inside a train as well as on whole seconds
        for duration_us in (10**7, 10**7 + 1_234_567, 3 * t_d * 1000 + 1):
            rows = stream_rows(seeded(range(4)), p, duration_us)
            assert rows == [reference_arrival_stream(rng, p, duration_us)
                            for rng in seeded(range(4))]

    def test_gap_batches_continue(self):
        # 60 s at lambda = 500 and K = 1 take dozens of batches of gaps per vehicle
        p = TrafficParams(t_c=100, t_d=2, k=1, lam=500.0)
        rows = stream_rows(seeded(range(2)), p, 60 * 10**6)
        assert rows == [reference_arrival_stream(rng, p, 60 * 10**6)
                        for rng in seeded(range(2))]
        assert all(sum(k == DENM for _, k in r) > 20 * GAP_BATCH for r in rows)

    def test_matches_reference_with_a_cut_train(self):
        # a train that the end of the run cuts short keeps only its early copies
        p = TrafficParams(t_c=1000, t_d=100, k=9, lam=50.0)
        rows = stream_rows(seeded(range(20)), p, 2_450_000)
        want = [reference_arrival_stream(rng, p, 2_450_000) for rng in seeded(range(20))]
        assert rows == want
        assert any(sum(k == DENM for _, k in w) % 9 != 0 for w in want)

    def test_whole_number_floats_give_the_integer_stream(self):
        ints = arrival_stream(seeded([6, 7]), TrafficParams(t_d=30, k=4), 10**7)
        floats = arrival_stream(seeded([6, 7]),
                                TrafficParams(t_c=100.0, t_d=30.0, k=4.0), 10**7)
        assert floats[0].dtype == np.int64
        assert all(np.array_equal(a, b) for a, b in zip(ints, floats))

    def test_cam_is_periodic(self):
        p = TrafficParams(t_c=100, lam=1e-9)
        for arr in stream_rows(seeded([3, 4]), p, 10_000_000):
            cams = [t for t, k in arr if k == CAM]
            assert len(cams) == 100 and np.all(np.diff(cams) == 100_000)

    def test_denm_trains(self):
        p = TrafficParams(t_c=1000, t_d=100, k=5, lam=5.0)
        [arr] = stream_rows(seeded([4]), p, 30_000_000)
        denms = [t for t, k in arr if k == DENM]
        # copies arrive in T_D-spaced runs of K
        gaps = np.diff(denms)
        assert np.sum(gaps == 100_000) >= 3 * len(denms) // 5

    def test_rate_scales_with_lambda(self):
        p_lo = TrafficParams(t_c=1000, k=1, lam=0.2)
        p_hi = TrafficParams(t_c=1000, k=1, lam=2.0)
        [lo] = stream_rows(seeded([5]), p_lo, 10**8)
        [hi] = stream_rows(seeded([5]), p_hi, 10**8)
        assert sum(k == DENM for _, k in hi) > 3 * sum(k == DENM for _, k in lo)


class TestVehicleRngs:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**130 + 3] + [
        int(s) for s in np.random.default_rng(40).integers(0, 2**40, size=4)]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("replication", [0, 19, 2**33])
    @pytest.mark.parametrize("n", [1, 40])
    def test_each_pair_is_its_spawned_seed_sequence(self, seed, replication, n):
        pairs = vehicle_rngs(seed, replication, n)
        assert [len(rngs) for rngs in pairs] == [n, n]
        for vid in range(n):
            for j, rng in enumerate(rngs[vid] for rngs in pairs):
                want = np.random.SeedSequence(seed, spawn_key=(replication, vid, j))
                assert np.array_equal(rng.bit_generator.seed_seq.generate_state(4, np.uint64),
                                      want.generate_state(4, np.uint64))
                assert (rng.bit_generator.state
                        == np.random.default_rng(want).bit_generator.state)

    def test_a_negative_seed_is_refused(self):
        with pytest.raises(InvalidArgument):
            vehicle_rngs(-2**40, 0, 2)


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

    @pytest.mark.parametrize("seed", [-1, -2**70, 1.5, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InvalidArgument, match="seed must be a non-negative integer"):
            run_sim("dot11p", scenario(), seed=seed, duration_s=10, replications=1)

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
        columns = list(zip(*st.per_vehicle.values()))
        assert sorted(st.per_vehicle) == list(range(s.n))
        assert (st.generated, st.dropped, st.in_queue_end) == (
            sum(columns[0]), sum(columns[2]), sum(columns[3]))

    @pytest.mark.parametrize("module", [sim_cv2x, sim_dot11p])
    def test_each_vehicle_stream_comes_through_the_module_name(self, module, monkeypatch):
        # the benchmark times arrival_stream by wrapping this name in each simulator
        s = scenario(n=3)
        plain = module.run_replication(s, seed=4, replication=0, duration_s=10)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return arrival_stream(*args, **kwargs)

        monkeypatch.setattr(module, "arrival_stream", counting)
        assert module.run_replication(s, seed=4, replication=0, duration_s=10) == plain
        # one call per replication, holding every vehicle's generator
        assert [len(args[0]) for args in calls] == [3]

    def test_dot11p_generates_every_streamed_arrival(self, monkeypatch):
        # 10 s hold 931,966.4 slots of 10.73 us and the run covers 931,966;
        # vehicle 152 has an arrival in the last 4.8 us, which is not streamed
        s = ScenarioConfig(n=200, traffic=TrafficParams(lam=41.087, m=6),
                           dot11p=Dot11pParams(c_min=185, aifsn=4, slot_us=10.73, tx_slots=20))
        lengths = []

        def recording(*args):
            columns = arrival_stream(*args)
            lengths.extend(np.bincount(columns[1], minlength=s.n).tolist())
            return columns

        monkeypatch.setattr(sim_dot11p, "arrival_stream", recording)
        st = dot11p_rep(s, seed=165567, replication=0, duration_s=10.0)
        assert st.per_vehicle[152][0] == lengths[152] == 219
        assert [row[0] for row in st.per_vehicle.values()] == lengths


@pytest.mark.parametrize("duration_units, unit_us, cut", [
    (60_000, 1000, 2000),                          # C-V2X subframes: WARMUP_S = 2 s
    (4000, 1000, 1000),                            # at most a quarter of the run
    (int(round(60e6 / 13)), 13, 153_846),          # 802.11p slots, rounded
    (int(round(6e6 / 12.5)), 12.5, 120_000),       # a quarter of 6 s, in slots
])
def test_warmup_is_two_seconds_or_a_quarter_of_the_run(duration_units, unit_us, cut):
    assert warmup_units(duration_units, unit_us) == cut


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


class TestDot11pOneVehicleContract:
    """At N = 1 the 802.11p simulator runs one vehicle's generators, queue and MAC exactly.

    So its packet rates must agree with the fixed point's. No delay leg: the
    analytic delay is the MAC service time D_{A_1}, with no wait behind a
    packet already in service, and the simulated d_end lies just above it.
    """

    REPLICATIONS, DURATION_S = 20, 60.0

    def test_generated_and_sent_rates_agree_with_the_fixed_point(self):
        s = ScenarioConfig(tech="dot11p", n=1).validate()
        analytic = solve_coupled("dot11p", s)
        stats = [dot11p_rep(s, seed=1, replication=r, duration_s=self.DURATION_S)
                 for r in range(self.REPLICATIONS)]
        generated = _mean_ci([st.generated / self.DURATION_S for st in stats])
        sent = _mean_ci([st.transmissions * 1e6 / (st.window_units * s.dot11p.slot_us)
                         for st in stats])
        assert analytic.dropped_per_s == 0.0
        assert sum(st.dropped for st in stats) == 0
        for mean, ci95 in (generated, sent):   # nothing is dropped: sent = generated
            assert abs(mean - analytic.generated_per_s) <= ci95


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
    lambda: collision_prob_cv2x(solve_cv2x(Cv2xParams(), 0.6), 0),
    lambda: collision_prob_dot11p(solve_dot11p(Dot11pParams(), 0.6, 0.1), 0),
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
