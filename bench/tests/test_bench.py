"""Tests of the benchmark itself: metric names and the output checks.

Run from the root of a checkout: python3 -m pytest bench/tests
"""
import collections
import copy
import dataclasses
import json
import subprocess
import sys

import pytest

import checks
import run
import steady
import tracing
import workloads
from v2xmac import cli, config, coupling, metrics
from v2xmac.sim import dot11p as sim_dot11p

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _spec(kind):
    return [(m["name"], m["unit"], m["better"]) for m in SPEC[kind]]


# ------------------------------------------------------------ metric names
def test_declared_names_match_benchmark_json():
    assert list(run.END_TO_END) == _spec("end_to_end")
    assert list(tracing.PER_LAYER) == _spec("per_layer")
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_match_benchmark_json(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "fixed-point-grid",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    printed = [(name, m["unit"]) for name, m in summary["metrics"].items()]
    assert printed == [(name, unit) for name, unit, _ in _spec(kind)]


def test_per_layer_names_do_not_depend_on_the_workload():
    names = list(tracing.per_layer_metrics(
        tracing.empty_totals(), 1,
        {"import.v2xmac_cli_s": 0.5, "import.scipy_s": 0.4}))
    assert names == [name for name, _, _ in tracing.PER_LAYER]


# --------------------------------------------------------------- tracing
def test_tracer_counts_sweeps_and_mac_calls_and_restores_the_program():
    s = config.ScenarioConfig(n=50).validate()
    original = coupling.solve_dot11p
    tracer = tracing.Tracer().install()
    try:
        report = coupling.solve_coupled("dot11p", s)
    finally:
        tracer.uninstall()
    assert coupling.solve_dot11p is original
    totals = tracer.totals()
    assert totals["counts"]["coupling.sweeps"] == report.iterations
    # two MAC solves per sweep, one more for the final drop rate
    assert totals["calls"]["dot11p.solve_dot11p"] == 2 * report.iterations + 1
    assert totals["calls"]["traffic.solve_cam"] == report.iterations
    assert 0.0 <= totals["self"]["coupling.solve_coupled"] \
        < totals["total"]["coupling.solve_coupled"]


def test_tracer_leaves_the_simulator_heapq_alone():
    original = sim_dot11p.heapq
    tracer = tracing.Tracer().install()
    try:
        assert sim_dot11p.heapq is original
    finally:
        tracer.uninstall()


def test_counting_heapq_counts_a_replication_and_restores_heapq():
    s = config.ScenarioConfig(n=10).validate()
    original = sim_dot11p.heapq
    counts = collections.defaultdict(int)
    with tracing.counting_heapq(counts):
        stats = sim_dot11p.run_replication(s, 5, 0, 1.0)
    assert sim_dot11p.heapq is original
    # every event is pushed once and popped at most once
    assert 0 < counts["sim.dot11p.heap_pops"] <= counts["sim.dot11p.heap_pushes"]
    assert checks.check_same("r", stats, sim_dot11p.run_replication(s, 5, 0, 1.0)) == []


# ------------------------------------------------------------- steadiness
def _runs(values):
    return [{"metrics": {m["name"]: {"value": v} for m in SPEC["end_to_end"]},
             "correct": True, "attempted": 10, "failed": 0} for v in values]


@pytest.mark.parametrize("factor", [1.4, 1 / 1.4])
def test_steady_sets_disagree_when_either_is_faster(factor):
    a = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    _, _, ok = steady.compare(SPEC, _runs(a), _runs(a))
    assert ok
    _, _, ok = steady.compare(SPEC, _runs(a), _runs([v * factor for v in a]))
    assert not ok


def test_steady_spread_test_covers_setup_s():
    a = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    wide = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.3, 1.4, 1.5]
    set_b = _runs(a)
    for run_, v in zip(set_b, wide):
        run_["metrics"]["setup_s"]["value"] = v
    rows, _, ok = steady.compare(SPEC, _runs(a), set_b)
    assert not ok
    assert [r[-1] for r in rows if r[0] == "setup_s"] == [False]


def test_parse_importtime_takes_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |       scipy.sparse._base",
        "import time:       150 |        200 |     scipy.sparse",
        "import time:        10 |        510 |   v2xmac.chains",
        "import time:        40 |        550 | v2xmac",
        "import time:         5 |          5 | v2xmac.cli",
    ])
    v2xmac_s, scipy_s = tracing.parse_importtime(text)
    assert v2xmac_s == pytest.approx(555e-6)
    assert scipy_s == pytest.approx(500e-6)


# ------------------------------------------------------- cli-recipes checks
@pytest.fixture(scope="module")
def solve_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solve")
    cfg, out = tmp / "s.cfg", tmp / "s.csv"
    cfg.write_text("tech=both\nsweep.parameter=n\nsweep.from=50\nsweep.to=300\n"
                   "sweep.step=250\n")
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    return out.read_text()


def _edit(text, tech, column, value):
    lines = text.splitlines()
    header = lines[1].split(",")
    for i, line in enumerate(lines[2:], start=2):
        cells = line.split(",")
        if cells[0] == tech:
            cells[header.index(column)] = value
            lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no {tech} row")


def test_solve_check_accepts_real_output(solve_csv):
    assert checks.check_solve_csv(solve_csv, 25) == []


@pytest.mark.parametrize("tech, column, value, fragment", [
    ("dot11p", "theta", "0.2", "1-(1-P_t)^(N-1)"),
    ("cv2x", "converged", "false", "converged"),
    ("dot11p", "converged", "false", "converged"),
    ("cv2x", "CU_avg", "0.02", "CU_avg"),
    ("dot11p", "P_col", "1.5", "outside [0, 1]"),
    ("cv2x", "d_avg_ms", "0", "not positive"),
])
def test_solve_check_rejects_corrupted_rows(solve_csv, tech, column, value, fragment):
    problems = checks.check_solve_csv(_edit(solve_csv, tech, column, value), 25)
    assert any(fragment in p for p in problems), problems


def test_solve_check_rejects_a_missing_schema_line(solve_csv):
    assert checks.check_solve_csv(solve_csv.split("\n", 1)[1], 25)


def test_same_check_rejects_differing_solves(solve_csv):
    assert checks.check_same("x", solve_csv, solve_csv) == []
    assert checks.check_same("x", solve_csv, solve_csv.replace("true", "false", 1))


# -------------------------------------------------- fixed-point-grid checks
@pytest.fixture(scope="module")
def fixed_points():
    out = {}
    for tech in ("cv2x", "dot11p"):
        s = config.ScenarioConfig(n=150).with_value("t_c", 300).validate()
        report = coupling.solve_coupled(tech, s)
        out[tech] = (s, report, metrics.evaluate_fixed_point(report, s))
    return out


@pytest.mark.parametrize("tech", ["cv2x", "dot11p"])
def test_fixed_point_check_accepts_real_output(fixed_points, tech):
    s, report, m = fixed_points[tech]
    assert checks.check_fixed_point(tech, s, report, m) == []
    assert workloads.oracle_problems(tech, s, report) == []


def test_fixed_point_check_rejects_broken_conservation(fixed_points):
    s, report, m = fixed_points["dot11p"]
    broken = dataclasses.replace(
        report, dropped_per_s=report.dropped_per_s + 1e-4 * report.generated_per_s)
    problems = checks.check_fixed_point("dot11p", s, broken, m)
    assert any("transmitted + dropped" in p for p in problems), problems


@pytest.mark.parametrize("tech", ["cv2x", "dot11p"])
def test_fixed_point_check_rejects_non_convergence(fixed_points, tech):
    s, report, m = fixed_points[tech]
    problems = checks.check_fixed_point(
        tech, s, dataclasses.replace(report, converged=False), m)
    assert any("not converged" in p for p in problems), problems


def test_oracle_check_rejects_a_perturbed_mac_state(fixed_points):
    s, report, _ = fixed_points["cv2x"]
    mac = report.cv2x
    pi_rc = mac.pi_rc.copy()
    pi_rc[1, 0] += 1e-8
    broken = dataclasses.replace(report, cv2x=dataclasses.replace(mac, pi_rc=pi_rc))
    problems = workloads.oracle_problems("cv2x", s, broken)
    assert any("mac" in p for p in problems), problems


def test_oracle_check_rejects_a_perturbed_dot11p_state(fixed_points):
    s, report, _ = fixed_points["dot11p"]
    mac = report.dot11p
    sense = dict(mac.pi_sense)
    sense[0] += 1e-8
    broken = dataclasses.replace(report, dot11p=dataclasses.replace(mac, pi_sense=sense))
    problems = workloads.oracle_problems("dot11p", s, broken)
    assert any("mac" in p for p in problems), problems


# -------------------------------------------------- simulate-highway checks
@pytest.fixture(scope="module")
def replication():
    s = config.ScenarioConfig(n=20).validate()
    return s, sim_dot11p.run_replication(s, 7, 0, 10.0)


def test_replication_check_accepts_real_output(replication):
    s, stats = replication
    assert checks.check_replication("r", stats, s.n, 10.0, s.traffic.t_c) == []
    assert checks.check_same("r", stats, sim_dot11p.run_replication(s, 7, 0, 10.0)) == []


def test_replication_check_rejects_differing_counters(replication):
    _, stats = replication
    other = copy.deepcopy(stats)
    other.per_vehicle[3][1] += 1
    assert checks.check_same("r", stats, other)


def test_replication_check_rejects_broken_conservation_and_cam_floor(replication):
    s, stats = replication
    broken = copy.deepcopy(stats)
    generated, transmitted, dropped, queued = broken.per_vehicle[0]
    broken.per_vehicle[0] = [generated, transmitted + 1, dropped, queued]
    problems = checks.check_replication("r", broken, s.n, 10.0, s.traffic.t_c)
    assert any("generated" in p and "transmitted" in p for p in problems), problems
    starved = copy.deepcopy(stats)
    starved.per_vehicle[1] = [50, 50, 0, 0]
    problems = checks.check_replication("r", starved, s.n, 10.0, s.traffic.t_c)
    assert any("CAMs" in p for p in problems), problems
    assert checks.check_replication("r", stats, s.n + 1, 10.0, s.traffic.t_c)
