"""The benchmark's three workloads.

Each is a closed loop with one client that runs one process at a time. A
workload object is built once (that is its set-up), then `operations()` gives
the fixed list of operations of one round, run in order. `check_round` and
`final_checks` check the outputs outside the timed region. In a traced run,
`extra_totals` gives the totals the in-process tracer did not see.

Importing this module imports v2xmac and everything it pulls in, which is
part of every workload's set-up.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import io
import itertools
import json
import random
import subprocess
from pathlib import Path

import v2xmac.sim
import v2xmac.sim.cv2x
import v2xmac.sim.dot11p
from v2xmac import chains, cli, config, coupling, metrics, traffic

import checks
from tracing import add_totals, counting_heapq, empty_totals

BENCH_DIR = Path(__file__).resolve().parent
TRACED_CLI = BENCH_DIR / "traced_cli.py"


class OperationFailed(Exception):
    pass


class CliRecipes:
    """Every recipe `v2xmac recipes` lists, solved by `v2xmac solve` in a fresh process.

    This is what a user waits for to regenerate a figure: interpreter start,
    imports and CSV output count as much as the fixed point. The seed sets
    the order in which a round visits the recipes.
    """

    name = "cli-recipes"
    SOLVE_TIMEOUT_S = 120

    def __init__(self, seed, work_dir, python, traced):
        self.work_dir, self.python, self.traced = work_dir, python, traced
        names = _run_cli(["recipes"]).split()
        random.Random(seed).shuffle(names)
        self.configs = {}
        self.csrs = {}
        for name in names:
            path = work_dir / f"{name}.cfg"
            _run_cli(["recipes", name, "--out", str(path)])
            self.configs[name] = path
            self.csrs[name] = config.parse_config(path.read_text()).cv2x.csrs_per_subframe
        self.first = {}
        self.stats_files = []
        self.rounds = 0

    def operations(self):
        self.rounds += 1
        return [(name, functools.partial(self._solve, name)) for name in self.configs]

    def _solve(self, name):
        out = self.work_dir / f"{name}-{self.rounds}.csv"
        if self.traced:
            stats = self.work_dir / f"{name}-{self.rounds}.trace.json"
            self.stats_files.append(stats)
            cmd = [self.python, str(TRACED_CLI), str(stats)]
        else:
            cmd = [self.python, "-m", "v2xmac.cli"]
        cmd += ["solve", "--config", str(self.configs[name]), "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=self.SOLVE_TIMEOUT_S)
        if proc.returncode != 0:
            raise OperationFailed(f"exit {proc.returncode}: {proc.stderr.strip()}")
        return out

    def check_round(self, outputs):
        problems = []
        for name, out in outputs:
            if out is None:
                continue
            text = out.read_text()
            out.unlink()
            if name not in self.first:
                self.first[name] = text
                problems += [f"{name}: {p}" for p in
                             checks.check_solve_csv(text, self.csrs[name])]
            else:
                problems += checks.check_same(f"{name} solve", self.first[name], text)
        return problems

    def final_checks(self):
        if self.rounds > 1:
            return []
        # one round compares nothing: solve once more, untimed and untraced
        self.traced = False
        return self.check_round([(name, op()) for name, op in self.operations()])

    def extra_totals(self):
        totals = empty_totals()
        for path in self.stats_files:
            add_totals(totals, json.loads(path.read_text()))
        return totals


class FixedPointGrid:
    """solve_coupled then evaluate_fixed_point on the fixed-point robustness grid.

    The grid is 1620 C-V2X scenarios over Gamma, T_C, T_D, K, lambda and
    P_rk, and 1080 802.11p scenarios over N, T_C, T_D, K and lambda. A round
    takes every STRIDE-th scenario of each half, a fixed subsample that keeps
    every axis value; the seed sets the order within the round and picks the
    fixed points checked against the explicit-chain oracle.
    """

    name = "fixed-point-grid"
    STRIDE = 11
    ORACLE_POINTS = 3   # per technology

    def __init__(self, seed, work_dir, python, traced):
        points = grid_points()
        rng = random.Random(seed)
        rng.shuffle(points)
        self.points = points
        self.oracle = (rng.sample([i for i, p in enumerate(points) if p[0] == "cv2x"],
                                  self.ORACLE_POINTS)
                       + rng.sample([i for i, p in enumerate(points) if p[0] == "dot11p"],
                                    self.ORACLE_POINTS))
        self.first = None

    def operations(self):
        return [(f"{tech} {checks.scenario_label(s)}",
                 functools.partial(self._solve, tech, s)) for tech, s in self.points]

    @staticmethod
    def _solve(tech, scenario):
        report = coupling.solve_coupled(tech, scenario)
        return report, metrics.evaluate_fixed_point(report, scenario)

    def check_round(self, outputs):
        if self.first is None:
            self.first = [out for _, out in outputs]
            problems = []
            for (tech, s), out in zip(self.points, self.first):
                if out is not None:
                    problems += checks.check_fixed_point(tech, s, *out)
            return problems
        return checks.check_same("grid metrics", [o and o[1] for o in self.first],
                                 [o and o[1] for _, o in outputs])

    def final_checks(self):
        problems = []
        for i in self.oracle:
            tech, s = self.points[i]
            if self.first[i] is not None:
                problems += oracle_problems(tech, s, self.first[i][0])
        return problems

    def extra_totals(self):
        return empty_totals()


class SimulateHighway:
    """run_sim on the default highway scenario, both technologies, N = 50 and 300.

    The simulators do all the work and no analytic layer runs. The seed is
    the simulators' seed. A traced run counts the 802.11p heap operations on
    the untimed re-runs of `final_checks`, which give a round's counts exactly.
    """

    name = "simulate-highway"
    POINTS = (("cv2x", 50), ("cv2x", 300), ("dot11p", 50), ("dot11p", 300))
    DURATION_S = 10.0

    def __init__(self, seed, work_dir, python, traced):
        self.seed, self.traced = seed, traced
        self.heap_counts = collections.defaultdict(int)
        base = config.ScenarioConfig()
        self.points = [(tech, base.with_value("n", n).validate())
                       for tech, n in self.POINTS]
        self.first = None

    def operations(self):
        return [(f"{tech} N={s.n}", functools.partial(self._simulate, tech, s))
                for tech, s in self.points]

    def _simulate(self, tech, scenario):
        return v2xmac.sim.run_sim(tech, scenario, seed=self.seed,
                                  duration_s=self.DURATION_S, replications=1)

    def check_round(self, outputs):
        if self.first is None:
            self.first = [out for _, out in outputs]
            return []
        return checks.check_same("run_sim reports", self.first,
                                 [out for _, out in outputs])

    def final_checks(self):
        problems = []
        for (tech, s), report in zip(self.points, self.first):
            if report is None:
                continue
            label = f"{tech} N={s.n} seed={self.seed}"
            run = functools.partial(SIMULATORS[tech].run_replication,
                                    s, self.seed, 0, self.DURATION_S)
            if self.traced and tech == "dot11p":
                with counting_heapq(self.heap_counts):
                    stats = run()
                self.heap_counts["sim.dot11p.heap_transmissions"] += stats.transmissions
            else:
                stats = run()
            problems += checks.check_same(f"{label} replication counters", stats, run())
            problems += checks.check_replication(label, stats, s.n, self.DURATION_S,
                                                 s.traffic.t_c)
            timed = (report.generated, report.drops, report.transmissions)
            again = (stats.generated, stats.dropped, stats.transmissions)
            problems += checks.check_same(f"{label} run_sim counters", timed, again)
        return problems

    def extra_totals(self):
        totals = empty_totals()
        totals["counts"] = dict(self.heap_counts)
        return totals


SIMULATORS = {"cv2x": v2xmac.sim.cv2x, "dot11p": v2xmac.sim.dot11p}
WORKLOADS = {w.name: w for w in (CliRecipes, FixedPointGrid, SimulateHighway)}


def grid_points():
    """Every STRIDE-th scenario of each half of the robustness grid, in grid order."""
    t_cs = range(100, 1001, 100)
    stride = FixedPointGrid.STRIDE
    cv2x = itertools.product((20, 50, 100), t_cs, (100, 200, 300), (1, 5, 9),
                             (0.2, 1.0), (0.0, 0.4, 0.8))
    dot11p = itertools.product(range(50, 301, 50), t_cs, (100, 200, 300), (1, 5, 9),
                               (0.2, 1.0))
    base = config.ScenarioConfig()
    return ([("cv2x", _scenario(base, gamma=g, t_c=t_c, t_d=t_d, k=k, lam=lam, p_rk=p_rk))
             for g, t_c, t_d, k, lam, p_rk in itertools.islice(cv2x, 0, None, stride)]
            + [("dot11p", _scenario(base, n=n, t_c=t_c, t_d=t_d, k=k, lam=lam))
               for n, t_c, t_d, k, lam in itertools.islice(dot11p, 0, None, stride)])


def _scenario(base, **values):
    s = base
    for key, value in values.items():
        s = s.with_value("lambda" if key == "lam" else key, value)
    return s.validate()


def oracle_problems(tech, s, report):
    """Closed-form generators and MAC at a fixed point against the explicit chains."""
    state = report.state
    label = f"oracle {tech} {checks.scenario_label(s)}"
    p_t = (state.p_t if tech == "cv2x"
           else traffic.per_subframe_prob(state.p_t, s.dot11p.slot_us))
    problems = []
    for kind, solve, denm in (("cam", traffic.solve_cam, False),
                              ("denm", traffic.solve_denm, True)):
        problems += checks.compare_states(
            f"{label} {kind}", checks.generator_states(solve(s.traffic, p_t), denm),
            _oracle(kind, s, p_t=p_t))
    if tech == "cv2x":
        q = report.queue
        problems += checks.compare_states(
            f"{label} queue", {f"q{i}": float(v) for i, v in enumerate(q.pi)},
            _oracle("queue", s, alpha=q.alpha, alpha1=q.alpha1, beta=q.beta))
        problems += checks.compare_states(
            f"{label} mac", checks.cv2x_states(report.cv2x, s.cv2x),
            _oracle("cv2x", s, p_qe=state.p_qe, p_arr=state.p_arr))
    else:
        # the MAC of the last sweep ran at the damped P_qe, the new P_arr and
        # the busy ratio it recorded
        mac = report.dot11p
        stages = chains.dot11p_stages(s.dot11p.c_min)
        problems += checks.compare_states(
            f"{label} mac", checks.dot11p_states(mac, s.dot11p, stages),
            _oracle("dot11p", s, theta=mac.theta, p_qe=state.p_qe, p_arr=state.p_arr))
    return problems


def _oracle(kind, s, **inputs):
    return chains.solve_steady_state(
        chains.build_chain(kind, s, chains.CouplingInputs(**inputs)))


def _run_cli(argv):
    """Run a `v2xmac` command in this process and return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"v2xmac {' '.join(argv)}: exit {code}")
    return out.getvalue()

