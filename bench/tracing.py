"""Per-layer tracing for the benchmark's traced runs.

The program is not instrumented. Instead, each public function below is
replaced, at the name its caller looks up, by a wrapper that records a span:
its call count, its total time and its self time (the total minus the spans
of wrapped functions it called). For example `coupling` imports `solve_cam`
by name, so the wrapper goes on `v2xmac.coupling.solve_cam`.

The 802.11p simulator's heap pushes and pops are counted apart, by
`counting_heapq`, on an untimed same-seed re-run: a counting shim costs a
Python call per heap operation and would distort the timed spans.

Totals are plain dicts of numbers, so a traced `v2xmac` child can dump them
as JSON and the workload process can add them up.
"""
from __future__ import annotations

import contextlib
import heapq
import importlib
import statistics
import subprocess
import time
from collections import defaultdict
from types import SimpleNamespace

# (module the caller lives in, name the caller looks up, span name)
SITES = (
    ("v2xmac.cli", "solve_coupled", "coupling.solve_coupled"),
    ("v2xmac.metrics", "solve_coupled", "coupling.solve_coupled"),
    ("v2xmac.coupling", "solve_coupled", "coupling.solve_coupled"),
    ("v2xmac.coupling", "conserving_idle_exit", "coupling.conserving_idle_exit"),
    ("v2xmac.coupling", "solve_cam", "traffic.solve_cam"),
    ("v2xmac.coupling", "solve_denm", "traffic.solve_denm"),
    ("v2xmac.coupling", "combine_transition_probs", "traffic.combine_transition_probs"),
    ("v2xmac.coupling", "solve_queue", "traffic.solve_queue"),
    ("v2xmac.coupling", "solve_cv2x", "cv2x.solve_cv2x"),
    ("v2xmac.coupling", "solve_dot11p", "dot11p.solve_dot11p"),
    ("v2xmac.cli", "evaluate_fixed_point", "metrics.evaluate_fixed_point"),
    ("v2xmac.metrics", "evaluate_fixed_point", "metrics.evaluate_fixed_point"),
    ("v2xmac.metrics", "state_delays", "dot11p.state_delays"),
    ("v2xmac.sim", "merge_replications", "sim.report.merge_replications"),
    ("v2xmac.sim.cv2x", "run_replication", "sim.cv2x.run_replication"),
    ("v2xmac.sim.dot11p", "run_replication", "sim.dot11p.run_replication"),
    ("v2xmac.sim.cv2x", "arrival_stream", "sim.traffic.arrival_stream"),
    ("v2xmac.sim.dot11p", "arrival_stream", "sim.traffic.arrival_stream"),
)

# name, unit, better: the per-layer metrics a traced run prints, per round
PER_LAYER = (
    ("import.v2xmac_cli_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("coupling.solve_coupled_s", "s", "lower"),
    ("coupling.self_s", "s", "lower"),
    ("coupling.sweeps", "count", "lower"),
    ("coupling.conserving_idle_exit_s", "s", "lower"),
    ("traffic.generators_s", "s", "lower"),
    ("traffic.generator_calls", "count", "lower"),
    ("traffic.queue_s", "s", "lower"),
    ("cv2x.solve_cv2x_s", "s", "lower"),
    ("cv2x.solve_cv2x_calls", "count", "lower"),
    ("dot11p.solve_dot11p_s", "s", "lower"),
    ("dot11p.solve_dot11p_calls", "count", "lower"),
    ("dot11p.calls_per_sweep", "ratio", "lower"),
    ("dot11p.state_delays_s", "s", "lower"),
    ("metrics.evaluate_fixed_point_self_s", "s", "lower"),
    ("sim.dot11p.run_replication_s", "s", "lower"),
    ("sim.cv2x.run_replication_s", "s", "lower"),
    ("sim.dot11p.sim_s_per_s", "s/s", "higher"),
    ("sim.cv2x.sim_s_per_s", "s/s", "higher"),
    ("sim.dot11p.heap_pushes", "count", "lower"),
    ("sim.dot11p.events_per_transmission", "ratio", "lower"),
    ("sim.traffic.arrival_stream_s", "s", "lower"),
    ("sim.report.merge_replications_s", "s", "lower"),
)


def empty_totals():
    return {"total": {}, "self": {}, "calls": {}, "counts": {}}


def add_totals(into, other):
    """Add the totals `other` into `into`, key by key."""
    for part, values in other.items():
        for key, value in values.items():
            into[part][key] = into[part].get(key, 0) + value
    return into


class Tracer:
    """Wraps the SITES while installed and accumulates their spans and counts."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._child_time = []   # one accumulator per open span
        self._undo = []

    def totals(self):
        return {"total": dict(self.total), "self": dict(self.self_time),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def _wrap(self, original, span, on_result):
        stack = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.total[span] += elapsed
                self.self_time[span] += elapsed - children
                self.calls[span] += 1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _count_sweeps(self, args, kwargs, report):
        self.counts["coupling.sweeps"] += report.iterations
        self.counts[f"coupling.sweeps.{report.tech}"] += report.iterations

    def _count_replication(self, tech):
        def on_result(args, kwargs, stats):
            duration_s = kwargs["duration_s"] if "duration_s" in kwargs else args[3]
            self.counts[f"sim.{tech}.simulated_us"] += int(round(duration_s * 1e6))
        return on_result

    def install(self):
        hooks = {"coupling.solve_coupled": self._count_sweeps,
                 "sim.cv2x.run_replication": self._count_replication("cv2x"),
                 "sim.dot11p.run_replication": self._count_replication("dot11p")}
        for module_name, attr, span in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, hooks.get(span)))
        return self

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


@contextlib.contextmanager
def counting_heapq(counts):
    """Count the heap pushes and pops of `v2xmac.sim.dot11p` into `counts`.

    The shim replaces the `heapq` that the simulator looks up while the
    block runs, under the keys sim.dot11p.heap_pushes and heap_pops.
    """
    def heappush(heap, item):
        counts["sim.dot11p.heap_pushes"] += 1
        heapq.heappush(heap, item)

    def heappop(heap):
        counts["sim.dot11p.heap_pops"] += 1
        return heapq.heappop(heap)

    sim_dot11p = importlib.import_module("v2xmac.sim.dot11p")
    original = sim_dot11p.heapq
    sim_dot11p.heapq = SimpleNamespace(heappush=heappush, heappop=heappop)
    try:
        yield counts
    finally:
        sim_dot11p.heapq = original


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(totals, rounds, imports):
    """Per-round per-layer metrics from summed totals over `rounds` rounds.

    `imports` holds the two import.* values. The heap counts come from one
    untimed round and are not divided. A layer that did not run in the
    workload reads 0, and so does a ratio whose base is 0.
    """
    total, self_time = totals["total"], totals["self"]
    calls, counts = totals["calls"], totals["counts"]

    def per_round(table, *keys):
        return sum(table.get(k, 0) for k in keys) / rounds

    sim_s = {tech: counts.get(f"sim.{tech}.simulated_us", 0) / 1e6
             for tech in ("cv2x", "dot11p")}
    values = {
        "import.v2xmac_cli_s": imports["import.v2xmac_cli_s"],
        "import.scipy_s": imports["import.scipy_s"],
        "coupling.solve_coupled_s": per_round(total, "coupling.solve_coupled"),
        "coupling.self_s": per_round(self_time, "coupling.solve_coupled"),
        "coupling.sweeps": per_round(counts, "coupling.sweeps"),
        "coupling.conserving_idle_exit_s": per_round(
            total, "coupling.conserving_idle_exit"),
        "traffic.generators_s": per_round(total, "traffic.solve_cam",
                                          "traffic.solve_denm"),
        "traffic.generator_calls": per_round(calls, "traffic.solve_cam",
                                             "traffic.solve_denm"),
        "traffic.queue_s": per_round(total, "traffic.combine_transition_probs",
                                     "traffic.solve_queue"),
        "cv2x.solve_cv2x_s": per_round(total, "cv2x.solve_cv2x"),
        "cv2x.solve_cv2x_calls": per_round(calls, "cv2x.solve_cv2x"),
        "dot11p.solve_dot11p_s": per_round(total, "dot11p.solve_dot11p"),
        "dot11p.solve_dot11p_calls": per_round(calls, "dot11p.solve_dot11p"),
        "dot11p.calls_per_sweep": _ratio(calls.get("dot11p.solve_dot11p", 0),
                                         counts.get("coupling.sweeps.dot11p", 0)),
        "dot11p.state_delays_s": per_round(total, "dot11p.state_delays"),
        "metrics.evaluate_fixed_point_self_s": per_round(
            self_time, "metrics.evaluate_fixed_point"),
        "sim.dot11p.run_replication_s": per_round(total, "sim.dot11p.run_replication"),
        "sim.cv2x.run_replication_s": per_round(total, "sim.cv2x.run_replication"),
        "sim.dot11p.sim_s_per_s": _ratio(sim_s["dot11p"],
                                         total.get("sim.dot11p.run_replication", 0)),
        "sim.cv2x.sim_s_per_s": _ratio(sim_s["cv2x"],
                                       total.get("sim.cv2x.run_replication", 0)),
        "sim.dot11p.heap_pushes": counts.get("sim.dot11p.heap_pushes", 0),
        "sim.dot11p.events_per_transmission": _ratio(
            counts.get("sim.dot11p.heap_pops", 0),
            counts.get("sim.dot11p.heap_transmissions", 0)),
        "sim.traffic.arrival_stream_s": per_round(total, "sim.traffic.arrival_stream"),
        "sim.report.merge_replications_s": per_round(
            total, "sim.report.merge_replications"),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}


def parse_importtime(text):
    """(v2xmac_s, scipy_s) from the stderr of `python -X importtime`.

    The lines come in post-order: a module's nested imports are listed
    before it, one indentation step deeper. v2xmac_s adds the cumulative
    times of the top-level v2xmac entries, scipy_s those of the scipy
    entries that no other scipy entry encloses.
    """
    roots = []   # (depth, name, cumulative_us, children)
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, raw = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue   # the header line
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        children = []
        while roots and roots[-1][0] == depth + 1:
            children.append(roots.pop())
        roots.append((depth, name, int(cumulative), children))

    def is_pkg(name, pkg):
        return name == pkg or name.startswith(pkg + ".")

    def outermost(nodes, pkg):
        found = 0
        for _, name, cumulative, children in nodes:
            found += cumulative if is_pkg(name, pkg) else outermost(children, pkg)
        return found

    v2xmac_us = sum(c for _, name, c, _ in roots if is_pkg(name, "v2xmac"))
    return v2xmac_us / 1e6, outermost(roots, "scipy") / 1e6


def import_times(python, env, runs=3, timeout=60):
    """Median import.* metrics over `runs` fresh `import v2xmac.cli` interpreters."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import v2xmac.cli"],
                              env=env, capture_output=True, text=True,
                              timeout=timeout, check=True)
        samples.append(parse_importtime(proc.stderr))
    return {"import.v2xmac_cli_s": statistics.median(s[0] for s in samples),
            "import.scipy_s": statistics.median(s[1] for s in samples)}
