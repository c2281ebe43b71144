"""Output checks for the benchmark's workloads.

Each check returns a list of problems, empty when the output is correct. A
check is either a property the method must have or a value computed apart
from the program; none compares against a stored copy of earlier output.
"""
from __future__ import annotations

import math

SOLVE_SCHEMA = "#schema=v2xmac.solve.v1"
PROBABILITIES = ("theta", "P_qe", "P_t", "P_txo", "P_col")
THETA_TOL = 1e-7          # absolute, theta against 1 - (1 - P_t)^(N - 1)
CU_REL_TOL = 1e-7         # relative, CU_avg against P_t N (1 - P_col) [/ CSRs]
CONSERVATION_REL_TOL = 1e-5
ORACLE_TOL = 1e-9


def check_solve_csv(text, csrs_per_subframe):
    """Properties every `v2xmac solve` output must have."""
    lines = text.splitlines()
    if not lines or lines[0] != SOLVE_SCHEMA:
        return [f"first line is not {SOLVE_SCHEMA!r}"]
    if len(lines) < 3:
        return ["no result rows"]
    header = lines[1].split(",")
    problems = []
    for lineno, line in enumerate(lines[2:], start=3):
        row = dict(zip(header, line.split(",")))
        where = f"line {lineno} ({row.get('tech')}, N={row.get('N')})"
        if row.get("converged") != "true":
            problems.append(f"{where}: converged={row.get('converged')!r}")
            continue
        try:
            n = int(row["N"])
            vals = {k: float(row[k]) for k in ("theta", "P_qe", "P_t", "P_col",
                                               "d_avg_ms", "CU_avg")}
            if row["tech"] == "cv2x":
                vals["P_txo"] = float(row["P_txo"])
        except (KeyError, ValueError) as exc:
            problems.append(f"{where}: unreadable row: {exc}")
            continue
        for name, value in vals.items():
            if not math.isfinite(value):
                problems.append(f"{where}: {name}={value}")
        for name in PROBABILITIES:
            if name in vals and not 0.0 <= vals[name] <= 1.0:
                problems.append(f"{where}: {name}={vals[name]} outside [0, 1]")
        if not vals["d_avg_ms"] > 0.0:
            problems.append(f"{where}: d_avg_ms={vals['d_avg_ms']} is not positive")
        if row["tech"] == "dot11p":
            theta = 1.0 - (1.0 - vals["P_t"]) ** (n - 1)
            if abs(theta - vals["theta"]) > THETA_TOL:
                problems.append(f"{where}: theta={vals['theta']} but "
                                f"1-(1-P_t)^(N-1)={theta}")
        cu = vals["P_t"] * n * (1.0 - vals["P_col"])
        if row["tech"] == "cv2x":
            cu /= csrs_per_subframe
        if abs(cu - vals["CU_avg"]) > CU_REL_TOL * abs(cu):
            problems.append(f"{where}: CU_avg={vals['CU_avg']} but "
                            f"P_t N (1-P_col)={cu}")
    return problems


def check_same(label, first, again):
    """Two runs of the same operation on the same inputs must agree exactly."""
    return [] if first == again else [f"{label}: a second run differs from the first"]


def check_fixed_point(tech, scenario, report, metrics):
    """Convergence, metric ranges and, for 802.11p, packet conservation."""
    where = f"{tech} {scenario_label(scenario)}"
    problems = []
    if not report.converged:
        return [f"{where}: not converged"]
    for name in ("p_col", "p_t", "p_qe", "theta"):
        value = getattr(metrics, name)
        if not 0.0 <= value <= 1.0:
            problems.append(f"{where}: {name}={value} outside [0, 1]")
    if not (math.isfinite(metrics.d_avg_ms) and metrics.d_avg_ms > 0.0):
        problems.append(f"{where}: d_avg_ms={metrics.d_avg_ms}")
    if not (math.isfinite(metrics.cu_avg) and metrics.cu_avg >= 0.0):
        problems.append(f"{where}: cu_avg={metrics.cu_avg}")
    if tech == "dot11p":
        p = scenario.dot11p
        transmitted = report.state.p_t / p.tx_slots * 1e6 / p.slot_us
        out = transmitted + report.dropped_per_s
        generated = report.generated_per_s
        if not abs(out - generated) <= CONSERVATION_REL_TOL * generated:
            problems.append(f"{where}: transmitted + dropped = {out} packets/s "
                            f"but generated = {generated}")
    return problems


def scenario_label(s):
    return (f"N={s.n} Gamma={s.cv2x.gamma} T_C={s.traffic.t_c} "
            f"T_D={s.traffic.t_d} K={s.traffic.k} lambda={s.traffic.lam} "
            f"P_rk={s.cv2x.p_rk}")


def _stage(family, stage, position):
    """A backoff-stage value, from a dict keyed by stage or an array by position."""
    return family[stage] if isinstance(family, dict) else family[position]


def dot11p_states(sol, params, stages):
    """The 802.11p steady state as {oracle label: probability}."""
    om, th = params.omega, params.tx_slots
    states = {"idle": float(sol.pi_idle)}
    states.update({f"a,{i}": float(sol.pi_a[i - 1]) for i in range(1, om + 1)})
    states.update({f"b,{i}": float(sol.pi_b[i - 1]) for i in range(1, th + 1)})
    for pos, s in enumerate(stages):
        states.update({f"bo,{s},a,{j}": float(_stage(sol.pi_backoff_aifs, s, pos))
                       for j in range(1, om)})
        states.update({f"delta,{s},{j}": float(_stage(sol.pi_delta, s, pos))
                       for j in range(1, th + 1)})
        states[f"sense,{s}"] = float(_stage(sol.pi_sense, s, pos))
    states.update({f"txm,{i}": float(sol.pi_tx[i - 1]) for i in range(1, th + 1)})
    return states


def generator_states(sol, denm):
    states = {"idle": float(sol.pi_idle_denm)} if denm else {}
    states.update({f"tx,{j}": float(v) for j, v in enumerate(sol.pi_tx)})
    states.update({f"txp,{j}": float(v) for j, v in enumerate(sol.pi_txp)})
    return states


def cv2x_states(sol, params):
    states = {"idle": float(sol.pi_idle)}
    states.update({f"w,{j}": float(v) for j, v in enumerate(sol.pi_w)})
    for i in range(1, params.r_high + 1):
        states.update({f"rc,{i},{j}": float(sol.pi_rc[i, j])
                       for j in range(params.gamma)})
    return states


def compare_states(label, closed, oracle):
    """Closed-form states against the oracle's, state by state."""
    if set(closed) != set(oracle.labels):
        return [f"{label}: closed form and oracle disagree on the state set"]
    worst = max(abs(value - oracle[state]) for state, value in closed.items())
    if not worst <= ORACLE_TOL:
        return [f"{label}: closed form differs from the oracle by {worst:.3e}"]
    return []


def check_replication(label, stats, n, duration_s, t_c):
    """Per-vehicle packet conservation and the CAM floor of one replication."""
    if sorted(stats.per_vehicle) != list(range(n)):
        return [f"{label}: counters for {len(stats.per_vehicle)} vehicles, not {n}"]
    problems = []
    cams = math.floor(duration_s * 1000 / t_c)
    for vid, (generated, transmitted, dropped, queued) in sorted(
            stats.per_vehicle.items()):
        if generated != transmitted + dropped + queued:
            problems.append(f"{label} vehicle {vid}: generated {generated} != "
                            f"{transmitted} transmitted + {dropped} dropped + "
                            f"{queued} queued")
        if generated < cams:
            problems.append(f"{label} vehicle {vid}: generated {generated} < "
                            f"{cams} CAMs")
    return problems
