"""Command-line interface: solve, simulate, compare, recipes.

Exit codes: 0 on success, 2 on configuration errors, 3 on solver
non-convergence. All output is CSV with a schema header line, written
deterministically so repeated runs are byte-identical.
"""
from __future__ import annotations

import argparse
import sys
from importlib.resources import files
from pathlib import Path

from .config import ScenarioConfig, parse_config
from .coupling import resolve_adaptive_t_c, solve_coupled
from .errors import ConfigParseError, NoFixedPoint, V2xMacError
from .metrics import evaluate_fixed_point

SOLVE_SCHEMA = "#schema=v2xmac.solve.v1"
SOLVE_HEADER = ("tech,N,Gamma,T_C,T_D,K,lambda,P_rk,AIFSN,theta,P_qe,P_t,"
                "P_txo,P_col,d_avg_ms,CU_avg,iterations,converged")
SIM_SCHEMA = "#schema=v2xmac.simulate.v1"
SIM_HEADER = ("tech,N,Gamma,T_C,T_D,K,lambda,P_rk,AIFSN,seed,duration_s,"
              "replications,P_col_hat,d_avg_ms_hat,d_end_avg_ms_hat,CU_avg_hat,"
              "ci_P_col,ci_d_avg_ms,ci_CU_avg,drops,transmissions,reliable")
COMPARE_SCHEMA = "#schema=v2xmac.compare.v1"
COMPARE_HEADER = ("tech,N,Gamma,T_C,T_D,K,lambda,P_rk,AIFSN,metric,"
                  "analytical,simulated,rel_err,ci95")

RECIPE_DIR = files(__package__) / "recipes"   # the shipped *.cfg recipes


def _fmt(x, places=9):
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.{places}g}"
    return str(x)


def _scenario_points(cfg: ScenarioConfig):
    """Expand the sweep into (tech, scenario) points in deterministic order.

    Each scenario is the effective one: it carries the rate-controlled T_C
    when adaptive_cam is set, so every command solves and simulates alike.
    """
    if cfg.sweep is None:
        bases = [cfg]
    else:
        bases = [cfg.with_value(cfg.sweep.parameter, v) for v in cfg.sweep.values()]
    return [(tech, resolve_adaptive_t_c(tech, base))
            for base in bases for tech in base.techs()]


def _coords(tech, s: ScenarioConfig):
    return [tech, s.n, s.cv2x.gamma, s.traffic.t_c, s.traffic.t_d, s.traffic.k,
            _fmt(s.traffic.lam), _fmt(s.cv2x.p_rk), s.dot11p.aifsn]


def _write(out_path, lines):
    text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def cmd_solve(args):
    cfg = parse_config(Path(args.config).read_text())
    lines = [SOLVE_SCHEMA, SOLVE_HEADER]
    for tech, s in _scenario_points(cfg):
        m = evaluate_fixed_point(solve_coupled(tech, s), s)
        row = _coords(tech, s) + [
            _fmt(m.theta), _fmt(m.p_qe), _fmt(m.p_t), _fmt(m.p_txo),
            _fmt(m.p_col), _fmt(m.d_avg_ms), _fmt(m.cu_avg),
            m.iterations, _fmt(m.converged)]
        lines.append(",".join(str(c) for c in row))
    _write(args.out, lines)
    return 0


def cmd_simulate(args):
    from .sim import run_sim   # the simulator stays off the import path of `solve`
    cfg = parse_config(Path(args.config).read_text())
    points = _scenario_points(cfg)
    if args.trace and len(points) > 1:
        raise ConfigParseError(f"--trace needs a config with one scenario point, "
                               f"not {len(points)} (tech=both counts as two)")
    trace_sink = None
    trace_lines = []
    if args.trace:
        def trace_sink(t_us, vid, event, detail):
            trace_lines.append(f"{t_us},{vid},{event},{detail}")
    lines = [SIM_SCHEMA, SIM_HEADER]
    for tech, s in points:
        rep = run_sim(tech, s, seed=args.seed, duration_s=args.duration_s,
                      replications=args.replications, jobs=args.jobs,
                      trace=trace_sink)
        row = _coords(tech, s) + [
            args.seed, _fmt(args.duration_s), args.replications,
            _fmt(rep.p_col_hat), _fmt(rep.d_avg_hat_ms), _fmt(rep.d_end_avg_hat_ms),
            _fmt(rep.cu_avg_hat), _fmt(rep.ci95["p_col"]), _fmt(rep.ci95["d_avg_ms"]),
            _fmt(rep.ci95["cu_avg"]), rep.drops, rep.transmissions,
            _fmt(rep.reliable)]
        lines.append(",".join(str(c) for c in row))
    if args.trace:
        Path(args.trace).write_text("\n".join(trace_lines) + "\n")
    _write(args.out, lines)
    return 0


def cmd_compare(args):
    from .sim import run_sim
    cfg = parse_config(Path(args.config).read_text())
    lines = [COMPARE_SCHEMA, COMPARE_HEADER]
    for tech, s in _scenario_points(cfg):
        m = evaluate_fixed_point(solve_coupled(tech, s), s)
        sim = run_sim(tech, s, seed=args.seed, duration_s=args.duration_s,
                      replications=args.replications, jobs=args.jobs)
        # the 802.11p delay formula clocks generation to transmission end
        sim_d = sim.d_end_avg_hat_ms if tech == "dot11p" else sim.d_avg_hat_ms
        for metric, anal, simv, ci in (
                ("P_col", m.p_col, sim.p_col_hat, sim.ci95["p_col"]),
                ("d_avg_ms", m.d_avg_ms, sim_d, sim.ci95["d_avg_ms"]),
                ("CU_avg", m.cu_avg, sim.cu_avg_hat, sim.ci95["cu_avg"])):
            rel = (simv - anal) / anal if anal != 0.0 else (0.0 if simv == 0.0 else float("inf"))
            row = _coords(tech, s) + [metric, _fmt(anal), _fmt(simv), _fmt(rel), _fmt(ci)]
            lines.append(",".join(str(c) for c in row))
    _write(args.out, lines)
    return 0


def recipe_names():
    """Names of the shipped recipes (file stems), sorted."""
    return sorted(p.name[:-len(".cfg")] for p in RECIPE_DIR.iterdir()
                  if p.name.endswith(".cfg"))


def cmd_recipes(args):
    names = recipe_names()
    if args.name is None:
        for name in names:
            print(name)
        return 0
    if args.name not in names:
        raise ConfigParseError(f"unknown recipe {args.name!r}; one of {names}")
    text = (RECIPE_DIR / f"{args.name}.cfg").read_text()
    if args.out and args.out != "-":
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="v2xmac",
                                 description="MAC-layer performance models for "
                                             "C-V2X Mode 4 and IEEE 802.11p")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, sim=False):
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", default="-", help="output CSV path (default stdout)")
        if sim:
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the replications")
            p.add_argument("--seed", type=int, default=1)
            p.add_argument("--duration-s", dest="duration_s", type=float, default=60.0)
            p.add_argument("--replications", type=int, default=20)

    p = sub.add_parser("solve", help="solve the coupled fixed point(s)")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="run the discrete-event simulator")
    common(p, sim=True)
    p.add_argument("--trace", default=None, help="write an event trace here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="analytics vs simulation")
    common(p, sim=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("recipes", help="list or emit shipped recipe configs")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_recipes)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NoFixedPoint as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except V2xMacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
