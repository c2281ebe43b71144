"""CLI subcommands, config round-trip, CSV schemas, exit codes."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from v2xmac import cli, sim
from v2xmac.chains import CHAIN_KINDS, _states
from v2xmac.cli import RECIPE_DIR, main, recipe_names
from v2xmac.config import ScenarioConfig, parse_config, serialize_config
from v2xmac.errors import ConfigParseError

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"

DEFAULTS = """\
tech=both
n=60
traffic.t_c=100
traffic.t_d=100
traffic.k=5
traffic.lambda=1.0
cv2x.gamma=100
cv2x.p_rk=0.4
"""

SWEEP = DEFAULTS + """\
sweep.parameter=n
sweep.from=50
sweep.to=300
sweep.step=50
"""


def write(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfig:
    def test_round_trip_is_identity(self, tmp_path):
        cfg = parse_config(SWEEP)
        again = parse_config(serialize_config(cfg))
        assert cfg == again

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config("cv2x.gama=100\n")
        assert "line 1" in str(err.value)

    def test_invariant_echo_names_field_and_range(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config("cv2x.p_rk=0.9\n")
        assert "p_rk" in str(err.value)
        assert "[0, 0.8]" in str(err.value)

    def test_gamma_implies_standard_rc_bounds(self):
        cfg = parse_config("cv2x.gamma=20\n")
        assert (cfg.cv2x.r_low, cfg.cv2x.r_high) == (25, 75)

    def test_sweep_values(self):
        cfg = parse_config(SWEEP)
        assert cfg.sweep.values() == [50, 100, 150, 200, 250, 300]


class TestSolveCommand:
    def test_sweep_row_count_and_schema(self, tmp_path, capsys):
        code = main(["solve", "--config", write(tmp_path, SWEEP)])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("#schema=")
        assert lines[1].startswith("tech,N,Gamma,")
        assert len(lines) == 2 + 12  # 6 N values x 2 technologies

    def test_solve_deterministic_bytes(self, tmp_path):
        cfg = write(tmp_path, DEFAULTS)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", "--config", cfg, "--out", str(a)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["solve", "--config", write(tmp_path, "cv2x.p_rk=0.9\n")])
        assert code == 2
        assert "p_rk" in capsys.readouterr().err

    def test_t_d_below_two_is_a_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "tech=cv2x\nn=50\ntraffic.t_d=1\n")
        assert main(["solve", "--config", cfg]) == 2
        assert "traffic.t_d" in capsys.readouterr().err

    def test_saturated_dot11p_solves(self, tmp_path, capsys):
        # theta nears 1 at N = 2000, where the 802.11p MAC saturates
        cfg = write(tmp_path, "tech=dot11p\nn=2000\n")
        assert main(["solve", "--config", cfg]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()[1:]
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["theta"]) == pytest.approx(0.978177, abs=1e-6)
        assert values["converged"] == "true"

    @pytest.mark.parametrize("sweep, field", [
        ("t_c\nsweep.from=10\nsweep.to=30\nsweep.step=10", "traffic.t_c"),
        ("k\nsweep.from=0\nsweep.to=2\nsweep.step=1", "traffic.k"),
        ("p_rk\nsweep.from=0.7\nsweep.to=0.9\nsweep.step=0.1", "cv2x.p_rk"),
        ("gamma\nsweep.from=1\nsweep.to=3\nsweep.step=1", "cv2x.gamma"),
        ("n\nsweep.from=10\nsweep.to=20\nsweep.step=2.5", "n"),
        ("n\nsweep.from=300\nsweep.to=50\nsweep.step=50", "sweep.to"),
    ], ids=["t_c", "k", "p_rk", "gamma", "n-step", "empty"])
    def test_invalid_sweep_is_a_config_error(self, tmp_path, capsys, sweep, field):
        cfg = write(tmp_path, f"tech=cv2x\nsweep.parameter={sweep}\n")
        assert main(["solve", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: {field}: ")


class TestSimulateCommand:
    def test_seeded_rerun_identical_bytes(self, tmp_path):
        cfg = write(tmp_path, "tech=cv2x\nn=5\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--config", cfg, "--seed", "5", "--duration-s", "10",
                "--replications", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trace_file_format(self, tmp_path):
        cfg = write(tmp_path, "tech=cv2x\nn=3\n")
        trace = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg, "--seed", "2",
                     "--duration-s", "10", "--replications", "1",
                     "--out", str(tmp_path / "o.csv"), "--trace", str(trace)]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines
        for line in lines[:50]:
            t_us, vid, event, detail = line.split(",", 3)
            assert t_us.isdigit() and vid.isdigit()
            assert event in {"generation", "enqueue", "drop", "reservation",
                             "transmission", "collision"}

    @pytest.mark.parametrize("flags", [["--duration-s", "nan"], ["--duration-s", "inf"],
                                       ["--duration-s", "10", "--jobs", "-2"]],
                             ids=["nan", "inf", "jobs"])
    def test_invalid_run_settings_exit_2(self, tmp_path, capsys, flags):
        cfg = write(tmp_path, "tech=dot11p\nn=3\n")
        assert main(["simulate", "--config", cfg, "--replications", "1"] + flags) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        cfg = write(tmp_path, "tech=cv2x\nn=3\n")
        assert main([command, "--config", cfg, "--seed", "-1", "--duration-s", "10",
                     "--replications", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: seed must be a non-negative integer, not -1\n"

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_untakeable_trigger_rate_exits_2(self, tmp_path, command):
        # at K = 1 such triggers come 0 us apart: the arrival stream never ended
        cfg = write(tmp_path, "tech=cv2x\nn=3\ntraffic.lambda=1e300\ntraffic.k=1\n")
        run = subprocess.run([sys.executable, "-m", "v2xmac.cli", command, "--config", cfg,
                              "--seed", "1", "--duration-s", "10", "--replications", "1"],
                             capture_output=True, text=True, env=this_v2xmac_env(), timeout=60)
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr == ("error: lambda = 1e+300/s with K = 1 triggers DENMs more often "
                              "than once per 1000 us subframe on average, the most the "
                              "simulator takes\n")

    def test_trace_rejects_several_points(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(sim, "run_sim", lambda *a, **kw: calls.append(a))
        cfg = write(tmp_path, "tech=both\nn=3\n")
        trace = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg, "--duration-s", "10",
                     "--replications", "1", "--trace", str(trace)]) == 2
        assert "--trace" in capsys.readouterr().err
        assert calls == [] and not trace.exists()


class TestCompareCommand:
    def test_compare_emits_three_metrics_per_point(self, tmp_path, capsys):
        cfg = write(tmp_path, "tech=cv2x\nn=5\n")
        code = main(["compare", "--config", cfg, "--seed", "3",
                     "--duration-s", "10", "--replications", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        metrics = [l.split(",")[9] for l in lines[2:]]
        assert metrics == ["P_col", "d_avg_ms", "CU_avg"]

    def test_adaptive_cam_t_c_matches_solve(self, tmp_path, capsys):
        cfg = write(tmp_path, "tech=dot11p\nn=300\nadaptive_cam=true\n")
        assert main(["solve", "--config", cfg]) == 0
        solved = capsys.readouterr().out.strip().splitlines()[2:]
        assert main(["compare", "--config", cfg, "--duration-s", "10",
                     "--replications", "1"]) == 0
        compared = capsys.readouterr().out.strip().splitlines()[2:]
        solve_t_c = {row.split(",")[3] for row in solved}
        compare_t_c = {row.split(",")[3] for row in compared}
        assert solve_t_c == compare_t_c
        assert solve_t_c != {"100"}   # the policy stretched T_C at this load


class TestRecipes:
    def test_listing(self, capsys):
        assert main(["recipes"]) == 0
        names = capsys.readouterr().out.split()
        assert "fig7b_local_optimum" in names
        assert len(names) == 6
        assert names == ["fig6a_delay_vs_N", "fig6b_theta_vs_N", "fig7a_delay_vs_TC",
                         "fig7b_local_optimum", "fig8a_collision_vs_N",
                         "fig8b_utilization_vs_N"]

    def test_emit_matches_shipped_file(self, capsys):
        assert main(["recipes", "fig6a_delay_vs_N"]) == 0
        text = capsys.readouterr().out
        assert text == (RECIPE_DIR / "fig6a_delay_vs_N.cfg").read_text()

    @pytest.mark.parametrize("name", recipe_names())
    def test_all_recipes_parse(self, name):
        parse_config((RECIPE_DIR / f"{name}.cfg").read_text())

    def test_fig6a_recipe_solves_to_curve_family(self, tmp_path):
        cfg = RECIPE_DIR / "fig6a_delay_vs_N.cfg"
        out = tmp_path / "r.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[2:]
        assert len(rows) == 12
        assert all(row.split(",")[-1] == "true" for row in rows)

    @pytest.mark.parametrize("name", recipe_names())
    def test_recipe_solves_to_its_committed_csv(self, name, tmp_path):
        # results/ holds what scripts/run_recipes.py writes; a changed byte shows here
        out = tmp_path / f"{name}.csv"
        assert main(["solve", "--config", str(RECIPE_DIR / f"{name}.cfg"), "--out", str(out)]) == 0
        assert out.read_bytes() == (RESULTS_DIR / f"{name}.csv").read_bytes()

    def test_unknown_recipe(self, capsys):
        assert main(["recipes", "fig99"]) == 2


HEAVY_MODULES = ("sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy') "
                 "or m.startswith('v2xmac.sim'))")


def this_v2xmac_env():
    """The environment of a new interpreter that imports this v2xmac."""
    return {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


def fresh_interpreter(code):
    """stdout of `code` run in a new interpreter that imports this v2xmac."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=this_v2xmac_env()).stdout


def test_cli_import_loads_no_scipy():
    # numpy is the dependency of the oracle, the state arrays and the
    # simulator, which simulate and compare alone load; the CLI pays none
    assert fresh_interpreter(f"import sys, v2xmac.cli; print({HEAVY_MODULES})").strip() == "[]"


def test_oracle_and_simulator_imports_load_no_scipy_and_no_process_pool():
    # the process pool loads with --jobs > 1
    code = ("import sys, v2xmac.chains, v2xmac.sim, v2xmac.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'concurrent', 'multiprocessing')))")
    assert fresh_interpreter(code).strip() == "[]"


def test_simulator_and_cli_imports_load_no_numpy_random():
    # numpy loads numpy.random on first use: the simulators seed their
    # generators in each replication, not at import
    code = "import sys, v2xmac.sim, v2xmac.cli; print('numpy.random' in sys.modules)"
    assert fresh_interpreter(code).strip() == "False"


def test_building_and_solving_a_chain_loads_no_scipy():
    # the oracle's state reduction runs on numpy and plain dicts alone
    code = textwrap.dedent("""
        import sys
        from v2xmac.chains import CouplingInputs, build_chain, hitting_times, solve_steady_state
        from v2xmac.config import ScenarioConfig
        s, c = ScenarioConfig(), CouplingInputs(theta=0.3)
        pi = solve_steady_state(build_chain('queue', s, c))
        d = hitting_times(build_chain('dot11p', s, c), 'idle')
        print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),
              len(pi.probs), repr(float(pi.probs.sum())), len(d), d['idle'])
    """)
    loaded, n, total, states, idle = fresh_interpreter(code).split()
    assert loaded == "[]"
    assert int(n) == 11 and float(total) == pytest.approx(1.0, abs=1e-12)
    assert int(states) == 360 and float(idle) == 0.0


def test_solving_every_recipe_loads_no_numpy(tmp_path):
    # the closed forms and metrics read scalars; no state array is built
    code = textwrap.dedent(f"""
        import sys
        from v2xmac.cli import RECIPE_DIR, main, recipe_names
        for name in recipe_names():
            out = {str(tmp_path)!r} + '/' + name + '.csv'
            if main(['solve', '--config', str(RECIPE_DIR / (name + '.cfg')), '--out', out]):
                raise SystemExit(name)
        print({HEAVY_MODULES})
    """)
    assert fresh_interpreter(code).strip() == "[]"
    assert sorted(p.stem for p in tmp_path.glob("*.csv")) == recipe_names()


def test_reading_every_state_loads_no_numpy():
    # each solution's `state` is pure Python: every state of the five chains
    # at the default fixed points, and every 802.11p delay, reads without numpy
    s = ScenarioConfig()
    states = {kind: [(family, index) for _, family, index in _states(kind, s)]
              for kind in CHAIN_KINDS}
    code = textwrap.dedent(f"""
        import sys
        from v2xmac.config import ScenarioConfig
        from v2xmac.coupling import solve_coupled
        from v2xmac.dot11p import state_delays
        s, states = ScenarioConfig(), {states!r}
        cv2x, dot11p = solve_coupled("cv2x", s), solve_coupled("dot11p", s)
        solutions = dict(cam=cv2x.cam, denm=dot11p.denm, queue=cv2x.queue,
                         cv2x=cv2x.cv2x, dot11p=dot11p.dot11p)
        error = max(abs(sum(sol.state(*state) for state in states[kind]) - 1.0)
                    for kind, sol in solutions.items())
        delays = state_delays(s.dot11p, dot11p.dot11p.theta)
        shortest = min(delays.state(*state) for state in states["dot11p"][1:])
        print(error, shortest, {HEAVY_MODULES})
    """)
    error, shortest, loaded = fresh_interpreter(code).split(maxsplit=2)
    assert float(error) < 1e-10 and float(shortest) >= 1.0
    assert loaded.strip() == "[]"
