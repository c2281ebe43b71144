"""Config key table, declared ranges, the one setter, the RC-window rule and sweeps."""
import dataclasses
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2xmac.config import (_FIELDS, _RULES, _SWEEP_FIELDS, _SWEEPABLE, Cv2xParams,
                           Dot11pParams, ScenarioConfig, SweepSpec, TrafficParams, _describe,
                           parse_config, rc_window, serialize_config)
from v2xmac.errors import ConfigParseError
from v2xmac.sim import run_sim

KEYS = [
    "tech", "n", "adaptive_cam",
    "traffic.t_c", "traffic.t_d", "traffic.k", "traffic.lambda", "traffic.m",
    "cv2x.gamma", "cv2x.r_low", "cv2x.r_high", "cv2x.p_rk", "cv2x.csrs_per_subframe",
    "dot11p.c_min", "dot11p.aifsn", "dot11p.slot_us", "dot11p.sifs_us", "dot11p.tx_slots",
]
SWEEP_KEYS = ["sweep.parameter", "sweep.from", "sweep.to", "sweep.step"]
README = Path(__file__).resolve().parents[1] / "README.md"


def outcome(make):
    """The config `make` returns, or the field its ConfigParseError names."""
    try:
        return make()
    except ConfigParseError as exc:
        return ("ConfigParseError", exc.field)


class TestKeyTable:
    def test_accepted_keys_in_serialization_order(self):
        assert list(_FIELDS) == KEYS
        assert list(_SWEEP_FIELDS) == SWEEP_KEYS

    def test_sweepable_names(self):
        assert sorted(_SWEEPABLE) == ["gamma", "k", "lambda", "n", "p_rk", "t_c", "t_d"]
        assert set(_SWEEPABLE.values()) <= set(KEYS)

    def test_serialized_keys_follow_the_table(self):
        text = serialize_config(parse_config("sweep.parameter=n\nsweep.from=50\n"
                                             "sweep.to=300\nsweep.step=50\n"))
        assert [line.partition("=")[0] for line in text.splitlines()] == KEYS + SWEEP_KEYS

    def test_removed_scheduling_success_key_is_unknown(self):
        # every selection schedules, in the closed form as in the simulator
        with pytest.raises(ConfigParseError, match="unknown key") as err:
            parse_config("cv2x.p_sch=0.9\n")
        assert err.value.field == "cv2x.p_sch"

    def test_int_field_rejects_non_integral_value(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config("n=12.5\n")
        assert err.value.field == "n" and err.value.line == 1
        assert parse_config("n=12.0\n").n == 12

    @pytest.mark.parametrize("text", ["traffic.lambda=nan\n", "dot11p.slot_us=inf\n"])
    def test_non_finite_number_rejected(self, text):
        with pytest.raises(ConfigParseError) as err:
            parse_config(text)
        assert err.value.field == text.partition("=")[0]

    @pytest.mark.parametrize("name, value", [
        ("t_c", 150.5), ("t_c", math.nan), ("t_d", 100.5), ("t_d", math.nan),
        ("t_d", math.inf), ("k", 2.5), ("k", math.inf),
    ])
    def test_built_params_need_whole_periods_and_copies(self, name, value):
        # parsing casts these to int; a directly built TrafficParams must hold
        # whole numbers too, since the simulators step arrivals by them
        with pytest.raises(ConfigParseError) as err:
            TrafficParams(**{name: value}).validate()
        assert err.value.field == f"traffic.{name}"
        with pytest.raises(ConfigParseError):
            TrafficParams(t_c=100.0, t_d=2.0, k=9.0).validate()


# The hand-written range checks that the field declarations replaced, kept as
# the reference for what validate() accepts.
def reference_traffic(t):
    if t.t_c not in range(100, 1001):
        raise ConfigParseError("T_C must be an integer in [100, 1000]", field="traffic.t_c")
    if not (t.t_d >= 2 and t.t_d % 1 == 0):
        raise ConfigParseError("T_D must be an integer >= 2", field="traffic.t_d")
    if t.k not in range(1, 10):
        raise ConfigParseError("K must be an integer in [1, 9]", field="traffic.k")
    if t.lam <= 0:
        raise ConfigParseError("lambda must be > 0", field="traffic.lambda")
    if t.m < 1:
        raise ConfigParseError("M must be >= 1", field="traffic.m")


def reference_cv2x(c):
    if c.gamma < 2:
        raise ConfigParseError("gamma must be >= 2 subframes", field="cv2x.gamma")
    if not 1 <= c.r_low <= c.r_high:
        raise ConfigParseError("need 1 <= r_low <= r_high", field="cv2x.r_low")
    if not 0.0 <= c.p_rk <= 0.8:
        raise ConfigParseError("p_rk must lie in the standard range [0, 0.8]", field="cv2x.p_rk")
    if c.csrs_per_subframe < 1:
        raise ConfigParseError("csrs_per_subframe must be >= 1", field="cv2x.csrs_per_subframe")


def reference_dot11p(d):
    if d.c_min < 3:
        raise ConfigParseError("c_min must be >= 3", field="dot11p.c_min")
    if d.aifsn < 1:
        raise ConfigParseError("aifsn must be >= 1", field="dot11p.aifsn")
    if d.slot_us <= 0 or d.sifs_us < 0:
        raise ConfigParseError("slot_us must be > 0 and sifs_us >= 0", field="dot11p.slot_us")
    if d.tx_slots < 1:
        raise ConfigParseError("tx_slots must be >= 1", field="dot11p.tx_slots")
    if d.omega < 2:
        raise ConfigParseError("AIFS must span at least 2 slots", field="dot11p.aifsn")


def reference_validate(cfg):
    if cfg.tech not in ("cv2x", "dot11p", "both"):
        raise ConfigParseError("tech must be cv2x, dot11p or both", field="tech")
    if cfg.n < 1:
        raise ConfigParseError("n must be >= 1", field="n")
    reference_traffic(cfg.traffic)
    reference_cv2x(cfg.cv2x)
    reference_dot11p(cfg.dot11p)


# finite values of each field's own type on and around every bound the
# reference checks, and the default
TINY = 5e-324
NEAR_BOUNDS = {
    "n": [-1, 0, 1, 2, 100],
    "traffic.t_c": [99, 100, 101, 999, 1000, 1001],
    "traffic.t_d": [1, 2, 3, 100],
    "traffic.k": [0, 1, 2, 5, 8, 9, 10],
    "traffic.lambda": [-1.0, -TINY, 0.0, TINY, 1.0, 1e300],
    "traffic.m": [-1, 0, 1, 2, 10],
    "cv2x.gamma": [1, 2, 3, 100],
    "cv2x.r_low": [0, 1, 2, 5, 15, 16],
    "cv2x.r_high": [0, 1, 2, 5, 14, 15, 16],
    "cv2x.p_rk": [-TINY, 0.0, TINY, 0.4, 0.8, math.nextafter(0.8, 1.0), 1.0],
    "cv2x.csrs_per_subframe": [0, 1, 2, 25],
    "dot11p.c_min": [2, 3, 4, 15],
    "dot11p.aifsn": [0, 1, 2, 6],
    # a slot of TINY us makes the default AIFS overflow a float, where the
    # reference crashes (test_aifs_beyond_a_float_names_the_field)
    "dot11p.slot_us": [-1.0, -TINY, 0.0, 1e-6, 13.0, 1e300],
    "dot11p.sifs_us": [-1.0, -TINY, 0.0, TINY, 32.0, 1e6],
    "dot11p.tx_slots": [0, 1, 2, 14],
}
INT_KEYS = [key for key, (_, _, typ) in _FIELDS.items() if typ is int]


def set_key(cfg, key, value):
    """cfg with one field set as given, with no cast."""
    section, attr, _ = _FIELDS[key]
    if section is None:
        return dataclasses.replace(cfg, **{attr: value})
    params = dataclasses.replace(getattr(cfg, section), **{attr: value})
    return dataclasses.replace(cfg, **{section: params})


def accepts(check, cfg):
    try:
        check(cfg)
    except ConfigParseError:
        return False
    return True


class TestDeclaredRanges:
    def test_every_parameter_field_declares_a_range(self):
        declared = [f for cls in (TrafficParams, Cv2xParams, Dot11pParams)
                    for f in dataclasses.fields(cls)]
        declared.append(next(f for f in dataclasses.fields(ScenarioConfig) if f.name == "n"))
        assert [f.name for f in declared if "range" not in f.metadata] == []
        ruled = [rule[1] for rules in _RULES.values() for rule in rules]
        assert sorted(ruled) == sorted(set(KEYS) - {"tech", "adaptive_cam"})
        assert sorted(NEAR_BOUNDS) == sorted(ruled)

    def test_sweep_marks_are_the_sweepable_fields(self):
        marked = [f.name for cls in (ScenarioConfig, TrafficParams, Cv2xParams, Dot11pParams)
                  for f in dataclasses.fields(cls) if f.metadata.get("sweep")]
        assert marked == ["n", "t_c", "t_d", "k", "lam", "gamma", "p_rk"]

    @pytest.mark.parametrize("key", sorted(NEAR_BOUNDS))
    def test_one_field_accepts_what_the_reference_accepts(self, key):
        for value in NEAR_BOUNDS[key]:
            cfg = set_key(ScenarioConfig(), key, value)
            assert accepts(ScenarioConfig.validate, cfg) == accepts(reference_validate, cfg), \
                (key, value)

    @settings(max_examples=400, deadline=None)
    @given(st.fixed_dictionaries({key: st.sampled_from(values)
                                  for key, values in NEAR_BOUNDS.items()}))
    def test_combinations_accept_what_the_reference_accepts(self, values):
        cfg = ScenarioConfig()
        for key, value in values.items():
            cfg = set_key(cfg, key, value)
        assert accepts(ScenarioConfig.validate, cfg) == accepts(reference_validate, cfg)

    @pytest.mark.parametrize("key", sorted(NEAR_BOUNDS))
    def test_nan_and_infinities_name_the_field(self, key):
        for value in (math.nan, math.inf, -math.inf):
            cfg = set_key(ScenarioConfig(), key, value)
            section = _FIELDS[key][0]
            for obj in (cfg, cfg if section is None else getattr(cfg, section)):
                with pytest.raises(ConfigParseError) as err:
                    obj.validate()
                assert err.value.field == key, value

    @pytest.mark.parametrize("key", INT_KEYS)
    def test_int_field_needs_an_integer(self, key):
        cfg = ScenarioConfig()
        section, attr, _ = _FIELDS[key]
        default = getattr(cfg if section is None else getattr(cfg, section), attr)
        for value in (default + 0.5, float(default), np.float64(default)):
            with pytest.raises(ConfigParseError) as err:
                set_key(cfg, key, value).validate()
            assert err.value.field == key, value
        assert set_key(cfg, key, np.int64(default)).validate() == cfg

    @pytest.mark.parametrize("key, value", [
        ("traffic.lambda", math.nan), ("traffic.m", math.nan),
        ("dot11p.slot_us", math.nan), ("n", 3.5), ("traffic.m", 2.5), ("cv2x.gamma", 20.5),
        ("n", 20.0), ("traffic.m", 10.0), ("cv2x.gamma", 100.0),
        ("cv2x.csrs_per_subframe", 25.0), ("dot11p.c_min", 15.0), ("dot11p.tx_slots", 14.0),
    ])
    def test_former_crashes_name_the_field(self, key, value):
        cfg = set_key(ScenarioConfig(), key, value)
        calls = [cfg.validate] + [
            lambda tech=tech: run_sim(tech, cfg, seed=1, duration_s=10.0, replications=1)
            for tech in ("cv2x", "dot11p")]
        if not float(value).is_integer():
            calls.append(lambda: parse_config(f"{key}={value!r}\n"))
            name = key.rpartition(".")[2]
            if name in _SWEEPABLE:
                calls.append(lambda: ScenarioConfig().with_value(name, value))
        for call in calls:
            with pytest.raises(ConfigParseError) as err:
                call()
            assert err.value.field == key

    @pytest.mark.parametrize("sifs_us, slot_us", [(1e308, 1e-3), (32.0, TINY)])
    def test_aifs_beyond_a_float_names_the_field(self, sifs_us, slot_us):
        # (sifs_us + aifsn * slot_us) / slot_us is inf, which math.ceil cannot round
        params = Dot11pParams(sifs_us=sifs_us, slot_us=slot_us)
        for obj in (params, ScenarioConfig(dot11p=params)):
            with pytest.raises(ConfigParseError) as err:
                obj.validate()
            assert err.value.field == "dot11p.sifs_us"


class TestDenmTrigger:
    def test_the_trigger_window_is_one_subframe(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config("traffic.t_tilde=0.001\n")
        assert err.value.field == "traffic.t_tilde"

    @given(st.floats(min_value=5e-324, max_value=1e300))
    @settings(max_examples=300, deadline=None)
    def test_sigma_is_lambda_times_one_millisecond(self, lam):
        assert TrafficParams(lam=lam).sigma == -math.expm1(-lam * 0.001)


SWEPT_VALUES = st.one_of(
    st.integers(-10, 1100),
    st.integers(-10, 1100).map(lambda i: i + 0.5),
    st.floats(),
    st.sampled_from([0.0, 0.2, 0.8, 0.8000001, 1.0, 2.0, 20.0, 30.0, 50.0, 1e-300]),
)
BASES = ["", "tech=cv2x\n", "tech=both\nn=60\ncv2x.gamma=20\n", "cv2x.gamma=30\n",
         "cv2x.r_low=3\ncv2x.r_high=9\n", "traffic.t_c=500\ntraffic.k=9\ntraffic.lambda=0.2\n"]


class TestOneSetter:
    @given(base=st.sampled_from(BASES), name=st.sampled_from(sorted(_SWEEPABLE)),
           value=SWEPT_VALUES)
    def test_swept_value_equals_written_value(self, base, name, value):
        swept = outcome(lambda: parse_config(base).with_value(name, value))
        written = outcome(lambda: parse_config(f"{base}{_SWEEPABLE[name]}={value!r}\n"))
        assert swept == written

    @pytest.mark.parametrize("name, value, field", [
        ("t_c", 10.0, "traffic.t_c"),
        ("k", 0.0, "traffic.k"),
        ("p_rk", 0.9, "cv2x.p_rk"),
        ("gamma", 1.0, "cv2x.gamma"),
        ("n", 12.5, "n"),
        ("lambda", float("nan"), "traffic.lambda"),
    ])
    def test_invalid_swept_value_names_its_field(self, name, value, field):
        with pytest.raises(ConfigParseError) as err:
            parse_config("tech=cv2x\n").with_value(name, value)
        assert err.value.field == field

    def test_unknown_sweep_name(self):
        with pytest.raises(ConfigParseError):
            ScenarioConfig().with_value("m", 5)


GAMMAS = [20, 30, 50, 100]


class TestRcWindow:
    def test_rule(self):
        assert [rc_window(g) for g in GAMMAS] == [(25, 75), (5, 15), (10, 30), (5, 15)]

    @pytest.mark.parametrize("start", GAMMAS)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_swept_gamma_matches_written_gamma(self, start, gamma):
        swept = parse_config(f"cv2x.gamma={start}\n").with_value("gamma", gamma)
        assert swept.cv2x == parse_config(f"cv2x.gamma={gamma}\n").cv2x
        assert (swept.cv2x.r_low, swept.cv2x.r_high) == rc_window(gamma)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_custom_window_is_kept(self, gamma):
        window = "cv2x.r_low=3\ncv2x.r_high=9\n"
        for cfg in (parse_config(window).with_value("gamma", gamma),
                    parse_config(f"{window}cv2x.gamma={gamma}\n"),
                    parse_config(f"cv2x.gamma={gamma}\n{window}")):
            assert (cfg.cv2x.gamma, cfg.cv2x.r_low, cfg.cv2x.r_high) == (gamma, 3, 9)


class TestSweepRange:
    @pytest.mark.parametrize("range_lines, field", [
        ("sweep.from=300\nsweep.to=50\nsweep.step=50", "sweep.to"),
        ("sweep.from=50\nsweep.to=300\nsweep.step=0", "sweep.step"),
        ("sweep.from=50\nsweep.to=300\nsweep.step=-50", "sweep.step"),
        ("sweep.from=50\nsweep.to=inf\nsweep.step=50", "sweep.to"),
        ("sweep.from=50\nsweep.to=300", "sweep"),
    ])
    def test_bad_range_fails_at_parse(self, range_lines, field):
        with pytest.raises(ConfigParseError) as err:
            parse_config(f"sweep.parameter=n\n{range_lines}\n")
        assert err.value.field == field

    def test_unknown_parameter(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config("sweep.parameter=m\nsweep.from=1\nsweep.to=2\nsweep.step=1\n")
        assert err.value.field == "sweep.parameter"

    @pytest.mark.parametrize("start, stop, step", [
        (50, 300, 0), (50, 300, -1), (50, 300, math.nan), (50, math.inf, 1),
        (1e17, 1e17 + 1000, 1),   # the step vanishes in rounding: v + step == v
    ])
    def test_library_sweep_spec_cannot_loop_forever(self, start, stop, step):
        with pytest.raises(ConfigParseError):
            SweepSpec("n", start, stop, step)

    def test_single_point_within_slack(self):
        assert SweepSpec("n", 50, 50 - 1e-12, 10).values() == [50]


def readme_config_block():
    text = README.read_text()
    section = text[text.index("### Config format"):]
    return re.search(r"```\n(.*?)```", section, re.S).group(1)


def test_readme_config_block_lists_every_key_with_its_default():
    ranges = {key: _describe(*rule) for rules in _RULES.values() for _, key, *rule in rules}
    lines = []
    for raw in readme_config_block().splitlines():
        line, _, comment = (part.strip() for part in raw.partition("#"))
        if line:
            lines.append(line)
            key = line.partition("=")[0]
            if key in ranges:
                assert comment.rpartition("; ")[2] == ranges[key], line
    keys = Counter(line.partition("=")[0] for line in lines)
    assert sorted(keys) == sorted(KEYS + SWEEP_KEYS)
    assert set(keys.values()) == {1}
    for line in lines:
        if not line.startswith("sweep."):
            assert parse_config(line) == ScenarioConfig(), line
    parse_config("\n".join(lines))
