"""Config key table, the one setter, the RC-window rule and sweep validation."""
import math
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from v2xmac.config import (_FIELDS, _SWEEP_FIELDS, _SWEEPABLE, ScenarioConfig, SweepSpec,
                           TrafficParams, parse_config, rc_window, serialize_config)
from v2xmac.errors import ConfigParseError

KEYS = [
    "tech", "n", "adaptive_cam",
    "traffic.t_c", "traffic.t_d", "traffic.k", "traffic.lambda", "traffic.t_tilde",
    "traffic.m",
    "cv2x.gamma", "cv2x.r_low", "cv2x.r_high", "cv2x.p_rk", "cv2x.p_sch",
    "cv2x.csrs_per_subframe",
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
        TrafficParams(t_c=100.0, t_d=2.0, k=9.0).validate()


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
    lines = [raw.split("#", 1)[0].strip() for raw in readme_config_block().splitlines()]
    lines = [line for line in lines if line]
    keys = Counter(line.partition("=")[0] for line in lines)
    assert sorted(keys) == sorted(KEYS + SWEEP_KEYS)
    assert set(keys.values()) == {1}
    for line in lines:
        if not line.startswith("sweep."):
            assert parse_config(line) == ScenarioConfig(), line
    parse_config("\n".join(lines))
