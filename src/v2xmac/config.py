"""Scenario configuration: parameter dataclasses and the flat key=value file format.

Time convention: one subframe = 1 ms. T_C and T_D are given in subframes,
lambda in packets/s, t_tilde in seconds. 802.11p timing constants are in
microseconds with aSlotTime = 13 us as the slot unit.

The dataclasses are the one source of each config key, its type and its
default. The key table, `parse_config` and `serialize_config` derive from
their fields, and written lines and swept values share one setter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Optional, get_type_hints

from .errors import ConfigParseError

STANDARD_WINDOWS = {100: (5, 15), 50: (10, 30), 20: (25, 75)}


def rc_window(gamma):
    """The (r_low, r_high) RC draw bounds a selection window implies."""
    return STANDARD_WINDOWS.get(gamma, (5, 15))


@dataclass(frozen=True)
class TrafficParams:
    t_c: int = 100            # CAM inter-arrival, subframes
    t_d: int = 100            # DENM repetition interval, subframes
    k: int = 5                # DENM transmissions per event
    lam: float = field(default=1.0, metadata={"key": "lambda"})   # DENM trigger intensity, /s
    t_tilde: float = 0.001    # trigger window, seconds (one subframe)
    m: int = 10               # queue capacity, packets

    def validate(self):
        if self.t_c not in range(100, 1001):
            raise ConfigParseError("T_C must be an integer in [100, 1000]", field="traffic.t_c")
        if not (self.t_d >= 2 and self.t_d % 1 == 0):
            raise ConfigParseError("T_D must be an integer >= 2", field="traffic.t_d")
        if self.k not in range(1, 10):
            raise ConfigParseError("K must be an integer in [1, 9]", field="traffic.k")
        if self.lam <= 0:
            raise ConfigParseError("lambda must be > 0", field="traffic.lambda")
        if self.t_tilde <= 0:
            raise ConfigParseError("t_tilde must be > 0", field="traffic.t_tilde")
        if self.m < 1:
            raise ConfigParseError("M must be >= 1", field="traffic.m")

    @property
    def sigma(self) -> float:
        """Per-subframe DENM trigger probability, 1 - exp(-lambda * t_tilde)."""
        return -math.expm1(-self.lam * self.t_tilde)


@dataclass(frozen=True)
class Cv2xParams:
    gamma: int = 100          # selection window, subframes
    r_low: int = 5            # RC draw lower bound
    r_high: int = 15          # RC draw upper bound
    p_rk: float = 0.4         # resource-keep probability
    p_sch: float = 1.0        # scheduling-success probability
    csrs_per_subframe: int = 25

    def validate(self):
        if self.gamma < 2:
            raise ConfigParseError("gamma must be >= 2 subframes", field="cv2x.gamma")
        if not 1 <= self.r_low <= self.r_high:
            raise ConfigParseError("need 1 <= r_low <= r_high", field="cv2x.r_low")
        if not 0.0 <= self.p_rk <= 0.8:
            raise ConfigParseError(
                "p_rk must lie in the standard range [0, 0.8]", field="cv2x.p_rk")
        if not 0.0 < self.p_sch <= 1.0:
            raise ConfigParseError("p_sch must lie in (0, 1]", field="cv2x.p_sch")
        if self.csrs_per_subframe < 1:
            raise ConfigParseError("csrs_per_subframe must be >= 1",
                                   field="cv2x.csrs_per_subframe")

    @property
    def csr_total(self) -> int:
        """Total CSRs in one selection window."""
        return self.csrs_per_subframe * self.gamma


@dataclass(frozen=True)
class Dot11pParams:
    c_min: int = 15           # minimum contention window
    aifsn: int = 6
    slot_us: float = 13.0     # aSlotTime
    sifs_us: float = 32.0     # aSIFSTime
    tx_slots: int = 14        # slots to transmit one 134-byte packet on the 6 Mbps CCH

    def validate(self):
        if self.c_min < 3:
            raise ConfigParseError("c_min must be >= 3", field="dot11p.c_min")
        if self.aifsn < 1:
            raise ConfigParseError("aifsn must be >= 1", field="dot11p.aifsn")
        if self.slot_us <= 0 or self.sifs_us < 0:
            raise ConfigParseError("slot_us must be > 0 and sifs_us >= 0",
                                   field="dot11p.slot_us")
        if self.tx_slots < 1:
            raise ConfigParseError("tx_slots must be >= 1", field="dot11p.tx_slots")
        if self.omega < 2:
            raise ConfigParseError("AIFS must span at least 2 slots", field="dot11p.aifsn")

    @property
    def omega(self) -> int:
        """AIFS length in whole slots: ceil((aSIFSTime + AIFSN * aSlotTime) / aSlotTime)."""
        return math.ceil((self.sifs_us + self.aifsn * self.slot_us) / self.slot_us)


_SWEEP_SLACK = 1e-9   # a swept value this far above sweep.to still counts


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    start: float = field(metadata={"key": "from"})
    stop: float = field(metadata={"key": "to"})
    step: float

    def __post_init__(self):
        if self.parameter not in _SWEEPABLE:
            raise ConfigParseError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"one of {sorted(_SWEEPABLE)}", field="sweep.parameter")
        # a step that moves every value in the range keeps values() finite;
        # this also rejects an infinite bound and a NaN step
        if not self.step > 0 or self.start + self.step == self.start \
                or self.stop + self.step == self.stop:
            raise ConfigParseError("sweep step must be > 0 and move every value",
                                   field="sweep.step")
        if not self.start <= self.stop + _SWEEP_SLACK:
            raise ConfigParseError("sweep.to lies below sweep.from; the sweep is empty",
                                   field="sweep.to")

    def values(self):
        out = []
        v = self.start
        while v <= self.stop + _SWEEP_SLACK:
            out.append(v)
            v += self.step
        return out


@dataclass(frozen=True)
class ScenarioConfig:
    tech: str = "both"        # cv2x | dot11p | both
    n: int = 100              # vehicles in range
    traffic: TrafficParams = field(default_factory=TrafficParams)
    cv2x: Cv2xParams = field(default_factory=Cv2xParams)
    dot11p: Dot11pParams = field(default_factory=Dot11pParams)
    adaptive_cam: bool = False
    sweep: Optional[SweepSpec] = None

    def validate(self):
        if self.tech not in ("cv2x", "dot11p", "both"):
            raise ConfigParseError("tech must be cv2x, dot11p or both", field="tech")
        if self.n < 1:
            raise ConfigParseError("n must be >= 1", field="n")
        self.traffic.validate()
        self.cv2x.validate()
        self.dot11p.validate()
        return self

    def techs(self):
        return ("cv2x", "dot11p") if self.tech == "both" else (self.tech,)

    def with_value(self, parameter: str, value: float) -> "ScenarioConfig":
        """Return a validated copy with one sweepable field set as if written."""
        if parameter not in _SWEEPABLE:
            raise ConfigParseError(f"unknown parameter {parameter!r}", field=parameter)
        return _assign(self, _SWEEPABLE[parameter], value).validate()


def _keys(prefix, cls):
    """(key, attribute, type) for each field of a dataclass; metadata "key" renames."""
    hints = get_type_hints(cls)
    return [(prefix + f.metadata.get("key", f.name), f.name, hints[f.name])
            for f in fields(cls)]


def _key_table():
    """key -> (section or None, attribute, type): the top-level scalars, then each section."""
    top = _keys("", ScenarioConfig)
    table = {key: (None, attr, typ) for key, attr, typ in top if typ in (bool, int, float, str)}
    for section, _, cls in top:
        if is_dataclass(cls):
            table.update((key, (section, attr, typ))
                         for key, attr, typ in _keys(section + ".", cls))
    return table


_FIELDS = _key_table()
_SWEEP_FIELDS = {key: (attr, typ) for key, attr, typ in _keys("sweep.", SweepSpec)}
_SWEEPABLE = {key.rpartition(".")[2]: key for key in (
    "n", "traffic.t_c", "traffic.t_d", "traffic.k", "traffic.lambda", "cv2x.gamma",
    "cv2x.p_rk")}
_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _cast(typ, value, key, line=None):
    """Cast a written or swept value to a field's type, rejecting what does not fit."""
    if typ is str:
        return str(value)
    if typ is bool:
        flag = value if isinstance(value, bool) else _BOOL.get(str(value).lower())
        if flag is None:
            raise ConfigParseError(f"expected a boolean, got {value!r}", line=line, field=key)
        return flag
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigParseError(f"cannot parse {value!r}", line=line, field=key) from None
    if not math.isfinite(number):
        raise ConfigParseError(f"expected a finite number, got {value!r}", line=line, field=key)
    if typ is int:
        if not number.is_integer():
            raise ConfigParseError(f"expected an integer, got {value!r}", line=line, field=key)
        return int(number)
    return number


def _assign(cfg: ScenarioConfig, key: str, value, line=None) -> ScenarioConfig:
    """Return cfg with one key set: the one setter for written lines and swept values.

    The value is cast by the field's type; validation is the caller's. Setting
    cv2x.gamma moves the RC window to rc_window(gamma) when the current window
    is the one the old gamma implies, and keeps a custom window.
    """
    if key not in _FIELDS:
        raise ConfigParseError(f"unknown key {key!r}", line=line, field=key)
    section, attr, typ = _FIELDS[key]
    update = {attr: _cast(typ, value, key, line)}
    if section is None:
        return replace(cfg, **update)
    params = getattr(cfg, section)
    if key == "cv2x.gamma" and (params.r_low, params.r_high) == rc_window(params.gamma):
        update["r_low"], update["r_high"] = rc_window(update["gamma"])
    return replace(cfg, **{section: replace(params, **update)})


def parse_config(text: str) -> ScenarioConfig:
    """Parse the flat dotted key=value format into a validated ScenarioConfig.

    Lines apply in the order written, each through the setter that sweeps use.
    """
    cfg, sweep = ScenarioConfig(), {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigParseError("expected key=value", line=lineno)
        key, _, val = stripped.partition("=")
        key, val = key.strip().lower(), val.strip()
        if key in _SWEEP_FIELDS:
            attr, typ = _SWEEP_FIELDS[key]
            sweep[attr] = _cast(typ, val, key, lineno)
        else:
            cfg = _assign(cfg, key, val, lineno)
    cfg = cfg.validate()
    if not sweep:
        return cfg
    missing = [key for key, (attr, _) in _SWEEP_FIELDS.items() if attr not in sweep]
    if missing:
        raise ConfigParseError(f"sweep requires {missing}", field="sweep")
    sweep["parameter"] = sweep["parameter"].lower()
    return replace(cfg, sweep=SweepSpec(**sweep))


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a ScenarioConfig back to the flat key=value format."""
    lines = []
    for key, (section, attr, _) in _FIELDS.items():
        owner = cfg if section is None else getattr(cfg, section)
        lines.append(f"{key}={_render(getattr(owner, attr))}")
    if cfg.sweep is not None:
        lines += [f"{key}={_render(getattr(cfg.sweep, attr))}"
                  for key, (attr, _) in _SWEEP_FIELDS.items()]
    return "\n".join(lines) + "\n"
