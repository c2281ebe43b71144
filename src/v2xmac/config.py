"""Scenario configuration: parameter dataclasses and the flat key=value file format.

Time convention: one subframe = 1 ms. T_C and T_D are given in subframes,
lambda in packets/s. 802.11p timing constants are in microseconds with
aSlotTime = 13 us as the slot unit.

The dataclasses are the one source of each config key, its type, default
and accepted range. The key table, the range check, `parse_config` and
`serialize_config` derive from their fields; lines and sweeps share one setter.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .errors import ConfigParseError

STANDARD_WINDOWS = {100: (5, 15), 50: (10, 30), 20: (25, 75)}
SUBFRAME_US = 1000.0   # the generators, the queue and the DENM trigger step once per subframe
_MAX = math.nextafter(math.inf, 0)   # an unbounded range's high: inf and NaN still fail


def rc_window(gamma):
    """The (r_low, r_high) RC draw bounds a selection window implies."""
    return STANDARD_WINDOWS.get(gamma, (5, 15))


def _param(default, low, high=_MAX, *, above=False, sweep=False, key=None):
    """A field accepting low <= v <= high (low < v if `above`); `key` renames it in files."""
    return field(default=default, metadata=dict(range=(low, high, above), sweep=sweep, key=key))


def _describe(low, high, above, whole):
    """An accepted range as error messages and the README write it."""
    kind = "integer" if whole else "number"
    if high == _MAX:
        return f"{kind} {'>' if above else '>='} {low}"
    return f"{kind} in {'(' if above else '['}{low}, {high}]"


class _Ranged:
    def validate(self):
        """Check each field against the range it declares; raise ConfigParseError."""
        for attr, key, low, high, above, whole in _RULES[type(self)]:
            v = getattr(self, attr)
            try:
                if whole:
                    operator.index(v)
                ok = low < v <= high if above else low <= v <= high
            except TypeError:
                ok = False
            if not ok:
                raise ConfigParseError(
                    f"expected {_describe(low, high, above, whole)}, got {v!r}", field=key)


@dataclass(frozen=True)
class TrafficParams(_Ranged):
    t_c: int = _param(100, 100, 1000, sweep=True)      # CAM inter-arrival, subframes
    t_d: int = _param(100, 2, sweep=True)              # DENM repetition interval, subframes
    k: int = _param(5, 1, 9, sweep=True)               # DENM transmissions per event
    lam: float = _param(1.0, 0, above=True, sweep=True, key="lambda")  # DENM trigger intensity, /s
    m: int = _param(10, 1)                             # queue capacity, packets

    @property
    def sigma(self) -> float:
        """Per-subframe DENM trigger probability, 1 - exp(-lambda * 1 ms)."""
        # SUBFRAME_US / 1e6 is the double nearest 0.001, so this is lambda * 0.001
        return -math.expm1(-self.lam * (SUBFRAME_US / 1e6))


@dataclass(frozen=True)
class Cv2xParams(_Ranged):
    gamma: int = _param(100, 2, sweep=True)            # selection window, subframes
    r_low: int = _param(5, 1)                          # RC draw lower bound
    r_high: int = _param(15, 1)                        # RC draw upper bound
    p_rk: float = _param(0.4, 0, 0.8, sweep=True)      # resource-keep probability
    csrs_per_subframe: int = _param(25, 1)

    def validate(self):
        super().validate()
        if self.r_low > self.r_high:
            raise ConfigParseError("need r_low <= r_high", field="cv2x.r_low")

    @property
    def csr_total(self) -> int:
        """Total CSRs in one selection window."""
        return self.csrs_per_subframe * self.gamma


@dataclass(frozen=True)
class Dot11pParams(_Ranged):
    c_min: int = _param(15, 3)                         # minimum contention window
    aifsn: int = _param(6, 1)
    slot_us: float = _param(13.0, 0, above=True)       # aSlotTime
    sifs_us: float = _param(32.0, 0)                   # aSIFSTime
    tx_slots: int = _param(14, 1)   # slots to transmit one 134-byte packet on the 6 Mbps CCH

    def validate(self):
        super().validate()
        try:
            short = self.omega < 2
        except OverflowError:   # math.ceil of an AIFS of inf slots
            raise ConfigParseError("AIFS spans more slots than a float can count",
                                   field="dot11p.sifs_us") from None
        if short:
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
class ScenarioConfig(_Ranged):
    tech: str = "both"        # cv2x | dot11p | both
    n: int = _param(100, 1, sweep=True)   # vehicles in range
    traffic: TrafficParams = field(default_factory=TrafficParams)
    cv2x: Cv2xParams = field(default_factory=Cv2xParams)
    dot11p: Dot11pParams = field(default_factory=Dot11pParams)
    adaptive_cam: bool = False
    sweep: SweepSpec | None = None

    def validate(self):
        if self.tech not in ("cv2x", "dot11p", "both"):
            raise ConfigParseError("tech must be cv2x, dot11p or both", field="tech")
        super().validate()
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


_TYPES = {"bool": bool, "int": int, "float": float, "str": str}   # annotation -> type


def _key_table():
    """The key, range-rule and sweepable tables, read off the fields' declarations."""
    keys, rules, sweepable = {}, {}, {}
    sections = [(f.name, f.default_factory) for f in fields(ScenarioConfig)
                if is_dataclass(f.default_factory)]
    for section, cls in [(None, ScenarioConfig)] + sections:
        for f in (f for f in fields(cls) if f.type in _TYPES):
            name = f.metadata.get("key") or f.name
            key = f"{section}.{name}" if section else name
            keys[key] = (section, f.name, _TYPES[f.type])
            if "range" in f.metadata:
                rules.setdefault(cls, []).append(
                    (f.name, key, *f.metadata["range"], f.type == "int"))
            if f.metadata.get("sweep"):
                sweepable[name] = key
    return keys, rules, sweepable


_FIELDS, _RULES, _SWEEPABLE = _key_table()
_SWEEP_FIELDS = {f"sweep.{f.metadata.get('key') or f.name}": (f.name, _TYPES[f.type])
                 for f in fields(SweepSpec)}
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
