"""Scenario configuration: parameter dataclasses and the flat key=value file format.

Time convention: one subframe = 1 ms. T_C and T_D are given in subframes,
lambda in packets/s, t_tilde in seconds. 802.11p timing constants are in
microseconds with aSlotTime = 13 us as the slot unit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigParseError

STANDARD_WINDOWS = {100: (5, 15), 50: (10, 30), 20: (25, 75)}


@dataclass(frozen=True)
class TrafficParams:
    t_c: int = 100            # CAM inter-arrival, subframes
    t_d: int = 100            # DENM repetition interval, subframes
    k: int = 5                # DENM transmissions per event
    lam: float = 1.0          # DENM trigger intensity, packets/s
    t_tilde: float = 0.001    # trigger window, seconds (one subframe)
    m: int = 10               # queue capacity, packets

    def validate(self):
        if not 100 <= self.t_c <= 1000:
            raise ConfigParseError("T_C must lie in [100, 1000] subframes", field="traffic.t_c")
        if self.t_d < 2:
            raise ConfigParseError("T_D must be >= 2 subframes", field="traffic.t_d")
        if not 1 <= self.k <= 9:
            raise ConfigParseError("K must lie in [1, 9]", field="traffic.k")
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


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    start: float
    stop: float
    step: float

    def values(self):
        if self.step <= 0:
            raise ConfigParseError("sweep step must be > 0", field="sweep.step")
        out = []
        v = self.start
        while v <= self.stop + 1e-9:
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
        if self.sweep is not None and self.sweep.parameter not in _SWEEPABLE:
            raise ConfigParseError(
                f"unknown sweep parameter {self.sweep.parameter!r}; "
                f"one of {sorted(_SWEEPABLE)}", field="sweep.parameter")
        return self

    def techs(self):
        return ("cv2x", "dot11p") if self.tech == "both" else (self.tech,)

    def with_value(self, parameter: str, value: float) -> "ScenarioConfig":
        """Return a copy with one sweepable field replaced."""
        if parameter not in _SWEEPABLE:
            raise ConfigParseError(f"unknown parameter {parameter!r}", field=parameter)
        return _SWEEPABLE[parameter](self, value)


def _set_traffic(name, cast):
    def setter(cfg, value):
        return replace(cfg, traffic=replace(cfg.traffic, **{name: cast(value)}))
    return setter


def _set_cv2x(name, cast):
    def setter(cfg, value):
        return replace(cfg, cv2x=replace(cfg.cv2x, **{name: cast(value)}))
    return setter


def _set_gamma(cfg, value):
    g = int(value)
    lo, hi = STANDARD_WINDOWS.get(g, (cfg.cv2x.r_low, cfg.cv2x.r_high))
    return replace(cfg, cv2x=replace(cfg.cv2x, gamma=g, r_low=lo, r_high=hi))


_SWEEPABLE = {
    "n": lambda cfg, v: replace(cfg, n=int(v)),
    "t_c": _set_traffic("t_c", int),
    "t_d": _set_traffic("t_d", int),
    "k": _set_traffic("k", int),
    "lambda": _set_traffic("lam", float),
    "gamma": _set_gamma,
    "p_rk": _set_cv2x("p_rk", float),
}

_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(raw, line, key):
    try:
        return _BOOL[raw.strip().lower()]
    except KeyError:
        raise ConfigParseError(f"expected a boolean, got {raw!r}", line=line, field=key)


_KEYS = {
    "tech": ("tech", str),
    "n": ("n", int),
    "adaptive_cam": ("adaptive_cam", None),
    "traffic.t_c": ("traffic.t_c", int),
    "traffic.t_d": ("traffic.t_d", int),
    "traffic.k": ("traffic.k", int),
    "traffic.lambda": ("traffic.lam", float),
    "traffic.t_tilde": ("traffic.t_tilde", float),
    "traffic.m": ("traffic.m", int),
    "cv2x.gamma": ("cv2x.gamma", int),
    "cv2x.r_low": ("cv2x.r_low", int),
    "cv2x.r_high": ("cv2x.r_high", int),
    "cv2x.p_rk": ("cv2x.p_rk", float),
    "cv2x.p_sch": ("cv2x.p_sch", float),
    "cv2x.csrs_per_subframe": ("cv2x.csrs_per_subframe", int),
    "dot11p.c_min": ("dot11p.c_min", int),
    "dot11p.aifsn": ("dot11p.aifsn", int),
    "dot11p.slot_us": ("dot11p.slot_us", float),
    "dot11p.sifs_us": ("dot11p.sifs_us", float),
    "dot11p.tx_slots": ("dot11p.tx_slots", int),
    "sweep.parameter": ("sweep.parameter", str),
    "sweep.from": ("sweep.from", float),
    "sweep.to": ("sweep.to", float),
    "sweep.step": ("sweep.step", float),
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse the flat dotted key=value format into a validated ScenarioConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigParseError("expected key=value", line=lineno)
        key, _, val = stripped.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if key not in _KEYS:
            raise ConfigParseError(f"unknown key {key!r}", line=lineno, field=key)
        target, cast = _KEYS[key]
        if cast is None:
            values[target] = _parse_bool(val, lineno, key)
        else:
            try:
                values[target] = cast(val)
            except ValueError:
                raise ConfigParseError(f"cannot parse {val!r}", line=lineno, field=key)

    traffic = TrafficParams(
        t_c=values.get("traffic.t_c", 100),
        t_d=values.get("traffic.t_d", 100),
        k=values.get("traffic.k", 5),
        lam=values.get("traffic.lam", 1.0),
        t_tilde=values.get("traffic.t_tilde", 0.001),
        m=values.get("traffic.m", 10),
    )
    gamma = values.get("cv2x.gamma", 100)
    lo, hi = STANDARD_WINDOWS.get(gamma, (5, 15))
    cv2x = Cv2xParams(
        gamma=gamma,
        r_low=values.get("cv2x.r_low", lo),
        r_high=values.get("cv2x.r_high", hi),
        p_rk=values.get("cv2x.p_rk", 0.4),
        p_sch=values.get("cv2x.p_sch", 1.0),
        csrs_per_subframe=values.get("cv2x.csrs_per_subframe", 25),
    )
    dot11p = Dot11pParams(
        c_min=values.get("dot11p.c_min", 15),
        aifsn=values.get("dot11p.aifsn", 6),
        slot_us=values.get("dot11p.slot_us", 13.0),
        sifs_us=values.get("dot11p.sifs_us", 32.0),
        tx_slots=values.get("dot11p.tx_slots", 14),
    )
    sweep = None
    if "sweep.parameter" in values:
        missing = [k for k in ("sweep.from", "sweep.to", "sweep.step") if k not in values]
        if missing:
            raise ConfigParseError(f"sweep requires {missing}", field="sweep")
        sweep = SweepSpec(values["sweep.parameter"].lower(), values["sweep.from"],
                          values["sweep.to"], values["sweep.step"])
    cfg = ScenarioConfig(
        tech=values.get("tech", "both"),
        n=values.get("n", 100),
        traffic=traffic,
        cv2x=cv2x,
        dot11p=dot11p,
        adaptive_cam=values.get("adaptive_cam", False),
        sweep=sweep,
    )
    return cfg.validate()


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a ScenarioConfig back to the flat key=value format."""
    lines = [
        f"tech={cfg.tech}",
        f"n={cfg.n}",
        f"adaptive_cam={'true' if cfg.adaptive_cam else 'false'}",
        f"traffic.t_c={cfg.traffic.t_c}",
        f"traffic.t_d={cfg.traffic.t_d}",
        f"traffic.k={cfg.traffic.k}",
        f"traffic.lambda={cfg.traffic.lam!r}",
        f"traffic.t_tilde={cfg.traffic.t_tilde!r}",
        f"traffic.m={cfg.traffic.m}",
        f"cv2x.gamma={cfg.cv2x.gamma}",
        f"cv2x.r_low={cfg.cv2x.r_low}",
        f"cv2x.r_high={cfg.cv2x.r_high}",
        f"cv2x.p_rk={cfg.cv2x.p_rk!r}",
        f"cv2x.p_sch={cfg.cv2x.p_sch!r}",
        f"cv2x.csrs_per_subframe={cfg.cv2x.csrs_per_subframe}",
        f"dot11p.c_min={cfg.dot11p.c_min}",
        f"dot11p.aifsn={cfg.dot11p.aifsn}",
        f"dot11p.slot_us={cfg.dot11p.slot_us!r}",
        f"dot11p.sifs_us={cfg.dot11p.sifs_us!r}",
        f"dot11p.tx_slots={cfg.dot11p.tx_slots}",
    ]
    if cfg.sweep is not None:
        lines += [
            f"sweep.parameter={cfg.sweep.parameter}",
            f"sweep.from={cfg.sweep.start!r}",
            f"sweep.to={cfg.sweep.stop!r}",
            f"sweep.step={cfg.sweep.step!r}",
        ]
    return "\n".join(lines) + "\n"
