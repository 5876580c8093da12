"""Scenario configuration: a line-based text format with [section] headers.

Within a section, entries are `key = value`; repeatable keys (`row`, `line`,
`signal`) accumulate in order. Values are whitespace-separated tokens. The
[stl] section also accepts bare task lines. `#` starts a comment anywhere.
Unknown sections or keys are errors, and validation reports every violated
invariant at once. See the shipped presets for complete examples.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .barriers import AffineBarrier, AlphaFn, GAMMA_MIN, StateBox
from .qp import InputBox
from .vehicle import VehicleParams


class ConfigError(ValueError):
    pass


_REPEATABLE = {"row", "line", "signal"}

_KNOWN_KEYS = {
    "scenario": {"name", "horizon", "dt", "seed"},
    "vehicle": {"mass", "c0", "c1", "c2", "a_max", "a_max_g", "time_headway",
                "standstill_gap", "signal_headway", "g_grav"},
    "input": {"lower", "upper"},
    "initial": {"x_f", "v_f", "x_l"},
    "pid": {"k1", "k2", "k3", "windup_limit"},
    "fcbf": {"rho_speed", "rho_signal", "t_conv_speed", "gamma_min"},
    "tolerances": {"margin"},
    "domain": {"x_f", "v_f", "x_l"},
    "speed_limits": {"row"},
    "signals": {"generate", "count", "first_position", "spacing", "green",
                "yellow", "red", "signal"},
    "lead": {"v0", "row"},
    "stl": {"line"},
    "barriers": None,  # free-form ids
}


def _parse_sections(text: str):
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: entry before any [section]")
        if current == "stl":
            # the whole line is a task line (tasks may contain `=` themselves)
            key, value = "line", line
            if line.startswith("line"):
                head, _, rest = line.partition("=")
                if head.strip() == "line":
                    value = rest.strip()
        elif "=" in line:
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
        else:
            raise ConfigError(f"line {lineno}: expected `key = value`")
        known = _KNOWN_KEYS[current]
        if known is not None and key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        sections[current].append((key, value, lineno))
    return sections


class _Section:
    def __init__(self, entries, name, errors):
        self.entries = entries or []
        self.name = name
        self.errors = errors
        self._single = {}
        for key, value, lineno in self.entries:
            if key not in _REPEATABLE:
                if key in self._single:
                    errors.append(f"[{self.name}] duplicate key {key!r}")
                self._single[key] = value

    def get(self, key, default=None):
        return self._single.get(key, default)

    def num(self, key, default=None):
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            self.errors.append(f"[{self.name}] {key} must be a number, got {raw!r}")
            return default

    def integer(self, key, default=None):
        v = self.num(key)
        if v is None:
            return default
        if not v.is_integer():  # also rejects inf and nan
            self.errors.append(f"[{self.name}] {key} must be an integer, got {self.get(key)!r}")
            return default
        return int(v)

    def pair(self, key, default=None):
        raw = self.get(key)
        if raw is None:
            return default
        toks = raw.split()
        if len(toks) != 2:
            self.errors.append(f"[{self.name}] {key} expects two numbers, got {raw!r}")
            return default
        try:
            return (float(toks[0]), float(toks[1]))
        except ValueError:
            self.errors.append(f"[{self.name}] {key} expects numbers, got {raw!r}")
            return default

    def rows(self, key="row", width=None):
        out = []
        for k, value, lineno in self.entries:
            if k != key:
                continue
            toks = value.split()
            if width is not None and len(toks) != width:
                self.errors.append(
                    f"[{self.name}] line {lineno}: expected {width} values, got {len(toks)}"
                )
                continue
            try:
                out.append(tuple(float(t) for t in toks))
            except ValueError:
                self.errors.append(f"[{self.name}] line {lineno}: non-numeric row {value!r}")
        return out

    def raw_rows(self, key):
        return [(value, lineno) for k, value, lineno in self.entries if k == key]


@dataclass(frozen=True)
class SignalGenSpec:
    count: int = 10
    first_position: float = 400.0
    spacing: tuple = (300.0, 800.0)
    green: tuple = (25.0, 40.0)
    yellow: tuple = (4.0, 6.0)
    red: tuple = (15.0, 30.0)


@dataclass(frozen=True)
class CustomBarrierDecl:
    barrier_id: str
    coeffs: tuple
    offset: float
    alpha_kappa: float = 1.0


@dataclass
class ScenarioConfig:
    """Validated scenario: everything the pipeline needs, defaults applied."""

    name: str
    horizon: float
    dt: float
    seed: int
    vp: VehicleParams
    input_box: InputBox
    x0: tuple
    pid_gains: tuple          # (k1, k2, k3, windup_limit)
    rho_speed: float
    rho_signal: float
    t_conv_speed: float
    gamma_min: float
    margin_tol: float
    domain: StateBox
    speed_rows: Optional[list]
    signal_gen: Optional[SignalGenSpec]
    signal_rows: Optional[list]   # explicit (position, offset, g, y, r)
    lead_v0: float
    lead_rows: list
    stl_text: str
    custom_barriers: list
    raw_text: str = ""

    def scenario_hash(self) -> str:
        basis = f"{self.raw_text}|dt={self.dt!r}|seed={self.seed!r}"
        return hashlib.sha256(basis.encode()).hexdigest()[:12]


def load_config(path_or_name: str) -> ScenarioConfig:
    """Load a config file, or a shipped preset when the argument names one."""
    if os.path.exists(path_or_name):
        with open(path_or_name, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse_config(text, default_name=os.path.basename(path_or_name))
    preset = resources.files("stlcbf").joinpath(f"presets/{path_or_name}.cfg")
    if preset.is_file():
        return parse_config(preset.read_text(encoding="utf-8"), default_name=path_or_name)
    raise ConfigError(f"no such config file or preset: {path_or_name!r}")


def parse_config(text: str, default_name: str = "scenario") -> ScenarioConfig:
    sections = _parse_sections(text)
    errors: list = []

    def sec(name):
        return _Section(sections.get(name), name, errors)

    scn = sec("scenario")
    veh = sec("vehicle")
    inp = sec("input")
    ini = sec("initial")
    pid = sec("pid")
    fcbf = sec("fcbf")
    tol = sec("tolerances")
    dom = sec("domain")
    slim = sec("speed_limits")
    sig = sec("signals")
    lead = sec("lead")
    stl = sec("stl")

    name = scn.get("name", default_name)
    horizon = scn.num("horizon")
    if horizon is None or not (math.isfinite(horizon) and horizon >= 0):
        errors.append("[scenario] horizon must be a finite number >= 0")
        horizon = 0.0
    dt = scn.num("dt", 0.01)
    if not (math.isfinite(dt) and dt > 0):
        errors.append(f"[scenario] dt must be positive and finite, got {dt}")
    seed = scn.integer("seed", 0)

    g_grav = veh.num("g_grav", 9.8)
    a_max = veh.num("a_max")
    a_max_g = veh.num("a_max_g")
    if a_max is not None and a_max_g is not None:
        errors.append("[vehicle] give a_max or a_max_g, not both")
    if a_max is None:
        a_max = (a_max_g if a_max_g is not None else 0.4) * g_grav
    vp = None
    try:
        vp = VehicleParams(
            mass=veh.num("mass", 1650.0), c0=veh.num("c0", 0.1),
            c1=veh.num("c1", 5.0), c2=veh.num("c2", 0.25),
            t_headway=veh.num("time_headway", 1.0),
            s0=veh.num("standstill_gap", 5.0), a_max=a_max,
            beta=veh.num("signal_headway", 2.0), g_grav=g_grav,
        )
    except ValueError as exc:
        errors.append(f"[vehicle] {exc}")

    default_limit = vp.mass * vp.a_max if vp else 6468.0
    lo = inp.num("lower", -default_limit)
    hi = inp.num("upper", default_limit)
    input_box = None
    try:
        input_box = InputBox((lo,), (hi,))
    except ValueError as exc:
        errors.append(f"[input] {exc}")

    x0 = (ini.num("x_f", 0.0), ini.num("v_f", 0.0), ini.num("x_l", 55.0))

    pid_gains = (pid.num("k1", 0.5), pid.num("k2", 0.1), pid.num("k3", 0.01),
                 pid.num("windup_limit", 100.0))
    for key, v in zip(("k1", "k2", "k3"), pid_gains):
        if not math.isfinite(v):
            errors.append(f"[pid] {key} must be finite, got {v}")
    if not (math.isfinite(pid_gains[3]) and pid_gains[3] >= 0):
        errors.append(f"[pid] windup_limit must be finite and >= 0, got {pid_gains[3]}")

    rho_speed = fcbf.num("rho_speed", 0.91)
    rho_signal = fcbf.num("rho_signal", 0.9)
    t_conv_speed = fcbf.num("t_conv_speed", 5.0)
    gamma_min = fcbf.num("gamma_min", GAMMA_MIN)
    for label, rho in (("rho_speed", rho_speed), ("rho_signal", rho_signal)):
        if not (0 <= rho < 1):
            errors.append(f"[fcbf] {label} must lie in [0, 1), got {rho}")
    for key, v in (("t_conv_speed", t_conv_speed), ("gamma_min", gamma_min)):
        if not (math.isfinite(v) and v > 0):
            errors.append(f"[fcbf] {key} must be positive and finite, got {v}")

    margin_tol = tol.num("margin", 1e-3)
    if not (math.isfinite(margin_tol) and margin_tol >= 0):
        errors.append(f"[tolerances] margin must be finite and >= 0, got {margin_tol}")

    dom_xf = dom.pair("x_f", (-1e4, 1e6))
    dom_vf = dom.pair("v_f", (0.0, 80.0))
    dom_xl = dom.pair("x_l", (-1e4, 1e7))
    domain = None
    try:
        domain = StateBox(
            (dom_xf[0], dom_vf[0], dom_xl[0]), (dom_xf[1], dom_vf[1], dom_xl[1])
        )
    except ValueError as exc:
        errors.append(f"[domain] {exc}")

    speed_rows = slim.rows("row", width=2) or None
    if "speed_limits" in sections and not speed_rows:
        errors.append("[speed_limits] section present but no rows")

    signal_gen = None
    signal_rows = None
    if "signals" in sections:
        explicit = sig.rows("signal", width=5)
        if explicit:
            signal_rows = explicit
        else:
            signal_gen = SignalGenSpec(
                count=sig.integer("count", 10),
                first_position=sig.num("first_position", 400.0),
                spacing=sig.pair("spacing", (300.0, 800.0)),
                green=sig.pair("green", (25.0, 40.0)),
                yellow=sig.pair("yellow", (4.0, 6.0)),
                red=sig.pair("red", (15.0, 30.0)),
            )
            if signal_gen.count <= 0:
                errors.append("[signals] count must be positive")

    lead_v0 = lead.num("v0", 0.0)
    lead_rows = lead.rows("row", width=2) or [(0.0, 0.0)]
    if lead_v0 < 0:
        errors.append(f"[lead] v0 must be >= 0, got {lead_v0}")

    stl_lines = [v for v, _ in stl.raw_rows("line")]
    if not stl_lines:
        errors.append("[stl] at least one task line is required")
    stl_text = "\n".join(stl_lines)

    custom = []
    reserved = {"h1", "hv", "hpos"}
    seen_ids = set()
    for key, value, lineno in sections.get("barriers", []):
        if key in seen_ids:
            errors.append(f"[barriers] line {lineno}: duplicate barrier id {key!r}")
            continue
        if key in reserved or key.startswith(("vmax", "sig")):
            errors.append(f"[barriers] line {lineno}: id {key!r} is reserved for built-ins")
            continue
        seen_ids.add(key)
        decl = _parse_barrier_decl(key, value, lineno, errors)
        if decl:
            custom.append(decl)

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))

    return ScenarioConfig(
        name=name, horizon=horizon, dt=dt, seed=seed, vp=vp,
        input_box=input_box, x0=x0, pid_gains=pid_gains,
        rho_speed=rho_speed, rho_signal=rho_signal,
        t_conv_speed=t_conv_speed, gamma_min=gamma_min,
        margin_tol=margin_tol, domain=domain, speed_rows=speed_rows,
        signal_gen=signal_gen, signal_rows=signal_rows,
        lead_v0=lead_v0, lead_rows=lead_rows, stl_text=stl_text,
        custom_barriers=custom, raw_text=text,
    )


def _parse_barrier_decl(barrier_id, value, lineno, errors):
    """`<id> = affine <c1> <c2> <c3> offset=<d> [alpha=<kappa>]`"""
    toks = value.split()
    if not toks or toks[0] != "affine":
        errors.append(f"[barriers] line {lineno}: only the `affine` template is declarable")
        return None
    coeffs = []
    offset = None
    kappa = 1.0
    try:
        for tok in toks[1:]:
            if tok.startswith("offset="):
                offset = float(tok.split("=", 1)[1])
            elif tok.startswith("alpha="):
                kappa = float(tok.split("=", 1)[1])
            else:
                coeffs.append(float(tok))
    except ValueError:
        errors.append(f"[barriers] line {lineno}: non-numeric value in {value!r}")
        return None
    if offset is None or len(coeffs) != 3:
        errors.append(
            f"[barriers] line {lineno}: expected 3 coefficients and offset=<d>"
        )
        return None
    return CustomBarrierDecl(barrier_id, tuple(coeffs), offset, kappa)


def instantiate_custom(decl: CustomBarrierDecl) -> AffineBarrier:
    return AffineBarrier(decl.barrier_id, coeffs=decl.coeffs, offset=decl.offset,
                         alpha=AlphaFn(decl.alpha_kappa))
