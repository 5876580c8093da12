"""Scenario configuration: a line-based text format with [section] headers.

Within a section, entries are `key = value`; repeatable keys (`row`, `line`,
`signal`) accumulate in order. Values are whitespace-separated tokens. The
[stl] section also accepts bare task lines. `#` starts a comment anywhere.
Unknown sections or keys are errors. `parse_config` is the one input stage:
it builds every object the file gives (vehicle parameters, input box, domain,
PID gains, lead profile, speed limits, explicit signals, custom barriers),
runs each constructor's own checks, and reports every violated invariant at
once, each under its section (and line, for row-shaped input). A default
the file leaves out is read from the object that owns it. See the shipped
presets for complete examples.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .barriers import AffineBarrier, AlphaFn, GAMMA_MIN, StateBox
from .contracts import ScheduleConfig
from .qp import InputBox, PidState
from .sim import DEFAULT_DT
from .stl import MONITOR_TOL
from .vehicle import (
    A_MAX_G, DEFAULT_DOMAIN, LeadProfile, SignalTimings, SpeedLimitSchedule, VehicleParams,
)


class ConfigError(ValueError):
    pass


_REPEATABLE = {"row", "line", "signal"}

# the [signals] keys that describe a generated plan; none goes with signal rows
_PLAN_KEYS = ("generate", "count", "first_position", "spacing", "green", "yellow", "red")

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
    "signals": {*_PLAN_KEYS, "signal"},
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

    def nums(self, *keys, **renamed) -> dict:
        """{name: number} for each key the section gives, named as the key or
        as `renamed[key]`; the keys it leaves out take their owner's default."""
        names = {**dict(zip(keys, keys)), **renamed}
        return {name: v for key, name in names.items() if (v := self.num(key)) is not None}

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
        try:
            lo, hi = map(float, toks)
        except ValueError:
            lo = hi = math.nan
        if not (math.isfinite(lo) and math.isfinite(hi)):
            self.errors.append(f"[{self.name}] {key} expects two finite numbers, got {raw!r}")
            return default
        return lo, hi

    def rows(self, key, width):
        """[(lineno, values)] of every `key` row, or None when one is bad:
        each bad row is reported with its line, and nothing is built from
        the rest."""
        rows = [(lineno, self.build(_row, value, width, lineno=lineno))
                for k, value, lineno in self.entries if k == key]
        return None if any(vals is None for _, vals in rows) else rows

    def build(self, make, *args, lineno=None, **kwargs):
        """make(*args, **kwargs), or None with its ValueError reported under
        this section (and `lineno`)."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            where = f"[{self.name}]" + (f" line {lineno}:" if lineno else "")
            self.errors.append(f"{where} {exc}")
            return None


@dataclass
class ScenarioConfig:
    """Validated scenario: every object the file gives, built and checked,
    defaults applied. A generated signal plan stays as the keywords the file
    gives to `generate_signal_plan`: the scenario builds it, from the seed
    that holds then (`synth run --seed` replaces it after parsing)."""

    name: str
    horizon: float
    dt: float
    seed: int
    vp: VehicleParams
    input_box: InputBox
    x0: tuple
    pid: PidState             # gains; each scenario build runs a fresh copy
    rho_speed: float
    rho_signal: float
    t_conv_speed: float
    gamma_min: float
    margin_tol: float
    domain: StateBox
    lead: LeadProfile
    limits: Optional[SpeedLimitSchedule]
    signals: list             # explicit SignalTimings; [] when generated or absent
    signal_plan: Optional[dict]
    stl_text: str
    barriers: list            # AffineBarrier, one per [barriers] entry
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
        horizon = math.inf  # no speed-limit row can start beyond it
    dt = scn.num("dt", DEFAULT_DT)
    if not (math.isfinite(dt) and dt > 0):
        errors.append(f"[scenario] dt must be positive and finite, got {dt}")
    seed = scn.integer("seed", 0)

    vehicle = veh.nums("mass", "c0", "c1", "c2", "a_max", "g_grav", time_headway="t_headway",
                       standstill_gap="s0", signal_headway="beta")
    a_max_g = veh.num("a_max_g")
    if a_max_g is not None and "a_max" in vehicle:
        errors.append("[vehicle] give a_max or a_max_g, not both")
    if "a_max" not in vehicle:
        g_grav = vehicle.get("g_grav", VehicleParams.g_grav)
        vehicle["a_max"] = (A_MAX_G if a_max_g is None else a_max_g) * g_grav
    vp = veh.build(VehicleParams, **vehicle)

    lo, hi = inp.num("lower"), inp.num("upper")
    input_box = None
    if vp is not None:
        limit = vp.mass * vp.a_max
        input_box = inp.build(InputBox, (-limit if lo is None else lo,),
                              (limit if hi is None else hi,))

    axes = ("x_f", "v_f", "x_l")
    x0 = tuple(ini.num(key, default) for key, default in zip(axes, (0.0, 0.0, 55.0)))

    pid_state = pid.build(PidState, **pid.nums("k1", "k2", "k3", "windup_limit"))

    rho_speed = fcbf.num("rho_speed", 0.91)
    rho_signal = fcbf.num("rho_signal", 0.9)
    t_conv_speed = fcbf.num("t_conv_speed", ScheduleConfig.t_conv)
    gamma_min = fcbf.num("gamma_min", GAMMA_MIN)
    for label, rho in (("rho_speed", rho_speed), ("rho_signal", rho_signal)):
        if not (0 <= rho < 1):
            errors.append(f"[fcbf] {label} must lie in [0, 1), got {rho}")
    for key, v in (("t_conv_speed", t_conv_speed), ("gamma_min", gamma_min)):
        if not (math.isfinite(v) and v > 0):
            errors.append(f"[fcbf] {key} must be positive and finite, got {v}")

    margin_tol = tol.num("margin", MONITOR_TOL)
    if not (math.isfinite(margin_tol) and margin_tol >= 0):
        errors.append(f"[tolerances] margin must be finite and >= 0, got {margin_tol}")

    bounds = [dom.pair(key, default) for key, default in
              zip(axes, zip(DEFAULT_DOMAIN.lower, DEFAULT_DOMAIN.upper))]
    domain = dom.build(StateBox, *zip(*bounds))
    for key, v, (lo, hi) in zip(axes, x0, bounds):
        if not math.isfinite(v):
            errors.append(f"[initial] {key} must be finite, got {v}")
        elif domain is not None and not lo - 1e-9 <= v <= hi + 1e-9:  # run_simulation's pad
            errors.append(f"[initial] {key} = {v} lies outside [domain] {key} = {lo} {hi}")

    v0, lead_rows = lead.num("v0", 0.0), lead.rows("row", 2)
    profile = None
    if lead_rows is not None:
        profile = lead.build(LeadProfile, v0, [vals for _, vals in lead_rows])

    limits = None
    speed_rows = slim.rows("row", 2)
    if "speed_limits" in sections and speed_rows is not None:
        limits = slim.build(SpeedLimitSchedule, [vals for _, vals in speed_rows], horizon)

    signals, signal_plan = [], None
    if "signals" in sections:
        # a section without signal rows generates the plan; `generate = true`
        # only says so, and any other value is a mistake, not a switch; next
        # to signal rows a plan key would be ignored, so each is an error
        generate = sig.get("generate")
        if generate not in (None, "true"):
            errors.append(f"[signals] generate must be true, got {generate!r}")
        if any(key == "signal" for key, _, _ in sig.entries):
            errors.extend(f"[signals] {key} = {sig.get(key)} cannot go with signal rows"
                          for key in _PLAN_KEYS if sig.get(key) is not None)
        explicit = sig.rows("signal", 5)
        if explicit:
            for lineno, (p, o, g, y, r) in explicit:
                period = g + y + r
                signals.append(sig.build(SignalTimings, p, g, y, r, lineno=lineno,
                                         offset=o % period if period else o))
        elif explicit is not None:
            signal_plan = sig.nums("first_position")
            if not all(map(math.isfinite, signal_plan.values())):
                errors.append(f"[signals] first_position must be finite, "
                              f"got {signal_plan['first_position']}")
            if (count := sig.integer("count")) is not None:
                signal_plan["count"] = count
                if count <= 0:
                    errors.append("[signals] count must be positive")
            for key in ("spacing", "green", "yellow", "red"):
                if (span := sig.pair(key)) is not None:
                    signal_plan[key] = span

    stl_lines = [value for _, value, _ in stl.entries]  # every [stl] entry is a line
    if not stl_lines:
        errors.append("[stl] at least one task line is required")
    stl_text = "\n".join(stl_lines)

    # ids are checked here, not as keys: `bars` only files the build errors
    barriers, bars = [], _Section(None, "barriers", errors)
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
        barriers.append(bars.build(_affine_barrier, key, value, lineno=lineno))

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))

    return ScenarioConfig(
        name=name, horizon=horizon, dt=dt, seed=seed, vp=vp,
        input_box=input_box, x0=x0, pid=pid_state,
        rho_speed=rho_speed, rho_signal=rho_signal,
        t_conv_speed=t_conv_speed, gamma_min=gamma_min,
        margin_tol=margin_tol, domain=domain, lead=profile, limits=limits,
        signals=signals, signal_plan=signal_plan, stl_text=stl_text,
        barriers=barriers, raw_text=text,
    )


def _row(value, width):
    """The `width` finite numbers of a row value."""
    toks = value.split()
    if len(toks) != width:
        raise ConfigError(f"expected {width} values, got {len(toks)}")
    try:
        vals = tuple(map(float, toks))
    except ValueError:
        raise ConfigError(f"non-numeric row {value!r}") from None
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"non-finite value in row {value!r}")
    return vals


def _affine_barrier(barrier_id, value):
    """`<id> = affine <c1> <c2> <c3> offset=<d> [alpha=<kappa>]` as an
    AffineBarrier; a ValueError names what is wrong with the declaration."""
    toks = value.split()
    if not toks or toks[0] != "affine":
        raise ConfigError("only the `affine` template is declarable")
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
        raise ConfigError(f"non-numeric value in {value!r}") from None
    if offset is None or len(coeffs) != 3:
        raise ConfigError("expected 3 coefficients and offset=<d>")
    if not all(map(math.isfinite, coeffs + [offset, kappa])):
        raise ConfigError(f"non-finite value in {value!r}")
    return AffineBarrier(barrier_id, coeffs=coeffs, offset=offset, alpha=AlphaFn(kappa))
