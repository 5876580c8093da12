"""Closed-loop simulation: control-affine dynamics, fixed-step RK4 with
zero-order-hold inputs, trace recording, and the runtime synthesis loop.

At every step the loop gathers the active halfspace constraints from all
group schedules, projects the nominal input through the QP filter, integrates
one step, and records time, state, inputs and QP status. An empty safe input
set or a domain exit aborts the run with a timestamped failure; the trace
prefix up to that point is preserved. The loop records no margin or scenario
channel: the caller fills those columns afterwards with `Trace.fill_columns`,
over all recorded rows at once (`Barrier.h_grid` with an array t), for a
failed prefix as for a full run.

The recorded columns are flat `array('d')` buffers (t; the n state floats
of each row; the m floats of each input), extended in place at every step,
so a row costs its floats and no per-row tuple is kept. `Trace.states`,
`u_nom` and `u_safe` read them as (N, n) and (N, m) numpy views, with no
copy, once the loop has ended.

Everything a step can know in advance is compiled before the loop starts.
Each schedule holds its resolved barriers and its constraint rows (label,
alpha, window bounds), so a step tests no verdict, builds no label and looks
no barrier up by name. `RegionTable.of(schedules)` sorts the region bounds
once, so a step finds the schedules that apply at X_f with one bisect. The
domain bounds are padded once. Each step evaluates f and g once, for every
constraint's Lie terms and as RK4's k1 (f runs 4 times a step); a row keeps
its a = -grad.g while the gradient and g objects repeat, and RK4 keeps g u
the same way.

The step's call chain is flat: a constraint costs one `cbf_constraint` or
`fcbf_constraint` call and one `terms` call; a schedule tests its cursor's
segment inline and bisects only when t leaves it; the m = 1 `solve_qp`
checks each row inline as it clips; the vehicle's f, h1 and the nominal
controller read the lead from one cached lookup per t. Float operations keep
their order: the tests compare the reference mission's trace and report byte
for byte.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import add, le, mul
from typing import Callable, Optional, Sequence

import numpy as np

from .barriers import StateBox
from .contracts import RegionTable, conjoin_groups
from .qp import InputBox, solve_qp

DEFAULT_DT = 0.01


class SimError(ValueError):
    pass


class InitialConditionError(SimError):
    """Initial state violates a schedule's entry assumption."""


@dataclass(frozen=True)
class ControlSystem:
    """dx/dt = f(t, x) + g(t, x) u on the box domain D.

    f returns an n-tuple, g an n x m matrix as nested tuples (immutable, so
    RK4 reuses g u, and each constraint row its a = -grad.g, while g returns
    the same object); both must be locally Lipschitz on D (the shipped
    templates are). Time enters only through exogenous signals bound into
    f. State components listed in `clamp_min_dims` are clamped at the
    domain floor instead of failing the run (a vehicle at rest is
    meaningful; a negative speed is not).
    """

    n: int
    m: int
    f: Callable
    g: Callable
    domain: StateBox
    clamp_min_dims: tuple = ()

    def __post_init__(self):
        if self.domain.dim != self.n:
            raise SimError(f"domain dimension {self.domain.dim} != n={self.n}")


def integrate_step(sys: ControlSystem, t: float, x, u, dt: float, dyn=None):
    """One classical 4th-order step of dx/dt = f(t,x) + g(t,x) u with u held
    constant over the step. `dyn` is (f(t, x), g(t, x)) when the caller has
    evaluated them already; they then give k1 without a second evaluation."""
    if dt <= 0:
        raise SimError(f"dt must be positive, got {dt}")
    f, g = sys.f, sys.g
    fv, gm = dyn if dyn is not None else (f(t, x), g(t, x))
    g_seen, gu = gm, [sum(map(mul, row, u)) for row in gm]
    half = dt / 2
    t_half = t + half
    k1 = tuple(map(add, fv, gu))
    xs = tuple(map(add, x, map(mul, repeat(half), k1)))  # x + half * k1
    fv, gm = f(t_half, xs), g(t_half, xs)
    if gm is not g_seen:  # g is nested tuples: the same object gives the same g u
        g_seen, gu = gm, [sum(map(mul, row, u)) for row in gm]
    k2 = tuple(map(add, fv, gu))
    xs = tuple(map(add, x, map(mul, repeat(half), k2)))
    fv, gm = f(t_half, xs), g(t_half, xs)
    if gm is not g_seen:
        g_seen, gu = gm, [sum(map(mul, row, u)) for row in gm]
    k3 = tuple(map(add, fv, gu))
    xs = tuple(map(add, x, map(mul, repeat(dt), k3)))
    fv, gm = f(t + dt, xs), g(t + dt, xs)
    if gm is not g_seen:
        gu = [sum(map(mul, row, u)) for row in gm]
    k4 = tuple(map(add, fv, gu))
    sixth = dt / 6
    return tuple([
        xi + sixth * (a + 2 * b + 2 * c + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ])


@dataclass
class Trace:
    """Uniform-step record of the closed loop, for an n-state, m-input system.

    The loop appends each row to flat `array('d')` buffers: `ts`, one float
    a row; `x_flat`, n floats a row; `u_nom_flat` and `u_safe_flat`, m
    floats a row (NaN for the safe input of an infeasible row). `states`,
    `u_nom` and `u_safe` are read-only (N, n) and (N, m) views of those
    buffers. Take them once the loop has ended: a buffer cannot grow while a
    view of it exists. `qp_status` holds one string a row. `margins` holds
    one array per barrier id and `extras` one per scenario channel (speed
    limit, signal phase, ...), both filled by `fill_columns`.
    """

    n: int
    m: int
    ts: array = field(default_factory=lambda: array("d"))
    x_flat: array = field(default_factory=lambda: array("d"))
    u_nom_flat: array = field(default_factory=lambda: array("d"))
    u_safe_flat: array = field(default_factory=lambda: array("d"))
    margins: dict = field(default_factory=dict)
    qp_status: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    events: list = field(default_factory=list)

    def _rows(self, flat: array, width: int) -> np.ndarray:
        view = np.frombuffer(flat, float).reshape(len(self.ts), width)
        view.flags.writeable = False
        return view

    @property
    def states(self) -> np.ndarray:
        return self._rows(self.x_flat, self.n)

    @property
    def u_nom(self) -> np.ndarray:
        return self._rows(self.u_nom_flat, self.m)

    @property
    def u_safe(self) -> np.ndarray:
        return self._rows(self.u_safe_flat, self.m)

    def n_rows(self) -> int:
        return len(self.ts)

    def min_margin(self, barrier_id: str):
        vals = self.margins.get(barrier_id, ())
        return float(min(vals)) if len(vals) else math.inf

    def fill_columns(self, barriers=(), channels=None) -> None:
        """Evaluate the margin and channel columns over every recorded row at
        once. Each barrier's `h_grid` gives its margin column, keyed by its
        id; each channel is a function of (ts, states) arrays, states with one
        row per sample."""
        ts, states = np.frombuffer(self.ts, float), self.states
        for bar in barriers:
            self.margins[bar.id] = np.broadcast_to(bar.h_grid(ts, states.T), ts.shape)
        for name, fn in (channels or {}).items():
            self.extras[name] = np.broadcast_to(fn(ts, states), ts.shape)


@dataclass(frozen=True)
class SimFailure:
    time: float
    reason: str  # "qp_infeasible" | "domain_exit" | "non_finite_state"
    details: tuple = ()

    def describe(self) -> str:
        extra = f" [{'; '.join(self.details)}]" if self.details else ""
        return f"{self.reason} at t={self.time:.6f}{extra}"


@dataclass
class RunResult:
    trace: Trace
    failure: Optional[SimFailure]
    engagements: dict  # (schedule label, boundary index) -> EngagementRecord


def check_opening_assumptions(schedules: Sequence, x0) -> None:
    """Raise InitialConditionError when x0 violates the opening assumption of
    some schedule (its first segment's barrier reads below -1e-9 at x0)."""
    for sched in schedules:
        entry = sched.assumption_margin(x0)
        if entry is not None:
            bar_id, margin = entry
            if margin < -1e-9:
                raise InitialConditionError(
                    f"x0 violates opening assumption of {sched.label}: "
                    f"h[{bar_id}](0, x0) = {margin:g} < 0"
                )


def run_simulation(
    sys: ControlSystem,
    schedules: Sequence,
    nominal: Callable,
    box: InputBox,
    x0,
    dt: float = DEFAULT_DT,
    t_max: float = 0.0,
) -> RunResult:
    """Run the synthesis loop over [0, t_max] with step dt.

    `nominal(t, x)` returns the unfiltered input (scalar or m-tuple).
    Requires x0 to satisfy every schedule's opening assumption. Returns the
    trace plus a failure record when the QP turns infeasible or the state
    leaves the domain; on success the trace has t_max/dt + 1 rows. The
    margin and channel columns stay empty (see `Trace.fill_columns`).
    """
    x = tuple(float(v) for v in x0)
    if len(x) != sys.n:
        raise SimError(f"x0 has dimension {len(x)}, system has {sys.n}")
    if not sys.domain.contains(x, pad=1e-9):
        raise SimError("x0 outside the system domain")
    if box.dim != sys.m:
        raise SimError(f"input box has dimension {box.dim}, system has m={sys.m}")
    check_opening_assumptions(schedules, x)

    trace = Trace(sys.n, sys.m)

    table = RegionTable.of(schedules)
    f, g, lower, clamp_dims = sys.f, sys.g, sys.domain.lower, sys.clamp_min_dims
    floor = tuple(lo - 1e-9 for lo in lower)  # the domain, padded once
    ceiling = tuple(hi + 1e-9 for hi in sys.domain.upper)
    engagements = {}
    n_steps = round(t_max / dt)
    u_n = u_s = (0.0,) * sys.m  # the final row repeats the last step's inputs
    clamped_prev = [False] * sys.n
    n_logged = 0  # engagement records already turned into events

    add_t, add_x, add_u_nom, add_u_safe, add_status = (
        trace.ts.append, trace.x_flat.extend, trace.u_nom_flat.extend,
        trace.u_safe_flat.extend, trace.qp_status.append)

    def record(t, status, u_n, u_s):
        add_t(t)
        add_x(x)
        add_u_nom(u_n)
        add_u_safe(u_s)
        add_status(status)

    for k in range(n_steps):
        t = k * dt
        dyn = (f(t, x), g(t, x))
        cons = conjoin_groups(table, t, x, sys, engagements, dyn)
        if len(engagements) > n_logged:
            for rec in islice(engagements.values(), n_logged, None):
                trace.events.append((t, rec.describe()))
                if rec.time + rec.t_conv_bound > rec.boundary_time + 1e-9:
                    # late engagement: the bound lands past the switch
                    trace.events.append((t, f"deadline-risk {rec.describe()}"))
            n_logged = len(engagements)

        u_n = nominal(t, x)
        u_n = tuple(map(float, u_n)) if isinstance(u_n, (tuple, list)) else (float(u_n),)
        u_s = solve_qp(u_n, cons, box)
        if u_s is None:
            record(t, "infeasible", u_n, (math.nan,) * sys.m)
            return RunResult(trace, SimFailure(
                time=t, reason="qp_infeasible",
                details=tuple(c.label or "box" for c in cons),
            ), engagements)
        record(t, "ok", u_n, u_s)

        x = integrate_step(sys, t, x, u_s, dt, dyn)
        if not all(map(math.isfinite, x)):
            return RunResult(trace, SimFailure(t + dt, "non_finite_state"), engagements)
        for i in clamp_dims:
            if x[i] < lower[i]:
                x = x[:i] + (lower[i],) + x[i + 1:]
                if not clamped_prev[i]:
                    trace.events.append((t + dt, f"state[{i}] clamped at domain floor"))
                clamped_prev[i] = True
            else:
                clamped_prev[i] = False
        if not (all(map(le, floor, x)) and all(map(le, x, ceiling))):
            bad = [
                f"x[{i}]={v:g} outside [{lo:g},{hi:g}]"
                for i, (v, lo, hi) in enumerate(zip(x, lower, sys.domain.upper))
                if not (floor[i] <= v <= ceiling[i])
            ]
            return RunResult(trace, SimFailure(t + dt, "domain_exit", tuple(bad)), engagements)

    record(n_steps * dt, "ok", u_n, u_s)
    return RunResult(trace, None, engagements)
