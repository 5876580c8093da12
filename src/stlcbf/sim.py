"""Closed-loop simulation: control-affine dynamics, fixed-step RK4 with
zero-order-hold inputs, trace recording, and the runtime synthesis loop.

At every step the loop gathers the active halfspace constraints from all
group schedules, projects the nominal input through the QP filter, integrates
one step, and records time, state, inputs and QP status. An invariance row
that reads h < -tol, an empty safe input set, a non-finite state or a domain
exit ends the run with a timestamped failure; the trace prefix up to that
point is preserved. One `barriers.Box` types both the system's domain D and
the input box U. The loop logs its clamp events; the engagement events
come from the `RegionTable`, into the same list. The caller fills the margin
and scenario columns afterwards with `Trace.fill_columns`, over all recorded
rows at once (`Barrier.h_grid` with an array t), for a failed prefix too.

The recorded columns are flat `array('d')` buffers (t; the n state floats
of each row; the m floats of each input), extended in place at every step.
`Trace.states`, `u_nom` and `u_safe` read them as (N, n) and (N, m) numpy
views, with no copy, once the loop has ended.

The run's `RegionTable(schedules)` keeps its plan: the rows, labels
included, of the schedules that apply at X_f, valid until the next segment
bound, window onset or region crossing, rebuilt only there from the plans
the schedules hold (each plans again only at its own bounds), and resolved
once per plan and g object (each affine row's a = -grad.g, which rows share
Lie sums, the drift gains). Each step evaluates f and g once, for every
constraint's Lie terms and as RK4's k1 (f runs 4 times a step). With one
input (m = 1), `clip_groups` tests that the plan still holds and clips the
input bounds in the pass that evaluates its rows (`barriers.eval_rows`): a
row whose barrier has an affine form over the plan (a speed limit, a stop
line, or the negation of one) costs no call, two dot products per distinct
gradient plus one add and one drift per row; any other row (h1) costs one
`terms` call. The loop checks u_nom as `solve_qp` does and clips it. Every
other step (its rows or u_nom name a failure, or the system has m >= 2)
takes the loop's one call of `conjoin_groups` and of `solve_qp`, after the
nominal, and their (a, b, label) rows name what failed. The vehicle's f, h1
and the nominal controller read the lead from the piece it holds. The clip,
like the windup clamp, compares u with its bounds instead of calling `min`
and `max`, and gives the same float. After RK4, one chain of comparisons,
`inside(x, lo, hi)`, stands for the finiteness, clamp and domain checks:
the loop runs those only where it fails or a clamp was held at the last
step, and they alone clamp and name a failure.

Three pieces of the step are straight-line code generated per width, each
by a builder that compiles once per width, at the first step that needs it
(so building a scenario compiles nothing): RK4 per state and input
dimension (n, m), the row evaluator per n (`barriers.evaluator_for`) and the
state check per n. RK4 keeps x, f and each stage's k in n locals, and each
(g u)_i is a left fold from the int 0, as `barriers.dot` folds every dot
product, formed again only when g returns another object. Float operations
keep their operands and order: the tests compare the kernel and the
evaluator with the generic forms bit for bit, and the reference mission's
outputs byte for byte.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cache
from operator import le
from sys import float_info
from typing import Callable, Optional, Sequence

import numpy as np

from .barriers import BarrierViolation, Box
from .contracts import RegionTable, clip_groups, conjoin_groups
from .qp import input_floats, solve_qp
from .stl import MONITOR_TOL

DEFAULT_DT = 0.01
# a trace row holds 6 doubles and one status reference: 56 GB at this count
MAX_STEPS = 10**9


class SimError(ValueError):
    pass


class InitialConditionError(SimError):
    """Initial state violates a schedule's entry assumption."""


@dataclass(frozen=True)
class ControlSystem:
    """dx/dt = f(t, x) + g(t, x) u on the box domain D.

    f returns an n-tuple, g an n x m matrix as nested tuples (immutable, so
    RK4 reuses g u, and the step loop the plan's resolved rows, while g
    returns the same object); both must be locally Lipschitz on D (the
    shipped templates are). Time enters only through exogenous signals bound into
    f. State components listed in `clamp_min_dims` are clamped at the
    domain floor instead of failing the run (a vehicle at rest is
    meaningful; a negative speed is not).
    """

    n: int
    m: int
    f: Callable
    g: Callable
    domain: Box
    clamp_min_dims: tuple = ()

    def __post_init__(self):
        if self.domain.dim != self.n:
            raise SimError(f"domain dimension {self.domain.dim} != n={self.n}")


def _rk4_source(n: int, m: int) -> str:
    """Source of the straight-line RK4 step for n states and m inputs: x, f,
    g u and each stage's k are n locals, u and g m and n * m locals, every
    stage written out per component, each (g u)_i as `barriers.dot` folds a
    dot product."""
    def joined(fmt, **names):
        return ", ".join(fmt.format(i=i, **names) for i in range(n))

    def per_component(indent, fmt, **names):
        return [indent + fmt.format(i=i, **names) for i in range(n)]

    def g_times_u(indent):
        row = "[" + ", ".join(f"r{{i}}_{j}" for j in range(m)) + "]"
        return [f"{indent}[{joined(row)}] = gm",
                *per_component(indent, "gu{i} = " + " + ".join(
                    ["0", *(f"r{{i}}_{j} * u{j}" for j in range(m))]))]

    lines = [
        "def rk4(f, g, t, x, u, dt, fv, gm):",
        f"    {joined('x{i}')}, = x",
        f"    {joined('f{i}')}, = fv",
        f"    [{', '.join(f'u{j}' for j in range(m))}] = u",
        "    g_seen = gm",
        *g_times_u("    "),
        "    half = dt / 2",
        "    t_half = t + half",
        "    t_end = t + dt",
    ]
    for k, h, t_at in (("a", "half", "t_half"), ("b", "half", "t_half"), ("c", "dt", "t_end")):
        lines += [
            *per_component("    ", "{k}{i} = f{i} + gu{i}", k=k),
            f"    xs = ({joined('x{i} + {h} * {k}{i}', h=h, k=k)},)",
            f"    {joined('f{i}')}, = f({t_at}, xs)",
            f"    gm = g({t_at}, xs)",
            "    if gm is not g_seen:  # nested tuples: the same g gives the same g u",
            "        g_seen = gm",
            *g_times_u("        "),
        ]
    return "\n".join(lines + [
        *per_component("    ", "d{i} = f{i} + gu{i}"),
        "    sixth = dt / 6",
        f"    return ({joined('x{i} + sixth * (a{i} + 2 * b{i} + 2 * c{i} + d{i})')},)",
        "",
    ])


@cache
def _rk4_kernel(n: int, m: int):
    """Compile (once per n and m) and return the RK4 kernel for n states and
    m inputs."""
    scope = {}
    exec(compile(_rk4_source(n, m), f"<stlcbf rk4 n={n} m={m}>", "exec"), scope)
    return scope["rk4"]


@cache
def _inside_check(n: int):
    """Compile (once per n) and return `inside(x, lo, hi)` for n states: x,
    lo and hi unpacked, then one chain `l0 <= x0 <= h0 and ...`."""
    x, lo, hi = (", ".join(f"{v}{i}" for i in range(n)) for v in "xlh")
    chain = " and ".join(f"l{i} <= x{i} <= h{i}" for i in range(n)) or "True"
    scope = {}
    exec(compile(f"def inside(x, lo, hi):\n    [{x}] = x\n    [{lo}] = lo\n    [{hi}] = hi\n"
                 f"    return {chain}\n", f"<stlcbf inside n={n}>", "exec"), scope)
    return scope["inside"]


def _inside_bounds(floor, ceiling, lower, clamp_dims) -> tuple:
    """(lo, hi) of the loop's state check: the padded domain, a clamped
    axis's floor unpadded, capped at +-float max so that NaN and +-inf fail.
    Inside them the loop's later checks all pass and clamp nothing."""
    lo, top = list(floor), float_info.max
    for i in clamp_dims:
        lo[i] = lower[i]
    return tuple(-top if v < -top else v for v in lo), tuple(top if top < v else v for v in ceiling)


def integrate_step(sys: ControlSystem, t: float, x, u, dt: float, dyn=None):
    """One classical 4th-order step of dx/dt = f(t,x) + g(t,x) u with u held
    constant over the step. `dyn` is (f(t, x), g(t, x)) when the caller has
    evaluated them already; they then give k1 without a second evaluation.
    The step runs the kernel generated for (sys.n, sys.m): no stage runs a
    map or zip, and the only tuples built are the states handed to f and g
    and the result. Each (g u)_i is 0 + g_i0 u_0 + ... + g_i(m-1) u_(m-1),
    from the int 0 and left to right, so the step returns the bits of the
    generic map/zip form on every Python."""
    if not 0 < dt < math.inf:
        raise SimError(f"dt must be positive and finite, got {dt}")
    n, m = sys.n, sys.m
    if len(x) != n:
        raise SimError(f"x has dimension {len(x)}, system has n={n}")
    if len(u) != m:
        raise SimError(f"u has dimension {len(u)}, system has m={m}")
    f, g = sys.f, sys.g
    fv, gm = dyn if dyn is not None else (f(t, x), g(t, x))
    return _rk4_kernel(n, m)(f, g, t, x, u, dt, fv, gm)


@dataclass
class Trace:
    """Uniform-step record of the closed loop, for an n-state, m-input system.

    The loop appends each row to flat `array('d')` buffers: `ts`, one float
    a row; `x_flat`, n floats a row; `u_nom_flat` and `u_safe_flat`, m
    floats a row (NaN for the safe input of an infeasible or violated
    row). `states`, `u_nom` and `u_safe` are read-only (N, n) and (N, m)
    views of those buffers. Take them once the loop has ended: a buffer
    cannot grow while a view of it exists. `qp_status` holds one string a
    row. `margins` holds one array per barrier id and `extras` one per
    scenario channel (speed limit, signal phase, ...), both filled by
    `fill_columns`. `events` holds (t, text) pairs in order: engagements and
    deadline risks, from the run's `RegionTable`, and clamps, from the loop.
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
        """The least margin of the barrier's column, NaN read as +inf (inf
        when there is none); the first of equal values, so -0.0 and 0.0
        keep their order."""
        vals = self.margins.get(barrier_id, ())
        if not len(vals):
            return math.inf
        vals = np.where(np.isnan(vals), math.inf, vals)
        return float(vals[np.argmin(vals)])

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
    reason: str  # "qp_infeasible" | "barrier_violated" | "domain_exit" | "non_finite_state"
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


def step_count(t_max: float, dt: float) -> int:
    """The number of steps of size dt that span [0, t_max]; a SimError
    unless t_max / dt is finite, at most `MAX_STEPS` and within 1e-9
    relative of an integer."""
    if not (0 < dt < math.inf and 0 <= t_max < math.inf):
        raise SimError(f"need 0 < dt < inf and 0 <= t_max < inf, got dt={dt}, t_max={t_max}")
    steps = t_max / dt
    if steps == math.inf:
        raise SimError(f"dt={dt} is too small for the horizon {t_max:g}: "
                       "the step count overflows")
    n = round(steps)
    if n > MAX_STEPS:
        raise SimError(f"dt={dt:g} is too small for the horizon {t_max:g}: "
                       f"{steps:g} steps exceed the ceiling of {MAX_STEPS:g}")
    if abs(steps - n) > 1e-9 * steps:
        raise SimError(f"dt={dt:g} does not divide the horizon {t_max:g} ({steps:g} steps)")
    return n


def run_simulation(
    sys: ControlSystem,
    schedules: Sequence,
    nominal: Callable,
    box: Box,
    x0,
    dt: float = DEFAULT_DT,
    t_max: float = 0.0,
    tol: float = MONITOR_TOL,
) -> RunResult:
    """Run the synthesis loop over [0, t_max] with step dt.

    `nominal(t, x)` returns the unfiltered input: a scalar, or m values as
    a tuple, list or 1-D numpy array (see `qp.input_floats`).
    Requires x0 to satisfy every schedule's opening assumption. Returns the
    trace plus a failure record when an invariance row's h reads below
    -tol (the monitor's own tolerance), the QP turns infeasible, or the state
    turns non-finite or leaves the domain; on success the trace has
    t_max/dt + 1 rows. Its engagement events come from the table. The
    margin and channel columns stay empty (see `Trace.fill_columns`).
    """
    n_steps = step_count(t_max, dt)
    x = tuple(float(v) for v in x0)
    if len(x) != sys.n:
        raise SimError(f"x0 has dimension {len(x)}, system has {sys.n}")
    if not sys.domain.contains(x, pad=1e-9):
        raise SimError("x0 outside the system domain")
    if box.dim != sys.m:
        raise SimError(f"input box has dimension {box.dim}, system has m={sys.m}")
    if len(fv := sys.f(0.0, x)) != sys.n:  # named here, not at the first row or RK4
        raise SimError(f"f(t, x) has {len(fv)} entries, the system has n={sys.n}")
    check_opening_assumptions(schedules, x)

    table = RegionTable(schedules)
    trace = Trace(sys.n, sys.m, events=table.events)  # the table logs engagements there
    f, g, lower, clamp_dims = sys.f, sys.g, sys.domain.lower, sys.clamp_min_dims
    isfinite = math.isfinite
    h_floor = -tol
    floor = tuple(lo - 1e-9 for lo in lower)  # the domain, padded once
    ceiling = tuple(hi + 1e-9 for hi in sys.domain.upper)
    u_n = u_s = (0.0,) * sys.m  # the final row repeats the last step's inputs
    clamped_prev = [False] * sys.n
    held = False  # a clamp flag is set: the next step takes the clamp loop
    x_lo, x_hi = _inside_bounds(floor, ceiling, lower, clamp_dims)
    inside = _inside_check(sys.n)
    failure = None

    add_t, add_x, add_u_nom, add_u_safe, add_status = (
        trace.ts.append, trace.x_flat.extend, trace.u_nom_flat.extend,
        trace.u_safe_flat.extend, trace.qp_status.append)

    def record(t, status, u_n, u_s):
        add_t(t)
        add_x(x)
        add_u_nom(u_n)
        add_u_safe(u_s)
        add_status(status)

    one_input = sys.m == 1  # such a step clips u_nom in the rows' own pass
    u_lo, u_hi = (box.lower[0], box.upper[0]) if one_input else (None, None)

    for k in range(n_steps):
        t = k * dt
        dyn = fv, gm = f(t, x), g(t, x)
        bounds = one_input and clip_groups(table, t, x, fv, gm, h_floor, u_lo, u_hi)
        u_n = nominal(t, x)
        u_n = (float(u_n),) if isinstance(u_n, float) else input_floats(u_n)
        if bounds and len(u_n) == 1 and isfinite(u := u_n[0]):  # solve_qp's checks of u_nom
            lo, hi = bounds  # min(max(u, lo), hi) as comparisons: the same float
            u_s = (lo if u < lo else hi if hi < u else u,)
        else:  # the rows or u_nom name a failure, or m >= 2: the QP names it
            try:
                cons = conjoin_groups(table, t, x, sys, dyn, h_floor)
            except BarrierViolation as exc:
                status, failure = "violated", SimFailure(t, "barrier_violated", (str(exc),))
            else:
                u_s = solve_qp(u_n, cons, box)
                if u_s is None:
                    status, failure = "infeasible", SimFailure(
                        t, "qp_infeasible", tuple(label or "box" for _, _, label in cons))
            if failure:
                record(t, status, u_n, (math.nan,) * sys.m)
                break
        record(t, "ok", u_n, u_s)

        x = integrate_step(sys, t, x, u_s, dt, dyn)
        if not held and inside(x, x_lo, x_hi):  # the checks below would pass and clamp nothing
            continue
        if not all(map(isfinite, x)):
            failure = SimFailure(t + dt, "non_finite_state")
            break
        for i in clamp_dims:
            if x[i] < lower[i]:
                x = x[:i] + (lower[i],) + x[i + 1:]
                if not clamped_prev[i]:
                    trace.events.append((t + dt, f"state[{i}] clamped at domain floor"))
                clamped_prev[i] = True
            else:
                clamped_prev[i] = False
        held = True in clamped_prev
        if not (all(map(le, floor, x)) and all(map(le, x, ceiling))):
            bad = [
                f"x[{i}]={v:g} outside [{lo:g},{hi:g}]"
                for i, (v, lo, hi) in enumerate(zip(x, lower, sys.domain.upper))
                if not (floor[i] <= v <= ceiling[i])
            ]
            failure = SimFailure(t + dt, "domain_exit", tuple(bad))
            break
    else:
        record(n_steps * dt, "ok", u_n, u_s)
    return RunResult(trace, failure, table.engagements)
