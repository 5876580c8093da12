"""Independent oracles used by the tests: deliberately brute-force and kept
separate from the implementation paths they check. Also the few helpers that
only the tests use."""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul

import numpy as np

from stlcbf.barriers import (
    Barrier,
    BarrierError,
    FcbfParams,
    cbf_constraint,
    convergence_time,
    eval_rows,
    fcbf_constraint,
    gamma_for_deadline,
    resolve_rows,
)
from stlcbf.contracts import (
    EXACT,
    ContractSchedule,
    EngagementRecord,
    IntersectionCheck,
    SubsetCheck,
    Verdict,
    _affine_value,
    _cut_vertices,
)
from stlcbf.pipeline import _ROW, TRACE_COLUMNS
from stlcbf.qp import QpError
from stlcbf.vehicle import VehicleError, VehicleParams


def max_overlap_depth(intervals) -> int:
    """Event-sweep maximum number of half-open intervals covering one instant.
    Ends close before starts open at equal times."""
    events = []
    for start, end in intervals:
        events.append((start, 1))
        events.append((end, -1))
    events.sort(key=lambda e: (e[0], e[1]))  # -1 sorts before +1
    depth = best = 0
    for _, delta in events:
        depth += delta
        best = max(best, depth)
    return best


def grid_qp(u_nom, rows, lower, upper, resolution: float):
    """Brute-force projection: best feasible grid point, or None.

    rows are (a, b) halfspaces a.u <= b; the grid spans the box at the given
    resolution, axis by axis.
    """
    axes = [np.arange(lo, hi + resolution / 2, resolution) for lo, hi in zip(lower, upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    feas = np.ones(len(pts), dtype=bool)
    for a, b in rows:
        feas &= pts @ np.asarray(a) <= b + 1e-12
    if not feas.any():
        return None
    pts = pts[feas]
    d2 = ((pts - np.asarray(u_nom)) ** 2).sum(axis=1)
    return tuple(pts[int(np.argmin(d2))])


@np.errstate(invalid="ignore", over="ignore")  # a near-singular subset gives a NaN v
def feasible_vertex(rows, m: int, tol: float = 1e-9) -> bool:
    """Whether some vertex of the (a, b) halfspaces a.u <= b, a point where m
    rows with independent a hold with equality, satisfies every row within
    tol. A bounded polytope is nonempty iff it has such a vertex."""
    A = np.array([a for a, _ in rows], dtype=float)
    b = np.array([b for _, b in rows], dtype=float)
    for subset in itertools.combinations(range(len(rows)), m):
        try:
            v = np.linalg.solve(A[list(subset)], b[list(subset)])
        except np.linalg.LinAlgError:
            continue
        if (A @ v <= b + tol).all():
            return True
    return False


def reference_clip(u: float, constraints, box):
    """The m = 1 clip of `solve_qp` in its plain form: a `len` check and an
    index per row, then min/max to tighten the bounds, with no duplicate
    test. Differential reference for `solve_qp` at m = 1 on tuple rows: the
    same results, or the same exception type and message, raised at the same
    row."""
    lo, hi = box.lower[0], box.upper[0]
    isfinite = math.isfinite
    for a_row, b, label in constraints:
        if len(a_row) != 1:
            raise QpError(f"constraint {label or a_row} has wrong input dimension")
        a = a_row[0]
        if not (isfinite(b) and isfinite(a)):
            raise BarrierError(f"non-finite constraint {a_row} . u <= {b}")
        if a > 0:
            hi = min(hi, b / a)
        elif a < 0:
            lo = max(lo, b / a)
        elif b < 0:
            return None
    if lo > hi:
        return None
    return (min(max(u, lo), hi),)


def grid_set_check(h_prev_vals, h_next_vals, margin: float = 1e-6):
    """(subset, witness_exists) from barrier values on a shared grid,
    ignoring points within `margin` of either boundary."""
    import numpy as _np

    hp = _np.asarray(h_prev_vals)
    hn = _np.asarray(h_next_vals)
    confident = (_np.abs(hp) >= margin) & (_np.abs(hn) >= margin)
    inside_prev = hp >= 0
    subset = not bool(((inside_prev & (hn < 0)) & confident).any())
    witness = bool((inside_prev & (hn >= 0)).any())
    return subset, witness


def simulate_scalar_pull(h0: float, gamma: float, rho: float, dt: float = 1e-4,
                         t_cap: float = 1e4):
    """Integrate dh/dt = gamma sign(h)|h|^rho from h0 < 0 until the zero
    crossing; returns the crossing time (or t_cap)."""
    h, t = h0, 0.0
    while h < 0 and t < t_cap:
        rate = gamma * abs(h) ** rho
        h += dt * rate
        t += dt
    return t


# ---------------------------------------------------------------------------
# Scalar grid checks: the per-point reference for contracts' array grid
# ---------------------------------------------------------------------------


def scalar_grid_points(box, resolution: int):
    """Grid points one by one, in itertools.product order over the axes."""
    axes = []
    for lo, hi in zip(box.lower, box.upper):
        if resolution == 1:
            axes.append([0.5 * (lo + hi)])
        else:
            step = (hi - lo) / (resolution - 1)
            axes.append([lo + k * step for k in range(resolution)])
    return itertools.product(*axes)


def scalar_check_subset(h_prev, h_next, t, domain, resolution) -> SubsetCheck:
    """The sampled path of `check_subset`, one h call per point."""
    method = f"sampled({resolution})"
    t_left = math.nextafter(t, -math.inf)
    for pt in scalar_grid_points(domain, resolution):
        if h_prev.h(t_left, pt) >= 0 and h_next.h(t, pt) < -1e-9:
            return SubsetCheck(False, method, counterexample=pt)
    return SubsetCheck(True, method)


def scalar_check_intersection(h_prev, h_next, t, domain, resolution) -> IntersectionCheck:
    """The sampled path of `check_intersection`, one h call per point."""
    method = f"sampled({resolution})"
    t_left = math.nextafter(t, -math.inf)
    best_pt, best_val = None, -math.inf
    for pt in scalar_grid_points(domain, resolution):
        if h_prev.h(t_left, pt) >= 0:
            val = h_next.h(t, pt)
            if val > best_val:
                best_pt, best_val = pt, val
    if best_pt is not None and best_val >= -1e-12:
        return IntersectionCheck(best_pt, method)
    return IntersectionCheck(None, method)


def scalar_worst_engage_margin(h_prev, h_next, tau, domain, resolution):
    """The sampled path of `_worst_engage_margin`, one h call per point."""
    method = f"sampled({resolution})"
    worst = math.inf
    for pt in scalar_grid_points(domain, resolution):
        if h_prev.h(tau, pt) >= 0:
            worst = min(worst, h_next.h(tau, pt))
    return (0.0 if math.isinf(worst) else worst), method


# ---------------------------------------------------------------------------
# Exact extremes: the enumeration that contracts' memo replaces
# ---------------------------------------------------------------------------


def exact_extreme_direct(domain, forms, lowest: bool):
    """The exact branch of `contracts._extreme` with no memo: one
    `_cut_vertices` enumeration per call, and the first minimum (lowest) or
    maximum of the h_next form over the vertices, as `min`/`max` pick it."""
    prev_aff, next_aff = forms
    best = (min if lowest else max)(_cut_vertices(domain, *prev_aff), default=None,
                                    key=lambda v: _affine_value(*next_aff, v))
    if best is None:
        return (math.inf if lowest else -math.inf), None, EXACT
    return _affine_value(*next_aff, best), best, EXACT


# ---------------------------------------------------------------------------
# Left limits: the lookup that reading h one ulp before t replaces
# ---------------------------------------------------------------------------


def left_limit_lookup(starts, values, t):
    """values[i] for the last starts[i] strictly before t (values[0] when no
    start precedes t), for a scalar or an array t: the left time-limit
    lookup that `step_lookup` at `math.nextafter(t, -math.inf)` replaces,
    kept as its reference."""
    if isinstance(t, np.ndarray):
        i = np.maximum(np.searchsorted(starts, t, "left") - 1, 0)
        return np.take(np.asarray(values), i)
    return values[max(bisect_left(starts, t) - 1, 0)]


# ---------------------------------------------------------------------------
# Derivative oracle: central differences of h against `terms`
# ---------------------------------------------------------------------------


def reference_rk4(sys, t: float, x, u, dt: float, dyn=None):
    """The generic RK4 step `sim.integrate_step` unrolls: the same float
    operations in the same order, each stage formed with map/zip over the n
    components. Differential reference for the generated kernels."""
    f, g = sys.f, sys.g
    fv, gm = dyn if dyn is not None else (f(t, x), g(t, x))
    g_seen, gu = gm, [sum(map(mul, row, u)) for row in gm]
    half = dt / 2
    t_half = t + half
    k1 = tuple(map(add, fv, gu))
    xs = tuple(map(add, x, map(mul, repeat(half), k1)))  # x + half * k1
    fv, gm = f(t_half, xs), g(t_half, xs)
    if gm is not g_seen:
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


def finite_diff_check(bar: Barrier, t: float, x, step: float = 1e-6, tol: float = 1e-5):
    """Worst relative error of the dh/dt and grad_x h that `terms` gives at
    (t, x) against central differences of `h`, or None where h is not smooth
    within `step` of the point. It asks the barrier nothing but `h` and
    `terms`: h is taken as not smooth there when it is non-finite at the
    point or a neighbour (the vacuous region of a stitched barrier), or when,
    along t or some x_i, the forward and backward differences disagree by
    more than `tol` (a jump or a kink lies within one step)."""
    x = tuple(x)
    _, dh_dt, grad = bar.terms(t, x)
    h0 = bar.h(t, x)
    probes = [(dh_dt, bar.h(t - step, x), bar.h(t + step, x))]
    for i in range(len(x)):
        lo, hi = list(x), list(x)
        lo[i] -= step
        hi[i] += step
        probes.append((grad[i], bar.h(t, tuple(lo)), bar.h(t, tuple(hi))))
    worst = 0.0
    for analytic, h_lo, h_hi in probes:
        if not all(map(math.isfinite, (h_lo, h0, h_hi))):
            return None
        if _rel_err((h_hi - h0) / step, (h0 - h_lo) / step) > tol:
            return None
        worst = max(worst, _rel_err(analytic, (h_hi - h_lo) / (2 * step)))
    return worst


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


# ---------------------------------------------------------------------------
# Helpers only the tests use
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SafeSet:
    """Superlevel set {x : h(t, x) >= 0} of a barrier frozen at a query time.
    The left time-limit C(t-) is the set at `math.nextafter(t, -math.inf)`.
    """

    barrier: Barrier
    t: float

    def margin(self, x) -> float:
        return self.barrier.h(self.t, x)

    def membership(self, x) -> bool:
        return self.margin(x) >= 0


def constraints_at(schedule: ContractSchedule, t, x, sys, engagements: dict, dyn=None) -> list:
    """The (a, b, label) rows of one schedule active at (t, x), whatever its
    region: `plan`, `resolve_rows`, then `eval_rows`' list sink. Pass one
    `engagements` dict to every query of a run: a window's gamma is fixed at
    its first query."""
    fv, gm = dyn if dyn is not None else (sys.f(t, x), sys.g(t, x))
    rows = resolve_rows(schedule.plan(t, x, engagements)[2], gm)
    return eval_rows(rows, t, x, fv, -math.inf, out=[])


def active_constraints(schedule: ContractSchedule, t, x, sys, engagements=None):
    """`constraints_at` of one schedule. Without `engagements`, the query
    gets a dict of its own: a window engaged at t has its gamma sized at
    this query."""
    return constraints_at(schedule, t, x, sys, {} if engagements is None else engagements)


def scan_constraints(schedules, t, x, sys, engagements, dyn=None):
    """Active constraints of every schedule whose region holds x[0], the long
    way that `RegionTable` and the compiled rows replace: test every region
    in turn, find the segment by bisect, test the boundary's verdict and its
    strict window, fix gamma at first engagement, and build each constraint
    with a fresh label and a fresh a = -grad.g."""
    out = []
    for sched in schedules:
        lo, hi = sched.region
        if not lo < x[0] <= hi:
            continue
        idx = bisect_right([seg.interval.start for seg in sched.segments], t) - 1
        bar = sched.segments[idx].barrier
        if bar is not None:
            out.append(cbf_constraint(bar, sys, bar.alpha, t, x, dyn))
        if idx < len(sched.boundaries):
            bd = sched.boundaries[idx]
            if bd.verdict is Verdict.OVERLAP_DEADLINE and bd.tau < t < bd.time:
                nxt = sched.segments[idx + 1].barrier
                key = (sched.label, idx)
                if key not in engagements:
                    h0 = nxt.h(t, x)
                    p = FcbfParams(bd.rho, gamma_for_deadline(h0, bd.rho, bd.t_target,
                                                              bd.gamma_min))
                    engagements[key] = EngagementRecord(key, t, h0, p, bd.time,
                                                        convergence_time(h0, p))
                rec = engagements[key]
                out.append(fcbf_constraint(nxt, sys, rec.params, t, x, dyn))
    return out


def bisect_dispatch(schedules, positions, t, x, sys, engagements, dyn=None):
    """Constraints of the one signal schedule whose stop line is the first at
    or ahead of X_f (bisect_left over the stop lines), none past the last:
    the signal dispatch that position-gated schedules replace."""
    k = bisect_left(positions, x[0])
    if k >= len(schedules):
        return []
    return constraints_at(schedules[k], t, x, sys, engagements, dyn)


def friction_force(v_f: float, p: VehicleParams) -> float:
    """Rolling/aerodynamic resistance c0 + c1 V + c2 V^2 at speed v_f >= 0."""
    return p.c0 + p.c1 * v_f + p.c2 * v_f * v_f


_KINDS = ("h1", "rbar", "v", "r_fcbf", "v_fcbf")


def closed_form_bound(kind: str, t: float, x, vp: VehicleParams, *,
                      v_l: float = 0.0, a_l: float = 0.0, v_max: float = 0.0,
                      p_signal: float = 0.0, p_next: float = 0.0,
                      gamma: float = 0.0, rho: float = 0.0) -> float:
    """Upper bound on u derived by expanding the barrier condition by hand.

    Derived from first principles for each template; these must coincide with
    the generic constraint generators to machine precision (the invariance
    bounds also match the published case-study forms; the published finite-
    time forms drop the -V_f drift term for the signal case and carry a
    spurious 1/beta for the speed case, so those two are reproduced from the
    defining inequality instead).
    """
    fr = friction_force(x[1], vp)
    v_f = x[1]
    if kind == "h1":
        h1 = (x[2] - x[0]) - vp.t_headway * v_f - vp.s0 - (v_f * v_f - v_l * v_l) / (2 * vp.a_max)
        v_r = v_l - v_f
        return (vp.mass * vp.a_max / (vp.t_headway * vp.a_max + v_f)) * (
            h1 + v_r + v_l * a_l / vp.a_max) + fr
    if kind == "rbar":
        h = p_next - x[0] - vp.beta * v_f - vp.s0
        return (vp.mass / vp.beta) * (h - v_f) + fr
    if kind == "v":
        return (vp.mass / vp.beta) * (v_max - v_f) + fr
    if kind == "r_fcbf":
        h = p_signal - x[0] - vp.beta * v_f - vp.s0
        return (vp.mass / vp.beta) * (_pull(h, gamma, rho) - v_f) + fr
    if kind == "v_fcbf":
        return vp.mass * _pull(v_max - v_f, gamma, rho) + fr
    raise VehicleError(f"unknown bound kind {kind!r}; expected one of {_KINDS}")


def _pull(h: float, gamma: float, rho: float) -> float:
    return 0.0 if h == 0 else gamma * math.copysign(abs(h) ** rho, h)


def constraint_upper_bound(c) -> float:
    """b/a of a single-input row (a, b, label), a u <= b with a > 0."""
    a, b, label = c
    if len(a) != 1 or a[0] <= 0:
        raise VehicleError(f"constraint {label} is not an upper bound on a scalar input")
    return b / a[0]


def scalar_monitor_task(task, trace, registry, tol):
    """(satisfied, worst_margin, t_worst) of one globally task by a
    row-by-row scan with scalar h: the first strict minimum wins, NaN never
    does, and no sample below +inf reports no t_worst (vacuously true)."""
    lo, hi = task.interval.start - 1e-9, task.interval.end - 1e-9
    worst_t, worst = None, math.inf
    bar = registry.resolve(task.pred)
    for t, x in zip(trace.ts, trace.states):
        if not (lo <= t < hi):
            continue
        margin = bar.h(t, x)
        if margin < worst:
            worst, worst_t = margin, t
    if worst_t is None:
        return True, worst, None
    return worst >= -tol, worst, worst_t


def qp_active_steps(u_nom_rows, u_safe_rows) -> int:
    """Rows whose safe input differs from the nominal one by more than 1e-9
    in some component, row by row; a row whose safe input starts with NaN
    (an infeasible step) never counts."""
    return sum(
        1 for un, us in zip(u_nom_rows, u_safe_rows)
        if us and not math.isnan(us[0]) and any(abs(a - b) > 1e-9 for a, b in zip(un, us))
    )


def write_trace_csv_rows(trace, path) -> None:
    """`pipeline.write_trace_csv` one `_ROW % (...)` per row, streaming from
    the trace's flat buffers: the writer's specification."""
    margins, extras, m = trace.margins, trace.extras, trace.m
    inf = repeat(math.inf)
    rows = zip(
        trace.ts, zip(*[iter(trace.x_flat)] * trace.n),
        extras.get("V_l", inf), extras.get("V_max", inf),
        itertools.islice(trace.u_nom_flat, 0, None, m),
        itertools.islice(trace.u_safe_flat, 0, None, m),
        margins.get("h1", inf), margins.get("hv", inf), margins.get("hpos", inf),
        trace.qp_status, extras.get("active_signal", repeat(0)),
        extras.get("signal_phase", repeat("none")),
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for t, (xf, vf, xl), *rest in rows:
            fh.write(_ROW % (t, xf, vf, xl, *rest))
