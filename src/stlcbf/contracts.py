"""Composition of barrier contracts over adjacent time intervals.

A group of globally-predicates on disjoint intervals becomes a schedule of
invariance segments tiling [0, horizon) (gaps filled with vacuous segments).
Each internal boundary t_i is classified:

  subset            C_prev(t_i-) is contained in C_next(t_i): every safe
                    trajectory continues, nothing extra to do.
  overlap_deadline  the sets merely intersect: a finite-time segment on
                    [tau_i, t_i) steers into C_next before the switch, with
                    gamma sized at engagement to meet the deadline.
  incompatible      empty intersection, or the convergence window does not
                    fit: no controller can serve every admissible start.

Each non-vacuous segment holds its resolved `Barrier`, bound once when
`build_schedule` runs, and the schedule compiles one row pair per segment:
the segment's CBF row (barrier, alpha, label "cbf:<id>") and, when an
overlap_deadline boundary ends the segment, its window row (tau, boundary
time, engagement key, next barrier, label "fcbf:<id>"). The active rows
change only at segment bounds and window onsets, so the runtime query has
two parts. `ContractSchedule.plan` bisects for the segment, applies the
strict tau < t < t_i window test, and returns the active row specs with the
interval [t_from, until) over which they stay active; each spec carries the
barrier's affine form over that interval (`Barrier.affine_on`), if it has
one. `barriers.resolve_rows` resolves specs for one g matrix and
`barriers.eval_rows` turns them into (a, b, label) rows at (t, x): a spec
with a form costs no `terms` call, and such rows cost two dot products per
distinct gradient, plus one add and one drift per row. A window's first
query sizes its gamma and builds its `FcbfParams`, once, into its
`EngagementRecord`; every later query reads them from there.

A schedule may carry a `region = (lo, hi)` on the first state coordinate:
it applies only while lo < x[0] <= hi (default: every finite x[0]). The
traffic signal contracts use it to gate each signal's schedule to the
stretch of road where its stop line is the first at or ahead of the ego.
`RegionTable.of` compiles a schedule list once into the sorted region bounds
and, for each cell between them, the schedules that cover it. A table also
keeps one run's engagement records, its plan and the plan's rows: the
specs of its cell's schedules, valid while t stays in the intersection of
their intervals and x[0] in the cell, resolved once per plan and g object.
Only when t or x[0] leaves the plan does a query `replan`, with one bisect
for the cell and one per schedule. `conjoin_groups` evaluates the rows
into a list (`barriers.eval_rows`' list sink). For one input,
`clip_groups` clips the input box in one pass over the rows that can bind
(the clip sink over `barriers.clip_rows`); a step whose rows name a failure
or an error takes `conjoin_groups` and `qp.solve_qp` instead, which raise or
record it.

The static checks at boundary time t read the set being left at t- =
nextafter(t, -inf) and the one entered at t. Subset, intersection and the
worst engage margin all ask for one extreme of h_next over C_prev in the
domain, and `_extreme` finds it: exactly for affine-in-state barriers, at the
vertices of the box-and-halfspace polytope (`affine_on` over the ulp right
of t- or t), else on a deterministic N-per-axis grid, `sampled(N)` in the
verdict, one numpy slab per value of the first axis (`Barrier.h_grid`). An
exact answer depends only on the domain and the forms, so a process
enumerates each (domain, h_prev form) polytope once and scans it once per
h_next form, memoized by their exact bits (`_MEMO_SIZE` entries each). The
sampled subset check scans the grid itself, to stop at the first bad point.
A sampled verdict is evidence, not a proof: a violation can hide between
grid points.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import numbers
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .barriers import (
    Barrier,
    BarrierError,
    FcbfParams,
    GAMMA_MIN,
    StateBox,
    TopBarrier,
    cbf_constraint,  # noqa: F401  callers import and patch both generators here
    clip_rows,
    convergence_time,
    eval_rows,
    fcbf_constraint,  # noqa: F401
    gamma_for_deadline,
    resolve_rows,
)
from .stl import PredicateRef, TaskGroup, TimeInterval


class ContractError(ValueError):
    pass


class ScheduleQueryError(ContractError):
    """Query outside the schedule's time span."""


class Verdict(enum.Enum):
    SUBSET = "subset"
    OVERLAP_DEADLINE = "overlap_deadline"
    INCOMPATIBLE = "incompatible"


EXACT = "exact"
# admits equality in tau + t_conv <= t_i: the sampled runtime enforcement
# absorbs one step
DEADLINE_SLACK = 1e-9


def _affine_value(coeffs, offset, x) -> float:
    return sum(c * xi for c, xi in zip(coeffs, x)) + offset


def _forms(h_prev: Barrier, h_next: Barrier, t_prev: float, t_next: float):
    """Both affine forms, each on the one ulp right of its time, or None."""
    prev_aff = h_prev.affine_on(t_prev, math.nextafter(t_prev, math.inf))
    next_aff = h_next.affine_on(t_next, math.nextafter(t_next, math.inf))
    return None if prev_aff is None or next_aff is None else (prev_aff, next_aff)


def _cut_vertices(box: StateBox, coeffs, offset):
    """Vertices of box intersected with {coeffs.x + offset >= 0}: the box
    vertices inside the halfspace and the cut hyperplane's crossings of box
    edges, among which a linear objective takes its minimum and maximum."""
    tol = 1e-12
    verts = [v for v in box.vertices() if _affine_value(coeffs, offset, v) >= -tol]
    if all(c == 0 for c in coeffs):
        return verts
    n = box.dim
    for free in range(n):
        c_free = coeffs[free]
        if c_free == 0:
            continue
        others = [i for i in range(n) if i != free]
        for combo in itertools.product(*[(box.lower[i], box.upper[i]) for i in others]):
            rest = offset + sum(coeffs[i] * combo[k] for k, i in enumerate(others))
            xf = -rest / c_free
            if box.lower[free] - tol <= xf <= box.upper[free] + tol:
                point = [0.0] * n
                for k, i in enumerate(others):
                    point[i] = combo[k]
                point[free] = min(max(xf, box.lower[free]), box.upper[free])
                verts.append(tuple(point))
    return verts


_MEMO_SIZE = 1024  # entries in each memo of the exact checks


def _bits(*nums) -> bytes:
    """The numbers' exact bits as doubles: unlike ==, they tell -0.0 from 0.0."""
    return struct.pack(f"{len(nums)}d", *nums)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _polytope(box_bits: bytes, form_bits: bytes) -> tuple:
    box, (*coeffs, offset) = memoryview(box_bits).cast("d"), memoryview(form_bits).cast("d")
    half = len(box) // 2
    return tuple(_cut_vertices(StateBox(tuple(box[:half]), tuple(box[half:])), coeffs, offset))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _exact_extremes(box_bits: bytes, prev_bits: bytes, next_bits: bytes):
    """(value, x, EXACT) at the first minimum and at the first maximum of the
    next form over `_polytope`'s vertices, or (+-inf, None, EXACT) if none."""
    verts = _polytope(box_bits, prev_bits)
    *coeffs, offset = memoryview(next_bits).cast("d")
    vals = [_affine_value(coeffs, offset, v) for v in verts]
    if not vals:
        return (math.inf, None, EXACT), (-math.inf, None, EXACT)
    # min and max keep the first of equal values: the earlier vertex wins a tie
    lo = min(range(len(vals)), key=vals.__getitem__)
    hi = max(range(len(vals)), key=vals.__getitem__)
    return (vals[lo], verts[lo], EXACT), (vals[hi], verts[hi], EXACT)


def _check_resolution(resolution) -> None:
    if not (isinstance(resolution, numbers.Integral) and resolution >= 1):
        raise ContractError(f"grid resolution must be an integer >= 1, got {resolution!r}")


def _grid_points(box: StateBox, resolution: int):
    """The grid, one slab per value of the first axis: that value and one
    array per other axis, broadcastable, in itertools.product's order when
    read in C order. Point k of an axis is lo + k * step (midpoint at 1)."""
    _check_resolution(resolution)
    axes = []
    for lo, hi in zip(box.lower, box.upper):
        if resolution == 1:
            axes.append(np.array([0.5 * (lo + hi)]))
        else:
            axes.append(lo + np.arange(resolution) * ((hi - lo) / (resolution - 1)))
    rest = np.ix_(*axes[1:])
    return (head + rest for head in itertools.product(*axes[:1]))


def _first_best(vals, slab, fill, pick):
    """(C-order index, value) of the first point where `pick` (np.argmax or
    np.argmin) finds the extreme of values on a slab (or a scalar), NaN read
    as `fill`: the point a point-by-point scan with strict comparisons keeps."""
    vals = np.broadcast_to(vals, np.broadcast_shapes(*map(np.shape, slab))).ravel()
    i = int(pick(vals))
    if np.isnan(vals[i]):  # argmax and argmin stop at the first NaN
        vals = np.where(np.isnan(vals), fill, vals)
        i = int(pick(vals))
    return i, vals[i]


def _slab_point(slab, flat_index: int) -> tuple:
    """The grid point at a C-order index of a slab, as a tuple of floats."""
    return tuple(float(c.flat[flat_index]) for c in np.broadcast_arrays(*slab))


@dataclass(frozen=True)
class SubsetCheck:
    holds: bool
    method: str
    counterexample: Optional[tuple] = None  # h_prev >= 0 but h_next < 0


@dataclass(frozen=True)
class IntersectionCheck:
    witness: Optional[tuple]  # h_prev(t-) >= 0 and h_next(t) >= 0, or None
    method: str


def _require_domain(domain: StateBox):
    if domain.is_degenerate():
        raise ContractError("degenerate (zero-width) domain box")


def _extreme(h_prev, h_next, t_prev, t_next, domain, resolution, forms, lowest):
    """(value, x, method): the first minimum (lowest) or maximum of
    h_next(t_next, x) over the x in the domain with h_prev(t_prev, x) >= 0,
    or (inf, None) or (-inf, None) when there is none. Exact, and memoized,
    when `forms` holds both affine forms (`_forms`), else over the grid,
    where NaN never wins."""
    if forms is not None:
        (prev_coeffs, prev_offset), (next_coeffs, next_offset) = forms
        return _exact_extremes(_bits(*domain.lower, *domain.upper),
                               _bits(*prev_coeffs, prev_offset),
                               _bits(*next_coeffs, next_offset))[0 if lowest else 1]
    pick, fill = (np.argmin, math.inf) if lowest else (np.argmax, -math.inf)
    best_val, best_at = fill, None
    for slab in _grid_points(domain, resolution):
        vals = np.where(h_prev.h_grid(t_prev, slab) >= 0, h_next.h_grid(t_next, slab), fill)
        i, val = _first_best(vals, slab, fill, pick)
        if (val < best_val) if lowest else (val > best_val):
            best_val, best_at = float(val), (slab, i)
    return best_val, None if best_at is None else _slab_point(*best_at), f"sampled({resolution})"


def check_subset(h_prev: Barrier, h_next: Barrier, t: float, domain: StateBox,
                 resolution: int = 101) -> SubsetCheck:
    """Does every x in the domain with h_prev(t-, x) >= 0 satisfy
    h_next(t, x) >= 0? Exact for affine templates, else the first bad grid point."""
    _require_domain(domain)
    t_left = math.nextafter(t, -math.inf)
    forms = _forms(h_prev, h_next, t_left, t)
    if forms is not None:
        worst, x, _ = _extreme(h_prev, h_next, t_left, t, domain, resolution, forms, True)
        return SubsetCheck(True, EXACT) if worst >= -1e-9 else SubsetCheck(False, EXACT, x)
    method = f"sampled({resolution})"
    for slab in _grid_points(domain, resolution):
        i, bad = _first_best((h_prev.h_grid(t_left, slab) >= 0)
                             & (h_next.h_grid(t, slab) < -1e-9), slab, False, np.argmax)
        if bad:
            return SubsetCheck(False, method, counterexample=_slab_point(slab, i))
    return SubsetCheck(True, method)


def check_intersection(h_prev: Barrier, h_next: Barrier, t: float, domain: StateBox,
                       resolution: int = 101) -> IntersectionCheck:
    """Witness x with h_prev(t-, x) >= 0 and h_next(t, x) >= 0, or None."""
    _require_domain(domain)
    t_left = math.nextafter(t, -math.inf)
    best, x, method = _extreme(h_prev, h_next, t_left, t, domain, resolution,
                               _forms(h_prev, h_next, t_left, t), False)
    return IntersectionCheck(x if best >= -1e-12 else None, method)


def _worst_engage_margin(h_prev, h_next, tau, domain, resolution):
    """min h_next(tau, x) over C_prev(tau) in the domain (pessimistic; 0.0 if not finite)."""
    worst, _, method = _extreme(h_prev, h_next, tau, tau, domain, resolution,
                                _forms(h_prev, h_next, tau, tau), True)
    return (0.0 if math.isinf(worst) else worst), method


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractSegment:
    """One obligation: invariance of `barrier`, the resolved `pred`, on its
    interval. The finite-time windows into the next segment's set live on the
    boundaries."""

    pred: Optional[PredicateRef]  # None marks a vacuous segment
    interval: TimeInterval
    barrier: Optional[Barrier] = None  # None exactly when vacuous

    @property
    def vacuous(self) -> bool:
        return self.pred is None

    @property
    def barrier_id(self) -> str:
        return str(self.pred) if self.pred else "<top>"


@dataclass(frozen=True)
class BoundaryDecision:
    time: float
    prev_id: str
    next_id: str
    verdict: Verdict
    method: str
    reason: str = ""
    witness: Optional[tuple] = None
    tau: Optional[float] = None          # engagement time of the FCBF window
    t_target: Optional[float] = None     # convergence budget of the window
    rho: Optional[float] = None
    gamma_min: float = GAMMA_MIN
    worst_engage_margin: Optional[float] = None

    def describe(self) -> str:
        parts = [f"t={self.time:g}", f"{self.prev_id}->{self.next_id}",
                 f"verdict={self.verdict.value}", f"method={self.method}"]
        if self.verdict is Verdict.OVERLAP_DEADLINE:
            parts.append(f"tau={self.tau:g}")
            parts.append(f"t_conv={self.t_target:g}")
            if self.worst_engage_margin is not None:
                parts.append(f"worst_margin={self.worst_engage_margin:g}")
        if self.witness is not None:
            parts.append("witness=(" + ",".join(f"{v:g}" for v in self.witness) + ")")
        if self.reason:
            parts.append(f"reason={self.reason}")
        return " ".join(parts)


@dataclass(frozen=True)
class ScheduleConfig:
    """Knobs for schedule construction.

    `boundary_windows` overrides (tau, t_target) per boundary time; default
    engagement is tau = t_i - t_conv. Every deadline, rho and gamma_min is
    checked here, whether or not some boundary comes to need a window."""

    domain: StateBox
    horizon: float
    rho: float = 0.9
    t_conv: float = 5.0
    gamma_min: float = GAMMA_MIN
    boundary_windows: dict = field(default_factory=dict)
    grid_resolution: int = 101

    def __post_init__(self):
        _check_resolution(self.grid_resolution)
        for t_i, (tau, _) in self.boundary_windows.items():
            if not (math.isfinite(t_i) and math.isfinite(tau)):
                raise BarrierError(
                    f"boundary window needs a finite time and tau, got {t_i}: tau={tau}")
        for t_target in [self.t_conv] + [w[1] for w in self.boundary_windows.values()]:
            if not t_target > 0:
                raise BarrierError(f"deadline must be positive, got {t_target}")
        if not 0 <= self.rho < 1:
            raise BarrierError(f"rho must lie in [0, 1), got {self.rho}")
        if not self.gamma_min > 0:
            raise BarrierError(f"gamma must be positive, got {self.gamma_min}")


@dataclass
class ContractSchedule:
    """Invariance segments tiling [0, horizon) plus per-boundary verdicts,
    applying while lo < x[0] <= hi for `region` (lo, hi). Immutable after
    construction, which compiles the rows; queries are pure apart from the
    engagement records they add to the caller's dict."""

    label: str
    segments: list
    boundaries: list
    region: tuple = (-math.inf, math.inf)

    def __post_init__(self):
        # segment i covers [bounds[i], bounds[i + 1]); bounds[-1] ends the span
        self._bounds = [seg.interval.start for seg in self.segments] + [self.span.end]
        self._rows = [self._compile(i) for i in range(len(self.segments))]

    def _compile(self, idx: int):
        """Segment idx's (CBF row, window row): (barrier, alpha, label
        "cbf:<id>"), None when vacuous; the FCBF window of an overlap_deadline
        boundary at its end, None otherwise."""
        bar = self.segments[idx].barrier
        cbf = None if bar is None else (bar, bar.alpha, "cbf:" + bar.id)
        window = None
        if idx < len(self.boundaries):
            bd = self.boundaries[idx]
            if bd.verdict is Verdict.OVERLAP_DEADLINE:
                nxt = self.segments[idx + 1].barrier
                window = _Window(bd.tau, bd.time, (self.label, idx), nxt, bd, "fcbf:" + nxt.id)
        return cbf, window

    @property
    def span(self) -> TimeInterval:
        return TimeInterval(self.segments[0].interval.start, self.segments[-1].interval.end)

    def failures(self) -> list:
        return [b for b in self.boundaries if b.verdict is Verdict.INCOMPATIBLE]

    def _segment_index(self, t: float) -> int:
        """Index of the segment holding t."""
        b = self._bounds
        if not (b[0] <= t < b[-1]):
            raise ScheduleQueryError(f"{self.label}: t={t:g} outside schedule span {self.span}")
        return bisect_right(b, t) - 1

    def assumption_margin(self, x0):
        """(barrier_id, margin) of the first segment's entry assumption, or
        None when the schedule opens vacuously or x0 lies outside its region."""
        seg = self.segments[0]
        lo, hi = self.region
        if seg.vacuous or not lo < x0[0] <= hi:
            return None
        return seg.barrier_id, seg.barrier.h(seg.interval.start, x0)

    def plan(self, t, x, engagements: dict) -> tuple:
        """(t_from, until, specs): the row specs active at t, and the interval
        [t_from, until) around t over which they stay active. The specs are
        the segment's invariance row, then, strictly inside (tau_i, t_i) of
        an overlap boundary, the next barrier's finite-time row. A pending
        window (t <= tau) ends the interval at nextafter(tau), the first t
        with tau < t; an engaged one starts it there. A window's first query
        sizes its gamma from h(t, x), kept in `engagements` under (label,
        boundary index)."""
        i = self._segment_index(t)
        t_from, until = self._bounds[i], self._bounds[i + 1]
        cbf, window = self._rows[i]
        engaged = window is not None and window.tau < t
        if window is not None:
            onset = math.nextafter(window.tau, math.inf)
            if engaged:
                t_from = max(t_from, onset)
            else:
                until = min(until, onset)
        specs = []
        if cbf is not None:
            bar, alpha, label = cbf
            specs.append(_row_spec(bar, label, t_from, until, alpha, None))
        if engaged:
            params = _engaged_params(window, t, x, engagements)
            specs.append(_row_spec(window.barrier, window.label, t_from, until, None, params))
        return t_from, until, specs


def _row_spec(bar: Barrier, label: str, t0, t1, alpha, params) -> tuple:
    """(label, barrier, coeffs, offset, alpha, params) of a plan over [t0, t1):
    alpha for an invariance row, params for a finite-time one, and the
    barrier's `affine_on(t0, t1)` form, or None twice."""
    coeffs, offset = bar.affine_on(t0, t1) or (None, None)
    return label, bar, coeffs, offset, alpha, params


class _Window(NamedTuple):
    """An overlap_deadline boundary compiled for the step loop: its FCBF
    constraint on the next segment's barrier holds while tau < t < time."""

    tau: float
    time: float
    key: tuple  # (schedule label, boundary index): the engagement key
    barrier: Barrier
    boundary: BoundaryDecision
    label: str


def _engaged_params(window: _Window, t, x, engagements) -> FcbfParams:
    """The window's FCBF parameters, built once, at its first query (which
    sizes gamma), and kept in its engagement record."""
    rec = engagements.get(window.key)
    if rec is None:
        bd = window.boundary
        h_engage = window.barrier.h(t, x)
        params = FcbfParams(bd.rho, gamma_for_deadline(h_engage, bd.rho, bd.t_target,
                                                       bd.gamma_min))
        rec = engagements[window.key] = EngagementRecord(
            key=window.key, time=t, h_engage=h_engage, params=params,
            boundary_time=bd.time, t_conv_bound=convergence_time(h_engage, params),
        )
    return rec.params


@dataclass(frozen=True)
class EngagementRecord:
    """A finite-time window's first query: when, from which margin, with
    which (rho, gamma), and the convergence bound they give against the
    boundary time."""

    key: tuple
    time: float
    h_engage: float
    params: FcbfParams
    boundary_time: float
    t_conv_bound: float

    def describe(self) -> str:
        return (f"engage {self.key[0]}#{self.key[1]} t={self.time:g} "
                f"h={self.h_engage:g} gamma={self.params.gamma:g} "
                f"T_bound={self.t_conv_bound:g} deadline={self.boundary_time:g}")


def build_schedule(group: TaskGroup, registry, cfg: ScheduleConfig) -> ContractSchedule:
    """Tile the group's intervals over [0, horizon) (gaps become vacuous
    segments), bind each segment to its barrier resolved in `registry`, and
    classify every boundary. Incompatible boundaries are kept in
    the schedule so callers can report the exact failure; see `failures()`.
    A `boundary_windows` key that is no boundary time is a `ContractError`."""
    segments = _tile_segments(group, cfg.horizon, registry)
    times = {seg.interval.end for seg in segments[:-1]}
    for t_i in cfg.boundary_windows:
        if t_i not in times:
            raise ContractError(f"group {group.label}: boundary window at t={t_i!r} "
                                "is not a boundary time of the group")
    boundaries = []
    for idx in range(len(segments) - 1):
        boundaries.append(_classify_boundary(segments, idx, cfg))
    return ContractSchedule(label=group.label, segments=segments, boundaries=boundaries)


def _tile_segments(group: TaskGroup, horizon: float, registry) -> list:
    segments = []
    cursor = 0.0
    for interval, pred in group.predicates:
        if interval.start > cursor + 1e-9:
            segments.append(ContractSegment(None, TimeInterval(cursor, interval.start)))
        elif not segments:  # a start within the slack opens the schedule at t=0
            interval = TimeInterval(cursor, interval.end)
        segments.append(ContractSegment(pred, interval, registry.resolve(pred)))
        cursor = interval.end
    if cursor < horizon - 1e-9:
        segments.append(ContractSegment(None, TimeInterval(cursor, horizon)))
    elif not segments:
        segments.append(ContractSegment(None, TimeInterval(0.0, horizon)))
    return segments


def _classify_boundary(segments, idx, cfg: ScheduleConfig) -> BoundaryDecision:
    prev, nxt = segments[idx], segments[idx + 1]
    t_i = prev.interval.end
    top = TopBarrier(cfg.domain.dim)
    prev_bar, next_bar = prev.barrier or top, nxt.barrier or top
    base = dict(time=t_i, prev_id=prev.barrier_id, next_id=nxt.barrier_id)

    sub = check_subset(prev_bar, next_bar, t_i, cfg.domain, cfg.grid_resolution)
    if sub.holds:
        return BoundaryDecision(verdict=Verdict.SUBSET, method=sub.method, **base)

    inter = check_intersection(prev_bar, next_bar, t_i, cfg.domain, cfg.grid_resolution)
    if inter.witness is None:
        return BoundaryDecision(
            verdict=Verdict.INCOMPATIBLE, method=inter.method,
            reason="empty intersection", **base,
        )

    tau, t_target = cfg.boundary_windows.get(t_i, (t_i - cfg.t_conv, cfg.t_conv))
    if tau < prev.interval.start - 1e-9 or t_target > (t_i - prev.interval.start) + 1e-9:
        return BoundaryDecision(
            verdict=Verdict.INCOMPATIBLE, method=inter.method, witness=inter.witness,
            reason=(f"deadline violated: t_conv={t_target:g} exceeds "
                    f"interval length {t_i - prev.interval.start:g}"),
            tau=tau, t_target=t_target, rho=cfg.rho, **base,
        )
    if tau + t_target > t_i + DEADLINE_SLACK:
        return BoundaryDecision(
            verdict=Verdict.INCOMPATIBLE, method=inter.method, witness=inter.witness,
            reason=f"deadline violated: tau+t_conv={tau + t_target:g} > {t_i:g}",
            tau=tau, t_target=t_target, rho=cfg.rho, **base,
        )

    worst, margin_method = _worst_engage_margin(
        prev_bar, next_bar, tau, cfg.domain, cfg.grid_resolution
    )
    return BoundaryDecision(
        verdict=Verdict.OVERLAP_DEADLINE, method=margin_method, witness=inter.witness,
        tau=tau, t_target=t_target, rho=cfg.rho, gamma_min=cfg.gamma_min,
        worst_engage_margin=worst, **base,
    )


class RegionTable:
    """Which schedules apply at each X_f, compiled once from a schedule list,
    and one run's query state: its engagement records, its plan and the
    plan's rows.

    `bounds` is -inf followed by the sorted finite region bounds; cell j is
    (bounds[j-1], bounds[j]] (the last cell runs to +inf, inclusive) and
    cell 0 holds x[0] = -inf and NaN, which no region admits. Every region
    bound is a cell bound, so lo < x[0] <= hi holds on a whole cell or on none
    of it, and bisect_left(bounds, x[0]) finds the cell.

    `plan` is (t_from, until, lo, hi, specs): the specs of the schedules of
    cell (lo, hi], in list order, valid on the intersection [t_from, until)
    of their `ContractSchedule.plan` intervals. `rows` is (g, rows, clip):
    the plan's specs resolved (`resolve_rows`) for the g object of its
    latest query, and of those the rows that `eval_rows`' clip sink reads
    (`clip_rows`), or None where it may not; None until the plan's first
    query. `engagements` maps (schedule label, boundary index) to
    `EngagementRecord`s, in engagement order."""

    __slots__ = ("bounds", "cells", "engagements", "plan", "rows")

    def __init__(self, bounds: tuple, cells: tuple):
        self.bounds, self.cells = bounds, cells  # cells: per cell, its schedules
        self.engagements = {}
        self.plan = (math.inf, -math.inf, math.inf, -math.inf, ())  # holds nowhere
        self.rows = None

    @classmethod
    def of(cls, schedules) -> "RegionTable":
        finite = sorted({v for s in schedules for v in s.region if math.isfinite(v)})
        cells = [()]
        for lo, hi in zip([-math.inf] + finite, finite + [math.inf]):
            cells.append(tuple(s for s in schedules if s.region[0] <= lo and hi <= s.region[1]))
        return cls(tuple([-math.inf] + finite), tuple(cells))

    def replan(self, t, x) -> tuple:
        """Plan the rows at (t, x) into `plan`, and return their specs."""
        bounds = self.bounds
        j = bisect_left(bounds, x[0])
        if j:
            lo, hi = bounds[j - 1], bounds[j] if j < len(bounds) else math.inf
        else:  # x[0] = -inf or NaN: an empty (lo, hi], so the next query replans
            lo, hi = math.inf, -math.inf
        t_from, until, specs = -math.inf, math.inf, []
        for sched in self.cells[j]:
            s_from, s_until, s_specs = sched.plan(t, x, self.engagements)
            t_from, until = max(t_from, s_from), min(until, s_until)
            specs += s_specs
        specs = tuple(specs)
        self.plan, self.rows = (t_from, until, lo, hi, specs), None
        return specs


def _rows_at(table: RegionTable, t, x, gm) -> tuple:
    """The table's (g, rows, clip) for a query at (t, x) with g object gm:
    `replan` first when t or x[0] has left the plan, and the plan's specs
    resolved again when gm is not the g they were resolved for."""
    t_from, until, lo, hi, specs = table.plan
    if not (t_from <= t < until and lo < x[0] <= hi):
        specs = table.replan(t, x)
    rows = table.rows
    if rows is None or rows[0] is not gm:
        resolved = resolve_rows(specs, gm)
        rows = table.rows = (gm, resolved, clip_rows(resolved))
    return rows


def conjoin_groups(table: RegionTable, t, x, sys, dyn=None, floor=-math.inf) -> list:
    """Conjunction of group contracts = intersection of safe input sets,
    realized as one list of the active (a, b, label) rows of every schedule
    whose region holds x[0], in the schedule list's order, from the table's
    plan and rows (`_rows_at`). `dyn` is (f(t, x), g(t, x)) when the caller
    has evaluated them already; `floor` as for `eval_rows`."""
    fv, gm = dyn if dyn is not None else (sys.f(t, x), sys.g(t, x))
    return eval_rows(_rows_at(table, t, x, gm)[1], t, x, fv, floor, out=[])


def clip_groups(table: RegionTable, t, x, fv, gm, floor, lo, hi):
    """For one input (m = 1): the (lo, hi) that the rows of `conjoin_groups`
    leave of [lo, hi], in one pass over the same rows (`eval_rows`' clip
    sink). None where the step must take `conjoin_groups` and `solve_qp`
    instead: g has another number of columns, or the rows name a failure or
    an error (they raise or record it). The pass reads the plan's
    `clip_rows`; a zero bound, whose sign a dropped row may have set first,
    takes a second pass over every row."""
    _, rows, clip = _rows_at(table, t, x, gm)
    if clip is None:
        return None
    bounds = eval_rows(clip, t, x, fv, floor, lo, hi)
    if bounds and clip is not rows and 0 in bounds:
        return eval_rows(rows, t, x, fv, floor, lo, hi)
    return bounds
