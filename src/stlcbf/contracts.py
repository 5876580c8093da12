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
`build_schedule` runs. A schedule then compiles the per-step work of its
runtime query `constraints_at` into one row pair per segment: the segment's
CBF row (barrier, alpha, label "cbf:<id>") and, when an overlap_deadline
boundary ends the segment, its window row (tau, boundary time, engagement
key, next barrier, label "fcbf:<id>"). A query finds the segment (a
forward cursor, a bisect when t jumps), reads its rows, keeps the strict
tau < t < t_i window test, and does only arithmetic: no verdict test, no
label concatenation, no barrier lookup. Each row also keeps its last
a = -grad.g (see `barriers.ConstraintRow`). A window's first query sizes its
gamma and builds its `FcbfParams`, once, into its `EngagementRecord`; every
later query reads them from there.

A schedule may carry a `region = (lo, hi)` on the first state coordinate:
it applies only while lo < x[0] <= hi (default: every finite x[0]). The
traffic signal contracts use it to gate each signal's schedule to the
stretch of road where its stop line is the first at or ahead of the ego.
`RegionTable.of` compiles a schedule list once into the sorted region bounds
and, for each cell between them, the schedules that cover it, so
`conjoin_groups` finds the schedules at x[0] with one bisect.

Subset / intersection checks are exact for affine-in-state barriers (vertex
enumeration of the box-and-halfspace polytope); other templates fall back to
a deterministic N-per-axis grid, `sampled(N)` in the verdict, that numpy
evaluates one slab per value of the first axis (`Barrier.h_grid`). A sampled
verdict is evidence, not a proof: a violation can hide between grid points.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .barriers import (
    Barrier,
    BarrierError,
    ConstraintRow,
    FcbfParams,
    GAMMA_MIN,
    StateBox,
    TopBarrier,
    cbf_constraint,
    convergence_time,
    fcbf_constraint,
    gamma_for_deadline,
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


def _cut_vertices(box: StateBox, coeffs, offset, tol: float = 1e-12):
    """Vertices of box intersected with {coeffs.x + offset >= 0}.

    For a linear objective over this (compact) polytope the optimum sits at
    one of: box vertices inside the halfspace, or intersections of the cut
    hyperplane with box edges.
    """
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


def check_subset(h_prev: Barrier, h_next: Barrier, t: float, domain: StateBox,
                 resolution: int = 101) -> SubsetCheck:
    """Does every x in the domain with h_prev(t-, x) >= 0 satisfy
    h_next(t, x) >= 0? Exact for affine templates, sampled otherwise."""
    _require_domain(domain)
    prev_aff = h_prev.affine_at(t, side="left")
    next_aff = h_next.affine_at(t, side="right")
    if prev_aff is not None and next_aff is not None:
        cand = _cut_vertices(domain, *prev_aff)
        if not cand:
            return SubsetCheck(True, EXACT)  # C_prev misses the domain: vacuous
        worst = min(cand, key=lambda v: _affine_value(*next_aff, v))
        if _affine_value(*next_aff, worst) >= -1e-9:
            return SubsetCheck(True, EXACT)
        return SubsetCheck(False, EXACT, counterexample=worst)

    method = f"sampled({resolution})"
    for slab in _grid_points(domain, resolution):
        i, bad = _first_best((h_prev.h_grid(t, slab, "left") >= 0)
                             & (h_next.h_grid(t, slab) < -1e-9), slab, False, np.argmax)
        if bad:
            return SubsetCheck(False, method, counterexample=_slab_point(slab, i))
    return SubsetCheck(True, method)


def check_intersection(h_prev: Barrier, h_next: Barrier, t: float, domain: StateBox,
                       resolution: int = 101) -> IntersectionCheck:
    """Witness x with h_prev(t-, x) >= 0 and h_next(t, x) >= 0, or None."""
    _require_domain(domain)
    prev_aff = h_prev.affine_at(t, side="left")
    next_aff = h_next.affine_at(t, side="right")
    if prev_aff is not None and next_aff is not None:
        cand = _cut_vertices(domain, *prev_aff)
        if not cand:
            return IntersectionCheck(None, EXACT)
        best = max(cand, key=lambda v: _affine_value(*next_aff, v))
        if _affine_value(*next_aff, best) >= -1e-12:
            return IntersectionCheck(best, EXACT)
        return IntersectionCheck(None, EXACT)

    method = f"sampled({resolution})"
    best_pt, best_val = None, -math.inf
    for slab in _grid_points(domain, resolution):
        inside = h_prev.h_grid(t, slab, "left") >= 0
        i, val = _first_best(np.where(inside, h_next.h_grid(t, slab), -math.inf),
                             slab, -math.inf, np.argmax)
        if val > best_val:
            best_pt, best_val = _slab_point(slab, i), float(val)
    return IntersectionCheck(best_pt if best_val >= -1e-12 else None, method)


def _worst_engage_margin(h_prev, h_next, tau, domain, resolution):
    """min h_next(tau, x) over C_prev(tau) in the domain (pessimistic)."""
    prev_aff = h_prev.affine_at(tau)
    next_aff = h_next.affine_at(tau)
    if prev_aff is not None and next_aff is not None:
        cand = _cut_vertices(domain, *prev_aff)
        if not cand:
            return 0.0, EXACT
        return min(_affine_value(*next_aff, v) for v in cand), EXACT
    method = f"sampled({resolution})"
    worst = math.inf
    for slab in _grid_points(domain, resolution):
        inside = h_prev.h_grid(tau, slab) >= 0
        _, val = _first_best(np.where(inside, h_next.h_grid(tau, slab), math.inf),
                             slab, math.inf, np.argmin)
        if val < worst:
            worst = float(val)
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
    segment cursor and the rows' kept a, which only save work."""

    label: str
    segments: list
    boundaries: list
    region: tuple = (-math.inf, math.inf)

    def __post_init__(self):
        # segment i covers [bounds[i], bounds[i + 1]); bounds[-1] ends the span
        self._bounds = [seg.interval.start for seg in self.segments] + [self.span.end]
        self._cursor = 0
        self._rows = [self._compile(i) for i in range(len(self.segments))]

    def _compile(self, idx: int):
        """Segment idx's (CBF row, window row): (barrier, alpha, "cbf:<id>"
        row), None when vacuous; the FCBF window of an overlap_deadline
        boundary at its end, None otherwise."""
        bar = self.segments[idx].barrier
        cbf = None if bar is None else (bar, bar.alpha, ConstraintRow("cbf:" + bar.id))
        window = None
        if idx < len(self.boundaries):
            bd = self.boundaries[idx]
            if bd.verdict is Verdict.OVERLAP_DEADLINE:
                nxt = self.segments[idx + 1].barrier
                window = _Window(bd.tau, bd.time, (self.label, idx), nxt, bd,
                                 ConstraintRow("fcbf:" + nxt.id))
        return cbf, window

    @property
    def span(self) -> TimeInterval:
        return TimeInterval(self.segments[0].interval.start, self.segments[-1].interval.end)

    def failures(self) -> list:
        return [b for b in self.boundaries if b.verdict is Verdict.INCOMPATIBLE]

    def _segment_index(self, t: float) -> int:
        """Index of the segment holding t. The loop's time moves forward, so
        the cursor's segment usually holds it; otherwise bisect and move."""
        b, i = self._bounds, self._cursor
        if not (b[i] <= t < b[i + 1]):
            if not (b[0] <= t < b[-1]):
                raise ScheduleQueryError(
                    f"{self.label}: t={t:g} outside schedule span {self.span}"
                )
            i = self._cursor = bisect_right(b, t) - 1
        return i

    def assumption_margin(self, x0):
        """(barrier_id, margin) of the first segment's entry assumption, or
        None when the schedule opens vacuously or x0 lies outside its region."""
        seg = self.segments[0]
        lo, hi = self.region
        if seg.vacuous or not lo < x0[0] <= hi:
            return None
        return seg.barrier_id, seg.barrier.h(seg.interval.start, x0)

    def constraints_at(self, t, x, sys, engagements=None, dyn=None):
        """Active halfspace constraints at (t, x) per the schedule case split:
        the current segment's invariance constraint, plus the upcoming
        barrier's finite-time constraint strictly inside (tau_i, t_i) of an
        overlap boundary. gamma is fixed at first engagement, in the
        `engagements` dict under (label, boundary index). `dyn` is
        (f(t, x), g(t, x)) when the caller has evaluated them already."""
        b, i = self._bounds, self._cursor
        if not b[i] <= t < b[i + 1]:  # t left the cursor's segment
            i = self._segment_index(t)
        cbf, window = self._rows[i]
        out = []
        if cbf is not None:
            bar, alpha, row = cbf
            out.append(cbf_constraint(bar, sys, alpha, t, x, dyn, row))
        if window is not None and window.tau < t < window.time:
            params = _engaged_params(window, t, x, {} if engagements is None else engagements)
            out.append(fcbf_constraint(window.barrier, sys, params, t, x, dyn, window.row))
        return out


class _Window(NamedTuple):
    """An overlap_deadline boundary compiled for the step loop: its FCBF
    constraint on the next segment's barrier holds while tau < t < time."""

    tau: float
    time: float
    key: tuple  # (schedule label, boundary index): the engagement key
    barrier: Barrier
    boundary: BoundaryDecision
    row: ConstraintRow


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
    the schedule so callers can report the exact failure; see `failures()`."""
    segments = _tile_segments(group, cfg.horizon, registry)
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


class RegionTable(NamedTuple):
    """Which schedules apply at each X_f, compiled once from a schedule list.

    `bounds` is -inf followed by the sorted finite region bounds; cell j is
    (bounds[j-1], bounds[j]] (the last cell runs to +inf, inclusive) and
    cell 0 holds x[0] = -inf and NaN, which no region admits. Every region
    bound is a cell bound, so lo < x[0] <= hi holds on a whole cell or on none
    of it, and bisect_left(bounds, x[0]) finds the cell."""

    bounds: tuple
    cells: tuple  # per cell, the schedules whose region covers it, in order

    @classmethod
    def of(cls, schedules) -> "RegionTable":
        finite = sorted({v for s in schedules for v in s.region if math.isfinite(v)})
        cells = [()]
        for lo, hi in zip([-math.inf] + finite, finite + [math.inf]):
            cells.append(tuple(s for s in schedules if s.region[0] <= lo and hi <= s.region[1]))
        return cls(tuple([-math.inf] + finite), tuple(cells))


def conjoin_groups(table: RegionTable, t, x, sys, engagements=None, dyn=None):
    """Conjunction of group contracts = intersection of safe input sets,
    realized as the concatenation of the active constraints of every schedule
    whose region holds x[0], in the schedule list's order."""
    out = []
    for sched in table.cells[bisect_left(table.bounds, x[0])]:
        out.extend(sched.constraints_at(t, x, sys, engagements, dyn))
    return out
