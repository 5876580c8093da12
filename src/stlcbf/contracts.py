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
`build_schedule` runs. The active rows change only at segment bounds and
window onsets, so the runtime query has two parts. `ContractSchedule.plan`
bisects for the segment, applies the strict tau < t < t_i window test of
the boundary that ends it, and returns the active row specs with the
interval [t_from, until) over which they stay active: the segment's CBF row
(its barrier, alpha, label "cbf:<id>") and, inside an overlap_deadline
window, the next barrier's FCBF row (label "fcbf:<id>"). Each spec carries
the barrier's affine form over that interval (`Barrier.affine_on`), if it
has one. `barriers.resolve_rows` resolves specs for one g matrix and
`barriers.eval_rows` turns them into (a, b, label) rows at (t, x): a spec
with a form costs no `terms` call, and such rows cost two dot products per
distinct gradient, plus one add and one drift per row. A window's first
query sizes its gamma and builds its `FcbfParams`, once, into its
`EngagementRecord`; every later query reads them from there.

A schedule may carry a `region = (lo, hi)` on the first state coordinate:
it applies only while lo < x[0] <= hi (default: every finite x[0]). The
traffic signal contracts use it to gate each signal's schedule to the
stretch of road where its stop line is the first at or ahead of the ego.
A `RegionTable(schedules)` keeps one run's engagement records and events,
the plan each schedule last made, and its own plan, which joins those, with
its rows: the specs of the schedules whose region holds x[0], valid while t
stays in the intersection of their intervals and x[0] in the cell between
the nearest region bounds, resolved once per plan and g object. Only when t
or x[0] leaves the plan does a query `replan`: one pass over the schedule
list, one bisect per schedule that applies and whose own plan has ended.
`conjoin_groups` evaluates the rows into a list (`barriers.eval_rows`' list
sink). For one input, `clip_groups` clips the input box in one pass over the
rows that can bind (the clip sink over `barriers.clip_rows`); a step whose
rows name a failure or an error takes `conjoin_groups` and `qp.solve_qp`
instead, which raise or record it. Both run the evaluator compiled once
per state width (`barriers.evaluator_for`).

The static checks at boundary time t read the set being left at t- =
nextafter(t, -inf) and the one entered at t. Subset, intersection and the
worst engage margin all ask for one extreme of h_next over C_prev in the
domain, and `_extreme` alone finds it: exactly for affine-in-state barriers,
at the vertices of the box-and-halfspace polytope (`affine_on` over the ulp
right of t- or t), else on a `GRID_RESOLUTION`-per-axis grid, `sampled(101)`
in the verdict, one numpy slab per value of the first axis (`h_grid`). An
exact answer depends only on the domain and the forms, so a process
enumerates each (domain, h_prev form) polytope once and scans it once per
h_next form, memoized by their exact bits (`_MEMO_SIZE` entries each). When
only h_prev lacks a form, the h_next form bounds every slab in one numpy
fold before the scan, and the grid skips, at one float compare each, the
slabs that it bounds away from the running extreme. The subset check's grid
scan stops after the first slab with a violation, whose first minimum is the
counterexample. A sampled verdict is evidence, not a proof: a violation can
hide between grid points.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .barriers import (
    Barrier,
    BarrierError,
    Box,
    FcbfParams,
    GAMMA_MIN,
    TopBarrier,
    cbf_constraint,  # noqa: F401  callers import and patch both generators here
    clip_rows,
    convergence_time,
    dot,
    eval_rows,
    evaluator_for,
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


def _forms(h_prev: Barrier, h_next: Barrier, t_prev: float, t_next: float, dim: int):
    """The pair of affine forms, each on the one ulp right of its time, or
    None where a barrier has none. A form with another number of
    coefficients than the domain's dim axes is a `ContractError`."""
    forms = (h_prev.affine_on(t_prev, math.nextafter(t_prev, math.inf)),
             h_next.affine_on(t_next, math.nextafter(t_next, math.inf)))
    for bar, form in zip((h_prev, h_next), forms):
        if form is not None and len(form[0]) != dim:
            raise ContractError(f"barrier {bar.id!r} has {len(form[0])} coefficients, "
                                f"the domain has {dim} axes")
    return forms


def _cut_vertices(box: Box, coeffs, offset):
    """Vertices of box intersected with {coeffs.x + offset >= 0}: the box
    vertices inside the halfspace and the cut hyperplane's crossings of box
    edges, among which a linear objective takes its minimum and maximum."""
    tol = 1e-12
    verts = [v for v in box.vertices() if dot(coeffs, v) + offset >= -tol]
    n = box.dim
    for free in range(n):
        c_free = coeffs[free]
        if c_free == 0:
            continue
        others = [i for i in range(n) if i != free]
        for combo in itertools.product(*[(box.lower[i], box.upper[i]) for i in others]):
            rest = offset + dot([coeffs[i] for i in others], combo)
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
    return tuple(_cut_vertices(Box(tuple(box[:half]), tuple(box[half:])), coeffs, offset))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _exact_extremes(box_bits: bytes, prev_bits: bytes, next_bits: bytes):
    """(value, x, EXACT) at the first minimum and at the first maximum of the
    next form over `_polytope`'s vertices, or (+-inf, None, EXACT) if none."""
    verts = _polytope(box_bits, prev_bits)
    *coeffs, offset = memoryview(next_bits).cast("d")
    vals = [dot(coeffs, v) + offset for v in verts]
    if not vals:
        return (math.inf, None, EXACT), (-math.inf, None, EXACT)
    # min and max keep the first of equal values: the earlier vertex wins a tie
    lo = min(range(len(vals)), key=vals.__getitem__)
    hi = max(range(len(vals)), key=vals.__getitem__)
    return (vals[lo], verts[lo], EXACT), (vals[hi], verts[hi], EXACT)


GRID_RESOLUTION = 101  # points per axis of a sampled check


def _axes(box: Box, resolution: int) -> list:
    """The grid's axes, one per box axis: point k is lo + k * step (resolution >= 2)."""
    return [lo + np.arange(resolution) * ((hi - lo) / (resolution - 1))
            for lo, hi in zip(box.lower, box.upper)]


def _grid_points(axes):
    """The grid of `_axes`, one slab per value of the first axis: that value
    and one array per other axis, broadcastable, in itertools.product's
    order when read in C order."""
    rest = np.ix_(*axes[1:])
    return (head + rest for head in itertools.product(*axes[:1]))


def _slab_bounds(form, axes, lowest: bool) -> list:
    """The affine form at each slab's best corner for the scan (per other
    axis its first or last value, by the coefficient's sign; the slab's own
    value on the first axis), as floats in slab order: one `dot` over the
    first axis' array, whose elementwise products and adds round as the
    per-slab float fold would. That fold never warns, so neither does this."""
    coeffs, offset = form
    corner = [axes[0]] + [float(a[0] if (c > 0) == lowest else a[-1])
                          for c, a in zip(coeffs[1:], axes[1:])]
    with np.errstate(over="ignore", invalid="ignore"):
        return (dot(coeffs, corner) + offset).tolist()


def _first_best(vals, fill, pick):
    """(C-order index, value) of the first point where `pick` (np.argmax or
    np.argmin) finds the extreme in a slab's buffer, NaN read as `fill` (and
    overwritten): the point a point-by-point scan with strict comparisons keeps."""
    i = int(pick(vals))
    if math.isnan(vals.flat[i]):  # argmax and argmin stop at the first NaN
        np.copyto(vals, fill, where=np.isnan(vals))
        i = int(pick(vals))
    return i, vals.flat[i]


def _slab_point(slab, flat_index: int) -> tuple:
    """The grid point at a C-order index of a `_grid_points` slab, as a
    tuple of floats: the slab's first-axis value, then per other axis the
    value at that axis' digit of the index (the last axis' digit is the
    lowest)."""
    head, *rest = slab
    point = []
    for a in reversed(rest):
        flat_index, i = divmod(flat_index, a.size)
        point.append(float(a.flat[i]))
    return (float(head), *reversed(point))


@dataclass(frozen=True)
class SubsetCheck:
    holds: bool
    method: str
    counterexample: Optional[tuple] = None  # h_prev >= 0 but h_next < 0


@dataclass(frozen=True)
class IntersectionCheck:
    witness: Optional[tuple]  # h_prev(t-) >= 0 and h_next(t) >= 0, or None
    method: str


def _extreme(h_prev, h_next, t_prev, t_next, domain, lowest, stop=-math.inf):
    """(value, x, method): the first minimum (lowest) or maximum of
    h_next(t_next, x) over the x in the domain with h_prev(t_prev, x) >= 0,
    or (inf, None) or (-inf, None) when there is none. Exact, and memoized,
    when both barriers have affine forms (`_forms`), else over the
    `GRID_RESOLUTION`-per-axis grid, where NaN never wins and the scan ends
    after the first slab where the running minimum falls below `stop`. With
    an h_next form, every slab's bound, the form at its best corner, is
    folded before the scan (`_slab_bounds`), and a slab whose bound cannot
    strictly beat the running extreme costs one float compare: the fold is
    monotone in each coordinate, and a tie keeps the earlier point, so the
    scan's result is unchanged. A NaN bound compares false, and its slab is
    scanned; without an h_next form every bound is NaN. Like the exact
    branch, this needs the form's fold to equal h_grid, up to the sign of a
    zero."""
    if domain.is_degenerate():
        raise ContractError("degenerate (zero-width) domain box")
    prev_form, next_form = _forms(h_prev, h_next, t_prev, t_next, domain.dim)
    if prev_form is not None and next_form is not None:
        return _exact_extremes(_bits(*domain.lower, *domain.upper),
                               _bits(*prev_form[0], prev_form[1]),
                               _bits(*next_form[0], next_form[1]))[0 if lowest else 1]
    n = GRID_RESOLUTION
    pick, fill = (np.argmin, math.inf) if lowest else (np.argmax, -math.inf)
    best_val, best_at, axes = fill, None, _axes(domain, n)
    bounds = (itertools.repeat(math.nan) if next_form is None
              else _slab_bounds(next_form, axes, lowest))
    shape = (n,) * (domain.dim - 1)  # a slab's: each slab refills both buffers
    vals, keep = np.empty(shape), np.empty(shape, dtype=bool)
    for slab, bound in zip(_grid_points(axes), bounds):
        if (bound >= best_val) if lowest else (bound <= best_val):
            continue  # no point of the slab beats the running extreme
        np.copyto(vals, h_next.h_grid(t_next, slab))  # never write into h_grid's array
        np.greater_equal(h_prev.h_grid(t_prev, slab), 0, out=keep)
        vals[~keep] = fill
        i, val = _first_best(vals, fill, pick)
        if (val < best_val) if lowest else (val > best_val):
            best_val, best_at = float(val), (slab, i)
            if best_val < stop:
                break
    return best_val, None if best_at is None else _slab_point(*best_at), f"sampled({n})"


def check_subset(h_prev: Barrier, h_next: Barrier, t: float, domain: Box) -> SubsetCheck:
    """Does every x in the domain with h_prev(t-, x) >= 0 satisfy
    h_next(t, x) >= 0? Read from the lowest h_next there (`_extreme`): on
    the grid, the first minimum of the first slab that holds a violation."""
    worst, x, method = _extreme(h_prev, h_next, math.nextafter(t, -math.inf), t, domain,
                                True, -1e-9)
    return SubsetCheck(True, method) if worst >= -1e-9 else SubsetCheck(False, method, x)


def check_intersection(h_prev: Barrier, h_next: Barrier, t: float,
                       domain: Box) -> IntersectionCheck:
    """Witness x with h_prev(t-, x) >= 0 and h_next(t, x) >= 0, or None."""
    best, x, method = _extreme(h_prev, h_next, math.nextafter(t, -math.inf), t, domain, False)
    return IntersectionCheck(x if best >= -1e-12 else None, method)


def _worst_engage_margin(h_prev, h_next, tau, domain):
    """min h_next(tau, x) over C_prev(tau) in the domain (pessimistic; 0.0 if not finite)."""
    worst, _, method = _extreme(h_prev, h_next, tau, tau, domain, True)
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

    domain: Box
    horizon: float
    rho: float = 0.9
    t_conv: float = 5.0
    gamma_min: float = GAMMA_MIN
    boundary_windows: dict = field(default_factory=dict)

    def __post_init__(self):
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


@dataclass(frozen=True)
class ContractSchedule:
    """Invariance segments tiling [0, horizon) plus per-boundary verdicts,
    applying while lo < x[0] <= hi for `region` (lo, hi). Immutable; queries
    are pure apart from the engagement records they add to the caller's
    dict."""

    label: str
    segments: list
    boundaries: list
    region: tuple = (-math.inf, math.inf)

    def failures(self) -> list:
        return [b for b in self.boundaries if b.verdict is Verdict.INCOMPATIBLE]

    @functools.cached_property
    def _bounds(self) -> list:
        """The segment starts, then the span's end: segment i covers
        [_bounds[i], _bounds[i + 1])."""
        return [seg.interval.start for seg in self.segments] + [self.segments[-1].interval.end]

    def _segment_index(self, t: float) -> int:
        """Index of the segment holding t, by one bisect of `_bounds`."""
        bounds = self._bounds
        if not (bounds[0] <= t < bounds[-1]):
            span = TimeInterval(bounds[0], bounds[-1])
            raise ScheduleQueryError(f"{self.label}: t={t:g} outside schedule span {span}")
        return bisect_right(bounds, t) - 1

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
        the segment's invariance row (label "cbf:<id>"), then, strictly
        inside (tau_i, t_i) of an overlap boundary, the next barrier's
        finite-time row (label "fcbf:<id>"). A pending window (t <= tau) ends
        the interval at nextafter(tau), the first t with tau < t; an engaged
        one starts it there. A window's first query sizes its gamma from
        h(t, x), kept in `engagements` under (label, boundary index)."""
        i = self._segment_index(t)
        segs, bounds = self.segments, self._bounds
        bar, t_from, until = segs[i].barrier, bounds[i], bounds[i + 1]
        bd = self.boundaries[i] if i < len(self.boundaries) else None
        window = bd is not None and bd.verdict is Verdict.OVERLAP_DEADLINE
        engaged = window and bd.tau < t
        if window:
            onset = math.nextafter(bd.tau, math.inf)
            if engaged:
                t_from = max(t_from, onset)
            else:
                until = min(until, onset)
        specs = []
        if bar is not None:
            specs.append(_row_spec(bar, "cbf:" + bar.id, t_from, until, bar.alpha, None))
        if engaged:
            nxt = segs[i + 1].barrier
            params = _engaged_params(bd, nxt, (self.label, i), t, x, engagements)
            specs.append(_row_spec(nxt, "fcbf:" + nxt.id, t_from, until, None, params))
        return t_from, until, specs


def _row_spec(bar: Barrier, label: str, t0, t1, alpha, params) -> tuple:
    """(label, barrier, coeffs, offset, alpha, params) of a plan over [t0, t1):
    alpha for an invariance row, params for a finite-time one, and the
    barrier's `affine_on(t0, t1)` form, or None twice."""
    coeffs, offset = bar.affine_on(t0, t1) or (None, None)
    return label, bar, coeffs, offset, alpha, params


def _engaged_params(bd: BoundaryDecision, nxt: Barrier, key, t, x, engagements) -> FcbfParams:
    """The FCBF parameters of boundary bd's window into barrier nxt, built
    once, at its first query (which sizes gamma), and kept in its engagement
    record under key."""
    rec = engagements.get(key)
    if rec is None:
        h_engage = nxt.h(t, x)
        params = FcbfParams(bd.rho, gamma_for_deadline(h_engage, bd.rho, bd.t_target,
                                                       bd.gamma_min))
        rec = engagements[key] = EngagementRecord(
            key=key, time=t, h_engage=h_engage, params=params,
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
    top = TopBarrier(cfg.domain.dim)
    boundaries = [_classify_boundary(segments, idx, cfg, top)
                  for idx in range(len(segments) - 1)]
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


def _classify_boundary(segments, idx, cfg: ScheduleConfig, top) -> BoundaryDecision:
    prev, nxt = segments[idx], segments[idx + 1]
    t_i = prev.interval.end
    prev_bar, next_bar = prev.barrier or top, nxt.barrier or top
    base = dict(time=t_i, prev_id=prev.barrier_id, next_id=nxt.barrier_id)

    sub = check_subset(prev_bar, next_bar, t_i, cfg.domain)
    if sub.holds:
        return BoundaryDecision(verdict=Verdict.SUBSET, method=sub.method, **base)

    inter = check_intersection(prev_bar, next_bar, t_i, cfg.domain)
    if inter.witness is None:
        return BoundaryDecision(
            verdict=Verdict.INCOMPATIBLE, method=inter.method,
            reason="empty intersection", **base,
        )

    tau, t_target = cfg.boundary_windows.get(t_i, (t_i - cfg.t_conv, cfg.t_conv))
    length, reason = t_i - prev.interval.start, None
    if tau < prev.interval.start - 1e-9 or t_target > length + 1e-9:
        reason = f"t_conv={t_target:g} exceeds interval length {length:g}"
    elif tau + t_target > t_i + DEADLINE_SLACK:
        reason = f"tau+t_conv={tau + t_target:g} > {t_i:g}"
    if reason is not None:
        return BoundaryDecision(
            verdict=Verdict.INCOMPATIBLE, method=inter.method, witness=inter.witness,
            reason="deadline violated: " + reason,
            tau=tau, t_target=t_target, rho=cfg.rho, **base,
        )

    worst, margin_method = _worst_engage_margin(prev_bar, next_bar, tau, cfg.domain)
    return BoundaryDecision(
        verdict=Verdict.OVERLAP_DEADLINE, method=margin_method, witness=inter.witness,
        tau=tau, t_target=t_target, rho=cfg.rho, gamma_min=cfg.gamma_min,
        worst_engage_margin=worst, **base,
    )


class RegionTable:
    """One run's query state over a schedule list: its engagement records,
    the plan each schedule last made, and its own plan and that plan's rows.

    `plan` is (t_from, until, lo, hi, specs): the specs of the schedules
    whose region holds x[0], in list order, valid on the intersection
    [t_from, until) of their `ContractSchedule.plan` intervals and on
    (lo, hi], the cell between the region bounds nearest x[0] on either
    side (up to +inf, inclusive, if none lies above), on which every region
    holds throughout or nowhere. x[0] = -inf or NaN, which no region admits,
    plans nothing on an empty (lo, hi]. `rows` is (g, rows, clip): the
    plan's specs resolved (`resolve_rows`) for the g object of its latest
    query, and of those the rows that `eval_rows`' clip sink reads
    (`clip_rows`), or None where it may not; None until the plan's first
    query. `engagements` maps (schedule label, boundary index) to
    `EngagementRecord`s, in engagement order. The table logs its engagement
    events: `replan` appends to `events` (t, text) for each record it makes,
    and a `deadline-risk` one where its bound lands past the switch.

    `held[k]` is schedule k's last `plan`, (t_from, until, specs), queried
    again only once t leaves [t_from, until). A plan depends on t alone but
    at a window's first query after its onset, which bounds the pending
    plan, so each engagement is sized at the (t, x) and in the order that a
    query of every schedule would give."""

    __slots__ = ("schedules", "engagements", "events", "plan", "rows", "held")

    def __init__(self, schedules):
        self.schedules = tuple(schedules)
        self.engagements, self.events = {}, []
        self.plan = (math.inf, -math.inf, math.inf, -math.inf, ())  # holds nowhere
        self.rows = None
        self.held = [(math.inf, -math.inf, ())] * len(self.schedules)  # each holds nowhere

    def replan(self, t, x) -> tuple:
        """Plan the rows at (t, x) into `plan`, from each schedule's held
        plan or a new one where that has ended, and return their specs. Log
        the engagements the plan makes into `events`."""
        x_f, engagements = x[0], self.engagements
        # x[0] = -inf or NaN: an empty (lo, hi], so the next query replans
        lo, hi = (-math.inf, math.inf) if x_f > -math.inf else (math.inf, -math.inf)
        t_from, until, specs, n_engaged = -math.inf, math.inf, [], len(engagements)
        for k, sched in enumerate(self.schedules):
            for v in sched.region:  # each bound cuts the cell on its side of x[0]
                if v < x_f:
                    lo = max(lo, v)
                elif v >= x_f:
                    hi = min(hi, v)
            if sched.region[0] < x_f <= sched.region[1]:
                s_from, s_until, s_specs = self.held[k]
                if not s_from <= t < s_until:  # its own plan ended: query it again
                    s_from, s_until, s_specs = self.held[k] = sched.plan(t, x, engagements)
                t_from, until = max(t_from, s_from), min(until, s_until)
                specs += s_specs
        for rec in list(engagements.values())[n_engaged:]:
            self.events.append((rec.time, rec.describe()))
            if rec.time + rec.t_conv_bound > rec.boundary_time + 1e-9:  # past the switch
                self.events.append((rec.time, f"deadline-risk {rec.describe()}"))
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
    instead: `clip_rows` refuses the rows (g has another number of columns,
    or an affine row's a is not finite), or they name a failure or an error
    (they raise or record it). The pass reads the plan's `clip_rows`; a zero
    bound, whose sign a dropped row may have set first, takes a second pass
    over every row."""
    _, rows, clip = _rows_at(table, t, x, gm)
    if clip is None:
        return None
    evaluate = evaluator_for(len(x))
    bounds = evaluate(clip, t, x, fv, floor, lo, hi, None)
    if bounds and clip is not rows and 0 in bounds:
        return evaluate(rows, t, x, fv, floor, lo, hi, None)
    return bounds
