"""Time-varying barrier functions and their control constraints.

A barrier is a scalar h(t, x) with analytic time derivative and state
gradient; its safe set at time t is {x : h(t, x) >= 0}. It implements one
method, `terms(t, x)`, for (h, dh/dt, grad_x h), which `h(t, x)` reads; the
optional `h_grid(t, cols)` gives h over arrays and `affine_on(t0, t1)` its
affine form. `h_grid` is the one array evaluator: the static grid passes a
scalar t with one slab of state columns, the trace columns and the monitor
pass the recorded times as an array t with the recorded states. At a jump
time t, h(t) reads the new piece and the left limit h(t-) is h one ulp
before t. A barrier turns into an affine-in-input halfspace a.u <= b at a
given (t, x):

  invariance (CBF):      dh/dt + grad.f + grad.g u + alpha(h) >= 0
  finite-time (FCBF):    dh/dt + grad.f + grad.g u + gamma sign(h)|h|^rho >= 0

`resolve_rows` resolves a plan's row specs once for one g matrix: each
row's label, its affine form (equal ones share an object, and Lie sums) or
`terms`, its gains, and each affine row's a = -grad.g (h1, whose gradient
moves every step, derives its a from g's columns at every step). `eval_rows`
is the one evaluator of the resolved rows: it reads (h, dh/dt, grad) from
one `terms` call, or from the affine form, and applies alpha as kappa * h.
Its list sink gives each row as the plain triple (a, b, label), which
`cbf_constraint` and `fcbf_constraint` return: a is a tuple with one entry
per input, and a zero a marks a vacuous row (b >= 0) or an infeasible one
(b < 0). Its clip sink, for one input, cuts the input bounds row by row as
`qp.solve_qp` would, reading each row's a[0] as one float; `clip_rows`
admits the rows and leaves out those whose bounds other rows bracket. Every
dot product is a left fold from the int 0: `dot` where a scenario is built
or replanned, written out inline in the row evaluator that `evaluator_for`
compiles once per state width. So its bits do not depend on the Python
version.

`affine_on(t0, t1)` gives (coeffs, offset) when h = coeffs.x + offset, with
zero dh/dt, over the whole of [t0, t1), and None otherwise (the default).
The static checks read it on the one-ulp interval right of t- or of t; a
schedule asks it once for each row of a plan (see `contracts`), and the
step loop then evaluates such a row with no `terms` call. `AffineBarrier`
gives its form wherever no piece starts strictly inside the interval (so
`TopBarrier`, the form 0.x + 1, everywhere from t = 0 on), and
`NegatedBarrier` wherever its inner has one.

Any input satisfying the FCBF inequality from h(t0, x0) < 0 reaches the safe
set within T = |h0|^(1-rho) / (gamma (1-rho)) and stays there afterwards.

Barriers are template-based: affine in state with piecewise-constant time
offset, plus the vehicle templates in `vehicle`. One `Box` types both the
state domain D and the input box U.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, reduce
from operator import add, mul

import numpy as np

GAMMA_MIN = 1e-3  # per second; used when the engagement state is already safe


def step_lookup(starts, values, t):
    """values[i] for the last starts[i] at or before t (values[0] when t
    precedes every start). An array t looks up every element at once, with
    the same boundary rule; where the values are tuples, it gives one array
    per tuple field."""
    if isinstance(t, np.ndarray):
        i = np.maximum(np.searchsorted(starts, t, "right") - 1, 0)
        return np.take(np.transpose(values), i, axis=-1)
    return values[max(bisect_right(starts, t) - 1, 0)]


class BarrierError(ValueError):
    """Bad barrier parameters or evaluation outside template assumptions."""


def dot(a, b):
    """a.b as a left fold from the int 0: the int 0 plus the first product,
    then plain adds from the left. On every Python it makes the float
    operations of `sum` over the products up to 3.11 (3.12's `sum`
    compensates), and it works on scalars and numpy arrays alike. It stops
    at the shorter of a and b: callers check the lengths."""
    return reduce(add, map(mul, a, b), 0)


class BarrierViolation(ValueError):
    """An invariance row's h read below the caller's floor: the state left
    the safe set that the row is there to keep."""

    def __init__(self, label: str, h: float):
        super().__init__(f"{label} h={h:g}")
        self.label, self.h = label, h


@dataclass(frozen=True)
class Box:
    """Axis-aligned box lower <= x <= upper, finite and ordered, with a
    finite width upper - lower on every axis: D and U alike."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise BarrierError("box bound dimensions differ")
        for lo, hi in zip(self.lower, self.upper):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise BarrierError("box bounds must be finite")
            if lo > hi:
                raise BarrierError(f"box lower {lo} exceeds upper {hi}")
            if hi - lo == math.inf:  # a sampled axis would read NaN and inf
                raise BarrierError(f"box width {hi} - ({lo}) overflows")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def is_degenerate(self) -> bool:
        return any(hi - lo <= 0 for lo, hi in zip(self.lower, self.upper))

    def contains(self, x, pad: float = 0.0) -> bool:
        return all(lo - pad <= xi <= hi + pad for xi, lo, hi in zip(x, self.lower, self.upper))

    def vertices(self):
        return [tuple(v) for v in itertools.product(*zip(self.lower, self.upper))]


@dataclass(frozen=True)
class AlphaFn:
    """Linear extended class-K function alpha(h) = kappa * h, 0 < kappa < inf."""

    kappa: float = 1.0

    def __post_init__(self):
        if not self.kappa > 0:
            raise BarrierError(f"alpha gain must be positive, got {self.kappa}")
        if self.kappa == math.inf:  # inf * 0 is NaN: no drift would be monotone in h
            raise BarrierError(f"alpha gain must be finite, got {self.kappa}")


IDENTITY_ALPHA = AlphaFn(1.0)


@dataclass(frozen=True)
class FcbfParams:
    """Finite-time convergence parameters: 0 <= rho < 1, gamma > 0."""

    rho: float
    gamma: float

    def __post_init__(self):
        if not (0 <= self.rho < 1):
            raise BarrierError(f"rho must lie in [0, 1), got {self.rho}")
        if not self.gamma > 0:
            raise BarrierError(f"gamma must be positive, got {self.gamma}")


class Barrier:
    """Base evaluator of h on [0, T] x D.

    A template implements `terms(t, x)`; `h` reads it, and `h_grid` and
    `affine_on` have generic defaults that templates override where their
    structure allows.
    """

    def __init__(self, barrier_id: str, alpha: AlphaFn = IDENTITY_ALPHA):
        self.id = barrier_id
        self.alpha = alpha

    def h(self, t: float, x) -> float:
        return self.terms(t, x)[0]

    def h_grid(self, t, cols):
        """h(t, x) at every point of broadcastable arrays: `t` (a scalar or an
        array) and `cols`, one per state axis. Point by point here, on Python
        floats; templates override it with arrays, in `terms`' float order."""
        with np.errstate(all="ignore"):  # the ufunc would report h's own float flags
            return np.vectorize(lambda t, *x: self.h(float(t), tuple(map(float, x))),
                                otypes=[float])(t, *cols)

    def terms(self, t: float, x) -> tuple:
        """(h, dh/dt, grad_x h) at (t, x): everything a CBF constraint needs,
        with grad_x h as a tuple."""
        raise NotImplementedError

    def affine_on(self, t0: float, t1: float):
        """(coeffs, offset) when h = coeffs.x + offset at every t in [t0, t1),
        so that dh/dt is zero and grad_x h = coeffs there, else None. The
        static checks read it on one-ulp intervals (exact verdicts), and a
        schedule once for each row of a plan (no `terms` call per step)."""
        return None

    def negate(self) -> "NegatedBarrier":
        return NegatedBarrier(self)

    def __repr__(self):
        return f"<{type(self).__name__} {self.id}>"


class AffineBarrier(Barrier):
    """h(t, x) = coeffs . x + offset(t), offset piecewise constant in time.

    `pieces` is a sorted sequence of (t_start, offset); a single piece gives a
    time-invariant barrier. h jumps in t at each later piece start.
    """

    def __init__(self, barrier_id, coeffs, offset=None, pieces=None, alpha=IDENTITY_ALPHA):
        super().__init__(barrier_id, alpha)
        self.coeffs = tuple(float(c) for c in coeffs)
        if (offset is None) == (pieces is None):
            raise BarrierError("provide exactly one of offset / pieces")
        if pieces is None:
            pieces = [(0.0, float(offset))]
        self.pieces = tuple((float(t0), float(d)) for t0, d in pieces)
        starts = [p[0] for p in self.pieces]
        if not all(map(math.isfinite, starts)):
            raise BarrierError(f"offset piece start times must be finite, got {starts}")
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise BarrierError("offset pieces must have strictly increasing start times")
        self._starts = starts
        self._offsets = [d for _, d in self.pieces]  # offset(t): last piece started by t

    def h_grid(self, t, cols):
        return dot(self.coeffs, cols) + step_lookup(self._starts, self._offsets, t)

    def terms(self, t, x):
        if len(x) != len(self.coeffs):
            raise BarrierError(f"barrier {self.id!r} has {len(self.coeffs)} coefficients, "
                               f"x has {len(x)} entries")
        # the scalar lookup of step_lookup, inlined
        offset = self._offsets[max(bisect_right(self._starts, t) - 1, 0)]
        return dot(self.coeffs, x) + offset, 0.0, self.coeffs

    def affine_on(self, t0, t1):
        # the offset at t0 holds up to the first piece start after t0
        j = bisect_right(self._starts, t0)
        if j < len(self._starts) and self._starts[j] < t1:
            return None
        return self.coeffs, self._offsets[max(j - 1, 0)]


class TopBarrier(AffineBarrier):
    """Vacuous barrier h == 1, the form 0.x + 1: its safe set is the whole domain."""

    def __init__(self, dim: int):
        super().__init__("__top__", (0.0,) * dim, offset=1.0)

    def h_grid(self, t, cols):
        return 1.0


class NegatedBarrier(Barrier):
    """Barrier -h used to normalize negated predicates."""

    def __init__(self, inner: Barrier):
        super().__init__(f"!{inner.id}")
        self.inner = inner

    def h_grid(self, t, cols):
        return -self.inner.h_grid(t, cols)

    def terms(self, t, x):
        h, dh, grad = self.inner.terms(t, x)
        return -h, -dh, tuple(-g for g in grad)

    def affine_on(self, t0, t1):
        aff = self.inner.affine_on(t0, t1)
        return None if aff is None else (tuple(-c for c in aff[0]), -aff[1])


class BarrierRegistry:
    """Immutable-after-setup mapping of barrier ids to template instances.
    Lookups happen while a scenario is built: schedules keep the barriers
    they resolve, so the step loop never calls `get` or `resolve`."""

    def __init__(self):
        self._by_id: dict = {}

    def register(self, barrier: Barrier) -> Barrier:
        if barrier.id in self._by_id:
            raise BarrierError(f"duplicate barrier id {barrier.id!r}")
        self._by_id[barrier.id] = barrier
        return barrier

    def get(self, barrier_id: str) -> Barrier:
        try:
            return self._by_id[barrier_id]
        except KeyError:
            raise BarrierError(f"unknown barrier id {barrier_id!r}") from None

    def resolve(self, pred) -> Barrier:
        """Barrier for a PredicateRef; negation yields a new -h wrapper."""
        bar = self.get(pred.barrier_id)
        return bar.negate() if pred.negated else bar

    def __contains__(self, barrier_id: str) -> bool:
        return barrier_id in self._by_id


# ---------------------------------------------------------------------------
# Constraint generation
# ---------------------------------------------------------------------------


def resolve_rows(specs, gm):
    """The specs resolved once for the g matrix gm, one tuple (label,
    barrier, coeffs, offset, kappa, gamma, rho, a) per spec. A spec is
    (label, barrier, coeffs, offset, alpha, params): the barrier's affine
    form over an interval (dh/dt = 0.0), or None twice, which reads
    `terms`; alpha for an invariance row, or the `FcbfParams` of a
    finite-time one. Equal coefficients become one object, the first's.
    An affine row's a = -coeffs.g is derived here, one `dot` per column of
    g, and coefficients of another number than g's rows are a
    `BarrierError`; a `terms` row's a holds g's columns."""
    cols = tuple(zip(*gm))
    rows, seen = [], {}
    for label, bar, grad, offset, alpha, params in specs:
        if grad is None:
            a = cols
        else:
            if len(grad) != len(gm):
                raise BarrierError(f"{label}: {len(grad)} coefficients, "
                                   f"the system has {len(gm)} states")
            grad = seen.setdefault(tuple(grad), grad)
            a = tuple([-dot(grad, col) for col in cols])
        if params is None:
            kappa, gamma, rho = alpha.kappa, None, None
        else:
            kappa, gamma, rho = None, params.gamma, params.rho
        rows.append((label, bar, grad, offset, kappa, gamma, rho, a))
    return tuple(rows)


def clip_rows(rows):
    """The `resolve_rows` rows that `eval_rows`' clip sink reads, or None
    where it may not: g has another number of columns than one, or an
    affine row's a[0] is not finite. Affine invariance rows with equal
    coefficients and kappa share grad.x, grad.f and a[0], so their h, b
    and bound b / a[0] are monotone in the offset. Of each such class with
    finite offsets, the first row of least offset sets the bound and meets
    the floor and zero-a tests first, and a non-finite b shows at it or at
    the first row of greatest offset: only these two stay. Other rows stay,
    in order; `rows` itself when none drops. A zero bound's sign can still
    come from a dropped row (see `contracts.clip_groups`)."""
    affine = 0
    for _, _, grad, _, _, gamma, _, a in rows:
        if len(a) != 1 or grad is not None and not math.isfinite(a[0]):
            return None
        affine += grad is not None and gamma is None
    if affine < 3:  # no class can drop a row
        return rows
    classes = {}
    for i, (_, _, grad, offset, kappa, gamma, *_) in enumerate(rows):
        if grad is not None and gamma is None:
            classes.setdefault((id(grad), kappa), []).append(i)
    drop = set()
    for members in classes.values():
        offsets = [rows[i][3] for i in members]
        if len(members) > 2 and all(map(math.isfinite, offsets)):
            # min, max and index all give the first of equal offsets
            ends = {members[offsets.index(min(offsets))], members[offsets.index(max(offsets))]}
            drop.update(i for i in members if i not in ends)
    return tuple(row for i, row in enumerate(rows) if i not in drop) if drop else rows


@cache
def evaluator_for(n: int):
    """`eval_rows` for n states, compiled once per n, on first use (so
    building a scenario compiles none). It unpacks x once, and a gradient
    and fv once per row that reads them, into n locals, and writes each dot
    product out as `dot` folds it, with the same operands and order. Its
    clip sink reads the one input's a of each row into the local a1."""
    def fold(u, v):
        return "(" + " + ".join(["0", *(f"{u}{i} * {v}{i}" for i in range(n))]) + ")"

    x, f, g, c = (", ".join(f"{v}{i}" for i in range(n)) for v in "xfgc")
    source = f"""\
def eval_rows(rows, t, x, fv, floor, lo, hi, out):
    [{x}] = x
    last = None
    for label, bar, grad, offset, kappa, gamma, rho, a in rows:
        if grad is None:
            h, dh, grad = bar.terms(t, x)
            try:
                [{g}] = grad
                [{f}] = fv
            except ValueError:
                raise BarrierError(f"{{label}}: gradient has {{len(grad)}} entries, "
                                   "the system has {n} states") from None
            lie_f = dh + {fold("g", "f")}
            if out is not None:  # a holds g's columns
                a = tuple([-{fold("g", "c")} for [{c}] in a])
            else:  # a[0] holds g's one column
                [{c}] = a[0]
                if not isfinite(a1 := -{fold("g", "c")}):
                    return None
        else:
            if grad is not last:
                [{g}] = last = grad
                [{f}] = fv
                lie_x, lie_f0 = {fold("g", "x")}, 0.0 + {fold("g", "f")}
            h, lie_f = lie_x + offset, lie_f0
            if out is None:  # a[0] is one finite float
                a1 = a[0]
        if gamma is None:
            if h < floor:
                if out is None:
                    return None
                raise BarrierViolation(label, h)
            b = lie_f + kappa * h
        else:
            b = lie_f + (0.0 if h == 0 else gamma * copysign(abs(h) ** rho, h))
        if out is not None:
            out.append((a, b, label))
        elif not isfinite(b):
            return None
        elif a1 > 0:
            if (bound := b / a1) < hi:
                hi = bound
        elif a1 < 0:
            if (bound := b / a1) > lo:
                lo = bound
        elif b < 0:
            return None
    if out is not None:
        return out
    return None if lo > hi else (lo, hi)
"""
    scope = {"BarrierError": BarrierError, "BarrierViolation": BarrierViolation,
             "isfinite": math.isfinite, "copysign": math.copysign}
    exec(compile(source, f"<stlcbf rows n={n}>", "exec"), scope)
    return scope["eval_rows"]


def eval_rows(rows, t, x, fv, floor, lo=None, hi=None, out=None):
    """The one row evaluator: the `resolve_rows` rows at (t, x), f(t, x) =
    fv, in order, by the evaluator compiled for n = len(x) (`evaluator_for`).
    Each row has a = -grad.g and b = dh/dt + grad.f + drift, with drift
    kappa h or gamma sign(h)|h|^rho (sign(0) = 0: on the boundary the
    invariance half handles the rest).

    List sink, with a list `out`: it appends each row's (a, b, label) and
    returns `out`; an invariance row whose h reads below `floor` raises
    `BarrierViolation` (a finite-time row may start at any h). Clip sink,
    for rows that `clip_rows` admits: it cuts [lo, hi] row by row as
    `qp.solve_qp` clips one input, and returns (lo, hi), or None where the
    list sink and `solve_qp` give no clip (an invariance row below the
    floor, a non-finite row, a zero row with b < 0, crossed bounds).

    Each dot product is `dot`'s fold; an x, fv or column of another length
    than n is the ValueError of unpacking it into n names, and a `terms`
    gradient of another length a `BarrierError` naming the row.
    Rows cost two dot products per distinct gradient, plus one add and one
    drift per row: an affine row whose coefficients are the object of the
    affine row before it reuses that row's Lie sums grad.x and 0.0 + grad.f.
    Equal coefficients may differ in the sign of a zero, but no partial sum
    of a fold from the int 0 is -0.0, so a zero product of either sign gives
    the same bits."""
    return evaluator_for(len(x))(rows, t, x, fv, floor, lo, hi, out)


def cbf_constraint(bar: Barrier, sys, alpha: AlphaFn, t: float, x, dyn=None) -> tuple:
    """Invariance row (a, b, label "cbf:<id>") at (t, x), b = dh/dt + grad.f
    + kappa h, from `resolve_rows` and `eval_rows`' list sink. `dyn` is
    (f(t, x), g(t, x)) when the caller has evaluated them already."""
    fv, gm = dyn if dyn is not None else (sys.f(t, x), sys.g(t, x))
    spec = ("cbf:" + bar.id, bar, None, None, alpha, None)
    return eval_rows(resolve_rows((spec,), gm), t, x, fv, -math.inf, out=[])[0]


def fcbf_constraint(bar: Barrier, sys, p: FcbfParams, t: float, x, dyn=None) -> tuple:
    """Finite-time row (a, b, label "fcbf:<id>") at (t, x) with drift gamma
    sign(h)|h|^rho; `dyn` as for `cbf_constraint`."""
    fv, gm = dyn if dyn is not None else (sys.f(t, x), sys.g(t, x))
    spec = ("fcbf:" + bar.id, bar, None, None, None, p)
    return eval_rows(resolve_rows((spec,), gm), t, x, fv, -math.inf, out=[])[0]


def convergence_time(h0: float, p: FcbfParams) -> float:
    """Upper bound on time to reach the safe set from margin h0 (0 if h0 >= 0):
    T = |h0|^(1-rho) / (gamma (1-rho))."""
    if h0 >= 0:
        return 0.0
    return abs(h0) ** (1.0 - p.rho) / (p.gamma * (1.0 - p.rho))


def gamma_for_deadline(h_engage: float, rho: float, t_target: float,
                       gamma_min: float = GAMMA_MIN) -> float:
    """Smallest gamma whose convergence bound from h_engage equals t_target.

    Inverts the convergence-time bound: gamma = |h|^(1-rho) / (t_target (1-rho)).
    An engagement margin h_engage >= 0 needs no convergence and returns
    gamma_min so the constraint stays well defined.
    """
    if not t_target > 0:
        raise BarrierError(f"deadline must be positive, got {t_target}")
    if not (0 <= rho < 1):
        raise BarrierError(f"rho must lie in [0, 1), got {rho}")
    if h_engage >= 0:
        return gamma_min
    return abs(h_engage) ** (1.0 - rho) / (t_target * (1.0 - rho))

