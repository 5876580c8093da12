"""Time-varying barrier functions and their control constraints.

A barrier is a scalar h(t, x) with analytic time derivative and state
gradient; its safe set at time t is {x : h(t, x) >= 0}. Its protocol is one
method per quantity: `h(t, x, side)` for the value (side="left" gives the
left time-limit at a jump), `terms(t, x)` for (h, dh/dt, grad_x h),
`h_grid(t, cols, side)` for h over arrays, and `affine_at` for the static
checks. `h_grid` is the one array evaluator: the static grid passes a scalar
t with one slab of state columns, the trace columns and the monitor pass the
recorded times as an array t with the recorded states. Two constraint
generators turn a barrier into an affine-in-input halfspace a.u <= b at a
given (t, x):

  invariance (CBF):      dh/dt + grad.f + grad.g u + alpha(h) >= 0
  finite-time (FCBF):    dh/dt + grad.f + grad.g u + gamma sign(h)|h|^rho >= 0

Each generator does its own Lie-term arithmetic on one `terms` call and
applies alpha as `alpha.kappa * h`, so a constraint costs no call beyond
`terms`. A `ConstraintRow` carries what a schedule compiles once per
constraint: its label and the last a = -grad.g, which the generator derives
again only when `terms` returns another gradient object or g another matrix
(an affine barrier under the vehicle's constant g derives it once).
`AffineBarrier.terms` reads its offset with one bisect of its own piece
starts, the scalar right-side case of `step_lookup`.

Any input satisfying the FCBF inequality from h(t0, x0) < 0 reaches the safe
set within T = |h0|^(1-rho) / (gamma (1-rho)) and stays there afterwards.

Barriers are template-based: affine in state with piecewise-constant time
offset, plus the vehicle templates in `vehicle`.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

import numpy as np

GAMMA_MIN = 1e-3  # per second; used when the engagement state is already safe


def step_lookup(starts, values, t, side: str = "right"):
    """values[i] for the last starts[i] at or before t (strictly before when
    side="left"; values[0] when t precedes every start). An array t looks up
    every element at once, with the same boundary rule; where the values are
    tuples, it gives one array per tuple field."""
    if isinstance(t, np.ndarray):
        i = np.maximum(np.searchsorted(starts, t, side) - 1, 0)
        return np.take(np.transpose(values), i, axis=-1)
    find = bisect_right if side == "right" else bisect_left
    return values[max(find(starts, t) - 1, 0)]


class BarrierError(ValueError):
    """Bad barrier parameters or evaluation outside template assumptions."""


@dataclass(frozen=True)
class StateBox:
    """Axis-aligned box in state space, lower <= x <= upper componentwise."""

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
    """Linear extended class-K function alpha(h) = kappa * h, kappa > 0."""

    kappa: float = 1.0

    def __post_init__(self):
        if not self.kappa > 0:
            raise BarrierError(f"alpha gain must be positive, got {self.kappa}")


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


class HalfspaceConstraint(NamedTuple):
    """Affine input constraint a.u <= b; zero `a` with b < 0 marks infeasible.
    `qp.solve_qp` checks finiteness where constraints enter it."""

    a: tuple
    b: float
    label: str = ""

    def is_vacuous(self) -> bool:
        return all(ai == 0 for ai in self.a) and self.b >= 0

    def is_infeasible_marker(self) -> bool:
        return all(ai == 0 for ai in self.a) and self.b < 0


class ConstraintRow:
    """What a schedule compiles once for one of its constraints: the label,
    and the input row a = -grad.g last derived, kept with the gradient and g
    objects it came from. Both are immutable tuples, so while `terms` returns
    the same gradient object and g the same matrix object, a is the same."""

    __slots__ = ("label", "grad", "g", "a")

    def __init__(self, label: str):
        self.label = label
        self.grad = self.g = self.a = None


class Barrier:
    """Base evaluator of h on [0, T] x D.

    A template implements `h(t, x, side)` and `terms(t, x)`; `h_grid` and
    `affine_at` have generic defaults that templates override where their
    structure allows. `side="left"` asks for the left time-limit h(t-, x),
    which differs from h only at time jumps.
    """

    def __init__(self, barrier_id: str, alpha: AlphaFn = IDENTITY_ALPHA):
        self.id = barrier_id
        self.alpha = alpha

    def h(self, t: float, x, side: str = "right") -> float:
        raise NotImplementedError

    def h_grid(self, t, cols, side: str = "right"):
        """h(t, x, side) at every point of broadcastable arrays: `t` (a scalar
        or an array) and `cols`, one per state axis. Point by point here;
        templates override it with arrays, in the scalar method's float
        order."""
        shape = np.broadcast_shapes(np.shape(t), *map(np.shape, cols))
        ts = np.broadcast_to(t, shape)
        cols = [np.broadcast_to(c, shape) for c in cols]
        out = np.empty(shape)
        for idx in np.ndindex(shape):
            out[idx] = self.h(float(ts[idx]), tuple(float(c[idx]) for c in cols), side)
        return out

    def terms(self, t: float, x) -> tuple:
        """(h, dh/dt, grad_x h) at (t, x): everything a CBF constraint needs.
        grad_x h is a tuple; a template whose gradient is constant returns
        the same tuple object, so a constraint row keeps its a = -grad.g."""
        raise NotImplementedError

    def affine_at(self, t: float, side: str = "right"):
        """(coeffs, offset) with h = coeffs.x + offset when affine at t, else None."""
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
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise BarrierError("offset pieces must have strictly increasing start times")
        self._starts = starts
        self._offsets = [d for _, d in self.pieces]  # offset(t): last piece started by t

    def h(self, t, x, side="right"):
        return sum(map(mul, self.coeffs, x)) + step_lookup(self._starts, self._offsets, t, side)

    def h_grid(self, t, cols, side="right"):
        acc = 0  # sum() starts from the integer 0, so 0 + (-0.0) gives 0.0
        for c, col in zip(self.coeffs, cols):
            acc = acc + c * col
        return acc + step_lookup(self._starts, self._offsets, t, side)

    def terms(self, t, x):
        # h(t, x) with the scalar right-side lookup of step_lookup inlined
        offset = self._offsets[max(bisect_right(self._starts, t) - 1, 0)]
        return sum(map(mul, self.coeffs, x)) + offset, 0.0, self.coeffs

    def affine_at(self, t, side="right"):
        return self.coeffs, step_lookup(self._starts, self._offsets, t, side)


class TopBarrier(Barrier):
    """Vacuous barrier h == 1: its safe set is the whole domain."""

    def __init__(self, dim: int):
        super().__init__("__top__")
        self.dim = dim

    def h(self, t, x, side="right"):
        return 1.0

    def h_grid(self, t, cols, side="right"):
        return 1.0

    def terms(self, t, x):
        return 1.0, 0.0, (0.0,) * self.dim

    def affine_at(self, t, side="right"):
        return (0.0,) * self.dim, 1.0


class NegatedBarrier(Barrier):
    """Barrier -h used to normalize negated predicates. It keeps the last
    inner gradient object with its negation, so a constant inner gradient
    gives one negated gradient object and its constraint row keeps its a."""

    def __init__(self, inner: Barrier):
        super().__init__(f"!{inner.id}")
        self.inner = inner
        self._grad = self._neg_grad = None

    def h(self, t, x, side="right"):
        return -self.inner.h(t, x, side)

    def h_grid(self, t, cols, side="right"):
        return -self.inner.h_grid(t, cols, side)

    def terms(self, t, x):
        h, dh, grad = self.inner.terms(t, x)
        if grad is not self._grad:
            self._grad, self._neg_grad = grad, tuple(-g for g in grad)
        return -h, -dh, self._neg_grad

    def affine_at(self, t, side="right"):
        aff = self.inner.affine_at(t, side)
        if aff is None:
            return None
        coeffs, offset = aff
        return tuple(-c for c in coeffs), -offset


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


def cbf_constraint(bar: Barrier, sys, alpha: AlphaFn, t: float, x,
                   dyn=None, row=None) -> HalfspaceConstraint:
    """Invariance constraint at (t, x): any u with a.u <= b keeps
    dh/dt + grad.(f + g u) >= -alpha(h), so a = -grad.g and
    b = dh/dt + grad.f + kappa h. `dyn` is (f(t, x), g(t, x)) when the
    caller has evaluated them already. `row` is the caller's compiled
    `ConstraintRow` for it, labelled "cbf:<id>"; a fresh one by default."""
    row = row or ConstraintRow("cbf:" + bar.id)
    h, dh, grad = bar.terms(t, x)
    fv, gm = dyn if dyn is not None else (sys.f(t, x), sys.g(t, x))
    if grad is not row.grad or gm is not row.g:
        row.grad, row.g = grad, gm
        row.a = tuple([-sum(map(mul, grad, col)) for col in zip(*gm)])
    return HalfspaceConstraint(row.a, dh + sum(map(mul, grad, fv)) + alpha.kappa * h, row.label)


def fcbf_constraint(bar: Barrier, sys, p: FcbfParams, t: float, x,
                    dyn=None, row=None) -> HalfspaceConstraint:
    """Finite-time constraint at (t, x) with drift gamma sign(h)|h|^rho
    (sign(0) = 0: on the boundary the invariance half handles the rest).
    `dyn` and `row` as for `cbf_constraint`, labelled "fcbf:<id>"."""
    row = row or ConstraintRow("fcbf:" + bar.id)
    hv, dh, grad = bar.terms(t, x)
    fv, gm = dyn if dyn is not None else (sys.f(t, x), sys.g(t, x))
    if grad is not row.grad or gm is not row.g:
        row.grad, row.g = grad, gm
        row.a = tuple([-sum(map(mul, grad, col)) for col in zip(*gm)])
    pull = 0.0 if hv == 0 else p.gamma * math.copysign(abs(hv) ** p.rho, hv)
    return HalfspaceConstraint(row.a, dh + sum(map(mul, grad, fv)) + pull, row.label)


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

