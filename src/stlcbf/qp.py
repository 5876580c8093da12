"""Minimal-deviation safety filter and the nominal PID controller.

The filter projects a nominal input onto the polytope cut out by the active
halfspace constraints and the input box:

    u_safe = argmin ||u - u_nom||^2   s.t.  a_k . u <= b_k,  lower <= u <= upper

The feasible set is compact (finite box), so the projection exists and is
unique whenever the set is nonempty. Inputs are low dimensional (m <= 3): the
solver enumerates KKT active subsets exactly, with an analytic fast path for
m = 1. Returns None when the feasible set is empty, which is the synthesis
loop's runtime failure signal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .barriers import BarrierError, HalfspaceConstraint

_FEAS_TOL = 1e-9
_DUAL_TOL = 1e-9


class QpError(ValueError):
    pass


@dataclass(frozen=True)
class InputBox:
    """Componentwise input bounds, finite and ordered."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise QpError("input box bound dimensions differ")
        for lo, hi in zip(self.lower, self.upper):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise QpError("input bounds must be finite")
            if lo > hi:
                raise QpError(f"input lower bound {lo} exceeds upper {hi}")

    @property
    def dim(self) -> int:
        return len(self.lower)


def solve_qp(u_nom, constraints: Sequence[HalfspaceConstraint], box: InputBox):
    """Euclidean projection of u_nom onto the constraint polytope, or None
    when it is empty. Output is a tuple of floats (length box.dim). A
    non-finite u_nom is rejected; each constraint's dimension and finiteness
    are checked here, in order."""
    u_nom = u_nom if isinstance(u_nom, (tuple, list)) else (u_nom,)
    m = box.dim
    if len(u_nom) != m:
        raise QpError(f"u_nom has dimension {len(u_nom)}, box has {m}")
    if not all(map(math.isfinite, u_nom)):
        raise QpError(f"non-finite nominal input {tuple(u_nom)}")
    if m == 1:
        return _solve_1d(float(u_nom[0]), constraints, box)

    rows = []
    seen = set()
    for c in constraints:
        _check_entry(c, m)
        if c.is_infeasible_marker():
            return None
        if c.is_vacuous():
            continue
        key = (c.a, c.b)
        if key not in seen:  # duplicate constraints add nothing
            seen.add(key)
            rows.append((c.a, c.b))

    u_nom = tuple(float(v) for v in u_nom)
    for i in range(m):  # box faces as ordinary halfspaces
        e = tuple(1.0 if j == i else 0.0 for j in range(m))
        rows.append((e, box.upper[i]))
        rows.append((tuple(-v for v in e), -box.lower[i]))
    return _solve_active_set(np.asarray(u_nom), rows, m)


def _check_entry(c: HalfspaceConstraint, m: int):
    """Dimension, then finiteness, of a constraint entering the m >= 2 QP
    (`_solve_1d` makes the same checks inline)."""
    if len(c.a) != m:
        raise QpError(f"constraint {c.label or c.a} has wrong input dimension")
    if not (math.isfinite(c.b) and all(map(math.isfinite, c.a))):
        raise BarrierError(f"non-finite constraint {c.a} . u <= {c.b}")


def _solve_1d(u: float, constraints, box: InputBox):
    """Clip a scalar u between the largest lower and smallest upper bound b/a;
    a zero `a` is vacuous, or the infeasible marker when b < 0."""
    lo, hi = box.lower[0], box.upper[0]
    isfinite = math.isfinite
    for a_row, b, label in constraints:  # _check_entry(c, 1), inline
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


def _solve_active_set(u_nom: np.ndarray, rows, m: int):
    """Enumerate KKT candidates over active subsets of size 0..m.

    The projection satisfies u = u_nom - A_S^T lam with A_S u = b_S for some
    active subset S and lam >= 0; with at most ~11 constraints in dimension
    <= 3 exhaustive enumeration is cheap and exact.
    """
    A = np.asarray([r[0] for r in rows], dtype=float)
    b = np.asarray([r[1] for r in rows], dtype=float)

    def feasible(u):
        return A @ u <= b + _FEAS_TOL

    if feasible(u_nom).all():
        return tuple(float(v) for v in u_nom)

    best = None
    best_d2 = math.inf
    n_rows = len(rows)
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(n_rows), size):
            A_s = A[list(subset)]
            M = A_s @ A_s.T
            rhs = A_s @ u_nom - b[list(subset)]
            try:
                lam = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                continue
            if (lam < -_DUAL_TOL).any():
                continue
            u = u_nom - A_s.T @ lam
            if feasible(u).all():
                d2 = float(np.dot(u - u_nom, u - u_nom))
                if d2 < best_d2 - 1e-15:
                    best, best_d2 = u, d2
    if best is not None:
        return tuple(float(v) for v in best)

    if _polytope_is_empty(A, b, m):
        return None
    # Numerical corner: feasible but no KKT subset validated. Fall back to the
    # closest feasible basic point so the filter still returns a safe input.
    best = None
    best_d2 = math.inf
    for subset in itertools.combinations(range(len(rows)), m):
        A_s = A[list(subset)]
        try:
            v = np.linalg.solve(A_s, b[list(subset)])
        except np.linalg.LinAlgError:
            continue
        if (A @ v <= b + 1e-7).all():
            d2 = float(np.dot(v - u_nom, v - u_nom))
            if d2 < best_d2:
                best, best_d2 = v, d2
    return tuple(float(v) for v in best) if best is not None else None


def _polytope_is_empty(A: np.ndarray, b: np.ndarray, m: int) -> bool:
    """A box-bounded polytope is compact, so nonempty iff it has a vertex;
    vertices are intersections of m constraint boundaries."""
    for subset in itertools.combinations(range(len(b)), m):
        A_s = A[list(subset)]
        try:
            v = np.linalg.solve(A_s, b[list(subset)])
        except np.linalg.LinAlgError:
            continue
        if (A @ v <= b + _FEAS_TOL).all():
            return False
    return True


# ---------------------------------------------------------------------------
# Nominal controller
# ---------------------------------------------------------------------------


@dataclass
class PidState:
    """Gains and integral accumulator of the spacing-tracking PID.

    The integral of the spacing error is clamped to +-windup_limit; the gains
    are not taken from any published tuning and are freely configurable.
    """

    k1: float = 0.5
    k2: float = 0.1
    k3: float = 0.01
    integral: float = 0.0
    windup_limit: float = 100.0

    def __post_init__(self):
        for name in ("k1", "k2", "k3"):
            if not math.isfinite(getattr(self, name)):
                raise QpError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 <= self.windup_limit < math.inf:
            raise QpError(f"windup_limit must be finite and >= 0, got {self.windup_limit}")


def pid_nominal(spacing_error: float, relative_velocity: float, pid: PidState,
                dt: float, mass: float, feedforward: float) -> float:
    """u_nom = mass (k1 Vr + k2 e + k3 integral(e)) + feedforward.

    `feedforward` is the force balancing friction at the current speed; the
    integral state is advanced by e*dt with anti-windup clamping.
    """
    if dt <= 0:
        raise QpError(f"dt must be positive, got {dt}")
    pid.integral = min(max(pid.integral + spacing_error * dt, -pid.windup_limit),
                       pid.windup_limit)
    return mass * (pid.k1 * relative_velocity + pid.k2 * spacing_error
                   + pid.k3 * pid.integral) + feedforward
