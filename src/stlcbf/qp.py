"""Minimal-deviation safety filter and the nominal PID controller.

The filter projects a nominal input onto the polytope cut out by the active
halfspace constraints and the input box:

    u_safe = argmin ||u - u_nom||^2   s.t.  a_k . u <= b_k,  lower <= u <= upper

Each constraint is the (a, b, label) triple a generator returns; a zero a
is vacuous (b >= 0) or marks an empty set (b < 0). The feasible set is
compact (finite box), so the projection exists and is unique whenever the
set is nonempty. Inputs are low dimensional (m <= 3). The solver checks
each row as it reads it, for every m, then clips u between the tightest
bounds (m = 1) or projects u_nom onto the affine hull of every face cut out
by 1..m rows and keeps the nearest feasible projection (m >= 2); the same
pass finds that none is feasible. Returns None when the feasible set is
empty, which is the synthesis loop's runtime failure signal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .barriers import BarrierError

_FEAS_TOL = 1e-9


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


def input_floats(u) -> tuple:
    """u as a tuple of floats: the entries of a tuple, a list or a 1-D numpy
    array, or the one value of a scalar (numpy scalars and 0-d arrays too)."""
    if isinstance(u, np.ndarray):
        u = u.tolist()  # a 0-d array gives its scalar, a 1-D one a list
    try:
        return tuple(map(float, u)) if isinstance(u, (tuple, list)) else (float(u),)
    except TypeError:  # a nested sequence or array: no entry may be one
        raise QpError(f"nominal input {u!r} is not a number or a flat sequence") from None


def solve_qp(u_nom, constraints: Sequence[tuple], box: InputBox):
    """Euclidean projection of u_nom (as `input_floats` reads it) onto the
    polytope of the (a, b, label) rows and the box, or None when it is
    empty. Output is a tuple of floats (length box.dim). A non-finite u_nom
    is rejected; each row is checked as it is read, for every m: a must be a
    tuple of m entries, and a and b finite."""
    u_nom = input_floats(u_nom)
    m = box.dim
    if len(u_nom) != m:
        raise QpError(f"u_nom has dimension {len(u_nom)}, box has {m}")
    if not all(map(math.isfinite, u_nom)):
        raise QpError(f"non-finite nominal input {u_nom}")

    rows = []
    seen = set()
    for a, b, label in constraints:
        if not isinstance(a, tuple):  # a must hash for the duplicate test below
            raise QpError(f"constraint {label or a} needs a as a tuple, got {type(a).__name__}")
        if len(a) != m:
            raise QpError(f"constraint {label or a} has wrong input dimension")
        if not (math.isfinite(b) and all(map(math.isfinite, a))):
            raise BarrierError(f"non-finite constraint {a} . u <= {b}")
        if not any(a):  # a zero row: vacuous, or an empty set when b < 0
            if b < 0:
                return None
            continue
        if (a, b) not in seen:  # duplicate constraints add nothing
            seen.add((a, b))
            rows.append((a, b))

    if m == 1:  # clip between the tightest bounds b / a; a tie keeps the first
        lo, hi = box.lower[0], box.upper[0]
        for (a,), b in rows:
            if a > 0:
                hi = min(hi, b / a)
            else:
                lo = max(lo, b / a)
        return None if lo > hi else (min(max(u_nom[0], lo), hi),)
    for i in range(m):  # box faces as ordinary halfspaces
        e = tuple(1.0 if j == i else 0.0 for j in range(m))
        rows.append((e, box.upper[i]))
        rows.append((tuple(-v for v in e), -box.lower[i]))
    return _nearest_face_projection(np.asarray(u_nom), rows, m)


@np.errstate(invalid="ignore", over="ignore")  # a near-singular S gives a NaN u: skipped
def _nearest_face_projection(u_nom: np.ndarray, rows, m: int):
    """u_nom when it is feasible; else the nearest of its projections onto
    {A_S u = b_S}, over the subsets S of 1..m rows with A_S A_S^T regular,
    that satisfies every row within _FEAS_TOL; None when none does. The
    projection onto a nonempty polytope is one of these (the hull of a face
    with at most m independent rows), and a nonempty box-bounded polytope
    has a vertex, so one pass gives the answer and the emptiness verdict."""
    A = np.asarray([r[0] for r in rows], dtype=float)
    b = np.asarray([r[1] for r in rows], dtype=float)
    bound = b + _FEAS_TOL
    if (A @ u_nom <= bound).all():
        return tuple(float(v) for v in u_nom)

    best = None
    best_d2 = math.inf
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(len(rows)), size):
            A_s, b_s = A[list(subset)], b[list(subset)]
            try:  # a vertex from A_S itself: A_S A_S^T squares the conditioning,
                # and a thin polytope with nearly parallel rows would lose its vertices
                u = (np.linalg.solve(A_s, b_s) if size == m else
                     u_nom - A_s.T @ np.linalg.solve(A_s @ A_s.T, A_s @ u_nom - b_s))
            except np.linalg.LinAlgError:
                continue
            if (A @ u <= bound).all():
                d2 = float(np.dot(u - u_nom, u - u_nom))
                if d2 < best_d2 - 1e-15:
                    best, best_d2 = u, d2
    return None if best is None else tuple(float(v) for v in best)


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
