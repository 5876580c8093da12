"""Longitudinal vehicle scenario: dynamics, barrier templates and traffic
signals.

State is x = (X_f, V_f, X_l): ego position, ego speed, lead position. The
lead vehicle's speed and acceleration arrive over V2V as exogenous signals;
speed limits and signal phases over V2I. Templates:

  spacing (h1)    X_r - t_hw V_f - S0 - (V_f^2 - V_l^2)/(2 a_max)
  speed limit     V_max(t) - V_f, piecewise constant in t
  signals (hpos)  P_k - X_f - beta V_f - S0 against the active signal's stop
                  line during red, against the next line otherwise; the
                  active index k is the first signal at or ahead of X_f

All three give h and their analytic derivatives from `terms`; the signal
barrier is the indicator stitching of per-signal affine pieces and is
evaluated as +inf past the last stop line (no constraint remains). The
exogenous signals have array lookups as well as scalar ones
(`LeadProfile.velocity` and `SpeedLimitSchedule.value` take an array t;
`active_phase_index` gives each point's signal phase), so the barriers'
`h_grid` and the trace channels evaluate whole traces at once. A lookup at
a switch time reads the new piece; h(t-) is read one ulp before t.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .barriers import (
    AffineBarrier,
    AlphaFn,
    Barrier,
    Box,
    step_lookup,
)
from .contracts import ScheduleConfig, TaskGroup, build_schedule
from .sim import ControlSystem
from .stl import PredicateRef, TimeInterval

GREEN, YELLOW, RED = "green", "yellow", "red"
PHASES = (GREEN, YELLOW, RED, "none")  # "none": past the last signal


class VehicleError(ValueError):
    pass


A_MAX_G = 0.4  # default braking capability a_max, as a fraction of g_grav
DEFAULT_DOMAIN = Box((-1e4, 0.0, -1e4), (1e6, 80.0, 1e7))  # X_f, V_f, X_l


@dataclass(frozen=True)
class VehicleParams:
    """Physical parameters of the ego vehicle and its constraint templates."""

    mass: float = 1650.0            # kg
    c0: float = 0.1                 # N
    c1: float = 5.0                 # N/(m/s)
    c2: float = 0.25                # N/(m/s)^2
    t_headway: float = 1.0          # s, spacing constraint
    s0: float = 5.0                 # m, standstill gap
    a_max: float = A_MAX_G * 9.8    # m/s^2, braking capability
    beta: float = 2.0               # s, signal/speed headway
    g_grav: float = 9.8             # m/s^2

    def __post_init__(self):
        for name in ("mass", "c0", "c1", "c2", "t_headway", "s0", "a_max", "beta", "g_grav"):
            value = getattr(self, name)
            if not value > 0:
                raise VehicleError(f"{name} must be positive, got {value}")
            if value == math.inf:
                raise VehicleError(f"{name} must be finite, got {value}")
        if self.a_max > self.g_grav:
            raise VehicleError(f"a_max {self.a_max} exceeds g {self.g_grav}")


# ---------------------------------------------------------------------------
# Exogenous signals
# ---------------------------------------------------------------------------


class LeadProfile:
    """Lead vehicle driven by a piecewise-constant acceleration profile.

    `accel_rows` is a sorted list of (t, a), t >= 0. Speed is clamped at zero: a
    braking piece that would push V_l negative stops the lead until a later
    piece accelerates again. Velocity is evaluated exactly from the resulting
    breakpoints; the lead's position is the state X_l, which the dynamics
    integrate. The profile holds the piece of its last scalar query
    (`cached_motion`, and the vehicle's f), so a run at increasing t
    searches the breakpoints once per piece it enters.
    """

    def __init__(self, v0: float, accel_rows: Sequence = ((0.0, 0.0),)):
        if not 0 <= v0 < math.inf:
            raise VehicleError(f"lead initial speed must be finite and >= 0, got {v0}")
        rows = [(float(t), float(a)) for t, a in accel_rows]
        for i, name in enumerate(("times", "accelerations")):
            if not all(math.isfinite(row[i]) for row in rows):
                raise VehicleError(f"lead profile {name} must be finite")
        if rows and min(rows)[0] < 0:
            raise VehicleError(f"lead profile times must be >= 0, got {min(rows)[0]}")
        if not rows or rows[0][0] > 0:
            rows.insert(0, (0.0, 0.0))
        if [t for t, _ in rows] != sorted({t for t, _ in rows}):
            raise VehicleError("lead profile times must be strictly increasing")

        # breakpoints (t, v, a): within a piece v is linear
        bps = []
        t, v = 0.0, float(v0)
        for i, (t_i, a_i) in enumerate(rows):
            t_next = rows[i + 1][0] if i + 1 < len(rows) else math.inf
            a = 0.0 if (v <= 0 and a_i < 0) else a_i
            bps.append((t, v, a))
            if a < 0:
                t_stop = t + v / (-a)
                if t_stop < t_next:
                    v = 0.0
                    t = t_stop
                    bps.append((t, v, 0.0))
                    a = 0.0
            if t_next is not math.inf:
                v += a * (t_next - t)
                t = t_next
        self._bps = bps
        self._times = [b[0] for b in bps]
        self._seek(0.0)

    def velocity(self, t):
        t0, v, a = step_lookup(self._times, self._bps, t)
        return v + a * (t - t0)

    def _seek(self, t: float) -> tuple:
        """Find the piece that holds t, hold it and return it: (lo, hi, t0,
        v, a), where piece i covers [times[i], times[i+1]) with speed
        v + a (t - t0). Piece 0 runs down to -inf and the last up to +inf,
        so every t finds the piece `step_lookup` gives it."""
        times = self._times
        i = bisect_right(times, t) - 1
        i = 0 if i < 0 else i
        t0, v, a = self._bps[i]
        self._piece = piece = (-math.inf if i == 0 else t0,
                               times[i + 1] if i + 1 < len(times) else math.inf, t0, v, a)
        return piece

    def cached_motion(self, t: float) -> tuple:
        """(velocity(t), accel(t)) from the held piece, searched for again
        only when t leaves it: a run's steps read the lead at increasing t,
        so they search once per breakpoint crossed."""
        lo, hi, t0, v, a = self._piece
        if not lo <= t < hi:
            lo, hi, t0, v, a = self._seek(t)
        return v + a * (t - t0), a


class SpeedLimitSchedule:
    """Piecewise-constant V_max(t): rows (t_start, v_max) tiling [0, horizon)."""

    def __init__(self, rows: Sequence, horizon: float):
        rows = [(float(t), float(v)) for t, v in rows]
        if not rows:
            raise VehicleError("speed limit schedule is empty")
        for i, name in enumerate(("start times", "values")):
            if not all(math.isfinite(row[i]) for row in rows):
                raise VehicleError(f"speed limit {name} must be finite")
        if rows[0][0] != 0.0:
            raise VehicleError("speed limit schedule must start at t=0")
        times = [t for t, _ in rows]
        if times != sorted(set(times)):
            raise VehicleError("speed limit intervals overlap or are unordered")
        if any(v <= 0 for _, v in rows):
            raise VehicleError("speed limits must be positive")
        if times[-1] >= horizon:
            raise VehicleError("speed limit row starts at or beyond the horizon")
        self.rows = rows
        self._times = times
        self._values = [v for _, v in rows]

    def value(self, t):
        return step_lookup(self._times, self._values, t)


@dataclass(frozen=True)
class SignalTimings:
    """One traffic signal: stop-line position and a fixed g/y/r cycle.

    `offset` is the cycle time at t=0, so phase(t) follows the cycle
    green [0,g) -> yellow [g,g+y) -> red [g+y,P) with P = g+y+r.
    """

    position: float
    green_dur: float
    yellow_dur: float
    red_dur: float
    offset: float = 0.0

    def __post_init__(self):
        for name in ("position", "green_dur", "yellow_dur", "red_dur", "offset"):
            if not math.isfinite(getattr(self, name)):
                raise VehicleError(f"{name} must be finite, got {getattr(self, name)}")
        if min(self.green_dur, self.yellow_dur, self.red_dur) <= 0:
            raise VehicleError("phase durations must be positive")
        if not 0 <= self.offset < self.period:
            raise VehicleError(f"offset must lie in [0, period), got {self.offset}")

    @property
    def period(self) -> float:
        return self.green_dur + self.yellow_dur + self.red_dur

    def cycle(self, j: int) -> tuple:
        """(green_on, yellow_on, red_on, next_green_on) absolute times of
        cycle j, the one that starts at j * period - offset. `phase`,
        `active_phase_index` and `cycles_over` all switch at these floats."""
        start = j * self.period - self.offset
        yellow_on = start + self.green_dur
        return start, yellow_on, yellow_on + self.yellow_dur, (j + 1) * self.period - self.offset

    def phase(self, t: float) -> str:
        # the cycle index of t, corrected where the division rounds across
        # a cycle start; then the cycle's own switch times
        j = math.floor((t + self.offset) / self.period)
        start, _, _, next_on = self.cycle(j)
        _, yellow_on, red_on, _ = self.cycle(j + (t >= next_on) - (t < start))
        if t < yellow_on:
            return GREEN
        if t < red_on:
            return YELLOW
        return RED

    def cycles_over(self, horizon: float):
        """`cycle(j)` for j = -1, 0, ... while the cycle starts at or before
        horizon, covering [0, horizon]. Consecutive cycles share bit-identical
        boundaries (one formula per boundary) so schedule tiling stays exact."""
        cycles, j = [], -1
        while j * self.period - self.offset <= horizon:
            cycles.append(self.cycle(j))
            j += 1
        return cycles


def active_phase_index(signals: Sequence[SignalTimings], t, k):
    """Index into PHASES of the phase of signals[k] at t, point by point (3,
    "none", where k is past the last signal): `SignalTimings.phase` over
    arrays, with each point's timings gathered by k. `t`, a scalar or an
    array, and the index array `k` broadcast together."""
    timings = np.array([(s.offset, s.period, s.green_dur, s.yellow_dur)
                        for s in signals] + [(0.0, 1.0, 0.0, 0.0)])
    offset, period, green, yellow = timings.T[:, k]
    j = np.floor((t + offset) / period)  # as `phase`: corrected, then switched
    j = j - (t < j * period - offset) + (t >= (j + 1) * period - offset)
    yellow_on = (j * period - offset) + green
    red_on = yellow_on + yellow
    phase = np.where(t < yellow_on, 0, np.where(t < red_on, 1, 2))
    return np.where(k < len(signals), phase, 3)


def generate_signal_plan(seed: int, count: int = 10, first_position: float = 400.0,
                         spacing=(300.0, 800.0), green=(25.0, 40.0),
                         yellow=(4.0, 6.0), red=(15.0, 30.0)) -> list:
    """Deterministic plan: unequal spacings and unequal, unsynchronized cycles."""
    rng = random.Random(seed)
    signals = []
    pos = first_position
    for _ in range(count):
        g = rng.uniform(*green)
        y = rng.uniform(*yellow)
        r = rng.uniform(*red)
        offset = rng.uniform(0.0, g + y + r - 1e-6)
        signals.append(SignalTimings(pos, g, y, r, offset))
        pos += rng.uniform(*spacing)
    return signals


# ---------------------------------------------------------------------------
# Barrier templates
# ---------------------------------------------------------------------------


class SpacingBarrier(Barrier):
    """h1 = X_r - t_hw V_f - S0 - (V_f^2 - V_l^2)/(2 a_max).

    The lead speed enters as an exogenous time signal, continuous in t, so
    h has no time jumps, dh/dt = V_l a_l / a_max and
    grad_x = (-1, -t_hw - V_f/a_max, +1).
    """

    def __init__(self, vp: VehicleParams, lead: LeadProfile):
        super().__init__("h1")
        self.vp = vp
        self.lead = lead

    def _h(self, vl, x):
        return ((x[2] - x[0]) - self.vp.t_headway * x[1] - self.vp.s0
                - (x[1] * x[1] - vl * vl) / (2 * self.vp.a_max))

    def h_grid(self, t, cols):
        return self._h(self.lead.velocity(t), cols)

    def terms(self, t, x):
        vl, al = self.lead.cached_motion(t)
        vp, v = self.vp, x[1]
        h = (x[2] - x[0]) - vp.t_headway * v - vp.s0 - (v * v - vl * vl) / (2 * vp.a_max)
        return h, vl * al / vp.a_max, (-1.0, -vp.t_headway - v / vp.a_max, 1.0)


def speed_limit_barrier(limits: SpeedLimitSchedule, vp: VehicleParams) -> AffineBarrier:
    """Stitched h_v = V_max(t) - V_f, which jumps at the switch times.
    Carries alpha(h) = h/beta, which reproduces the case-study bound
    u <= (m/beta) h_v + F_r."""
    return AffineBarrier(
        "hv", coeffs=(0.0, -1.0, 0.0),
        pieces=[(t, v) for t, v in limits.rows],
        alpha=AlphaFn(1.0 / vp.beta),
    )


class TrafficSignalBarrier(Barrier):
    """Indicator-stitched h_pos over all signals.

    With k the active signal for X_f (first stop line at or ahead), the value
    is P_k - X_f - beta V_f - S0 during k's red phase and the same expression
    against P_{k+1} otherwise; past the last line the barrier is vacuous
    (+inf). dh/dt = 0 and grad_x = (-1, -beta, 0), or zeros where vacuous.
    Non-smooth at stop-line crossings and phase switches.
    """

    def __init__(self, signals: Sequence[SignalTimings], vp: VehicleParams):
        super().__init__("hpos")
        self.signals = list(signals)
        self.positions = [s.position for s in self.signals]
        if any(a >= b for a, b in zip(self.positions, self.positions[1:])):
            raise VehicleError("signal positions must increase")
        self.vp = vp

    def active(self, xf):
        """0-based index of the first stop line at or ahead of each X_f in
        the array xf; len(signals) past the last."""
        return np.searchsorted(self.positions, xf)

    def _h(self, line, x):
        return line - x[0] - self.vp.beta * x[1] - self.vp.s0

    def h_grid(self, t, cols):
        # terms over arrays: k is each X_f's active signal; a red k stops at
        # line k, any other at line k + 1; lines past the last read +inf
        k = self.active(cols[0])
        red = active_phase_index(self.signals, t, k) == PHASES.index(RED)
        lines = np.array(self.positions + [math.inf, math.inf])
        return self._h(lines[np.where(red, k, k + 1)], cols)

    def terms(self, t, x):
        k = bisect_left(self.positions, x[0])
        if k < len(self.signals) and self.signals[k].phase(t) != RED:
            k += 1  # any phase but red stops at the next line
        if k >= len(self.signals):
            return math.inf, 0.0, (0.0, 0.0, 0.0)
        return self._h(self.positions[k], x), 0.0, (-1.0, -self.vp.beta, 0.0)


# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------


def make_vehicle_system(vp: VehicleParams, lead: LeadProfile,
                        domain: Box = DEFAULT_DOMAIN) -> ControlSystem:
    """Longitudinal dynamics: X_f' = V_f, V_f' = (u - F_r)/m, X_l' = V_l(t).
    f reads V_l from the lead's held piece as `LeadProfile.cached_motion`
    does, inline, and searches only when t leaves the piece."""
    inv_m = 1.0 / vp.mass
    g_mat = ((0.0,), (inv_m,), (0.0,))
    c0, c1, c2 = vp.c0, vp.c1, vp.c2

    def f(t, x):
        lo, hi, t0, vl, al = lead._piece
        if not lo <= t < hi:
            lo, hi, t0, vl, al = lead._seek(t)
        v = x[1]  # friction F_r = c0 + c1 V + c2 V^2
        return (v, -(c0 + c1 * v + c2 * v * v) * inv_m, vl + al * (t - t0))

    def g(t, x):
        return g_mat

    return ControlSystem(n=3, m=1, f=f, g=g, domain=domain, clamp_min_dims=(1,))


# ---------------------------------------------------------------------------
# Signal contracts: per-signal schedules gated by the ego position
# ---------------------------------------------------------------------------


def build_signal_contracts(signals: Sequence[SignalTimings], vp: VehicleParams,
                           registry, base_cfg: ScheduleConfig, rho_signal: float,
                           label: str) -> list:
    """Register per-phase affine barriers and build one schedule per signal,
    which realizes the stitched signal barrier through the schedule machinery.

    Red phases of signal i constrain against P_i; other phases against
    P_{i+1} (vacuous for the last signal). Each red onset r gets the window
    (tau = yellow onset, budget = r - tau), so gamma at engagement follows
    the yellow-duration deadline formula. Signal i's schedule applies while
    its stop line is the first at or ahead of X_f: region (P_{i-1}, P_i],
    (-inf, P_1] for the first.
    """
    horizon = base_cfg.horizon
    n = len(signals)
    schedules = []
    lo = -math.inf
    for i, sig in enumerate(signals):
        red_id = f"sig{i + 1}.red"
        if red_id not in registry:
            registry.register(AffineBarrier(
                red_id, coeffs=(-1.0, -vp.beta, 0.0), offset=sig.position - vp.s0))
        notred_id = None
        if i + 1 < n:
            notred_id = f"sig{i + 1}.notred"
            if notred_id not in registry:
                registry.register(AffineBarrier(
                    notred_id, coeffs=(-1.0, -vp.beta, 0.0),
                    offset=signals[i + 1].position - vp.s0))

        preds = []
        windows = {}
        for cycle in sig.cycles_over(horizon):
            # a switch before t=0, or within the tiling's 1e-9 slack after
            # it, is taken at t=0: the schedule opens there
            g_on, y_on, r_on, g_next = (0.0 if v <= 1e-9 else v for v in cycle)
            nr1 = min(r_on, horizon)
            if nr1 > g_on and notred_id is not None:
                preds.append((TimeInterval(g_on, nr1), PredicateRef(notred_id)))
            r1 = min(g_next, horizon)
            if r1 > r_on:
                preds.append((TimeInterval(r_on, r1), PredicateRef(red_id)))
                # a red onset after t=0 is a boundary: attach the yellow window
                # (one at t=0 opens the schedule and would get a zero budget)
                if r_on > 0:
                    windows[r_on] = (y_on, r_on - y_on)
        preds.sort(key=lambda p: p[0].start)
        group = TaskGroup(label=f"{label}.s{i + 1}", predicates=tuple(preds))
        cfg = replace(base_cfg, rho=rho_signal, boundary_windows=windows)
        sched = build_schedule(group, registry, cfg)
        schedules.append(replace(sched, region=(lo, sig.position)))
        lo = sig.position
    return schedules
