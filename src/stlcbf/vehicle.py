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

All three have analytic derivatives; the signal barrier is the indicator
stitching of per-signal affine pieces and is evaluated as +inf past the last
stop line (no constraint remains). The exogenous signals have array lookups
as well as scalar ones (`LeadProfile.velocity` and `SpeedLimitSchedule.value`
take an array t; `active_phase_index` gives each point's signal phase), so
the barriers' `h_grid` and the trace channels evaluate whole traces at once.
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
    StateBox,
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
DEFAULT_DOMAIN = StateBox((-1e4, 0.0, -1e4), (1e6, 80.0, 1e7))  # X_f, V_f, X_l


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

    `accel_rows` is a sorted list of (t, a). Speed is clamped at zero: a
    braking piece that would push V_l negative stops the lead until a later
    piece accelerates again. Velocity is evaluated exactly from the resulting
    breakpoints; the lead's position is the state X_l, which the dynamics
    integrate.
    """

    def __init__(self, v0: float, accel_rows: Sequence = ((0.0, 0.0),)):
        if not 0 <= v0 < math.inf:
            raise VehicleError(f"lead initial speed must be finite and >= 0, got {v0}")
        rows = [(float(t), float(a)) for t, a in accel_rows]
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
        self._t, self._motion = math.nan, (0.0, 0.0)  # the last cached query

    def velocity(self, t):
        t0, v, a = step_lookup(self._times, self._bps, t)
        return v + a * (t - t0)

    def cached_motion(self, t: float) -> tuple:
        """(velocity(t), accel(t)) from one lookup of the piece, made only for
        a new t: within a step the dynamics, h1 and the nominal controller
        all read the lead at one t."""
        if t != self._t:
            t0, v, a = self._bps[max(bisect_right(self._times, t) - 1, 0)]
            self._t, self._motion = t, (v + a * (t - t0), a)
        return self._motion


class SpeedLimitSchedule:
    """Piecewise-constant V_max(t): rows (t_start, v_max) tiling [0, horizon)."""

    def __init__(self, rows: Sequence, horizon: float):
        rows = [(float(t), float(v)) for t, v in rows]
        if not rows:
            raise VehicleError("speed limit schedule is empty")
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
        if min(self.green_dur, self.yellow_dur, self.red_dur) <= 0:
            raise VehicleError("phase durations must be positive")
        if not 0 <= self.offset < self.period:
            raise VehicleError(f"offset must lie in [0, period), got {self.offset}")

    @property
    def period(self) -> float:
        return self.green_dur + self.yellow_dur + self.red_dur

    def phase(self, t: float, side: str = "right") -> str:
        c = (t + self.offset) % self.period
        if side == "left":
            c = (c - 1e-12) % self.period
        if c < self.green_dur:
            return GREEN
        if c < self.green_dur + self.yellow_dur:
            return YELLOW
        return RED

    def cycles_over(self, horizon: float):
        """Per cycle (green_on, yellow_on, red_on, next_green_on) absolute
        times, covering [0, horizon]. Consecutive cycles share bit-identical
        boundaries (one formula per boundary) so schedule tiling stays exact."""
        starts = []
        j = -1
        while True:
            start = j * self.period - self.offset
            starts.append(start)
            if start > horizon:
                break
            j += 1
        return [
            (s, s + self.green_dur, s + self.green_dur + self.yellow_dur, starts[k + 1])
            for k, s in enumerate(starts[:-1])
        ]


def active_phase_index(signals: Sequence[SignalTimings], t, k, side: str = "right"):
    """Index into PHASES of the phase of signals[k] at t, point by point (3,
    "none", where k is past the last signal): `SignalTimings.phase` over
    arrays, with each point's timings gathered by k. `t`, a scalar or an
    array, and the index array `k` broadcast together; np.remainder is
    Python's float %."""
    timings = np.array([(s.offset, s.period, s.green_dur, s.green_dur + s.yellow_dur)
                        for s in signals] + [(0.0, 1.0, 0.0, 0.0)])
    offset, period, green_end, yellow_end = timings.T[:, k]
    c = np.remainder(t + offset, period)
    if side == "left":
        c = np.remainder(c - 1e-12, period)
    phase = np.where(c < green_end, 0, np.where(c < yellow_end, 1, 2))
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
    h has no time jumps (both sides agree), dh/dt = V_l a_l / a_max and
    grad_x = (-1, -t_hw - V_f/a_max, +1).
    """

    def __init__(self, vp: VehicleParams, lead: LeadProfile):
        super().__init__("h1")
        self.vp = vp
        self.lead = lead

    def _h(self, vl, x):
        return ((x[2] - x[0]) - self.vp.t_headway * x[1] - self.vp.s0
                - (x[1] * x[1] - vl * vl) / (2 * self.vp.a_max))

    def h(self, t, x, side="right"):
        return self._h(self.lead.cached_motion(t)[0], x)

    def h_grid(self, t, cols, side="right"):
        return self._h(self.lead.velocity(t), cols)

    def terms(self, t, x):
        vl, al = self.lead.cached_motion(t)
        return (self._h(vl, x), vl * al / self.vp.a_max,
                (-1.0, -self.vp.t_headway - x[1] / self.vp.a_max, 1.0))


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
    Non-smooth at stop-line crossings and phase switches; side="left" reads
    the phases just before t.
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

    def _stop_line(self, t, x, side="right"):
        k = bisect_left(self.positions, x[0])
        if k >= len(self.signals):
            return None
        if self.signals[k].phase(t, side) == RED:
            return self.positions[k]
        return self.positions[k + 1] if k + 1 < len(self.signals) else None

    def _h(self, line, x):
        if line is None:
            return math.inf
        return line - x[0] - self.vp.beta * x[1] - self.vp.s0

    def h(self, t, x, side="right"):
        return self._h(self._stop_line(t, x, side), x)

    def h_grid(self, t, cols, side="right"):
        # _stop_line over arrays: k is each X_f's active signal; a red k stops
        # at line k, any other at line k + 1; lines past the last read +inf
        k = self.active(cols[0])
        red = active_phase_index(self.signals, t, k, side) == PHASES.index(RED)
        lines = np.array(self.positions + [math.inf, math.inf])
        return self._h(lines[np.where(red, k, k + 1)], cols)

    def terms(self, t, x):
        line = self._stop_line(t, x)
        grad = (0.0, 0.0, 0.0) if line is None else (-1.0, -self.vp.beta, 0.0)
        return self._h(line, x), 0.0, grad


# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------


def make_vehicle_system(vp: VehicleParams, lead: LeadProfile,
                        domain: StateBox = DEFAULT_DOMAIN) -> ControlSystem:
    """Longitudinal dynamics: X_f' = V_f, V_f' = (u - F_r)/m, X_l' = V_l(t)."""
    inv_m = 1.0 / vp.mass
    g_mat = ((0.0,), (inv_m,), (0.0,))
    c0, c1, c2, lead_motion = vp.c0, vp.c1, vp.c2, lead.cached_motion

    def f(t, x):
        v = x[1]  # friction F_r = c0 + c1 V + c2 V^2
        return (v, -(c0 + c1 * v + c2 * v * v) * inv_m, lead_motion(t)[0])

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
        for g_on, y_on, r_on, g_next in sig.cycles_over(horizon):
            nr0, nr1 = max(g_on, 0.0), min(r_on, horizon)
            if nr1 > nr0 and notred_id is not None:
                preds.append((TimeInterval(nr0, nr1), PredicateRef(notred_id)))
            r0, r1 = max(r_on, 0.0), min(g_next, horizon)
            if r1 > r0:
                preds.append((TimeInterval(r0, r1), PredicateRef(red_id)))
                # a red onset after t=0 is a boundary: attach the yellow window
                # (one at t=0 opens the schedule and would get a zero budget)
                if r_on > 0:
                    tau = max(y_on, 0.0)
                    windows[r_on] = (tau, r_on - tau)
        preds.sort(key=lambda p: p[0].start)
        group = TaskGroup(label=f"{label}.s{i + 1}", predicates=tuple(preds))
        cfg = replace(base_cfg, rho=rho_signal, boundary_windows=windows)
        sched = build_schedule(group, registry, cfg)
        schedules.append(replace(sched, region=(lo, sig.position)))
        lo = sig.position
    return schedules
