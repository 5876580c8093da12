import dataclasses
import math
import re
from bisect import bisect_left
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    active_constraints,
    constraints_at,
    exact_extreme_direct,
    grid_set_check,
    scalar_check_intersection,
    scalar_check_subset,
    scalar_worst_engage_margin,
    scan_constraints,
)
from stlcbf.barriers import (
    AffineBarrier,
    Barrier,
    BarrierError,
    BarrierRegistry,
    FcbfParams,
    StateBox,
    TopBarrier,
    cbf_constraint,
    convergence_time,
    gamma_for_deadline,
)
from stlcbf import contracts
from stlcbf.config import load_config
from stlcbf.contracts import (
    ContractError,
    RegionTable,
    _grid_points,
    _worst_engage_margin,
    ScheduleConfig,
    ScheduleQueryError,
    Verdict,
    build_schedule,
    check_intersection,
    check_subset,
    clip_groups,
    conjoin_groups,
)
from stlcbf.pipeline import build_scenario
from stlcbf.qp import InputBox, solve_qp
from stlcbf.stl import PredicateRef, TaskGroup, TimeInterval
from stlcbf.vehicle import (
    LeadProfile,
    SignalTimings,
    SpacingBarrier,
    TrafficSignalBarrier,
    VehicleParams,
    make_vehicle_system,
)


def vbar(vmax, name=None):
    return AffineBarrier(name or f"v{vmax:g}", coeffs=(0.0, -1.0), offset=float(vmax))


def registry_with(*bars):
    reg = BarrierRegistry()
    for b in bars:
        reg.register(b)
    return reg


DOM = StateBox((0.0, 0.0), (40.0, 40.0))


class TestCheckSubset:
    def test_loosening_threshold_is_subset(self):
        res = check_subset(vbar(25), vbar(30), 10.0, DOM)
        assert res.holds and res.method == "exact"

    def test_tightening_threshold_is_not_subset(self):
        res = check_subset(vbar(30), vbar(10), 10.0, DOM)
        assert not res.holds
        cx = res.counterexample
        assert vbar(30).h(10.0, cx) >= 0 and vbar(10).h(10.0, cx) < 0

    def test_reflexive(self):
        res = check_subset(vbar(25), vbar(25), 10.0, DOM)
        assert res.holds

    def test_empty_prev_set_is_vacuous_subset(self):
        below_domain = AffineBarrier("neg", coeffs=(0.0, -1.0), offset=-1.0)
        assert check_subset(below_domain, vbar(10), 0.0, DOM).holds

    def test_transitive_on_exact_instances(self):
        a, b, c = vbar(10), vbar(20), vbar(30)
        assert check_subset(a, b, 0.0, DOM).holds
        assert check_subset(b, c, 0.0, DOM).holds
        assert check_subset(a, c, 0.0, DOM).holds

    def test_degenerate_domain_rejected(self):
        flat = StateBox((0.0, 5.0), (40.0, 5.0))
        with pytest.raises(ContractError, match="degenerate"):
            check_subset(vbar(10), vbar(20), 0.0, flat)

    def test_sampled_fallback_records_method(self):
        class Curvy(AffineBarrier):
            def affine_on(self, t0, t1):
                return None

        res = check_subset(Curvy("c", coeffs=(0.0, -1.0), offset=25.0), vbar(30),
                           0.0, DOM, resolution=21)
        assert res.holds and res.method == "sampled(21)"


class TestCheckIntersection:
    def test_overlapping_sets_return_witness(self):
        res = check_intersection(vbar(30), vbar(10), 0.0, DOM)
        assert res.witness is not None
        assert vbar(30).h(0.0, res.witness) >= 0
        assert vbar(10).h(0.0, res.witness) >= 0

    def test_empty_prev_yields_none(self):
        below = AffineBarrier("neg", coeffs=(0.0, -1.0), offset=-1.0)
        assert check_intersection(below, vbar(30), 0.0, DOM).witness is None

    def test_disjoint_sets_yield_none(self):
        slow = vbar(10)
        fast = AffineBarrier("fast", coeffs=(0.0, 1.0), offset=-20.0)  # V >= 20
        assert check_intersection(slow, fast, 0.0, DOM).witness is None

    def test_two_halfspace_corner_agrees_with_grid_oracle(self):
        h_prev = AffineBarrier("p", coeffs=(-1.0, -2.0), offset=30.0)
        h_next = AffineBarrier("n", coeffs=(1.0, -1.0), offset=-5.0)
        res = check_intersection(h_prev, h_next, 0.0, DOM)
        xs = np.linspace(0, 40, 401)
        ys = np.linspace(0, 40, 401)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        hp = -gx - 2 * gy + 30
        hn = gx - gy - 5
        _, witness_exists = grid_set_check(hp, hn)
        assert (res.witness is not None) == witness_exists
        assert h_prev.h(0.0, res.witness) >= -1e-9
        assert h_next.h(0.0, res.witness) >= -1e-9

    def test_subset_implies_witness_when_prev_nonempty(self):
        res_sub = check_subset(vbar(25), vbar(30), 0.0, DOM)
        res_int = check_intersection(vbar(25), vbar(30), 0.0, DOM)
        assert res_sub.holds and res_int.witness is not None

    def test_left_limit_used_for_previous_barrier(self):
        jumping = AffineBarrier("hv", coeffs=(0.0, -1.0),
                                pieces=[(0.0, 30.0), (50.0, 5.0)])
        # prev side reads the left limit {V<=30}, which is not inside {V<=10}
        res = check_subset(jumping, vbar(10), 50.0, DOM)
        assert not res.holds
        # next side reads the right value {V<=5}: {V<=20} is not inside it,
        # though it would be inside the left value {V<=30}
        res2 = check_subset(vbar(20), jumping, 50.0, DOM)
        assert not res2.holds


def speed_group(values, each=50.0):
    preds = tuple(
        (TimeInterval(i * each, (i + 1) * each), PredicateRef(f"v{v:g}"))
        for i, v in enumerate(values)
    )
    return TaskGroup(label="G1", predicates=preds)


def speed_cfg(horizon, t_conv=5.0, rho=0.91):
    return ScheduleConfig(domain=DOM, horizon=horizon, rho=rho, t_conv=t_conv)


class TestBuildSchedule:
    def test_tightening_boundaries_get_fcbf_windows(self):
        reg = registry_with(vbar(30), vbar(25), vbar(10))
        sched = build_schedule(speed_group([30, 25, 10]), reg, speed_cfg(150.0))
        verdicts = [b.verdict for b in sched.boundaries]
        assert verdicts == [Verdict.OVERLAP_DEADLINE, Verdict.OVERLAP_DEADLINE]
        assert [b.tau for b in sched.boundaries] == [45.0, 95.0]
        assert all(b.t_target == 5.0 for b in sched.boundaries)
        assert [(b.tau, b.time) for b in sched.boundaries] == [(45.0, 50.0), (95.0, 100.0)]

    def test_loosening_boundaries_are_subset(self):
        reg = registry_with(vbar(10), vbar(25), vbar(30))
        sched = build_schedule(speed_group([10, 25, 30]), reg, speed_cfg(150.0))
        assert [b.verdict for b in sched.boundaries] == [Verdict.SUBSET, Verdict.SUBSET]
        assert [b.tau for b in sched.boundaries] == [None, None]

    def test_disjoint_sets_fail_with_reason(self):
        slow = vbar(10)
        fast = AffineBarrier("fast", coeffs=(0.0, 1.0), offset=-20.0)
        reg = registry_with(slow, fast)
        group = TaskGroup("G1", (
            (TimeInterval(0, 50), PredicateRef("v10")),
            (TimeInterval(50, 100), PredicateRef("fast")),
        ))
        sched = build_schedule(group, reg, speed_cfg(100.0))
        fails = sched.failures()
        assert len(fails) == 1
        assert fails[0].time == 50.0
        assert fails[0].reason == "empty intersection"

    def test_gaps_tiled_with_vacuous_segments(self):
        reg = registry_with(vbar(10))
        group = TaskGroup("G1", ((TimeInterval(20, 30), PredicateRef("v10")),))
        sched = build_schedule(group, reg, speed_cfg(100.0))
        kinds = [(seg.vacuous, seg.interval.start, seg.interval.end) for seg in sched.segments]
        assert kinds == [(True, 0.0, 20.0), (False, 20.0, 30.0), (True, 30.0, 100.0)]
        # entering the real segment needs an FCBF window; leaving it is subset
        assert sched.boundaries[0].verdict == Verdict.OVERLAP_DEADLINE
        assert sched.boundaries[1].verdict == Verdict.SUBSET

    def test_window_longer_than_interval_is_incompatible(self):
        reg = registry_with(vbar(30), vbar(10))
        sched = build_schedule(speed_group([30, 10], each=4.0), reg,
                               speed_cfg(8.0, t_conv=5.0))
        fails = sched.failures()
        assert len(fails) == 1 and "deadline violated" in fails[0].reason

    @pytest.mark.parametrize("overshoot, verdict", [
        (0.5e-9, Verdict.OVERLAP_DEADLINE), (2e-9, Verdict.INCOMPATIBLE)])
    def test_window_overshoot_within_deadline_slack(self, overshoot, verdict):
        reg = registry_with(vbar(30), vbar(10))
        cfg = dataclasses.replace(speed_cfg(100.0),
                                  boundary_windows={50.0: (45.0 + overshoot, 5.0)})
        bd = build_schedule(speed_group([30, 10]), reg, cfg).boundaries[0]
        assert bd.verdict is verdict
        if verdict is Verdict.INCOMPATIBLE:
            assert bd.reason.startswith("deadline violated: tau+t_conv=")

    def test_worst_engage_margin_is_pessimistic(self):
        reg = registry_with(vbar(30), vbar(10))
        sched = build_schedule(speed_group([30, 10]), reg, speed_cfg(100.0))
        bd = sched.boundaries[0]
        # worst admissible state under {V<=30} in the domain is V=30: margin -20
        assert bd.worst_engage_margin == pytest.approx(-20.0)
        # gamma sized from the worst margin meets the deadline exactly: T = t_conv
        worst, rho = bd.worst_engage_margin, bd.rho
        gamma = gamma_for_deadline(worst, rho, 5.0)
        assert convergence_time(worst, FcbfParams(rho, gamma)) == pytest.approx(5.0)


    def test_start_within_slack_opens_the_schedule_at_zero(self):
        """A first interval starting within the tiling's 1e-9 slack after 0,
        as in `G[0.0000000001,2)`, is widened to start at 0, so t=0 lies in
        the span."""
        reg = registry_with(vbar(10))
        group = TaskGroup("G1", ((TimeInterval(1e-10, 2.0), PredicateRef("v10")),))
        sched = build_schedule(group, reg, speed_cfg(2.0))
        assert [(seg.interval.start, seg.interval.end) for seg in sched.segments] == [(0.0, 2.0)]
        cons = constraints_at(sched, 0.0, (0.0, 5.0), ScalarSys, {})
        assert [label for _, _, label in cons] == ["cbf:v10"]


class Plane(Barrier):
    """A library barrier that implements `terms` and `affine_on` only."""

    def __init__(self, barrier_id, coeffs, offset):
        super().__init__(barrier_id)
        self.coeffs, self.offset = coeffs, offset

    def terms(self, t, x):
        return sum(c * v for c, v in zip(self.coeffs, x)) + self.offset, 0.0, self.coeffs

    def affine_on(self, t0, t1):
        return self.coeffs, self.offset


class TestAffineOnOnly:
    def test_boundaries_get_exact_verdicts(self):
        """`affine_on` is all the static checks need for a proof: every
        boundary, the worst engage margin included, is `method=exact`."""
        reg = registry_with(*(Plane(f"v{v}", (0.0, -1.0), float(v)) for v in (30, 10, 25)))
        sched = build_schedule(speed_group([30, 10, 25]), reg, speed_cfg(150.0))
        assert [(b.verdict, b.method) for b in sched.boundaries] == [
            (Verdict.OVERLAP_DEADLINE, "exact"), (Verdict.SUBSET, "exact")]
        assert sched.boundaries[0].worst_engage_margin == -20.0


class TestScheduleConfigValidation:
    """Every deadline, rho and gamma_min is checked when the config is built,
    with the messages that gamma_for_deadline and FcbfParams give: a group
    with no overlap_deadline boundary, which sizes no gamma, is rejected too."""

    @pytest.mark.parametrize("knobs, message", [
        (dict(rho=1.0), r"rho must lie in \[0, 1\), got 1.0"),
        (dict(rho=-0.1), r"rho must lie in \[0, 1\), got -0.1"),
        (dict(rho=math.nan), r"rho must lie in \[0, 1\), got nan"),
        (dict(t_conv=0.0), "deadline must be positive, got 0.0"),
        (dict(boundary_windows={50.0: (45.0, -1.0)}), "deadline must be positive, got -1.0"),
        (dict(gamma_min=0.0), "gamma must be positive, got 0.0"),
    ], ids=["rho=1", "rho<0", "rho=nan", "t_conv=0", "window_budget<0", "gamma_min=0"])
    def test_bad_values_fail_at_construction(self, knobs, message):
        reg = registry_with(vbar(10), vbar(30))
        with pytest.raises(BarrierError, match=message):
            cfg = ScheduleConfig(domain=DOM, horizon=100.0, **knobs)
            # 10 -> 30 is a subset boundary: no window, so no gamma is sized
            build_schedule(speed_group([10, 30]), reg, cfg)

    @pytest.mark.parametrize("windows", [
        {50.0: (math.nan, 5.0)}, {50.0: (math.inf, 5.0)}, {50.0: (-math.inf, 5.0)},
        {math.nan: (45.0, 5.0)}, {math.inf: (45.0, 5.0)},
    ], ids=["tau=nan", "tau=inf", "tau=-inf", "time=nan", "time=inf"])
    def test_non_finite_window_rejected(self, windows):
        # a NaN tau used to read verdict=overlap_deadline tau=nan on this
        # 30 -> 10 group, yet the window test tau < t < 50 never held
        reg = registry_with(vbar(30), vbar(10))
        cfg = dataclasses.replace(speed_cfg(100.0), boundary_windows={50.0: (45.0, 5.0)})
        sched = build_schedule(speed_group([30, 10]), reg, cfg)
        labels = [label for _, _, label in active_constraints(sched, 48.0, (0.0, 20.0), ScalarSys)]
        assert labels == ["cbf:v30", "fcbf:v10"]
        with pytest.raises(BarrierError, match="finite time and tau"):
            dataclasses.replace(cfg, boundary_windows=windows)

    @pytest.mark.parametrize("key", [49.0, math.nextafter(50.0, math.inf), 0.0, 100.0, 150.0],
                             ids=["inside", "ulp_after", "start", "horizon", "past"])
    def test_window_off_every_boundary_rejected(self, key):
        # the 30 -> 10 group's one boundary is t=50; a window keyed elsewhere
        # used to be dropped silently, and the boundary took the default window
        reg = registry_with(vbar(30), vbar(10))
        cfg = dataclasses.replace(speed_cfg(100.0),
                                  boundary_windows={50.0: (45.0, 5.0), key: (key - 1.0, 1.0)})
        with pytest.raises(ContractError, match=re.escape(
                f"group G1: boundary window at t={key!r} is not a boundary time")):
            build_schedule(speed_group([30, 10]), reg, cfg)

    def test_windows_on_boundaries_of_a_gapped_group_build(self):
        # boundaries are the ends of every segment but the last, vacuous ones too
        reg = registry_with(vbar(10))
        group = TaskGroup("G1", ((TimeInterval(20, 30), PredicateRef("v10")),))
        cfg = dataclasses.replace(speed_cfg(100.0), boundary_windows={20.0: (16.0, 4.0),
                                                                      30.0: (28.0, 2.0)})
        sched = build_schedule(group, reg, cfg)
        assert [(b.time, b.tau) for b in sched.boundaries] == [(20.0, 16.0), (30.0, None)]

    def test_good_values_build(self):
        reg = registry_with(vbar(10), vbar(30))
        cfg = ScheduleConfig(domain=DOM, horizon=100.0, rho=0.0, t_conv=1e-9,
                             gamma_min=1e-12, boundary_windows={50.0: (49.0, 1.0)})
        sched = build_schedule(speed_group([10, 30]), reg, cfg)
        assert [b.verdict for b in sched.boundaries] == [Verdict.SUBSET]


class ScalarSys:
    n, m = 2, 1

    @staticmethod
    def f(t, x):
        return (x[1], 0.0)

    @staticmethod
    def g(t, x):
        return ((0.0,), (1.0,))


class TestActiveConstraints:
    def _sched(self):
        reg = registry_with(vbar(30), vbar(25), vbar(10))
        return build_schedule(speed_group([30, 25, 10]), reg, speed_cfg(150.0))

    def test_single_constraint_before_window(self):
        sched = self._sched()
        cons = active_constraints(sched, 20.0, (0.0, 20.0), ScalarSys)
        assert [label for _, _, label in cons] == ["cbf:v30"]

    def test_two_constraints_inside_window(self):
        sched = self._sched()
        cons = active_constraints(sched, 47.0, (0.0, 20.0), ScalarSys)
        assert [label for _, _, label in cons] == ["cbf:v30", "fcbf:v25"]

    def test_engagement_time_itself_is_outside_window(self):
        sched = self._sched()
        cons = active_constraints(sched, 45.0, (0.0, 20.0), ScalarSys)
        assert [label for _, _, label in cons] == ["cbf:v30"]

    def test_subset_boundary_never_engages(self):
        reg = registry_with(vbar(10), vbar(30))
        sched = build_schedule(speed_group([10, 30]), reg, speed_cfg(100.0))
        cons = active_constraints(sched, 49.0, (0.0, 5.0), ScalarSys)
        assert [label for _, _, label in cons] == ["cbf:v10"]

    def test_gamma_fixed_at_first_engagement(self):
        sched = self._sched()
        ledger = {}
        # engage at V=28: deficit h = 25-28 = -3 (boundary 0 is the 30->25 switch)
        active_constraints(sched, 45.01, (0.0, 28.0), ScalarSys, ledger)
        rec = ledger[("G1", 0)]
        assert rec.h_engage == pytest.approx(-3.0)
        assert convergence_time(-3.0, rec.params) == pytest.approx(5.0)
        # later query at a different state reuses the stored gamma
        active_constraints(sched, 48.0, (0.0, 26.0), ScalarSys, ledger)
        assert ledger[("G1", 0)] is rec

    def test_gamma_kept_from_an_earlier_query(self):
        # v30 -> v10, window 45 < t < 50, rho 0.9, budget 5: engaged at t=46
        # with V=28 (h=-18), the row at t=47, V=12 (h=-2) keeps that gamma.
        # Sized afresh at t=47, as a query without the dict used to do, it
        # would read b = -4.000.
        reg = registry_with(vbar(30), vbar(10))
        sched = build_schedule(speed_group([30, 10]), reg, speed_cfg(100.0, rho=0.9))
        want = -(18.0 ** 0.1 / 0.5) * 2.0 ** 0.9
        ledger = {}
        constraints_at(sched, 46.0, (0.0, 28.0), ScalarSys, ledger)
        (_, _, _), (a, b, label) = constraints_at(sched, 47.0, (0.0, 12.0), ScalarSys,
                                                  ledger)
        assert (a, label) == ((1.0,), "fcbf:v10") and b == pytest.approx(want, rel=1e-12)
        assert round(b, 3) == -4.983
        table = RegionTable.of([sched])
        conjoin_groups(table, 46.0, (0.0, 28.0), ScalarSys)
        assert conjoin_groups(table, 47.0, (0.0, 12.0), ScalarSys)[1][1] == b
        assert table.engagements == ledger
        fresh = conjoin_groups(RegionTable.of([sched]), 47.0, (0.0, 12.0), ScalarSys)
        assert fresh[1][1] == pytest.approx(-4.0, rel=1e-12)
        with pytest.raises(TypeError, match="engagements"):
            constraints_at(sched, 47.0, (0.0, 12.0), ScalarSys)

    def test_table_plan_holds_on_its_interval_only(self):
        # one table queried back and forth around the 30 -> 25 window (45, 50):
        # a plan built on one side of tau or of t = 50 must not serve the other
        sched = self._sched()
        table, ledger = RegionTable.of([sched]), {}
        for t in (47.0, 45.0, math.nextafter(45.0, math.inf), 45.0, 44.0,
                  math.nextafter(50.0, -math.inf), 50.0, 47.0, 0.0, 46.0):
            got = conjoin_groups(table, t, (0.0, 20.0), ScalarSys)
            assert _hexed(got) == _hexed(scan_constraints([sched], t, (0.0, 20.0), ScalarSys,
                                                          ledger))
        assert table.engagements == ledger

    def test_query_outside_span_rejected(self):
        sched = self._sched()
        with pytest.raises(ScheduleQueryError):
            active_constraints(sched, 150.0, (0.0, 0.0), ScalarSys)
        with pytest.raises(ScheduleQueryError):
            active_constraints(sched, -0.5, (0.0, 0.0), ScalarSys)

    def test_segment_lookup_in_any_order(self):
        # the lookup cursor follows forward time; other queries must agree too
        sched = self._sched()
        for t in (0.0, 49.99, 50.0, 120.0, 10.0, 149.9, 0.0, 100.0, 99.999, 100.0):
            want = max(i for i, seg in enumerate(sched.segments) if seg.interval.start <= t)
            assert sched._segment_index(t) == want

    def test_vacuous_segment_contributes_nothing(self):
        reg = registry_with(vbar(10))
        group = TaskGroup("G1", ((TimeInterval(20, 30), PredicateRef("v10")),))
        sched = build_schedule(group, reg, speed_cfg(100.0))
        assert active_constraints(sched, 5.0, (0.0, 0.0), ScalarSys) == []

    def test_fcbf_never_active_outside_windows(self):
        sched = self._sched()
        windows = [(b.tau, b.time) for b in sched.boundaries
                   if b.verdict is Verdict.OVERLAP_DEADLINE]
        t = 0.0
        while t < 149.9:
            labels = [label for _, _, label in
                      active_constraints(sched, t, (0.0, 20.0), ScalarSys)]
            in_window = any(tau < t < te for tau, te in windows)
            assert any(l.startswith("fcbf:") for l in labels) == in_window
            t += 0.25


class TestConjoinGroups:
    def test_concatenates_constraints(self):
        reg = registry_with(vbar(30), vbar(25), vbar(10), vbar(20))
        s1 = build_schedule(speed_group([30, 25, 10]), reg, speed_cfg(150.0))
        s2 = build_schedule(
            TaskGroup("G2", ((TimeInterval(0, 150), PredicateRef("v20")),)),
            reg, speed_cfg(150.0))
        cons = conjoin_groups(RegionTable.of([s1, s2]), 20.0, (0.0, 15.0), ScalarSys)
        assert [label for _, _, label in cons] == ["cbf:v30", "cbf:v20"]

    def test_vacuous_group_adds_nothing(self):
        reg = registry_with(vbar(30), vbar(10))
        s1 = build_schedule(
            TaskGroup("G1", ((TimeInterval(0, 100), PredicateRef("v30")),)),
            reg, speed_cfg(100.0))
        s2 = build_schedule(
            TaskGroup("G2", ((TimeInterval(50, 60), PredicateRef("v10")),)),
            reg, speed_cfg(100.0))
        cons = conjoin_groups(RegionTable.of([s1, s2]), 10.0, (0.0, 15.0), ScalarSys)
        assert [label for _, _, label in cons] == ["cbf:v30"]


class GrowingGainSys(ScalarSys):
    """ScalarSys with an input gain that grows with |X|: g is a new matrix,
    with new values, at every call."""

    @staticmethod
    def g(t, x):
        return ((0.0,), (1.0 + 0.01 * x[0] * x[0],))


class Cap(Barrier):
    """c - V^2/2: like h1, `terms` builds a new gradient tuple at every call."""

    def __init__(self, barrier_id, c):
        super().__init__(barrier_id)
        self.c = c

    def h_grid(self, t, cols):
        return self.c - 0.5 * cols[1] * cols[1]

    def terms(self, t, x):
        return self.c - 0.5 * x[1] * x[1], 0.0, (0.0, -x[1])


HORIZON = 40.0
REGION_BOUNDS = [-math.inf, -10.0, -2.5, 0.0, 2.5, 10.0, math.inf]
PREDICATES = [None, PredicateRef("v10"), PredicateRef("v20"), PredicateRef("v30"),
              PredicateRef("cap"), PredicateRef("v20", negated=True), PredicateRef("steps"),
              PredicateRef("steps", negated=True)]


@st.composite
def stepped_barriers(draw):
    """A multi-piece affine speed cap: pieces start on a quarter-second grid,
    so some start on segment bounds and some inside segments and windows;
    the X coefficient is +0.0, -0.0 or 0.5."""
    starts = sorted(draw(st.sets(st.integers(1, 159), max_size=6)))
    offsets = draw(st.lists(st.sampled_from([10.0, 15.0, 20.0, 30.0]),
                            min_size=len(starts) + 1, max_size=len(starts) + 1))
    coeff = draw(st.sampled_from([0.0, -0.0, 0.5]))
    return AffineBarrier("steps", coeffs=(coeff, -1.0),
                         pieces=list(zip([0.0] + [k / 4 for k in starts], offsets)))


@st.composite
def gated_schedules(draw):
    """1-5 schedules over [0, 40): segments cut at whole seconds, each vacuous,
    affine with one piece or several, negated or Cap; regions drawn from a
    few shared bounds, so they overlap, touch, nest, repeat or are empty."""
    reg = registry_with(vbar(10), vbar(20), vbar(30), Cap("cap", 450.0),
                        draw(stepped_barriers()))
    cfg = ScheduleConfig(domain=DOM, horizon=HORIZON, rho=0.9, t_conv=2.0,
                         grid_resolution=11)
    scheds = []
    for k in range(draw(st.integers(1, 5))):
        edges = [0] + sorted(draw(st.sets(st.integers(1, 39), max_size=4))) + [40]
        preds = []
        for start, end in zip(edges, edges[1:]):
            pred = draw(st.sampled_from(PREDICATES))
            if pred is not None:
                preds.append((TimeInterval(float(start), float(end)), pred))
        sched = build_schedule(TaskGroup(f"G{k + 1}", tuple(preds)), reg, cfg)
        region = (draw(st.sampled_from(REGION_BOUNDS)), draw(st.sampled_from(REGION_BOUNDS)))
        scheds.append(dataclasses.replace(sched, region=region))
    return scheds


def _near(values):
    """Each value and the floats one ulp either side of it."""
    return [w for v in values for w in (math.nextafter(v, -math.inf), v,
                                        math.nextafter(v, math.inf))]


def _hexed(cons):
    return [(label, [ai.hex() for ai in a], b.hex()) for a, b, label in cons]


class TestCompiledDispatchDifferential:
    """`conjoin_groups` over a `RegionTable`, its plans and the compiled rows
    against `oracles.scan_constraints`, which tests every region, verdict and
    window at each query and builds every label and a afresh."""

    @settings(max_examples=150, deadline=None)
    @given(gated_schedules(), st.data())
    def test_compiled_dispatch_matches_scan(self, scheds, data):
        """Queries in any order, or a forward sweep over consecutive grid
        times k * dt as the step loop makes them, so that one plan serves
        many queries; x[0] drifts across region bounds on the way."""
        windows = [(b.tau, b.time) for s in scheds for b in s.boundaries
                   if b.verdict is Verdict.OVERLAP_DEADLINE]
        pieces = {p[0] for s in scheds for seg in s.segments if seg.barrier is not None
                  for p in getattr(getattr(seg.barrier, "inner", seg.barrier), "pieces", ())}
        instants = sorted({seg.interval.start for s in scheds for seg in s.segments}
                          | {v for w in windows for v in w} | pieces)
        times = st.sampled_from([t for t in _near(instants) if 0.0 <= t < HORIZON])
        x_fs = st.sampled_from(_near([v for v in REGION_BOUNDS if math.isfinite(v)]))
        sys = data.draw(st.sampled_from([ScalarSys, GrowingGainSys]))
        use_dyn = data.draw(st.booleans())
        if data.draw(st.booleans(), label="sweep"):
            dt = data.draw(st.sampled_from([0.01, 0.05, 0.25]))
            k0 = data.draw(st.integers(0, round(HORIZON / dt) - 1))
            x_f, dx = data.draw(st.floats(-12.0, 12.0)), data.draw(st.sampled_from(
                [0.0, 0.01, -0.02, 0.05]))
            v, dv = data.draw(st.floats(0.0, 40.0)), data.draw(st.sampled_from([0.0, 0.01]))
            queries = [(k * dt, x_f + (k - k0) * dx, v + (k - k0) * dv)
                       for k in range(k0, min(k0 + 800, round(HORIZON / dt)))]
        else:
            queries = data.draw(st.lists(st.tuples(
                times | st.floats(0.0, HORIZON, exclude_max=True),
                x_fs | st.floats(-20.0, 20.0), st.floats(0.0, 40.0)), min_size=1, max_size=8))

        table, want_led = RegionTable.of(scheds), {}
        for t, x_f, v in queries:
            x = (x_f, v)
            dyn = (sys.f(t, x), sys.g(t, x)) if use_dyn else None
            got = conjoin_groups(table, t, x, sys, dyn)
            want = scan_constraints(scheds, t, x, sys, want_led, dyn)
            assert _hexed(got) == _hexed(want)
        assert table.engagements == want_led

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(REGION_BOUNDS + [math.nan]),
                              st.sampled_from(REGION_BOUNDS + [math.nan])), max_size=6),
           st.sampled_from(_near([-10.0, -2.5, 0.0, 2.5, 10.0])
                           + [-math.inf, math.inf, math.nan, -0.0]))
    def test_table_cell_holds_exactly_the_regions_that_admit_x(self, regions, x_f):
        scheds = [SimpleNamespace(region=r, index=i) for i, r in enumerate(regions)]
        table = RegionTable.of(scheds)
        cell = table.cells[bisect_left(table.bounds, x_f)]
        assert [s.index for s in cell] == [s.index for s in scheds
                                           if s.region[0] < x_f <= s.region[1]]


class TestConstraintRowReuse:
    """One `RegionTable` serves a plan's rows, resolved once per plan and g
    object, at every query: with a new gradient or a new g at each query,
    its rows and its m = 1 clip bounds must still equal a fresh
    `cbf_constraint` row's, bit for bit."""

    def _pairs(self, bar, sys, states, t=3.0):
        """(table row, fresh row) at each state, from one table over a
        schedule that keeps bar on [0, 10)."""
        group = TaskGroup("G", ((TimeInterval(0.0, 10.0), PredicateRef(bar.id)),))
        n = len(states[0])
        cfg = ScheduleConfig(domain=StateBox((-1e3,) * n, (1e3,) * n), horizon=10.0)
        table = RegionTable.of([build_schedule(group, registry_with(bar), cfg)])
        box = InputBox((-1e12,), (1e12,))
        for x in states:
            want = cbf_constraint(bar, sys, bar.alpha, t, x)
            # the clips of -1e12 and of 1e12 give the bounds the row leaves
            bounds = clip_groups(table, t, x, sys.f(t, x), sys.g(t, x), -math.inf, *box.lower,
                                 *box.upper)
            assert [v.hex() for v in bounds] == [
                solve_qp(u, [want], box)[0].hex() for u in (-1e12, 1e12)]
            (got,) = conjoin_groups(table, t, x, sys)
            yield got, want

    def test_state_dependent_g(self):
        states = [(x_f, 12.0) for x_f in (0.0, 3.0, -7.5, 3.0, 20.0)]
        pairs = list(self._pairs(vbar(20), GrowingGainSys, states))
        assert all(_hexed([got]) == _hexed([want]) for got, want in pairs)
        assert len({got[0] for got, _ in pairs}) == 4  # a really moves with x

    def test_fresh_gradient(self):
        vp = VehicleParams()
        lead = LeadProfile(15.0, [(0.0, 0.5)])
        h1 = SpacingBarrier(vp, lead)
        sys = make_vehicle_system(vp, lead)
        states = [(0.0, v_f, 60.0) for v_f in (0.0, 14.0, 30.0, 14.0, 2.5)]
        pairs = list(self._pairs(h1, sys, states))
        assert all(_hexed([got]) == _hexed([want]) for got, want in pairs)
        assert len({got[0] for got, _ in pairs}) == 4

    def test_constant_gradient_and_g_derive_a_once(self, monkeypatch):
        resolved = []
        resolve = contracts.resolve_rows
        monkeypatch.setattr(contracts, "resolve_rows",
                            lambda specs, gm: resolved.append(gm) or resolve(specs, gm))
        vp = VehicleParams()
        lead = LeadProfile(15.0)
        sys = make_vehicle_system(vp, lead)
        bar = AffineBarrier("vmax", coeffs=(0.0, -1.0, 0.0), offset=25.0)
        states = [(0.0, v_f, 60.0) for v_f in (0.0, 14.0, 30.0)]
        pairs = list(self._pairs(bar, sys, states))
        assert all(_hexed([got]) == _hexed([want]) for got, want in pairs)
        assert len(resolved) == 1  # one plan and one g object: a is derived once


class TestGridOracleAgreement:
    def test_exact_verdicts_match_grid_on_random_affine_pairs(self):
        rng = np.random.RandomState(7)
        box = StateBox((-2.0, -2.0), (2.0, 2.0))
        xs = np.linspace(-2, 2, 201)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        for _ in range(60):
            cp = rng.uniform(-1, 1, size=2)
            cn = rng.uniform(-1, 1, size=2)
            dp = rng.uniform(-1.5, 1.5)
            dn = rng.uniform(-1.5, 1.5)
            bp = AffineBarrier("p", coeffs=tuple(cp), offset=dp)
            bn = AffineBarrier("n", coeffs=tuple(cn), offset=dn)
            hp = cp[0] * gx + cp[1] * gy + dp
            hn = cn[0] * gx + cn[1] * gy + dn
            subset_grid, witness_grid = grid_set_check(hp, hn)
            res_sub = check_subset(bp, bn, 0.0, box)
            res_int = check_intersection(bp, bn, 0.0, box)
            if res_sub.holds != subset_grid:
                # disagreement only allowed at near-boundary points
                cx = res_sub.counterexample
                assert cx is not None and abs(bn.h(0.0, cx)) < 1e-6
            has_prev = bool((hp >= 1e-6).any())
            if has_prev:
                assert (res_int.witness is not None) == witness_grid


@st.composite
def affine_pairs(draw):
    """A 2-D or 3-D box and two affine forms whose zero levels cross it or
    lie just past it, with some zero coefficients."""
    dim = draw(st.sampled_from([2, 3]))
    lower = draw(st.tuples(*[st.floats(-50.0, 50.0)] * dim))
    upper = tuple(lo + w for lo, w in zip(lower, draw(st.tuples(*[st.floats(0.5, 60.0)] * dim))))

    def form():
        coeffs = draw(st.tuples(*[st.sampled_from([0.0]) | st.floats(-2.0, 2.0)] * dim))
        fracs = draw(st.tuples(*[st.floats(-0.2, 1.2)] * dim))
        return coeffs, -sum(c * (lo + f * (hi - lo))
                            for c, f, lo, hi in zip(coeffs, fracs, lower, upper))

    return StateBox(lower, upper), form(), form()


class TestExactExtremeAgainstDenseGrid:
    """The exact extremes over the cut polytope against a 101-per-axis grid
    that holds every box vertex (numpy's linspace ends on the bounds)."""

    N = 101

    def grid_values(self, box, coeffs, offset):
        axes = np.ix_(*[np.linspace(lo, hi, self.N) for lo, hi in zip(box.lower, box.upper)])
        return np.broadcast_to(sum(c * ax for c, ax in zip(coeffs, axes)) + offset,
                               (self.N,) * box.dim)

    @settings(max_examples=60, deadline=None)
    @given(affine_pairs())
    def test_exact_extremes_bound_the_grid(self, case):
        box, prev_form, next_form = case
        bp = AffineBarrier("p", coeffs=prev_form[0], offset=prev_form[1])
        bn = AffineBarrier("n", coeffs=next_form[0], offset=next_form[1])
        inside = self.grid_values(box, *prev_form) >= 0
        hn = self.grid_values(box, *next_form)
        worst, method = _worst_engage_margin(bp, bn, 0.0, box, self.N)
        witness = check_intersection(bp, bn, 0.0, box, self.N).witness
        assert method == "exact"
        if not inside.any():
            return
        assert worst <= hn[inside].min() + 1e-9
        if witness is None:
            assert hn[inside].max() < 1e-9
        else:
            assert bp.h(0.0, witness) >= -1e-9
            assert bn.h(0.0, witness) >= hn[inside].max() - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(affine_pairs())
    def test_over_the_whole_box_the_extremes_are_grid_points(self, case):
        box, _, next_form = case
        top, bn = TopBarrier(box.dim), AffineBarrier("n", coeffs=next_form[0],
                                                     offset=next_form[1])
        hn = self.grid_values(box, *next_form)
        forms = contracts._forms(top, bn, 0.0, 0.0)
        worst, _ = _worst_engage_margin(top, bn, 0.0, box, self.N)
        best, _, method = contracts._extreme(top, bn, 0.0, 0.0, box, self.N, forms, False)
        assert method == "exact"
        assert math.isclose(worst, hn.min(), rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(best, hn.max(), rel_tol=1e-9, abs_tol=1e-9)


SIGNED_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def memo_cases(draw):
    """A 3-D box and two barriers, each affine or `TopBarrier`, whose bounds,
    coefficients and offsets may be 0.0 or -0.0 and whose cut may miss the
    box (offset -1e6, or a far zero level)."""
    lower = draw(st.tuples(*[SIGNED_ZERO | st.floats(-50.0, 50.0)] * 3))
    upper = tuple(lo + w for lo, w in zip(lower, draw(st.tuples(*[st.floats(0.5, 60.0)] * 3))))

    def barrier(name):
        if draw(st.booleans()):
            return TopBarrier(3)
        coeffs = draw(st.tuples(*[SIGNED_ZERO | st.floats(-2.0, 2.0)] * 3))
        offset = draw(SIGNED_ZERO | st.just(-1e6) | st.floats(-300.0, 300.0))
        return AffineBarrier(name, coeffs=coeffs, offset=offset)

    return StateBox(lower, upper), barrier("p"), barrier("n")


def hexed_extreme(result):
    value, x, method = result
    return value.hex(), None if x is None else tuple(c.hex() for c in x), method


class TestExactExtremeMemo:
    """The memoized exact branch of `_extreme` against the direct enumeration
    (`oracles.exact_extreme_direct`), bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(memo_cases())
    @example((StateBox((-0.0,) * 3, (1.0,) * 3), TopBarrier(3),
              AffineBarrier("n", coeffs=(-0.0, 0.0, -0.0), offset=-0.0)))
    @example((StateBox((0.0,) * 3, (1.0,) * 3),
              AffineBarrier("p", coeffs=(1.0, 0.0, 0.0), offset=-1e6), TopBarrier(3)))
    def test_memo_matches_direct_enumeration(self, case):
        box, h_prev, h_next = case
        forms = contracts._forms(h_prev, h_next, 0.0, 0.0)
        for lowest in (True, False):
            got = contracts._extreme(h_prev, h_next, 0.0, 0.0, box, 101, forms, lowest)
            assert hexed_extreme(got) == hexed_extreme(exact_extreme_direct(box, forms, lowest))
        hits = contracts._exact_extremes.cache_info().hits
        again = contracts._extreme(h_prev, h_next, 0.0, 0.0, box, 101, forms, True)
        assert contracts._exact_extremes.cache_info().hits == hits + 1
        assert hexed_extreme(again) == hexed_extreme(exact_extreme_direct(box, forms, True))

    def test_signed_zero_bounds_get_their_own_entries(self):
        """0.0 == -0.0, yet a witness at the lower corner prints 0 or -0."""
        top, bn = TopBarrier(2), AffineBarrier("n", coeffs=(1.0, 1.0), offset=0.0)
        forms = contracts._forms(top, bn, 0.0, 0.0)
        for zero, shown in ((0.0, "0"), (-0.0, "-0"), (0.0, "0")):
            box = StateBox((zero, zero), (1.0, 1.0))
            _, x, _ = contracts._extreme(top, bn, 0.0, 0.0, box, 101, forms, True)
            assert [f"{c:g}" for c in x] == [shown, shown]

    def test_paper_sec6_enumerates_each_polytope_once(self, monkeypatch):
        """Counted within this build, so a memo warmed by an earlier test
        only lowers the count (paper_sec6: 363 exact checks, 14 polytopes)."""
        polytopes, exact_calls, enumerations = set(), [0], [0]
        real_extreme, real_cut = contracts._extreme, contracts._cut_vertices

        def extreme(h_prev, h_next, t_prev, t_next, domain, resolution, forms, lowest):
            if forms is not None:
                exact_calls[0] += 1
                polytopes.add((contracts._bits(*domain.lower, *domain.upper),
                               contracts._bits(*forms[0][0], forms[0][1])))
            return real_extreme(h_prev, h_next, t_prev, t_next, domain, resolution, forms, lowest)

        def cut_vertices(*args):
            enumerations[0] += 1
            return real_cut(*args)

        monkeypatch.setattr(contracts, "_extreme", extreme)
        monkeypatch.setattr(contracts, "_cut_vertices", cut_vertices)
        build_scenario(load_config("paper_sec6"))
        assert enumerations[0] <= len(polytopes) < exact_calls[0]

    def test_memo_stays_within_its_bound(self):
        box = StateBox((0.0, 0.0), (1.0, 1.0))
        bn = AffineBarrier("n", coeffs=(1.0, -2.0), offset=0.5)
        caches = (contracts._polytope, contracts._exact_extremes)

        def extreme(k):  # a distinct polytope, and so a distinct pair, for each k
            bp = AffineBarrier("p", coeffs=(-1.0, 0.5), offset=0.125 + k / 4096)
            forms = contracts._forms(bp, bn, 0.0, 0.0)
            return contracts._extreme(bp, bn, 0.0, 0.0, box, 101, forms, True), forms

        for k in range(contracts._MEMO_SIZE + 64):
            extreme(k)
            assert all(c.cache_info().currsize <= contracts._MEMO_SIZE for c in caches)
        misses = [c.cache_info().misses for c in caches]
        got, forms = extreme(0)
        assert [c.cache_info().misses for c in caches] == [m + 1 for m in misses]  # evicted
        assert hexed_extreme(got) == hexed_extreme(exact_extreme_direct(box, forms, True))


# ---------------------------------------------------------------------------
# Sampled grid: array evaluation against the scalar reference loops
# ---------------------------------------------------------------------------

VP = VehicleParams()
LEAD = LeadProfile(12.0, [(0.0, 1.0), (10.0, 0.0), (20.0, -2.0), (40.0, 0.5)])
# cycles green [0,20) -> yellow [20,24) -> red [24,40), period 40
SIGNALS = [SignalTimings(200.0, 20.0, 4.0, 16.0), SignalTimings(500.0, 20.0, 4.0, 16.0)]
# per axis: range of the lower bound, largest width (X_f, V_f, X_l scales)
AXES = [(100.0, 550.0, 400.0), (0.0, 30.0, 30.0), (0.0, 700.0, 300.0)]
SWITCHES = [10.0, 20.0, 24.0, 25.0, 40.0, 64.0]  # pieces, lead and signal phases
TIMES = [0.0] + [math.nextafter(ts, to) for ts in SWITCHES
                 for to in (-math.inf, ts, math.inf)]  # before, on and after


class Bowl(Barrier):
    """r(t)^2 - |x - c|^2, r jumping at t=10: evaluated by the base class's
    point-by-point h_grid, at t and one ulp before it."""

    def __init__(self, center, radii):
        super().__init__("bowl")
        self.center, self.radii = center, radii

    def terms(self, t, x):
        r = self.radii[t >= 10.0]
        h = r * r - sum((xi - ci) ** 2 for xi, ci in zip(x, self.center))
        return h, 0.0, tuple(2.0 * (ci - xi) for xi, ci in zip(x, self.center))


class Patchy(Barrier):
    """NaN on every other unit stripe of the last axis, affine elsewhere."""

    def __init__(self, offset):
        super().__init__("patchy")
        self.offset = offset

    def terms(self, t, x):
        h = math.nan if math.floor(x[-1]) % 2 == 0 else self.offset - x[-1]
        return h, 0.0, (0.0,) * (len(x) - 1) + (-1.0,)


class Opaque(Barrier):
    """A template with its affine form hidden, so a check takes the grid path."""

    def __init__(self, inner):
        super().__init__(inner.id)
        self.inner = inner

    def terms(self, t, x):
        return self.inner.terms(t, x)

    def h_grid(self, t, cols):
        return self.inner.h_grid(t, cols)


def _grid_templates():
    base = [
        AffineBarrier("pw", coeffs=(0.0, -1.0, 0.0), pieces=[(0.0, 30.0), (10.0, 15.0)]),
        AffineBarrier("zero", coeffs=(-1.0, 0.0, -0.5), offset=-0.0),
        TopBarrier(3),
        SpacingBarrier(VP, LEAD),
        TrafficSignalBarrier(SIGNALS, VP),
        Bowl((300.0, 10.0, 300.0), (5.0, 400.0)),
        Patchy(20.0),
    ]
    return base + [bar.negate() for bar in base]


GRID_TEMPLATES = _grid_templates()


@st.composite
def grid_cases(draw):
    dim = draw(st.integers(1, 3))
    lower, upper = [], []
    for lo_min, lo_max, width in AXES[:dim]:
        lo = draw(st.floats(lo_min, lo_max))
        lower.append(lo)
        upper.append(lo + draw(st.floats(0.5, width)))
    box = StateBox(tuple(lower), tuple(upper))
    center = tuple(0.5 * (lo + hi) for lo, hi in zip(lower, upper))
    span = math.dist(lower, upper)

    def level(coeffs):
        """An offset whose zero level crosses the box, or lies just past it."""
        fracs = draw(st.tuples(*[st.floats(-0.2, 1.2)] * dim))
        return -sum(c * (lo + f * (hi - lo))
                    for c, f, lo, hi in zip(coeffs, fracs, lower, upper))

    def barrier():
        kinds = ["affine", "pieces", "top", "bowl", "patchy"]
        kind = draw(st.sampled_from(kinds + ["spacing", "signal"] * (dim == 3)))
        if kind == "affine":
            coeffs = draw(st.tuples(*[st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0])] * dim))
            bar = AffineBarrier("lin", coeffs=coeffs, offset=level(coeffs))
        elif kind == "pieces":
            coeffs = (0.0,) * (dim - 1) + (-1.0,)
            bar = AffineBarrier("pw", coeffs=coeffs,
                                pieces=[(t0, level(coeffs)) for t0 in (0.0, 10.0, 25.0)])
        elif kind == "top":
            bar = TopBarrier(dim)
        elif kind == "bowl":
            bar = Bowl(center, draw(st.tuples(*[st.floats(0.0, span)] * 2)))
        elif kind == "patchy":
            bar = Patchy(level((0.0,) * (dim - 1) + (-1.0,)))
        elif kind == "spacing":
            bar = SpacingBarrier(VP, LEAD)
        else:
            bar = TrafficSignalBarrier(SIGNALS, VP)
        return bar.negate() if draw(st.booleans()) else bar

    h_prev, h_next = barrier(), barrier()
    tiny = (0.0, math.nextafter(0.0, math.inf))
    if h_prev.affine_on(*tiny) is not None and h_next.affine_on(*tiny) is not None:
        h_prev = Opaque(h_prev)
    t = draw(st.sampled_from(TIMES) | st.floats(0.0, 80.0))
    resolution = draw(st.sampled_from([1, 2, 3, 7, 21]))
    return h_prev, h_next, t, box, resolution


def _bits(value):
    """Floats as float.hex (tells -0.0 from 0.0 and keeps NaN comparable)."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, float):
        assert type(value) is float, value  # no numpy scalars in results
        return value.hex()
    return value


def _fields(result):
    return tuple(_bits(getattr(result, f.name)) for f in dataclasses.fields(result))


class TestArrayGrid:
    @settings(max_examples=250, deadline=None)
    @given(grid_cases())
    def test_array_checks_equal_scalar_loops(self, case):
        h_prev, h_next, t, box, res = case
        assert (_fields(check_subset(h_prev, h_next, t, box, res))
                == _fields(scalar_check_subset(h_prev, h_next, t, box, res)))
        assert (_fields(check_intersection(h_prev, h_next, t, box, res))
                == _fields(scalar_check_intersection(h_prev, h_next, t, box, res)))
        assert (_bits(_worst_engage_margin(h_prev, h_next, t, box, res))
                == _bits(scalar_worst_engage_margin(h_prev, h_next, t, box, res)))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(GRID_TEMPLATES), st.sampled_from(TIMES) | st.floats(0.0, 80.0),
           st.sampled_from(["right", "left"]),
           st.lists(st.tuples(st.floats(-10.0, 700.0), st.floats(-10.0, 40.0),
                              st.floats(-10.0, 700.0)), min_size=1, max_size=8))
    @example(GRID_TEMPLATES[1], 0.0, "right", [(0.0, -1.0, 0.0)])  # sums to +0.0
    @example(GRID_TEMPLATES[4], 24.0, "left", [(150.0, 5.0, 0.0)])  # yellow before red
    @example(GRID_TEMPLATES[5], 10.0, "left", [(300.0, 10.0, 300.0)])  # radius before jump
    def test_h_grid_equals_h_at_every_point(self, bar, t, side, points):
        if side == "left":  # h(t-) is h one ulp before t
            t = math.nextafter(t, -math.inf)
        cols = tuple(np.array(col) for col in zip(*points))
        got = np.broadcast_to(bar.h_grid(t, cols), (len(points),))
        assert [float(v).hex() for v in got] == [bar.h(t, p).hex() for p in points]

    def test_shipped_templates_never_evaluate_point_by_point(self, monkeypatch):
        calls = []
        for cls in (SpacingBarrier, AffineBarrier):
            def counted(self, t, x, _h=cls.h):
                calls.append(type(self).__name__)
                return _h(self, t, x)
            monkeypatch.setattr(cls, "h", counted)
        h1 = SpacingBarrier(VP, LeadProfile(10.0))
        vmax = AffineBarrier("vmax10", coeffs=(0.0, -1.0, 0.0), offset=10.0)
        box = StateBox((-1000.0, 0.0, -1000.0), (100000.0, 60.0, 1000000.0))
        res = check_intersection(h1, vmax, 30.0, box, 101)
        assert res.method == "sampled(101)" and res.witness is not None
        assert calls == []


class TestGridResolution:
    @pytest.mark.parametrize("resolution", [0, -3, 2.5])
    def test_schedule_config_rejects_bad_resolution(self, resolution):
        with pytest.raises(ContractError, match=f"got {resolution}"):
            ScheduleConfig(domain=DOM, horizon=10.0, grid_resolution=resolution)

    @pytest.mark.parametrize("resolution", [0, -3, 2.5])
    def test_grid_rejects_bad_resolution(self, resolution):
        h1 = SpacingBarrier(VP, LEAD)
        vmax = AffineBarrier("vmax", coeffs=(0.0, -1.0, 0.0), offset=10.0)
        box = StateBox((0.0, 0.0, 0.0), (100.0, 30.0, 200.0))
        with pytest.raises(ContractError, match=f"got {resolution}"):
            _grid_points(box, resolution)
        with pytest.raises(ContractError, match=f"got {resolution}"):
            check_subset(h1, vmax, 5.0, box, resolution)
