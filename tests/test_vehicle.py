import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    bisect_dispatch,
    closed_form_bound,
    constraint_upper_bound,
    finite_diff_check,
    friction_force,
)
from stlcbf.barriers import (
    AlphaFn,
    BarrierRegistry,
    FcbfParams,
    StateBox,
    cbf_constraint,
    fcbf_constraint,
    gamma_for_deadline,
    step_lookup,
)
from stlcbf.config import load_config
from stlcbf.contracts import (
    RegionTable,
    ScheduleConfig,
    Verdict,
    build_schedule,
    conjoin_groups,
)
from stlcbf.pipeline import run_pipeline
from stlcbf.stl import PredicateRef, TaskGroup, TimeInterval
from stlcbf.vehicle import (
    GREEN,
    LeadProfile,
    PHASES,
    RED,
    SignalTimings,
    SpacingBarrier,
    SpeedLimitSchedule,
    TrafficSignalBarrier,
    VehicleError,
    VehicleParams,
    YELLOW,
    active_phase_index,
    build_signal_contracts,
    generate_signal_plan,
    make_vehicle_system,
    speed_limit_barrier,
)

VP = VehicleParams()  # published values: m=1650, c=(0.1, 5, 0.25), a_max=3.92
DOMAIN = StateBox((-1000.0, 0.0, -1000.0), (1e5, 60.0, 1e6))


class TestParams:
    def test_negative_mass_rejected(self):
        with pytest.raises(VehicleError, match="mass"):
            VehicleParams(mass=-1.0)

    def test_braking_capped_by_gravity(self):
        with pytest.raises(VehicleError, match="a_max"):
            VehicleParams(a_max=12.0)


class TestFriction:
    @pytest.mark.parametrize("v,expected", [(0.0, 0.1), (20.0, 200.1), (10.0, 75.1)])
    def test_values(self, v, expected):
        assert friction_force(v, VP) == pytest.approx(expected)


class TestLeadProfile:
    def test_piecewise_velocity_and_accel(self):
        lead = LeadProfile(0.0, [(0.0, 1.0), (10.0, 0.0)])
        assert lead.velocity(5.0) == pytest.approx(5.0)
        assert lead.velocity(20.0) == pytest.approx(10.0)
        assert lead.cached_motion(5.0)[1] == 1.0 and lead.cached_motion(15.0)[1] == 0.0

    def test_braking_clamps_at_standstill(self):
        lead = LeadProfile(10.0, [(0.0, -2.0), (100.0, 1.0)])
        assert lead.velocity(5.0) == pytest.approx(0.0)
        assert lead.velocity(50.0) == 0.0
        assert lead.cached_motion(10.0)[1] == 0.0  # configured braking has no effect at rest
        assert lead.velocity(101.0) == pytest.approx(1.0)
        assert lead._times == [0.0, 5.0, 100.0]  # at rest from t=5 until t=100

    def test_negative_initial_speed_rejected(self):
        with pytest.raises(VehicleError):
            LeadProfile(-1.0)


def _lead(which):
    """Two profiles, each with a standstill breakpoint: the first brakes to
    rest at t=30 and pulls away at 40, the second stops at t=5."""
    if which == 0:
        return LeadProfile(3.0, [(0.0, 1.2), (10.0, 0.0), (20.0, -1.5), (40.0, 0.5)])
    return LeadProfile(10.0, [(0.0, -2.0), (100.0, 1.0)])


class TestLeadCache:
    """`cached_motion` serves V_l and a_l from one lookup of the piece, kept
    for the last t; it must equal `velocity` and the piece's acceleration
    (`step_lookup` on the breakpoints) bit for bit, in any order of
    queries."""

    def test_standstill_breakpoints_are_pieces(self):
        assert 30.0 in _lead(0)._times and 5.0 in _lead(1)._times

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 1), st.lists(
        st.tuples(st.sampled_from(["on", "below", "above", "repeat", "back", "free"]),
                  st.integers(0, 9), st.floats(0.0, 150.0)), min_size=1, max_size=12))
    def test_cached_motion_equals_velocity_and_accel(self, which, queries):
        lead = _lead(which)
        breakpoints = lead._times
        t = 0.0
        for kind, i, free in queries:
            bp = breakpoints[i % len(breakpoints)]
            t = {"on": bp, "below": math.nextafter(bp, -math.inf),
                 "above": math.nextafter(bp, math.inf), "repeat": t, "back": t - free,
                 "free": free}[kind]
            v, a = lead.cached_motion(t)
            accel = step_lookup(lead._times, lead._bps, t)[2]
            assert (v.hex(), a.hex()) == (lead.velocity(t).hex(), accel.hex()), (kind, t)


class TestSpacingBarrier:
    def test_equal_speeds_cancel_quadratic_term(self):
        lead = LeadProfile(20.0)
        bar = SpacingBarrier(VP, lead)
        assert bar.h(0.0, (0.0, 20.0, 50.0)) == pytest.approx(25.0)

    def test_boundary_state(self):
        lead = LeadProfile(20.0)
        bar = SpacingBarrier(VP, lead)
        # X_r = t_hw*V_f + S0 with V_f = V_l puts h exactly at zero
        assert bar.h(0.0, (0.0, 20.0, 25.0)) == pytest.approx(0.0)

    def test_gradient_matches_finite_differences(self):
        lead = LeadProfile(12.0, [(0.0, 0.7), (30.0, -0.4)])
        bar = SpacingBarrier(VP, lead)
        assert finite_diff_check(bar, 7.3, (11.0, 17.0, 95.0)) < 1e-8

    def test_lead_breakpoint_flagged_non_smooth(self):
        # dh/dt = V_l a_l / a_max jumps where a_l does: a kink in t at t=30
        lead = LeadProfile(12.0, [(0.0, 0.7), (30.0, -0.4)])
        bar = SpacingBarrier(VP, lead)
        for t in (30.0, 30.0 - 5e-7, 30.0 + 5e-7):
            assert finite_diff_check(bar, t, (11.0, 17.0, 95.0)) is None
        assert finite_diff_check(bar, 30.0 + 2e-6, (11.0, 17.0, 95.0)) < 1e-8

    def test_dh_dt_tracks_lead_acceleration(self):
        lead = LeadProfile(12.0, [(0.0, 0.7)])
        bar = SpacingBarrier(VP, lead)
        assert bar.terms(4.0, (0.0, 5.0, 80.0))[1] == pytest.approx(
            lead.velocity(4.0) * 0.7 / VP.a_max)


class TestSpeedLimitBarrier:
    def _limits(self):
        return SpeedLimitSchedule([(0.0, 30.0), (50.0, 25.0), (100.0, 10.0)], 150.0)

    def test_subtraction(self):
        bar = speed_limit_barrier(self._limits(), VP)
        assert bar.h(10.0, (0.0, 20.0, 0.0)) == pytest.approx(10.0)

    def test_half_open_switch(self):
        bar = speed_limit_barrier(self._limits(), VP)
        x = (0.0, 20.0, 0.0)
        assert bar.h(49.99, x) == pytest.approx(10.0)
        assert bar.h(50.0, x) == pytest.approx(5.0)
        assert bar.h(50.0, x, "left") == pytest.approx(10.0)

    def test_drop_jump_size(self):
        bar = speed_limit_barrier(self._limits(), VP)
        x = (0.0, 0.0, 0.0)
        assert bar.h(100.0, x) - bar.h(100.0, x, "left") == pytest.approx(-15.0)

    def test_alpha_is_one_over_beta(self):
        bar = speed_limit_barrier(self._limits(), VP)
        assert bar.alpha.kappa == pytest.approx(1.0 / VP.beta)

    def test_overlapping_rows_rejected(self):
        with pytest.raises(VehicleError):
            SpeedLimitSchedule([(0.0, 30.0), (0.0, 25.0)], 100.0)

    def test_unordered_rows_rejected(self):
        with pytest.raises(VehicleError):
            SpeedLimitSchedule([(0.0, 30.0), (60.0, 25.0), (50.0, 10.0)], 100.0)


def two_signals():
    # signal 1 at 200 m: green [0,30) yellow [30,35) red [35,60) ...
    s1 = SignalTimings(200.0, 30.0, 5.0, 25.0, offset=0.0)
    # signal 2 at 400 m: red [0,20) green [20,50) yellow [50,55) red [55,...)
    s2 = SignalTimings(400.0, 30.0, 5.0, 25.0, offset=35.0)
    return [s1, s2]


class TestSignalBarrier:
    def test_red_phase_uses_own_stop_line(self):
        bar = TrafficSignalBarrier(two_signals(), VP)
        # t=40: signal 1 red; X_f=100 V_f=10: h = 200-100-20-5
        assert bar.h(40.0, (100.0, 10.0, 0.0)) == pytest.approx(75.0)

    def test_green_phase_uses_next_stop_line(self):
        bar = TrafficSignalBarrier(two_signals(), VP)
        assert bar.h(5.0, (100.0, 10.0, 0.0)) == pytest.approx(275.0)

    def test_crossing_into_red_next_is_continuous(self):
        bar = TrafficSignalBarrier(two_signals(), VP)
        # t=5: signal 1 green, signal 2 red: before/after crossing line 1 the
        # governing stop line is P2 either way
        before = bar.h(5.0, (199.999, 10.0, 0.0))
        after = bar.h(5.0, (200.001, 10.0, 0.0))
        assert after - before == pytest.approx(-0.002)

    def test_crossing_into_green_next_jumps_up(self):
        # t=25: signal 2 green; crossing signal 1's line hands off to
        # signal 2's successor, which does not exist: vacuous
        bar = TrafficSignalBarrier(two_signals(), VP)
        assert bar.h(25.0, (200.001, 10.0, 0.0)) == math.inf

    def test_exact_stop_line_belongs_to_incoming_segment(self):
        bar = TrafficSignalBarrier(two_signals(), VP)
        # X_f == P_1 still reads signal 1 (half-open convention)
        assert bar.h(40.0, (200.0, 0.0, 0.0)) == pytest.approx(-5.0)

    def test_past_last_signal_is_vacuous(self):
        bar = TrafficSignalBarrier(two_signals(), VP)
        assert bar.h(0.0, (500.0, 10.0, 0.0)) == math.inf
        assert bar.terms(0.0, (500.0, 10.0, 0.0))[2] == (0.0, 0.0, 0.0)

    def test_gradient_matches_finite_differences(self):
        bar = TrafficSignalBarrier(two_signals(), VP)
        assert finite_diff_check(bar, 40.0, (100.0, 10.0, 0.0)) < 1e-8

    def test_phase_switch_flagged_non_smooth(self):
        bar = TrafficSignalBarrier(two_signals(), VP)
        # signal 1 turns red at t=35: h jumps from line 2 to line 1
        assert finite_diff_check(bar, 35.0, (100.0, 10.0, 0.0)) is None
        assert finite_diff_check(bar, 20.0, (100.0, 10.0, 0.0)) < 1e-8
        # past the last stop line the barrier is vacuous: h = +inf
        assert finite_diff_check(bar, 10.0, (500.0, 10.0, 0.0)) is None
        assert finite_diff_check(bar, 10.0, (400.0 - 1e-7, 10.0, 0.0)) is None

    def test_stop_line_crossing_flagged_non_smooth(self):
        # signals 1 and 2 are green at t=28: crossing line 1 moves h from
        # line 2 to line 3
        bar = TrafficSignalBarrier(two_signals() + [SignalTimings(600.0, 30.0, 5.0, 25.0)], VP)
        assert finite_diff_check(bar, 28.0, (200.0, 10.0, 0.0)) is None
        assert finite_diff_check(bar, 28.0, (150.0, 10.0, 0.0)) < 1e-8


class TestGenerator:
    def test_deterministic_and_increasing(self):
        a = generate_signal_plan(7, count=10)
        b = generate_signal_plan(7, count=10)
        assert [s.position for s in a] == [s.position for s in b]
        pos = [s.position for s in a]
        assert pos == sorted(pos)
        gaps = [q - p for p, q in zip(pos, pos[1:])]
        assert all(300.0 <= g <= 800.0 for g in gaps)
        assert len({s.period for s in a}) == len(a)  # unequal cycle times


class TestClosedFormBounds:
    def test_h1_bound_reference_value(self):
        # X_r=50, V_f=V_l=20, a_l=0: (1650*3.92/23.92)*25 + 200.1 ~ 6960
        x = (0.0, 20.0, 50.0)
        val = closed_form_bound("h1", 0.0, x, VP, v_l=20.0, a_l=0.0)
        assert val == pytest.approx(6960.0, abs=0.2)

    def test_h1_matches_generic_cbf(self):
        lead = LeadProfile(20.0, [(0.0, 0.5)])
        bar = SpacingBarrier(VP, lead)
        sys = make_vehicle_system(VP, lead)
        for t, x in [(0.0, (0.0, 20.0, 50.0)), (3.0, (10.0, 14.0, 80.0)),
                     (7.0, (5.0, 0.5, 90.0))]:
            c = cbf_constraint(bar, sys, bar.alpha, t, x)
            val = closed_form_bound("h1", t, x, VP, v_l=lead.velocity(t),
                                    a_l=lead.cached_motion(t)[1])
            assert constraint_upper_bound(c) == pytest.approx(val, rel=1e-12)

    def test_rbar_matches_generic_cbf(self):
        lead = LeadProfile(0.0)
        sys = make_vehicle_system(VP, lead)
        bar = TrafficSignalBarrier(two_signals(), VP)
        t, x = 5.0, (100.0, 10.0, 0.0)  # green: stop line P2=400
        c = cbf_constraint(bar, sys, bar.alpha, t, x)
        val = closed_form_bound("rbar", t, x, VP, p_next=400.0)
        assert constraint_upper_bound(c) == pytest.approx(val, rel=1e-12)

    def test_v_bound_equals_scaled_alpha_construction(self):
        lead = LeadProfile(0.0)
        sys = make_vehicle_system(VP, lead)
        limits = SpeedLimitSchedule([(0.0, 25.0)], 100.0)
        bar = speed_limit_barrier(limits, VP)
        t, x = 10.0, (0.0, 20.0, 0.0)
        c = cbf_constraint(bar, sys, bar.alpha, t, x)
        val = closed_form_bound("v", t, x, VP, v_max=25.0)
        assert constraint_upper_bound(c) == pytest.approx(val, rel=1e-12)

    def test_fcbf_bounds_match_generic_with_deadline_gammas(self):
        lead = LeadProfile(0.0)
        sys = make_vehicle_system(VP, lead)
        # speed drop engaged at V_f=25 against limit 10, budget 5 s
        limits = SpeedLimitSchedule([(0.0, 10.0)], 100.0)
        bar = speed_limit_barrier(limits, VP)
        x = (0.0, 25.0, 0.0)
        gamma = gamma_for_deadline(bar.h(0.0, x), 0.91, 5.0)
        c = fcbf_constraint(bar, sys, FcbfParams(0.91, gamma), 0.0, x)
        val = closed_form_bound("v_fcbf", 0.0, x, VP, v_max=10.0,
                                gamma=gamma, rho=0.91)
        assert constraint_upper_bound(c) == pytest.approx(val, rel=1e-12)
        # signal red set engaged during yellow, budget = yellow duration
        sig_bar = TrafficSignalBarrier(two_signals(), VP)
        t, x = 33.0, (150.0, 12.0, 0.0)  # yellow of signal 1
        h_red = 200.0 - x[0] - VP.beta * x[1] - VP.s0
        gamma_r = gamma_for_deadline(h_red, 0.9, 5.0)
        from stlcbf.barriers import AffineBarrier
        red = AffineBarrier("red1", coeffs=(-1.0, -VP.beta, 0.0), offset=200.0 - VP.s0)
        c2 = fcbf_constraint(red, sys, FcbfParams(0.9, gamma_r), t, x)
        val2 = closed_form_bound("r_fcbf", t, x, VP, p_signal=200.0,
                                 gamma=gamma_r, rho=0.9)
        assert constraint_upper_bound(c2) == pytest.approx(val2, rel=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(VehicleError, match="unknown bound kind"):
            closed_form_bound("nope", 0.0, (0.0, 0.0, 0.0), VP)


class TestSignalContracts:
    def _build(self, horizon=120.0):
        reg = BarrierRegistry()
        sigs = two_signals()
        reg.register(TrafficSignalBarrier(sigs, VP))
        cfg = ScheduleConfig(domain=DOMAIN, horizon=horizon, rho=0.9, t_conv=5.0)
        scheds = build_signal_contracts(sigs, VP, reg, cfg, rho_signal=0.9, label="G3")
        return reg, sigs, scheds

    def test_one_schedule_per_signal_gated_by_stop_lines(self):
        _, _, scheds = self._build()
        assert [s.label for s in scheds] == ["G3.s1", "G3.s2"]
        assert [s.region for s in scheds] == [(-math.inf, 200.0), (200.0, 400.0)]

    def test_red_onsets_get_yellow_windows(self):
        _, sigs, scheds = self._build()
        sched1 = scheds[0]
        overlaps = [b for b in sched1.boundaries if b.verdict is Verdict.OVERLAP_DEADLINE]
        # signal 1 reds start at 35 and 95; windows are the yellow phases
        assert [(b.tau, b.time) for b in overlaps] == [(30.0, 35.0), (90.0, 95.0)]
        assert all(b.t_target == pytest.approx(5.0) for b in overlaps)

    def test_green_onsets_are_subset(self):
        _, sigs, scheds = self._build()
        sched1 = scheds[0]
        subs = [b for b in sched1.boundaries if b.verdict is Verdict.SUBSET]
        assert any(b.time == pytest.approx(60.0) for b in subs)

    def test_signal_config_keeps_every_base_field(self):
        reg = BarrierRegistry()
        cfg = ScheduleConfig(domain=DOMAIN, horizon=120.0, rho=0.5, t_conv=5.0,
                             gamma_min=0.25, grid_resolution=7)
        scheds = build_signal_contracts(two_signals(), VP, reg, cfg, rho_signal=0.9, label="G3")
        overlaps = [b for s in scheds for b in s.boundaries
                    if b.verdict is Verdict.OVERLAP_DEADLINE]
        assert overlaps
        assert all(b.gamma_min == 0.25 and b.rho == 0.9 for b in overlaps)

    def test_dispatch_follows_ego_position(self):
        reg, sigs, scheds = self._build()
        lead = LeadProfile(0.0)
        sys = make_vehicle_system(VP, lead)
        # inside segment 1 at a red of signal 1
        cons = conjoin_groups(RegionTable.of(scheds), 40.0, (100.0, 10.0, 0.0), sys)
        assert [c.label for c in cons] == ["cbf:sig1.red"]
        # past signal 1, during signal 2's red (t=10): uses sig2's stop line
        cons2 = conjoin_groups(RegionTable.of(scheds), 10.0, (250.0, 10.0, 0.0), sys)
        assert [c.label for c in cons2] == ["cbf:sig2.red"]
        # past both signals: nothing
        assert conjoin_groups(RegionTable.of(scheds), 10.0, (450.0, 10.0, 0.0), sys) == []

    def test_last_signal_not_red_is_vacuous(self):
        reg, sigs, scheds = self._build()
        lead = LeadProfile(0.0)
        sys = make_vehicle_system(VP, lead)
        # t=25: signal 2 green, ego between the lines: no constraint
        assert conjoin_groups(RegionTable.of(scheds), 25.0, (250.0, 10.0, 0.0), sys) == []

    def test_case_study_instant_yields_four_constraints(self):
        # instant inside a yellow phase and inside a speed interval (outside
        # its convergence window): h1 + rbar + red FCBF + speed limit
        reg, sigs, scheds = self._build()
        lead = LeadProfile(20.0)
        reg.register(SpacingBarrier(VP, lead))
        from stlcbf.barriers import AffineBarrier
        reg.register(AffineBarrier("vmax25", coeffs=(0.0, -1.0, 0.0), offset=25.0,
                                   alpha=AlphaFn(1.0 / VP.beta)))
        sys = make_vehicle_system(VP, lead)
        cfg = ScheduleConfig(domain=DOMAIN, horizon=120.0, rho=0.91, t_conv=5.0)
        g1 = build_schedule(TaskGroup("G1", ((TimeInterval(0.0, 120.0), PredicateRef("h1")),)),
                            reg, cfg)
        g2 = build_schedule(TaskGroup("G2", ((TimeInterval(0.0, 120.0), PredicateRef("vmax25")),)),
                            reg, cfg)
        t, x = 33.0, (100.0, 12.0, 500.0)  # yellow of signal 1
        assert sigs[0].phase(t) == YELLOW
        cons = conjoin_groups(RegionTable.of([g1, g2, *scheds]), t, x, sys)
        labels = [c.label for c in cons]
        assert labels == ["cbf:h1", "cbf:vmax25", "cbf:sig1.notred",
                          "fcbf:sig1.red"]

    def test_assumption_checked_for_active_signal_only(self):
        reg, sigs, scheds = self._build()
        entries = [s.assumption_margin((100.0, 10.0, 0.0)) for s in scheds]
        assert entries[0] is not None and entries[1] is None
        # past both signals nothing is assumed
        assert all(s.assumption_margin((450.0, 0.0, 0.0)) is None for s in scheds)


@st.composite
def signal_plans(draw):
    """1-4 signals with increasing stop lines and unsynchronized cycles."""
    n = draw(st.integers(1, 4))
    gaps = draw(st.lists(st.floats(1.0, 400.0), min_size=n, max_size=n))
    signals, pos = [], 0.0
    for gap in gaps:
        pos += gap
        g, y, r = (draw(st.floats(lo, hi)) for lo, hi in ((5.0, 40.0), (1.0, 6.0), (5.0, 30.0)))
        signals.append(SignalTimings(pos, g, y, r, draw(st.floats(0.0, g + y + r - 1e-6))))
    return signals


class TestSignalDispatchDifferential:
    """`conjoin_groups` over the position-gated signal schedules against the
    former bisect_left dispatch of one schedule per ego position."""

    HORIZON = 120.0

    @settings(max_examples=100, deadline=None)
    @given(signal_plans(), st.data())
    def test_gated_schedules_match_bisect_dispatch(self, signals, data):
        reg = BarrierRegistry()
        cfg = ScheduleConfig(domain=DOMAIN, horizon=self.HORIZON, rho=0.9, t_conv=5.0)
        scheds = build_signal_contracts(signals, VP, reg, cfg, rho_signal=0.9, label="G3")
        positions = [s.position for s in signals]
        sys = make_vehicle_system(VP, LeadProfile(10.0))

        x_f = data.draw(
            st.sampled_from(positions)  # exactly on a line
            | st.sampled_from(positions).map(lambda p: math.nextafter(p, math.inf))
            | st.sampled_from(positions).map(lambda p: math.nextafter(p, -math.inf))
            | st.floats(-500.0, positions[0])  # before the first line
            | st.floats(positions[0], positions[-1])  # between lines
            | st.floats(positions[-1], positions[-1] + 500.0)  # past the last
        )
        switches = sorted({t for sig in signals for cyc in sig.cycles_over(self.HORIZON)
                           for t in cyc if 0.0 <= t < self.HORIZON})
        t = data.draw(st.sampled_from(switches) | st.floats(0.0, self.HORIZON, exclude_max=True))
        x = (x_f, data.draw(st.floats(0.0, 40.0)), 1e4)
        dyn = (sys.f(t, x), sys.g(t, x))

        got_led, want_led = {}, {}
        got = conjoin_groups(RegionTable.of(scheds), t, x, sys, got_led, dyn)
        want = bisect_dispatch(scheds, positions, t, x, sys, want_led, dyn)
        assert [(c.label, [a.hex() for a in c.a], c.b.hex()) for c in got] == \
            [(c.label, [a.hex() for a in c.a], c.b.hex()) for c in want]
        assert sorted(got_led.items()) == sorted(want_led.items())

        entry = [s.assumption_margin(x) for s in scheds]
        k = bisect_left(positions, x_f)
        assert entry == [scheds[k].assumption_margin(x) if i == k else None
                         for i in range(len(scheds))]


class TestPhaseQueries:
    def test_phase_cycle(self):
        s = SignalTimings(100.0, 10.0, 2.0, 8.0, offset=0.0)
        assert s.phase(0.0) == GREEN
        assert s.phase(10.0) == YELLOW
        assert s.phase(12.0) == RED
        assert s.phase(20.0) == GREEN
        assert s.phase(20.0, side="left") == RED

    def test_invalid_durations(self):
        with pytest.raises(VehicleError):
            SignalTimings(100.0, 0.0, 2.0, 8.0)


@pytest.fixture(scope="module")
def reference_run():
    """The paper_sec6 mission, run to its end."""
    out = run_pipeline(load_config("paper_sec6"))
    assert out.exit_code == 0
    return out


def assert_same_floats(got, want, context):
    """Bit-for-bit equality, as float.hex compares (it tells -0.0 from 0.0);
    the int64 views make the comparison fast, float.hex names a mismatch."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    same = got.view(np.int64) == want.view(np.int64)
    if not same.all():
        i = int(np.argmin(same))
        raise AssertionError(f"{context}: row {i}: {got[i].hex()} != {want[i].hex()}")


class TestArrayEvaluator:
    """`h_grid` with an array t against the scalar `h(t, x, side)`, point by
    point and bit for bit, over the reference mission's trace."""

    @staticmethod
    def _extra_rows(signals, horizon):
        """Rows at phase-switch instants, with X_f on, and one ulp either side
        of, every stop line."""
        switches = sorted({t for sig in signals for cyc in sig.cycles_over(horizon)
                           for t in cyc if 0.0 <= t <= horizon})
        lines = [p for sig in signals for p in (
            math.nextafter(sig.position, -math.inf), sig.position,
            math.nextafter(sig.position, math.inf))]
        rows = [(t, (x_f, 7.5, x_f + 40.0)) for t in switches for x_f in lines[::4]]
        rows += [(t, (x_f, 12.0, 9e3)) for t in switches[::7] for x_f in lines]
        return rows

    def test_every_registered_barrier_matches_scalar_h(self, reference_run):
        """Each barrier over every trace row on the right side (the side the
        trace columns and the monitor read); both sides of it and of its
        negation over every 25th row. Both sets add the switch rows."""
        registry, trace = reference_run.bundle.registry, reference_run.trace
        extra = self._extra_rows(registry.get("hpos").signals, trace.ts[-1])
        states = list(map(tuple, trace.states.tolist()))
        every = (list(trace.ts) + [t for t, _ in extra], states + [x for _, x in extra])
        some = (list(trace.ts[::25]) + every[0][len(trace.ts):],
                states[::25] + every[1][len(trace.ts):])

        def check(bar, side, rows):
            ts, states = rows
            got = np.broadcast_to(bar.h_grid(np.array(ts), np.array(states).T, side),
                                  (len(ts),))
            assert_same_floats(got, [bar.h(t, x, side) for t, x in zip(ts, states)],
                               f"{bar} side={side}")

        ids = list(registry._by_id)
        assert {"h1", "hv", "hpos", "vmax30", "vmax25", "vmax10", "sig1.red",
                "sig1.notred", "sig10.red"} <= set(ids)
        for bid in ids:
            bar, neg = registry.get(bid), registry.resolve(PredicateRef(bid, negated=True))
            check(bar, "right", every)
            for b, side in ((bar, "left"), (neg, "right"), (neg, "left")):
                check(b, side, some)

    def test_signal_phases_match_scalar_lookups(self, reference_run):
        trace = reference_run.trace
        signals = reference_run.bundle.registry.get("hpos").signals
        positions = [s.position for s in signals]
        extra = self._extra_rows(signals, trace.ts[-1])
        ts = list(trace.ts) + [t for t, _ in extra]
        x_f = [x[0] for x in trace.states] + [x[0] for _, x in extra]
        k = np.searchsorted(positions, x_f)
        for side in ("right", "left"):
            got = np.take(PHASES, active_phase_index(signals, np.array(ts), k, side))
            want = [signals[i].phase(t, side) if i < len(signals) else "none"
                    for t, i in zip(ts, (bisect_left(positions, x) for x in x_f))]
            assert got.tolist() == want

    def test_h_grid_broadcasts_t_with_cols(self, reference_run):
        """An array t on its own axis against three state axes: every point of
        the 4-D grid equals the scalar h there."""
        registry = reference_run.bundle.registry
        signals = registry.get("hpos").signals
        t = np.array([0.0, 50.0, 100.0] + [cyc[2] for cyc in signals[1].cycles_over(60.0)])
        axes = (t.reshape(-1, 1, 1, 1),
                np.array([s.position for s in signals[:4]] + [1e4]).reshape(1, -1, 1, 1),
                np.array([0.0, 9.5]).reshape(1, 1, -1, 1),
                np.array([200.0, 2500.0]).reshape(1, 1, 1, -1))
        full = np.broadcast_arrays(*axes)
        for bid in ("h1", "hv", "hpos", "sig2.red"):
            for bar in (registry.get(bid), registry.resolve(PredicateRef(bid, negated=True))):
                for side in ("right", "left"):
                    got = np.broadcast_to(bar.h_grid(axes[0], axes[1:], side), full[0].shape)
                    want = [bar.h(tt, (a, b, c), side)
                            for tt, a, b, c in zip(*(f.ravel().tolist() for f in full))]
                    assert_same_floats(got.ravel(), want, f"{bar} side={side}")

    def test_trace_columns_match_per_row_values(self, reference_run):
        """Each margin and channel column against the value a per-step
        evaluation gives at that row."""
        trace, bundle = reference_run.trace, reference_run.bundle
        registry, lead, limits = bundle.registry, bundle.cfg.lead, bundle.cfg.limits
        signals = registry.get("hpos").signals
        positions = [s.position for s in signals]
        rows = list(zip(trace.ts, trace.states))
        for bar in bundle.margin_barriers:
            assert bar is registry.get(bar.id)
            assert_same_floats(trace.margins[bar.id], [bar.h(t, x) for t, x in rows], bar.id)
        assert_same_floats(trace.extras["V_l"], [lead.cached_motion(t)[0] for t, _ in rows],
                           "V_l")
        assert_same_floats(trace.extras["V_max"], [limits.value(t) for t, _ in rows], "V_max")
        active = [bisect_left(positions, x[0]) for _, x in rows]
        assert_same_floats(trace.extras["active_signal"],
                           [k + 1.0 if k < len(signals) else 0.0 for k in active], "active")
        assert trace.extras["signal_phase"].tolist() == [
            signals[k].phase(t) if k < len(signals) else "none"
            for (t, _), k in zip(rows, active)]

    def test_step_lookups_at_switch_instants(self, reference_run):
        bundle = reference_run.bundle
        lead, limits, hv = bundle.cfg.lead, bundle.cfg.limits, bundle.registry.get("hv")
        t_arr = np.array([t + d for t in lead._times + [t0 for t0, _ in hv.pieces]
                          for d in (-1e-9, 0.0, 1e-9)])
        assert_same_floats(lead.velocity(t_arr), [lead.velocity(float(t)) for t in t_arr],
                           "V_l")
        assert_same_floats(limits.value(t_arr), [limits.value(float(t)) for t in t_arr],
                           "V_max")
        origin = np.zeros((3, len(t_arr)))  # h = offset(t) there
        for side in ("right", "left"):
            assert_same_floats(hv.h_grid(t_arr, origin, side),
                               [hv.h(float(t), (0.0, 0.0, 0.0), side) for t in t_arr], side)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, 1e6), st.floats(1e-3, 1e3))
    @example(0.0, 45.5)
    @example(91.0, 45.5)  # a whole number of periods: c - 1e-12 < 0
    @example(5e-13, 45.5)
    def test_python_mod_equals_np_remainder(self, t, period):
        """SignalTimings.phase's two remainders, the left side's included."""
        c = t % period
        got = np.remainder(np.array([t]), period)
        assert got[0].hex() == c.hex()
        assert np.remainder(got - 1e-12, period)[0].hex() == ((c - 1e-12) % period).hex()
