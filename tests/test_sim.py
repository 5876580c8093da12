import math
import tracemalloc
from bisect import bisect_left
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import qp_active_steps, reference_rk4
from stlcbf import barriers, contracts, pipeline, sim, vehicle
from stlcbf.barriers import AffineBarrier, BarrierRegistry, StateBox
from stlcbf.config import load_config, parse_config
from stlcbf.contracts import ScheduleConfig, Verdict, build_schedule
from stlcbf.qp import InputBox, QpError, solve_qp
from stlcbf.sim import (
    ControlSystem,
    InitialConditionError,
    SimError,
    integrate_step,
    run_simulation,
    step_count,
)
from stlcbf.stl import PredicateRef, TaskGroup, TimeInterval
from stlcbf.vehicle import (
    LeadProfile, SpeedLimitSchedule, VehicleParams, make_vehicle_system,
)


class TestIntegrateStep:
    def test_double_integrator_exact(self, double_integrator):
        # polynomial dynamics: RK4 reproduces x=(ut^2/2, ut) exactly
        out = integrate_step(double_integrator, 0.0, (0.0, 0.0), (1.0,), 1.0)
        assert out == pytest.approx((0.5, 1.0))

    def test_zero_drift_zero_input_fixed_point(self):
        sys = ControlSystem(n=1, m=1, f=lambda t, x: (0.0,),
                            g=lambda t, x: ((1.0,),),
                            domain=StateBox((-10.0,), (10.0,)))
        assert integrate_step(sys, 0.0, (3.0,), (0.0,), 0.5) == (3.0,)

    def test_vehicle_step_halving_self_consistent(self):
        vp = VehicleParams()
        lead = LeadProfile(15.0, [(0.0, 0.3)])
        sys = make_vehicle_system(vp, lead)
        x = (10.0, 12.0, 60.0)
        u = (800.0,)
        coarse = integrate_step(sys, 0.0, x, u, 0.01)
        fine = x
        for k in range(10):
            fine = integrate_step(sys, k * 0.001, fine, u, 0.001)
        for a, b in zip(coarse, fine):
            assert abs(a - b) < 1e-6

    def test_nonpositive_dt_rejected(self, double_integrator):
        with pytest.raises(SimError):
            integrate_step(double_integrator, 0.0, (0.0, 0.0), (0.0,), 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_rejected(self, double_integrator, dt):
        with pytest.raises(SimError, match="dt must be positive and finite"):
            integrate_step(double_integrator, 0.0, (0.0, 0.0), (0.0,), dt)

    def test_state_of_another_dimension_rejected(self, double_integrator):
        with pytest.raises(SimError, match="x has dimension 3, system has n=2"):
            integrate_step(double_integrator, 0.0, (0.0, 0.0, 0.0), (0.0,), 0.01)


FINITE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-100.0, 100.0))


def _poly_system(coeffs, gains, growing):
    """dx_i/dt = c0 + c1 x_i + c2 x_{i+1}^2 + c3 t (indices mod n), with one
    constant g object or, like GrowingGainSys, a new g matrix at every call."""
    n, m = len(coeffs), len(gains[0])

    def f(t, x):
        return tuple(c0 + c1 * x[i] + c2 * x[(i + 1) % n] ** 2 + c3 * t
                     for i, (c0, c1, c2, c3) in enumerate(coeffs))

    def g(t, x):
        if not growing:
            return gains
        return tuple(tuple(gij + 0.01 * x[i] * x[i] for gij in row)
                     for i, row in enumerate(gains))

    return ControlSystem(n=n, m=m, f=f, g=g, domain=StateBox((-1e9,) * n, (1e9,) * n))


@st.composite
def rk4_cases(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    coeffs = tuple(tuple(draw(st.lists(FINITE, min_size=4, max_size=4))) for _ in range(n))
    gains = tuple(tuple(draw(st.lists(FINITE, min_size=m, max_size=m))) for _ in range(n))
    sys = _poly_system(coeffs, gains, growing=draw(st.booleans()))
    x = tuple(draw(st.lists(FINITE, min_size=n, max_size=n)))
    u = tuple(draw(st.lists(FINITE, min_size=m, max_size=m)))
    t, dt = draw(FINITE), draw(st.floats(1e-6, 1.0))
    dyn = (sys.f(t, x), sys.g(t, x)) if draw(st.booleans()) else None
    return sys, t, x, u, dt, dyn


class TestRk4Kernel:
    """The generated straight-line kernel against the generic map/zip step
    it replaced: the same float operations, so the same bits."""

    @settings(max_examples=300, deadline=None)
    @given(rk4_cases())
    def test_matches_the_generic_step_bit_for_bit(self, case):
        sys, t, x, u, dt, dyn = case
        got = integrate_step(sys, t, x, u, dt, dyn)
        want = reference_rk4(sys, t, x, u, dt, dyn)
        assert type(got) is tuple and len(got) == sys.n
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_two_missions_compile_the_n3_kernel_once(self, monkeypatch):
        compiled = []
        compile_kernel = sim._rk4_kernel

        def counting(n):
            compiled.append(n)
            return compile_kernel(n)

        monkeypatch.setattr(sim, "_RK4_KERNELS", {})
        monkeypatch.setattr(sim, "_rk4_kernel", counting)
        cfg = _short_sec6()
        pipeline.build_scenario(cfg)
        assert compiled == []  # the kernel compiles at the first step, not in setup
        for _ in range(2):
            assert pipeline.run_pipeline(cfg).trace.n_rows() == 8001
        assert compiled == [3] and list(sim._RK4_KERNELS) == [3]


def _speed_setup(values, horizon, domain=None):
    reg = BarrierRegistry()
    for v in set(values):
        reg.register(AffineBarrier(f"v{v:g}", coeffs=(0.0, -1.0), offset=float(v)))
    dom = domain or StateBox((-1e6, -1e3), (1e6, 1e3))
    each = horizon / len(values)
    group = TaskGroup("G1", tuple(
        (TimeInterval(i * each, (i + 1) * each), PredicateRef(f"v{v:g}"))
        for i, v in enumerate(values)
    ))
    cfg = ScheduleConfig(domain=dom, horizon=horizon, rho=0.5, t_conv=each / 4)
    sched = build_schedule(group, reg, cfg)
    sys = ControlSystem(n=2, m=1, f=lambda t, x: (x[1], 0.0),
                        g=lambda t, x: ((0.0,), (1.0,)), domain=dom)
    return reg, sched, sys


class TestRunSimulation:
    @pytest.mark.parametrize("dt, t_max", [
        (-0.01, 500.0), (0.0, 500.0), (math.inf, 500.0), (math.nan, 500.0),
        (0.01, math.nan), (0.01, math.inf), (0.01, -1.0),
    ], ids=["dt<0", "dt=0", "dt=inf", "dt=nan", "t_max=nan", "t_max=inf", "t_max<0"])
    def test_bad_step_or_horizon_rejected_before_running(self, dt, t_max):
        # dt=-0.01 used to return one row at t=500, dt=inf one at t=nan, and
        # a NaN a bare ValueError from round()
        cfg = load_config("paper_sec6")
        bundle = pipeline.build_scenario(cfg)
        calls = []

        def nominal(t, x):
            calls.append(t)
            return bundle.nominal(t, x)

        with pytest.raises(SimError, match="need 0 < dt < inf and 0 <= t_max < inf"):
            run_simulation(bundle.sys, bundle.schedules, nominal, cfg.input_box, cfg.x0,
                           dt=dt, t_max=t_max)
        assert calls == []

    def test_zero_horizon_single_row(self, double_integrator):
        res = run_simulation(double_integrator, [], lambda t, x: 0.0,
                             InputBox((-1.0,), (1.0,)), (0.0, 0.0), dt=0.01, t_max=0.0)
        assert res.failure is None and res.trace.n_rows() == 1

    def test_row_count_and_uniform_grid(self, double_integrator):
        res = run_simulation(double_integrator, [], lambda t, x: 0.5,
                             InputBox((-1.0,), (1.0,)), (0.0, 0.0), dt=0.01, t_max=1.0)
        assert res.trace.n_rows() == 101
        diffs = {round(b - a, 9) for a, b in zip(res.trace.ts, res.trace.ts[1:])}
        assert diffs == {0.01}

    @pytest.mark.parametrize("t_max, dt", [(1.0, 0.3), (1.0, 0.7), (500.0, 0.03)])
    def test_dt_must_divide_the_horizon(self, double_integrator, t_max, dt):
        # round(t_max / dt) steps used to stop short of t_max or run past it
        calls = []
        with pytest.raises(SimError, match=f"dt={dt:g} does not divide the horizon {t_max:g}"):
            run_simulation(double_integrator, [], lambda t, x: calls.append(t) or 0.0,
                           InputBox((-1.0,), (1.0,)), (0.0, 0.0), dt=dt, t_max=t_max)
        assert calls == []

    @pytest.mark.parametrize("dt", [0.005, 0.01, 0.05, 0.2, 0.5, 1.0])
    def test_paper_sec6_steps_divide_its_horizon(self, dt):
        assert step_count(500.0, dt) == round(500.0 / dt)

    def test_input_box_must_match_the_inputs(self, double_integrator):
        # each recorded row holds m inputs; a 2-D box would give 2 per row
        with pytest.raises(SimError, match="input box has dimension 2, system has m=1"):
            run_simulation(double_integrator, [], lambda t, x: (0.0, 0.0),
                           InputBox((-1.0, -1.0), (1.0, 1.0)), (0.0, 0.0), dt=0.01, t_max=1.0)

    def test_initial_assumption_violation_raises(self):
        _, sched, sys = _speed_setup([10.0], horizon=10.0)
        with pytest.raises(InitialConditionError, match="v10"):
            run_simulation(sys, [sched], lambda t, x: 0.0,
                           InputBox((-5.0,), (5.0,)), (0.0, 15.0), dt=0.01, t_max=10.0)

    def test_constraint_enforced_along_run(self):
        reg, sched, sys = _speed_setup([10.0], horizon=5.0)
        res = run_simulation(sys, [sched], lambda t, x: 50.0,
                             InputBox((-50.0,), (50.0,)), (0.0, 9.5), dt=0.01, t_max=5.0)
        res.trace.fill_columns([reg.get("v10")])
        assert res.failure is None
        assert res.trace.min_margin("v10") >= -1e-3
        assert any(s == "ok" for s in res.trace.qp_status)

    @pytest.mark.parametrize("bad, message", [
        (math.nan, r"^non-finite nominal input \(nan,\)$"),
        ((1.0, 2.0), r"^u_nom has dimension 2, box has 1$"),
    ], ids=["nan", "two_inputs"])
    def test_bad_nominal_inside_a_plan_raises_as_solve_qp_does(self, bad, message):
        # step 5 clips in the plan's pass, which leaves the nominal to solve_qp
        _, sched, sys = _speed_setup([10.0], horizon=1.0)
        with pytest.raises(QpError, match=message):
            run_simulation(sys, [sched], lambda t, x: bad if t >= 0.05 else 1.0,
                           InputBox((-5.0,), (5.0,)), (0.0, 9.5), dt=0.01, t_max=1.0)

    @pytest.mark.parametrize("numpy_form", [lambda u: np.array([u]), np.float32, np.array],
                             ids=["1d_array", "numpy_scalar", "0d_array"])
    def test_numpy_nominal_runs_as_its_floats_at_m1(self, numpy_form):
        """A nominal input given as a 1-D array of one float runs as that
        float (it used to fail with a bare TypeError); numpy scalars and 0-d
        arrays keep working."""
        _, sched, sys = _speed_setup([10.0], horizon=1.0)

        def u(t):  # quarters, so a float32 holds each one exactly
            return 50.0 - round(t * 100) / 4

        runs = [run_simulation(sys, [sched], nominal, InputBox((-5.0,), (5.0,)), (0.0, 9.5),
                               dt=0.01, t_max=1.0)
                for nominal in (lambda t, x: numpy_form(u(t)), lambda t, x: u(t))]
        got, want = (res.trace for res in runs)
        assert runs[0].failure is None is runs[1].failure
        for name in ("states", "u_nom", "u_safe"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_numpy_nominal_runs_as_its_floats_at_m2(self):
        dom = StateBox((-1e3, -1e3), (1e3, 1e3))
        sys = ControlSystem(n=2, m=2, f=lambda t, x: (0.0, 0.0),
                            g=lambda t, x: ((1.0, 0.0), (0.0, 1.0)), domain=dom)
        reg, cfg = BarrierRegistry(), ScheduleConfig(domain=dom, horizon=1.0)
        reg.register(AffineBarrier("cap", coeffs=(-1.0, -1.0), offset=1.0))
        sched = build_schedule(TaskGroup("G", ((TimeInterval(0.0, 1.0), PredicateRef("cap")),)),
                               reg, cfg)
        runs = [run_simulation(sys, [sched], nominal, InputBox((-2.0, -2.0), (2.0, 2.0)),
                               (0.0, 0.0), dt=0.1, t_max=1.0)
                for nominal in (lambda t, x: np.array([1.5, 0.5]), lambda t, x: (1.5, 0.5))]
        got, want = (res.trace for res in runs)
        assert runs[0].failure is None is runs[1].failure
        assert got.u_safe.tobytes() == want.u_safe.tobytes()
        assert got.states.tobytes() == want.states.tobytes()
        assert (got.u_safe != got.u_nom).any()  # the cap filters the nominal

    def test_infeasible_constraint_fails_with_timestamp(self):
        # forced to satisfy u >= 10 with a box capped at 5
        reg = BarrierRegistry()
        reg.register(AffineBarrier("drive", coeffs=(1.0, 0.0), offset=0.0))
        dom = StateBox((-1e6, -1e3), (1e6, 1e3))
        group = TaskGroup("G1", ((TimeInterval(0.0, 10.0), PredicateRef("drive")),))
        cfg = ScheduleConfig(domain=dom, horizon=10.0, rho=0.5, t_conv=1.0)
        sched = build_schedule(group, reg, cfg)
        sys = ControlSystem(n=2, m=1, f=lambda t, x: (-20.0 - x[0], 0.0),
                            g=lambda t, x: ((1.0,), (0.0,)), domain=dom)
        res = run_simulation(sys, [sched], lambda t, x: 0.0,
                             InputBox((-5.0,), (5.0,)), (30.0, 0.0), dt=0.01, t_max=10.0)
        assert res.failure is not None
        assert res.failure.reason == "qp_infeasible"
        assert "cbf:sat(drive)" in res.failure.details or any(
            "drive" in d for d in res.failure.details)
        assert res.trace.qp_status[-1] == "infeasible"
        assert res.trace.n_rows() >= 1

    def test_domain_exit_reported(self, double_integrator):
        small = ControlSystem(n=2, m=1, f=double_integrator.f, g=double_integrator.g,
                              domain=StateBox((-1.0, -10.0), (1.0, 10.0)))
        res = run_simulation(small, [], lambda t, x: 1.0,
                             InputBox((-5.0,), (5.0,)), (0.0, 0.0), dt=0.01, t_max=10.0)
        assert res.failure is not None and res.failure.reason == "domain_exit"

    def test_clamp_dims_logs_event_instead_of_failing(self):
        vp = VehicleParams()
        lead = LeadProfile(0.0)
        sys = make_vehicle_system(vp, lead)
        # strong braking would push V_f < 0; the floor clamp keeps it at rest
        res = run_simulation(sys, [], lambda t, x: -3000.0,
                             InputBox((-3000.0,), (3000.0,)), (0.0, 1.0, 500.0),
                             dt=0.01, t_max=2.0)
        assert res.failure is None
        assert any("clamped" in msg for _, msg in res.trace.events)
        assert all(x[1] >= 0.0 for x in res.trace.states)

    def test_margins_recorded_for_every_row(self):
        reg, sched, sys = _speed_setup([10.0], horizon=2.0)
        res = run_simulation(sys, [sched], lambda t, x: 0.0,
                             InputBox((-5.0,), (5.0,)), (0.0, 0.0), dt=0.01, t_max=2.0)
        res.trace.fill_columns([reg.get("v10")])
        assert len(res.trace.margins["v10"]) == res.trace.n_rows()


class TestFcbfRealizedInClosedLoop:
    def test_speed_drop_converges_by_boundary(self):
        # 20 -> 5 drop with a quarter-interval window; nominal pushes full throttle
        reg, sched, sys = _speed_setup([20.0, 5.0], horizon=40.0)
        res = run_simulation(sys, [sched], lambda t, x: 100.0,
                             InputBox((-200.0,), (200.0,)), (0.0, 18.0), dt=0.01,
                             t_max=40.0)
        res.trace.fill_columns([reg.get("v5"), reg.get("v20")])
        assert res.failure is None
        # at the boundary t=20 the next barrier must already be satisfied
        idx = res.trace.ts.index(pytest.approx(20.0)) if 20.0 in res.trace.ts else \
            next(i for i, t in enumerate(res.trace.ts) if abs(t - 20.0) < 1e-9)
        assert res.trace.margins["v5"][idx] >= -1e-3
        # and stays satisfied afterwards
        assert min(res.trace.margins["v5"][idx:]) >= -1e-3
        rec = res.engagements[("G1", 0)]
        assert rec.time <= sched.boundaries[0].tau + 0.011
        assert rec.t_conv_bound <= sched.boundaries[0].t_target + 1e-9

    def test_window_engaged_one_step_late_is_a_deadline_risk(self):
        # the same 20 -> 5 drop: the window's test tau < t engages it at the
        # first step after tau = 15, t = 15.01, with gamma sized for the whole
        # 5 s budget, so its bound lands at 20.01, past the switch at 20
        reg, sched, sys = _speed_setup([20.0, 5.0], horizon=40.0)
        res = run_simulation(sys, [sched], lambda t, x: 100.0,
                             InputBox((-200.0,), (200.0,)), (0.0, 18.0), dt=0.01,
                             t_max=40.0)
        assert res.failure is None and sched.boundaries[0].tau == 15.0
        rec = res.engagements[("G1", 0)]
        assert rec.time == 1501 * 0.01 and rec.time + rec.t_conv_bound > 20.0 + 1e-9
        text = "engage G1#0 t=15.01 h=-15 gamma=1.54919 T_bound=5 deadline=20"
        assert rec.describe() == text
        assert res.trace.events == [(rec.time, text), (rec.time, f"deadline-risk {text}")]


def _short_sec6():
    """paper_sec6 cut to 80 s: h1, one 30 -> 25 speed window, the signals and
    a negated custom barrier, so every kind of schedule segment runs."""
    cfg = load_config("paper_sec6")
    return replace(
        cfg, horizon=80.0, limits=SpeedLimitSchedule([(0.0, 30.0), (50.0, 25.0)], 80.0),
        barriers=[AffineBarrier("far", coeffs=(1.0, 0.0, 0.0), offset=-1e5)],
        stl_text="G[0,80) sat(h1)\nG[0,50) sat(vmax30)\nG[50,80) sat(vmax25)\n"
                 "G[0,80) sat(hpos)\nG[0,80) !sat(far)")


class TestLoopLooksNothingUp:
    """Schedules and the nominal controller hold their barriers: once the
    scenario is built, the step loop makes no registry lookup."""

    @pytest.mark.parametrize("make_cfg", [lambda: load_config("infeasible_red"), _short_sec6],
                             ids=["infeasible_red", "short_sec6"])
    def test_no_registry_calls_inside_run_simulation(self, make_cfg, monkeypatch):
        calls = {}  # (phase, method) -> count
        phase = ["build"]

        def counting(name, fn):
            def wrapper(self, *args):
                calls[phase[0], name] = calls.get((phase[0], name), 0) + 1
                return fn(self, *args)
            return wrapper

        def in_loop(*args, **kwargs):
            phase[0] = "loop"
            try:
                return run_simulation(*args, **kwargs)
            finally:
                phase[0] = "after"

        for name in ("get", "resolve"):
            monkeypatch.setattr(BarrierRegistry, name,
                                counting(name, getattr(BarrierRegistry, name)))
        monkeypatch.setattr(pipeline, "run_simulation", in_loop)
        outcome = pipeline.run_pipeline(make_cfg())

        assert outcome.trace.n_rows() > 100 and outcome.report.engagements
        assert calls["build", "resolve"] > 0  # the counters see the lookups
        assert calls.get(("loop", "get"), 0) == 0
        assert calls.get(("loop", "resolve"), 0) == 0


class TestLoopMakesNoWrapperCall:
    """A row whose barrier has an affine form over its plan (every segment
    and window of the speed and signal schedules here, and the negated
    custom barrier) is evaluated inline: the loop makes no generator, `terms`
    or `step_lookup` call for it. h1, which has no such form, costs one
    `terms` call a step and no generator call: `eval_rows` reads its terms
    itself. An affine barrier's `h`, and the `terms` call it reads, run in
    the loop only where a window first engages (to size its gamma), and the
    plan is rebuilt only where a segment or window switches or the ego
    crosses a stop line. The nominal controller computes h1 and the
    friction force inline, from one lead lookup."""

    def test_wrapper_calls_left_in_the_loop(self, monkeypatch):
        calls = {}  # (phase, name) -> count
        phase = ["build"]

        def count(name):
            calls[phase[0], name] = calls.get((phase[0], name), 0) + 1

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                count(name)
                return fn(*args, **kwargs)
            return wrapper

        def in_run(*args, **kwargs):
            phase[0] = "entry"  # the x0 checks, until the first step
            try:
                return run_simulation(*args, **kwargs)
            finally:
                phase[0] = "after"

        def step(fn):
            def entry(*args, **kwargs):
                phase[0] = "loop"
                return fn(*args, **kwargs)
            return entry

        for name in ("clip_groups", "conjoin_groups"):  # a step enters either
            monkeypatch.setattr(sim, name, step(getattr(sim, name)))
        for cls in (AffineBarrier, vehicle.SpacingBarrier):
            monkeypatch.setattr(cls, "h", counting(f"{cls.__name__}.h", cls.h))
        for cls in (AffineBarrier, barriers.NegatedBarrier, vehicle.SpacingBarrier):
            monkeypatch.setattr(cls, "terms", counting(f"{cls.__name__}.terms", cls.terms))
        for module in (barriers, vehicle):
            monkeypatch.setattr(module, "step_lookup", counting("step_lookup",
                                                                module.step_lookup))
        for module in (barriers, contracts):
            for name in ("cbf_constraint", "fcbf_constraint"):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        monkeypatch.setattr(pipeline, "run_simulation", in_run)
        outcome = pipeline.run_pipeline(_short_sec6())

        steps = outcome.trace.n_rows() - 1
        assert steps == 8000 and outcome.exit_code == 0
        assert {name: n for (ph, name), n in calls.items() if ph == "loop"} == {
            "SpacingBarrier.terms": steps,
            # an engaging window sizes its gamma from h, which reads terms
            "AffineBarrier.h": len(outcome.report.engagements),
            "AffineBarrier.terms": len(outcome.report.engagements),
        }
        assert len(outcome.report.engagements) > 1
        # the counters see the calls: x0's entry margins, the trace columns
        assert calls["entry", "AffineBarrier.h"] > 0 and calls["after", "step_lookup"] > 0
        assert calls["entry", "SpacingBarrier.h"] > 0  # x0's h1 entry margin
        # the friction force is inline: no function of that name to call
        assert not hasattr(vehicle, "friction_force") and not hasattr(pipeline, "friction_force")

    def test_plan_rebuilt_only_at_switches_and_crossings(self, monkeypatch):
        replans = []  # (table, t) of every rebuild
        replan = contracts.RegionTable.replan

        def counting(table, t, x):
            replans.append((table, t))
            return replan(table, t, x)

        monkeypatch.setattr(contracts.RegionTable, "replan", counting)
        outcome = pipeline.run_pipeline(_short_sec6())
        assert outcome.exit_code == 0

        table = replans[0][0]
        assert all(other is table for other, _ in replans)
        scheds = list({id(s): s for cell in table.cells for s in cell}.values())
        lines = sorted({v for s in scheds for v in s.region if math.isfinite(v)})
        taus = [(s, bd.tau) for s in scheds for bd in s.boundaries
                if bd.verdict is Verdict.OVERLAP_DEADLINE]
        ts, x_fs = list(outcome.trace.ts), outcome.trace.states[:, 0].tolist()
        want = [ts[0]]
        for k in range(1, len(ts) - 1):  # the last row follows the last step
            t_prev, t, x_f = ts[k - 1], ts[k], x_fs[k]
            here = [s for s in scheds if s.region[0] < x_f <= s.region[1]]
            crossed = bisect_left(lines, x_fs[k - 1]) != bisect_left(lines, x_f)
            bound = any(t_prev < seg.interval.start <= t for s in here for seg in s.segments)
            onset = any(t_prev <= tau < t for s, tau in taus if s in here)
            if crossed or bound or onset:
                want.append(t)
        assert [t for _, t in replans] == want
        assert 5 < len(want) < 100 and len(outcome.report.engagements) > 1


def _clip_reads(monkeypatch) -> list:
    """Patch `contracts.eval_rows` to log how many rows each clip-sink pass
    reads; return that log."""
    reads, evaluate = [], contracts.eval_rows

    def reading(rows, *args, **kwargs):
        if "out" not in kwargs:
            reads.append(len(rows))
        return evaluate(rows, *args, **kwargs)

    monkeypatch.setattr(contracts, "eval_rows", reading)
    return reads


class TestAffineRowsShareLieSums:
    """Affine rows with one gradient share their Lie sums: a plan of k such
    rows costs two sums a step, grad.x and grad.f, not 2k (`eval_rows`).
    Every step takes `clip_groups` alone: the plan's first step replans there
    and derives each row's a = -grad.g, and every later step reuses those a.
    The k rows share their kappa too, so the clip reads two of them, those of
    least and greatest offset, while `conjoin_groups` still gives all k."""

    def test_two_sums_a_step_for_k_rows(self, monkeypatch):
        k, horizon = 6, 0.5
        dom = StateBox((-1e6, -1e3), (1e6, 1e3))
        reg, cfg = BarrierRegistry(), ScheduleConfig(domain=dom, horizon=horizon)
        scheds = []
        for i in range(k):  # equal coefficients, each barrier its own tuple
            reg.register(AffineBarrier(f"v{i}", coeffs=(0.0, -1.0), offset=20.0 + i))
            group = TaskGroup(f"G{i}", ((TimeInterval(0.0, horizon), PredicateRef(f"v{i}")),))
            scheds.append(build_schedule(group, reg, cfg))
        g_mat = ((0.0,), (1.0,))
        sys = ControlSystem(n=2, m=1, f=lambda t, x: (x[1], 0.0), g=lambda t, x: g_mat,
                            domain=dom)
        calls, entries, tables, per_step = [0], [], [], []

        def counting_sum(*args):
            calls[0] += 1
            return sum(*args)

        def entry(name, fn):
            def spy(table, *args):
                if name == "clip_groups":  # a step's first entry: count from here
                    calls[0], entries[:] = 0, []
                entries.append(name)
                tables.append(table)
                return fn(table, *args)
            return spy

        def step(*args, **kwargs):  # the step's rows are all evaluated by now
            per_step.append((tuple(entries), len(tables[-1].plan[4]), calls[0], tuple(reads)))
            reads.clear()
            return integrate(*args, **kwargs)

        integrate = sim.integrate_step
        for name in ("clip_groups", "conjoin_groups"):
            monkeypatch.setattr(sim, name, entry(name, getattr(sim, name)))
        monkeypatch.setattr(sim, "integrate_step", step)
        monkeypatch.setattr(barriers, "sum", counting_sum, raising=False)
        reads = _clip_reads(monkeypatch)
        res = run_simulation(sys, scheds, lambda t, x: (1.0,), InputBox((-5.0,), (5.0,)),
                             (0.0, 10.0), dt=0.01, t_max=horizon)

        assert res.failure is None and len(per_step) == 50
        # the first step also derives each row's a = -grad.g, one sum a row
        assert per_step[0] == (("clip_groups",), k, 2 + k, (2,))
        assert per_step[1:] == [(("clip_groups",), k, 2, (2,))] * 49
        rows = contracts.conjoin_groups(tables[-1], 0.0, (0.0, 10.0), sys)
        assert [label for _, _, label in rows] == [f"cbf:v{i}" for i in range(k)]
        assert [label for label, *_ in tables[-1].rows[2]] == ["cbf:v0", f"cbf:v{k - 1}"]


class TestClipReadsFewerRows:
    """On the benchmark's `dense_contracts` mission at seed 61, the plans'
    rows average 10.85 a step, most of them speed caps on one gradient and
    kappa; the clip reads at most 5 a step, with the same outputs (the
    replay and output-hash tests check the bits)."""

    def test_dense_contracts_seed_61(self, monkeypatch):
        cfg = parse_config(_workloads(monkeypatch).dense_contracts(61).config_text)
        planned, clip = [], sim.clip_groups

        def clip_spy(table, *args):
            bounds = clip(table, *args)
            planned.append(len(table.rows[1]))
            return bounds

        monkeypatch.setattr(sim, "clip_groups", clip_spy)
        reads = _clip_reads(monkeypatch)
        outcome = pipeline.run_pipeline(cfg)
        steps = outcome.trace.n_rows() - 1
        assert outcome.exit_code == 0 and steps == len(planned) == 10_000
        assert sum(planned) / steps == pytest.approx(10.85)
        assert sum(reads) / steps <= 5


def _fresh_g_case():
    """A 2-state, 1-input system whose g builds a new tuple at every call,
    and drops its gain at t = 6, inside a plan, under a 10 -> 5 speed window (cbf and fcbf rows), and a speed cap and a
    position cap whose offsets drop at t = 2.5, inside a plan (`terms` rows
    there, the position cap's a zero)."""
    dom = StateBox((-1e6, -1e3), (1e6, 1e3))
    reg = BarrierRegistry()
    reg.register(AffineBarrier("v10", coeffs=(0.0, -1.0), offset=10.0))
    reg.register(AffineBarrier("v5", coeffs=(0.0, -1.0), offset=5.0))
    reg.register(AffineBarrier("cap", coeffs=(0.0, -1.0), pieces=[(0.0, 12.0), (2.5, 11.0)]))
    reg.register(AffineBarrier("far", coeffs=(-1.0, 0.0), pieces=[(0.0, 1e3), (2.5, 900.0)]))
    cfg = ScheduleConfig(domain=dom, horizon=10.0, t_conv=2.0)
    speed = TaskGroup("S", ((TimeInterval(0.0, 5.0), PredicateRef("v10")),
                            (TimeInterval(5.0, 10.0), PredicateRef("v5"))))
    caps = [TaskGroup(name, ((TimeInterval(0.0, 10.0), PredicateRef(name)),))
            for name in ("cap", "far")]
    sys = ControlSystem(n=2, m=1, f=lambda t, x: (x[1], -0.1 * x[1]),
                        g=lambda t, x: ((0.0,), (1.0 if t < 6.0 else 0.8,)), domain=dom)
    scheds = [build_schedule(group, reg, cfg) for group in [speed] + caps]
    return (sys, scheds, lambda t, x: 3.0 - 0.3 * x[1], InputBox((-40.0,), (40.0,)), (0.0, 9.0),
            0.01, 10.0)


def _workloads(monkeypatch):
    """The benchmark's mission generators."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    return workloads


def _pipeline_case(cfg):
    bundle = pipeline.build_scenario(cfg)
    return (bundle.sys, bundle.schedules, bundle.nominal, cfg.input_box, cfg.x0, cfg.dt,
            cfg.horizon)


class TestReplayThroughTheListSink:
    """Every step's u_safe is the u that `conjoin_groups` (the list sink) and
    `solve_qp` give at its recorded (t, x) and u_nom, on the run's own
    `RegionTable`, whose engagement records fix every gamma: bit for bit.
    Every step of these successful m = 1 runs clips in the rows' own pass,
    replan steps and a g that is a new object at every call included."""

    @pytest.mark.parametrize("make_case", [
        lambda mp: _pipeline_case(_short_sec6()),
        lambda mp: _pipeline_case(parse_config(_workloads(mp).dense_contracts(3).config_text)),
        lambda mp: _fresh_g_case(),
    ], ids=["short_sec6", "dense_contracts", "fresh_g"])
    def test_u_safe_replays_bit_for_bit(self, make_case, monkeypatch):
        sys, scheds, nominal, box, x0, dt, t_max = make_case(monkeypatch)
        tables, entries = [], {"clip": 0, "conjoin": 0}
        clip, conjoin = sim.clip_groups, sim.conjoin_groups

        def clip_spy(table, *args):
            tables.append(table)
            bounds = clip(table, *args)
            entries["clip"] += bool(bounds)
            return bounds

        def conjoin_spy(*args):
            entries["conjoin"] += 1
            return conjoin(*args)

        with monkeypatch.context() as mp:
            mp.setattr(sim, "clip_groups", clip_spy)
            mp.setattr(sim, "conjoin_groups", conjoin_spy)
            res = run_simulation(sys, scheds, nominal, box, x0, dt=dt, t_max=t_max)
        trace, table = res.trace, tables[0]
        steps = trace.n_rows() - 1  # the last row repeats the last step's inputs
        assert res.failure is None and steps == round(t_max / dt)
        assert all(other is table for other in tables) and table.engagements
        assert entries["conjoin"] == 0 and entries["clip"] == steps

        ts, xs = list(trace.ts), trace.states.tolist()
        u_nom, u_safe = trace.u_nom.tolist(), trace.u_safe.tolist()
        for k in range(steps):
            cons = contracts.conjoin_groups(table, ts[k], tuple(xs[k]), sys, None, -math.inf)
            want = solve_qp(tuple(u_nom[k]), cons, box)
            assert [v.hex() for v in u_safe[k]] == [v.hex() for v in want], ts[k]


class TestOneFcbfParamsPerEngagement:
    """A finite-time window builds its FcbfParams once, when it engages, and
    keeps it in its engagement record: building the schedules builds none,
    and an engaged window's later steps build none."""

    def test_dense_contracts_builds_one_per_engagement(self, tmp_path, monkeypatch):
        path = tmp_path / "dense.cfg"
        path.write_text(_workloads(monkeypatch).dense_contracts(3).config_text)
        built = {"build": 0, "loop": 0, "after": 0}
        phase = ["build"]
        check = barriers.FcbfParams.__post_init__

        def counting(self):
            built[phase[0]] += 1
            check(self)

        def in_run(*args, **kwargs):
            phase[0] = "loop"
            try:
                return run_simulation(*args, **kwargs)
            finally:
                phase[0] = "after"

        monkeypatch.setattr(barriers.FcbfParams, "__post_init__", counting)
        monkeypatch.setattr(pipeline, "run_simulation", in_run)
        outcome = pipeline.run_pipeline(load_config(str(path)))

        assert outcome.exit_code == 0 and outcome.trace.n_rows() == 10001
        assert len(outcome.report.engagements) == 37
        assert built == {"build": 0, "loop": 37, "after": 0}


class TestLoopBuildsNoLabel:
    """Each constraint's label is compiled with its schedule: over a run, a
    label is the same str object at every step, whether the step clips in
    the rows' own pass (the table's resolved rows hold the compiled labels)
    or takes `solve_qp` (the failure step), so none is built in the loop.
    The failure record names the compiled objects too."""

    @staticmethod
    def _labels_seen(cfg, monkeypatch):
        """Run cfg; return the outcome, each label's first object and uses,
        the label objects seen after an equal first one, the steps on each
        path, and the labels compiled in the run's schedules."""
        first, counts, fresh = {}, {}, []
        paths, tables = {"clip": 0, "solve_qp": 0}, set()
        clip, solve = sim.clip_groups, sim.solve_qp

        def see(path, labels):
            paths[path] += 1
            for label in labels:
                if first.setdefault(label, label) is not label:
                    fresh.append(label)
                counts[label] = counts.get(label, 0) + 1

        def clip_spy(table, *args):
            tables.add(table)
            bounds = clip(table, *args)
            if bounds:  # the step's rows are the plan's resolved rows
                see("clip", (row[0] for row in table.rows[1]))
            return bounds

        def solve_spy(u_nom, cons, box):
            see("solve_qp", (label for _, _, label in cons))
            return solve(u_nom, cons, box)

        with monkeypatch.context() as mp:
            mp.setattr(sim, "clip_groups", clip_spy)
            mp.setattr(sim, "solve_qp", solve_spy)
            outcome = pipeline.run_pipeline(cfg)
        (table,) = tables
        compiled = {id(label) for cell in table.cells for sched in cell
                    for cbf, window in sched._rows
                    for label in ([cbf[2]] if cbf else []) + ([window.label] if window else [])}
        return outcome, first, counts, fresh, paths, compiled

    def test_each_label_is_one_object(self, monkeypatch):
        for cfg in (_short_sec6(), load_config("infeasible_red")):
            outcome, first, counts, fresh, paths, compiled = self._labels_seen(cfg, monkeypatch)
            failure = outcome.report.failure
            assert paths["clip"] + paths["solve_qp"] == outcome.trace.n_rows() - (failure is None)
            assert paths["solve_qp"] == (failure is not None) and paths["clip"] > 1
            assert fresh == []
            assert all(id(label) in compiled for label in first.values())
            if failure is None:
                assert outcome.trace.n_rows() == 8001
                assert any(label.startswith("fcbf:") for label in counts)
                assert any(label.startswith("cbf:!") for label in counts)
                assert min(counts.values()) >= 2
            else:  # the record names the compiled objects, seen at earlier steps too
                assert failure.reason == "qp_infeasible" and len(failure.details) > 1
                assert all(first[label] is label for label in failure.details)
                assert any(counts[label] > 1 for label in failure.details)


class TestTraceColumns:
    """The loop records flat float buffers: a row keeps its floats and no
    tuple, and the trace's array views hold exactly what the loop saw."""

    def test_retained_bytes_per_row(self):
        cfg = _short_sec6()
        bundle = pipeline.build_scenario(cfg)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = run_simulation(bundle.sys, bundle.schedules, bundle.nominal, cfg.input_box,
                                 cfg.x0, dt=cfg.dt, t_max=cfg.horizon)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert res.failure is None and res.trace.n_rows() == 8001
        # 7 floats and a status pointer make 64 bytes a row; a tuple per
        # column and row would cost about 357
        assert retained / res.trace.n_rows() <= 120

    def test_views_hold_the_values_the_loop_saw(self, monkeypatch):
        seen = {"t": [], "x": [], "u_nom": [], "u_safe": []}
        clip, solve, integrate, run = (sim.clip_groups, sim.solve_qp, sim.integrate_step,
                                       pipeline.run_simulation)
        empty = []  # t of each step that solve_qp found empty

        def clip_spy(table, t, x, *args):  # every step of this m = 1 run enters here
            seen["t"].append(t)
            seen["x"].append(x)
            return clip(table, t, x, *args)

        def solve_spy(u_nom, cons, box):
            u_safe = solve(u_nom, cons, box)
            if u_safe is None:
                empty.append(seen["t"][-1])
                seen["u_safe"].append((math.nan,) * len(u_nom))
            return u_safe

        def integrate_spy(sys, t, x, u, *args):  # the u_safe of every other step
            seen["u_safe"].append(u)
            return integrate(sys, t, x, u, *args)

        def in_run(sys, schedules, nominal, *args, **kwargs):
            def nominal_spy(t, x):
                u = nominal(t, x)
                seen["u_nom"].append((u,))
                return u
            return run(sys, schedules, nominal_spy, *args, **kwargs)

        monkeypatch.setattr(sim, "clip_groups", clip_spy)
        monkeypatch.setattr(sim, "solve_qp", solve_spy)
        monkeypatch.setattr(sim, "integrate_step", integrate_spy)
        monkeypatch.setattr(pipeline, "run_simulation", in_run)
        outcome = pipeline.run_pipeline(load_config("infeasible_red"))
        trace = outcome.trace

        def hexed(rows):
            return [tuple(map(float.hex, row)) for row in rows]

        assert trace.n_rows() == len(seen["t"]) == 102
        assert trace.qp_status[-1] == "infeasible" and math.isnan(trace.u_safe[-1, 0])
        assert empty == [seen["t"][-1]]
        assert [t.hex() for t in trace.ts] == [t.hex() for t in seen["t"]]
        for name in ("x", "u_nom", "u_safe"):
            view = getattr(trace, "states" if name == "x" else name)
            assert view.shape == (102, 3 if name == "x" else 1)
            assert hexed(view.tolist()) == hexed(seen[name]), name
        active = outcome.report.summary["qp_active_steps"]
        assert active == qp_active_steps(seen["u_nom"], seen["u_safe"]) > 0

    def test_qp_active_steps_on_the_reference_mission(self):
        outcome = pipeline.run_pipeline(load_config("paper_sec6"))
        trace = outcome.trace
        assert trace.n_rows() == 50001
        assert outcome.report.summary["qp_active_steps"] == qp_active_steps(
            trace.u_nom.tolist(), trace.u_safe.tolist())


def test_reference_at_dt_one_ends_at_the_runtime_stage():
    """At dt = 1.0 the sampled h1 dips below -margin between two samples.
    The loop reads that dip on h1's invariance row at the next step and
    ends there (exit 3), so the monitor never sees a violated trace."""
    outcome = pipeline.run_pipeline(replace(load_config("paper_sec6"), dt=1.0))
    report, trace = outcome.report, outcome.trace
    assert (report.exit_code, report.failure_stage) == (3, "runtime")
    assert report.failure.describe() == "barrier_violated at t=16.000000 [cbf:h1 h=-0.0350927]"
    assert report.monitor is None
    assert trace.n_rows() == 17 and trace.qp_status[-1] == "violated"
    assert math.isnan(trace.u_safe[-1, 0]) and set(trace.qp_status[:-1]) == {"ok"}
    assert "failure_stage=runtime" in pipeline.format_report(report).splitlines()
