import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from oracles import qp_active_steps
from stlcbf import barriers, contracts, pipeline, sim, vehicle
from stlcbf.barriers import AffineBarrier, BarrierRegistry, StateBox
from stlcbf.config import load_config
from stlcbf.contracts import ScheduleConfig, build_schedule
from stlcbf.qp import InputBox
from stlcbf.sim import (
    ControlSystem,
    InitialConditionError,
    SimError,
    integrate_step,
    run_simulation,
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
    """Each constraint costs one `terms` call: an affine barrier's `h` runs
    in the loop only where a window first engages (to size its gamma), and no
    constraint row reaches the generic `step_lookup` (affine offsets and the
    lead cache do their own bisect). The nominal controller computes h1 and
    the friction force inline, from one lead lookup."""

    def test_wrapper_calls_left_in_the_loop(self, monkeypatch):
        calls = {}  # (phase, name) -> count
        phase, in_row = ["build"], [0]

        def count(name):
            calls[phase[0], name] = calls.get((phase[0], name), 0) + 1

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                count(name)
                return fn(*args, **kwargs)
            return wrapper

        def lookup(fn):
            def wrapper(*args, **kwargs):
                count("step_lookup in a row" if in_row[0] else "step_lookup")
                return fn(*args, **kwargs)
            return wrapper

        def row(fn):
            def wrapper(*args, **kwargs):
                count(fn.__name__)
                in_row[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    in_row[0] -= 1
            return wrapper

        def in_run(*args, **kwargs):
            phase[0] = "entry"  # the x0 checks, until the first step
            try:
                return run_simulation(*args, **kwargs)
            finally:
                phase[0] = "after"

        def step(*args, **kwargs):
            phase[0] = "loop"
            return conjoin(*args, **kwargs)

        conjoin = sim.conjoin_groups
        monkeypatch.setattr(sim, "conjoin_groups", step)
        monkeypatch.setattr(AffineBarrier, "h", counting("AffineBarrier.h", AffineBarrier.h))
        monkeypatch.setattr(vehicle.SpacingBarrier, "h",
                            counting("SpacingBarrier.h", vehicle.SpacingBarrier.h))
        for module in (barriers, vehicle):
            monkeypatch.setattr(module, "step_lookup", lookup(module.step_lookup))
        for name in ("cbf_constraint", "fcbf_constraint"):
            monkeypatch.setattr(contracts, name, row(getattr(contracts, name)))
        monkeypatch.setattr(pipeline, "run_simulation", in_run)
        outcome = pipeline.run_pipeline(_short_sec6())

        assert outcome.trace.n_rows() == 8001
        assert calls["loop", "cbf_constraint"] > 8000 and calls["loop", "fcbf_constraint"] > 0
        # the counters see the calls: x0's entry margins, the trace columns
        assert calls["entry", "AffineBarrier.h"] > 0 and calls["after", "step_lookup"] > 0
        assert calls.get(("loop", "AffineBarrier.h"), 0) == len(outcome.report.engagements) > 0
        assert calls.get(("loop", "step_lookup in a row"), 0) == 0
        assert calls["entry", "SpacingBarrier.h"] > 0  # x0's h1 entry margin
        assert calls.get(("loop", "SpacingBarrier.h"), 0) == 0
        # the friction force is inline: no function of that name to call
        assert not hasattr(vehicle, "friction_force") and not hasattr(pipeline, "friction_force")


class TestOneFcbfParamsPerEngagement:
    """A finite-time window builds its FcbfParams once, when it engages, and
    keeps it in its engagement record: building the schedules builds none,
    and an engaged window's later steps build none."""

    def test_dense_contracts_builds_one_per_engagement(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        path = tmp_path / "dense.cfg"
        path.write_text(workloads.dense_contracts(3).config_text)
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
    label is the same str object at every step, so none is built in the loop."""

    def test_each_label_is_one_object(self, monkeypatch):
        first, counts, fresh = {}, {}, []  # label -> first object, uses; new objects
        real = sim.solve_qp

        def spy(u_nom, cons, box):
            for c in cons:
                if first.setdefault(c.label, c.label) is not c.label:
                    fresh.append(c.label)
                counts[c.label] = counts.get(c.label, 0) + 1
            return real(u_nom, cons, box)

        monkeypatch.setattr(sim, "solve_qp", spy)
        outcome = pipeline.run_pipeline(_short_sec6())
        assert outcome.trace.n_rows() == 8001
        assert any(label.startswith("fcbf:") for label in counts)
        assert any(label.startswith("cbf:!") for label in counts)
        assert min(counts.values()) >= 2
        assert fresh == []


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
        conjoin, solve = sim.conjoin_groups, sim.solve_qp

        def conjoin_spy(table, t, x, *args):
            seen["t"].append(t)
            seen["x"].append(x)
            return conjoin(table, t, x, *args)

        def solve_spy(u_nom, cons, box):
            u_safe = solve(u_nom, cons, box)
            seen["u_nom"].append(u_nom)
            seen["u_safe"].append((math.nan,) * len(u_nom) if u_safe is None else u_safe)
            return u_safe

        monkeypatch.setattr(sim, "conjoin_groups", conjoin_spy)
        monkeypatch.setattr(sim, "solve_qp", solve_spy)
        outcome = pipeline.run_pipeline(load_config("infeasible_red"))
        trace = outcome.trace

        def hexed(rows):
            return [tuple(map(float.hex, row)) for row in rows]

        assert trace.n_rows() == len(seen["t"]) == 102
        assert trace.qp_status[-1] == "infeasible" and math.isnan(trace.u_safe[-1, 0])
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
