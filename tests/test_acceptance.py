"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; the oracles (grid searches, event sweep, scalar-pull integration) are
independent of the code paths they certify.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    closed_form_bound,
    constraint_upper_bound,
    finite_diff_check,
    grid_qp,
    max_overlap_depth,
)
from stlcbf.barriers import (
    AffineBarrier,
    Box,
    FcbfParams,
    cbf_constraint,
    convergence_time,
    fcbf_constraint,
    gamma_for_deadline,
)
from stlcbf.cli import main as cli_main
from stlcbf.config import load_config
from stlcbf.contracts import check_intersection, check_subset
from stlcbf.pipeline import run_pipeline
from stlcbf.qp import solve_qp
from stlcbf.sim import ControlSystem, integrate_step
from stlcbf.stl import Globally, PredicateRef, StlSpec, TimeInterval, group_tasks
from stlcbf.vehicle import (
    LeadProfile,
    RED,
    SpacingBarrier,
    SpeedLimitSchedule,
    TrafficSignalBarrier,
    VehicleParams,
    generate_signal_plan,
    make_vehicle_system,
    speed_limit_barrier,
)

MARGIN_TOL = 1e-3


def _announce(num, name):
    print(f"\nACCEPTANCE {num} ({name}): PASS")


# -----------------------------------------------------------------------
# 1. Reference-scenario reproduction
# -----------------------------------------------------------------------


def test_criterion_1_reference_scenario_reproduction():
    cfg = load_config("paper_sec6")
    assert cfg.dt == 0.01 and cfg.horizon >= 500.0
    t0 = time.monotonic()
    out = run_pipeline(cfg)
    wall = time.monotonic() - t0
    assert wall < 60.0, f"run took {wall:.1f}s"
    assert out.exit_code == 0, out.report.status
    trace = out.trace

    # (a) safe spacing throughout
    assert trace.min_margin("h1") >= -MARGIN_TOL

    # (b) posted speed limit respected at every sample
    v_max = trace.extras["V_max"]
    assert all(x[1] <= vm + MARGIN_TOL for x, vm in zip(trace.states, v_max))

    # (c) signal barrier nonnegative throughout
    assert trace.min_margin("hpos") >= -MARGIN_TOL

    # (d) no stop line is crossed while its signal shows red
    signals = out.bundle.registry.get("hpos").signals
    positions = [s.position for s in signals]
    crossings = 0
    for k in range(trace.n_rows() - 1):
        x0, x1 = trace.states[k][0], trace.states[k + 1][0]
        for i, p in enumerate(positions):
            if x0 <= p < x1:
                crossings += 1
                assert signals[i].phase(trace.ts[k]) != RED
                assert signals[i].phase(trace.ts[k + 1]) != RED
    assert crossings > 0  # the mission actually progresses through signals
    _announce(1, "reference scenario reproduction")


# -----------------------------------------------------------------------
# 2. Finite-time convergence bound in closed loop
# -----------------------------------------------------------------------


def test_criterion_2_convergence_bound_in_closed_loop():
    rng = np.random.RandomState(101)
    dt = 0.01
    sys1 = ControlSystem(n=1, m=1, f=lambda t, x: (0.0,), g=lambda t, x: ((1.0,),),
                         domain=Box((-1e9,), (1e9,)))
    bar = AffineBarrier("x", coeffs=(1.0,), offset=0.0)
    box = Box((-1e9,), (1e9,))
    for _ in range(100):
        rho = float(rng.uniform(0.0, 0.95))
        gamma = float(rng.uniform(0.1, 5.0))
        h0 = float(rng.uniform(-10.0, -0.1))
        params = FcbfParams(rho, gamma)
        bound = convergence_time(h0, params)

        x, t = (h0,), 0.0
        crossing = None
        horizon = bound + 2 * dt + 2.0
        while t < horizon:
            c = fcbf_constraint(bar, sys1, params, t, x)
            u = solve_qp(0.0, [c], box)
            assert u is not None
            x = integrate_step(sys1, t, x, u, dt)
            t += dt
            if crossing is None and x[0] >= 0.0:
                crossing = t
            elif crossing is not None:
                assert x[0] >= -MARGIN_TOL  # forward invariance after crossing
        assert crossing is not None
        assert crossing <= bound + 2 * dt + 1e-12
    _announce(2, "finite-time convergence bound")


# -----------------------------------------------------------------------
# 3. Closed-form bounds match the generic constraint generators
# -----------------------------------------------------------------------


def _rel_close(a, b, rtol=1e-9):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def test_criterion_3_closed_form_equivalence():
    rng = np.random.RandomState(202)
    vp = VehicleParams()
    lead = LeadProfile(8.0, [(0.0, 0.4), (25.0, 0.0), (50.0, -0.3), (75.0, 0.2)])
    sys = make_vehicle_system(vp, lead)
    h1_bar = SpacingBarrier(vp, lead)
    rho_v, rho_r = 0.91, 0.9

    checked = 0
    for _ in range(10_000):
        t = float(rng.uniform(0.0, 99.0))
        x = (float(rng.uniform(0.0, 500.0)), float(rng.uniform(0.0, 40.0)),
             float(rng.uniform(500.0, 2000.0)))

        # spacing bound
        c = cbf_constraint(h1_bar, sys, h1_bar.alpha, t, x)
        want = closed_form_bound("h1", t, x, vp, v_l=lead.velocity(t),
                                 a_l=lead.cached_motion(t)[1])
        assert _rel_close(constraint_upper_bound(c), want)

        # speed-limit invariance bound, alpha = 1/beta
        v_max = float(rng.choice([10.0, 25.0, 30.0]))
        vbar = AffineBarrier("v", coeffs=(0.0, -1.0, 0.0), offset=v_max,
                             alpha=h1_bar.alpha.__class__(1.0 / vp.beta))
        c = cbf_constraint(vbar, sys, vbar.alpha, t, x)
        assert _rel_close(constraint_upper_bound(c),
                          closed_form_bound("v", t, x, vp, v_max=v_max))

        # signal invariance bound against the next stop line
        p_i = float(rng.uniform(x[0] - 100.0, x[0] + 400.0))
        p_next = p_i + float(rng.uniform(100.0, 500.0))
        rbar = AffineBarrier("rb", coeffs=(-1.0, -vp.beta, 0.0), offset=p_next - vp.s0)
        c = cbf_constraint(rbar, sys, rbar.alpha, t, x)
        assert _rel_close(constraint_upper_bound(c),
                          closed_form_bound("rbar", t, x, vp, p_next=p_next))

        # finite-time variants with the deadline-derived gammas
        red = AffineBarrier("rd", coeffs=(-1.0, -vp.beta, 0.0), offset=p_i - vp.s0)
        yellow = float(rng.uniform(3.0, 6.0))
        g_r = gamma_for_deadline(red.h(t, x), rho_r, yellow)
        c = fcbf_constraint(red, sys, FcbfParams(rho_r, g_r), t, x)
        assert _rel_close(constraint_upper_bound(c),
                          closed_form_bound("r_fcbf", t, x, vp, p_signal=p_i,
                                            gamma=g_r, rho=rho_r))

        g_v = gamma_for_deadline(vbar.h(t, x), rho_v, 5.0)
        c = fcbf_constraint(vbar, sys, FcbfParams(rho_v, g_v), t, x)
        assert _rel_close(constraint_upper_bound(c),
                          closed_form_bound("v_fcbf", t, x, vp, v_max=v_max,
                                            gamma=g_v, rho=rho_v))
        checked += 1
    assert checked == 10_000
    _announce(3, "closed-form equivalence")


# -----------------------------------------------------------------------
# 4. QP against a brute-force grid search
# -----------------------------------------------------------------------


def test_criterion_4_qp_grid_oracle():
    rng = np.random.RandomState(42)
    cell = 0.01
    for k in range(200):
        m = 1 if k % 2 == 0 else 2
        lower, upper = (-2.0,) * m, (2.0,) * m
        box = Box(lower, upper)
        make_infeasible = rng.rand() < 0.25
        anchor = rng.uniform(-1.5, 1.5, size=m)
        rows = []
        for _ in range(rng.randint(1, 4 if make_infeasible else 6)):
            a = rng.uniform(-1, 1, size=m)
            if np.linalg.norm(a) < 0.1:
                a = a + 0.2 * np.sign(a + 1e-12)
            # feasible instances keep a slack ball around the anchor so the
            # infeasibility verdicts of solver and grid provably coincide
            rows.append((tuple(a), float(a @ anchor + rng.uniform(0.05, 1.0))))
        if make_infeasible:
            a = rng.uniform(-1, 1, size=m)
            a /= np.linalg.norm(a)
            b = float(a @ anchor)
            rows.append((tuple(a), b))
            rows.append((tuple(-a), -b - 0.2))
        assert len(rows) <= 5
        u_nom = tuple(rng.uniform(-3.0, 3.0, size=m))

        out = solve_qp(u_nom, [(a, b, "") for a, b in rows], box)
        ref = grid_qp(u_nom, rows, lower, upper, cell)

        assert (out is None) == (ref is None)  # infeasibility agrees exactly
        if out is None:
            continue
        for a, b in rows:  # never violates any constraint beyond 1e-9
            assert float(np.dot(a, out)) <= b + 1e-9
        assert all(lo - 1e-9 <= v <= hi + 1e-9 for v, lo, hi in zip(out, lower, upper))

        # agreement with the grid search, at the resolution a grid search can
        # certify: neither side may beat the other beyond one cell's worth of
        # objective. "No feasible point strictly closer to u_nom" is the sharp
        # direction; the converse bounds the grid argmin's excess by the
        # quantization of one cell step along an active face. In 1-D the
        # feasible set is an interval and the literal one-cell agreement in
        # the decision variable holds as well.
        d_out = sum((o - n) ** 2 for o, n in zip(out, u_nom))
        d_ref = sum((r - n) ** 2 for r, n in zip(ref, u_nom))
        assert d_out <= d_ref + 1e-9
        quant = 2.0 * math.sqrt(d_out) * cell * math.sqrt(m) + m * cell * cell
        assert d_ref - d_out <= quant + 1e-9
        if m == 1:
            assert abs(out[0] - ref[0]) <= cell + 1e-9
    _announce(4, "QP grid oracle")


# -----------------------------------------------------------------------
# 5. Compatibility checks against a dense grid
# -----------------------------------------------------------------------


def test_criterion_5_compatibility_grid_oracle():
    rng = np.random.RandomState(303)
    for _ in range(200):
        center = rng.uniform(-5, 5, size=2)
        half = rng.uniform(0.5, 5.0, size=2)
        lo, hi = center - half, center + half
        box = Box(tuple(lo), tuple(hi))
        cp, cn = rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2)
        dp = float(rng.uniform(-4, 4))
        dn = float(rng.uniform(-4, 4))
        bp = AffineBarrier("p", coeffs=tuple(cp), offset=dp)
        bn = AffineBarrier("n", coeffs=tuple(cn), offset=dn)

        xs = np.linspace(lo[0], hi[0], 201)
        ys = np.linspace(lo[1], hi[1], 201)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        hp = cp[0] * gx + cp[1] * gy + dp
        hn = cn[0] * gx + cn[1] * gy + dn
        confident = (np.abs(hp) >= 1e-6) & (np.abs(hn) >= 1e-6)

        res_sub = check_subset(bp, bn, 0.0, box)
        assert res_sub.method == "exact"
        grid_counterexample = bool(((hp >= 0) & (hn < 0) & confident).any())
        if res_sub.holds:
            assert not grid_counterexample
        else:
            cx = res_sub.counterexample
            assert bp.h(0.0, cx) >= -1e-9 and bn.h(0.0, cx) < 0

        res_int = check_intersection(bp, bn, 0.0, box)
        grid_witness = bool(((hp >= 1e-6) & (hn >= 1e-6)).any())
        if res_int.witness is None:
            assert not grid_witness
        else:
            w = res_int.witness
            assert bp.h(0.0, w) >= -1e-9 and bn.h(0.0, w) >= -1e-9
    _announce(5, "compatibility grid oracle")


# -----------------------------------------------------------------------
# 6. Grouping optimality
# -----------------------------------------------------------------------


def test_criterion_6_grouping_optimality():
    rng = np.random.RandomState(404)
    for _ in range(500):
        n = int(rng.randint(1, 51))
        starts = rng.uniform(0, 100, size=n)
        lengths = rng.uniform(0.01, 40, size=n)
        intervals = [(float(s), float(s + l)) for s, l in zip(starts, lengths)]
        spec = StlSpec(
            tasks=tuple(Globally(TimeInterval(a, b), PredicateRef("a"))
                        for a, b in intervals),
            horizon=200.0,
        )
        groups = group_tasks(spec)
        assert len(groups) == max_overlap_depth(intervals)
        assert sum(len(g.predicates) for g in groups) == n
    _announce(6, "grouping optimality")


# -----------------------------------------------------------------------
# 7. Analytic derivatives of every template
# -----------------------------------------------------------------------


def _smooth_errors(rng, bar, draw, n=1000):
    """The oracle's relative errors at the first n draws where h is smooth
    within one step; it returns None at the others."""
    errs = []
    while len(errs) < n:
        t, x = draw(rng)
        err = finite_diff_check(bar, t, x, step=1e-6)
        if err is not None:
            errs.append(err)
    return errs


def test_criterion_7_gradient_checks():
    rng = np.random.RandomState(505)
    vp = VehicleParams()
    lead = LeadProfile(5.0, [(0.0, 0.5), (30.0, -0.6), (60.0, 0.3)])
    limits = SpeedLimitSchedule([(0.0, 30.0), (40.0, 25.0), (80.0, 10.0)], 120.0)
    signals = generate_signal_plan(7, count=6, first_position=300.0)

    templates = [
        SpacingBarrier(vp, lead),
        speed_limit_barrier(limits, vp),
        TrafficSignalBarrier(signals, vp),
        AffineBarrier("lin", coeffs=(0.3, -1.2, 0.05), offset=7.0),
        SpacingBarrier(vp, lead).negate(),
    ]

    def draw(rng):
        return (
            float(rng.uniform(0.0, 119.0)),
            (float(rng.uniform(0.0, signals[-1].position - 1.0)),
             float(rng.uniform(0.0, 40.0)),
             float(rng.uniform(0.0, 4000.0))),
        )

    for bar in templates:
        worst = max(_smooth_errors(rng, bar, draw))
        assert worst < 1e-5, f"{bar.id}: worst relative error {worst:g}"
    _announce(7, "template gradient checks")


# -----------------------------------------------------------------------
# 8. Failure paths with documented exit codes
# -----------------------------------------------------------------------


def test_criterion_8_failure_paths(capsys, tmp_path):
    report = tmp_path / "fail_report.txt"
    code = cli_main(["run", "infeasible_red", "--report", str(report)])
    assert code == 3
    text = report.read_text()
    assert "status=failure" in text and "failure_stage=runtime" in text
    assert "qp_infeasible at t=1.010000" in text  # timestamped reason

    code = cli_main(["check", "incompatible_static"])
    out = capsys.readouterr().out
    assert code == 2
    assert "verdict=incompatible" in out
    assert "t=50" in out and "empty intersection" in out  # names the boundary
    _announce(8, "failure paths and exit codes")
