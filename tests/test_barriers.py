import math
from operator import mul
from pathlib import Path
from sys import version_info
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from oracles import (
    SafeSet,
    constraints_at,
    dot_fold,
    finite_diff_check,
    left_limit_lookup,
    pointwise_h_grid,
    reference_eval_rows,
    simulate_scalar_pull,
)
from stlcbf.barriers import (
    AffineBarrier,
    AlphaFn,
    Barrier,
    BarrierError,
    BarrierRegistry,
    BarrierViolation,
    Box,
    FcbfParams,
    IDENTITY_ALPHA,
    NegatedBarrier,
    TopBarrier,
    cbf_constraint,
    clip_rows,
    convergence_time,
    dot,
    eval_rows,
    fcbf_constraint,
    gamma_for_deadline,
    resolve_rows,
)
from stlcbf import contracts
from stlcbf.contracts import (
    RegionTable,
    ScheduleConfig,
    Verdict,
    _row_spec,
    build_schedule,
    check_subset,
    clip_groups,
    conjoin_groups,
)
from stlcbf.qp import QpError, solve_qp
from stlcbf.sim import ControlSystem, InitialConditionError, run_simulation
from stlcbf.stl import PredicateRef, TaskGroup, TimeInterval
from stlcbf.vehicle import (
    LeadProfile,
    SignalTimings,
    SpacingBarrier,
    TrafficSignalBarrier,
    VehicleParams,
)


def scalar_system():
    """x' = u on a 1-D state."""
    return ControlSystem(
        n=1, m=1, f=lambda t, x: (0.0,), g=lambda t, x: ((1.0,),),
        domain=Box((-1e6,), (1e6,)),
    )


class TestParamTypes:
    def test_alpha_positive_gain(self):
        with pytest.raises(BarrierError):
            AlphaFn(0.0)

    @pytest.mark.parametrize("kappa, need", [(math.inf, "finite"), (-math.inf, "positive"),
                                             (math.nan, "positive")])
    def test_alpha_gain_must_be_finite(self, kappa, need):
        with pytest.raises(BarrierError, match=rf"^alpha gain must be {need}, got {kappa}$"):
            AlphaFn(kappa)

    @pytest.mark.parametrize("lower, upper, match", [
        ((0.0, 0.0), (1.0,), "dimensions differ"),
        ((math.nan,), (1.0,), "must be finite"), ((0.0,), (math.nan,), "must be finite"),
        ((-math.inf,), (0.0,), "must be finite"), ((0.0,), (math.inf,), "must be finite"),
        ((1.0,), (-1.0,), "lower 1.0 exceeds upper -1.0"),
        ((0.0, -1e308), (1.0, 1e308), r"width 1e\+308 - \(-1e\+308\) overflows"),
        ((2.0,), (2.0,), None),
    ], ids=["unequal_lengths", "nan_lower", "nan_upper", "neg_inf_lower", "inf_upper",
            "inverted", "width_overflows", "zero_width"])
    def test_box_bounds_validated(self, lower, upper, match):
        """One check for the state domain D and the input box U: bounds of
        equal length, finite and ordered, and a finite width on each axis; a
        zero-width box is a box."""
        if match is None:
            assert Box(lower, upper).is_degenerate()
        else:
            with pytest.raises(BarrierError, match=match):
                Box(lower, upper)

    @pytest.mark.parametrize("rho,gamma", [(1.0, 1.0), (-0.1, 1.0), (0.5, 0.0)])
    def test_fcbf_params_validated(self, rho, gamma):
        with pytest.raises(BarrierError):
            FcbfParams(rho, gamma)

    def test_infeasible_marker(self):
        """A row (a, b, label) with a zero a marks an empty set when b < 0
        and is vacuous when b >= 0; solve_qp is what reads the marker."""
        box = Box((-2.0,), (2.0,))
        assert solve_qp(0.5, [((0.0,), -1.0, "")], box) is None
        assert solve_qp(0.5, [((0.0,), 1.0, "")], box) == (0.5,)
        assert solve_qp(0.5, [((1.0,), -1.0, "")], box) == (-1.0,)


class TestCbfConstraint:
    def test_speed_limit_on_double_integrator(self, double_integrator):
        # h = 25 - V at V=20 with alpha(h)=h gives u <= 5
        bar = AffineBarrier("v25", coeffs=(0.0, -1.0), offset=25.0)
        a, b, _ = cbf_constraint(bar, double_integrator, IDENTITY_ALPHA, 0.0, (0.0, 20.0))
        assert a == (1.0,)
        assert b == pytest.approx(5.0)

    def test_constant_inside_barrier_is_vacuous(self, double_integrator):
        bar = AffineBarrier("one", coeffs=(0.0, 0.0), offset=1.0)
        a, b, _ = cbf_constraint(bar, double_integrator, IDENTITY_ALPHA, 0.0, (0.0, 0.0))
        assert a == (0.0,) and b == pytest.approx(1.0) and not any(a) and b >= 0

    def test_constant_outside_barrier_is_infeasible_marker(self, double_integrator):
        bar = AffineBarrier("neg", coeffs=(0.0, 0.0), offset=-1.0)
        a, b, _ = cbf_constraint(bar, double_integrator, IDENTITY_ALPHA, 0.0, (0.0, 0.0))
        assert not any(a) and b < 0

    def test_boundary_input_zeroes_propagated_rate(self, double_integrator):
        # on a.u = b the closed-loop dh/dt + alpha(h) must vanish
        bar = AffineBarrier("v25", coeffs=(0.0, -1.0), offset=25.0)
        for v, kappa in ((20.0, 1.0), (27.5, 0.5), (3.0, 2.0)):
            alpha = AlphaFn(kappa)
            x = (1.0, v)
            (a,), b, _ = cbf_constraint(bar, double_integrator, alpha, 0.0, x)
            u = b / a
            _, dh_dt, grad = bar.terms(0.0, x)
            fv = double_integrator.f(0.0, x)
            hdot = dh_dt + sum(
                gi * (fi + gm[0] * u)
                for gi, fi, gm in zip(grad, fv, double_integrator.g(0.0, x))
            )
            assert abs(hdot + alpha.kappa * bar.h(0.0, x)) < 1e-9


class TestFcbfConstraint:
    def test_outside_set_demands_convergence(self):
        # h = x at x=-1, rho=0.9, gamma=2: constraint -u <= -2, i.e. u >= 2
        bar = AffineBarrier("x", coeffs=(1.0,), offset=0.0)
        a, b, _ = fcbf_constraint(bar, scalar_system(), FcbfParams(0.9, 2.0), 0.0, (-1.0,))
        assert a == (-1.0,)
        assert b == pytest.approx(-2.0)

    def test_sign_zero_on_boundary(self):
        bar = AffineBarrier("x", coeffs=(1.0,), offset=0.0)
        _, b, _ = fcbf_constraint(bar, scalar_system(), FcbfParams(0.9, 2.0), 0.0, (0.0,))
        assert b == pytest.approx(0.0)

    def test_inside_set_relaxes_by_gamma_h_rho(self, double_integrator):
        # for h > 0 the bound exceeds the alpha-free drift by exactly gamma h^rho
        bar = AffineBarrier("v25", coeffs=(0.0, -1.0), offset=25.0)
        p = FcbfParams(0.5, 3.0)
        x = (0.0, 20.0)
        _, b, _ = fcbf_constraint(bar, double_integrator, p, 0.0, x)
        drift_only = cbf_constraint(bar, double_integrator, AlphaFn(1.0), 0.0, x)[1] \
            - bar.h(0.0, x)
        assert b - drift_only == pytest.approx(p.gamma * 5.0 ** p.rho)


class Bowl(Barrier):
    """h = c - sum(w_i x_i^2) / 2: like h1, `terms` builds a new gradient
    tuple, with new values, at every call."""

    def __init__(self, weights, c):
        super().__init__("bowl")
        self.weights, self.c = weights, c

    def terms(self, t, x):
        h = self.c - 0.5 * sum(w * xi * xi for w, xi in zip(self.weights, x))
        return h, 0.25, tuple(-w * xi for w, xi in zip(self.weights, x))


DOT_ENTRIES = (st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300,
                                 math.inf, -math.inf, math.nan, 0, -3, 2 ** 53 + 1))
               | st.floats() | st.integers(-2 ** 70, 2 ** 70)
               | st.floats().map(np.float64))


def _dot_bits(v):
    """v's type and bits; every NaN reads the same."""
    return type(v), v.hex() if isinstance(v, float) else v


class TestDotFor:
    """`dot` is a left fold from the int 0 over the products: the float
    operations of `sum` up to Python 3.11, on every Python, and those that
    the generated row evaluator writes out."""

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(*[st.lists(DOT_ENTRIES, min_size=n,
                                                                    max_size=n)] * 2)))
    def test_matches_the_left_fold_bit_for_bit(self, vectors):
        a, b = vectors
        with np.errstate(all="ignore"):
            got = dot(a, b)
            want = dot_fold(a, b)
            assert _dot_bits(got) == _dot_bits(want)
            if version_info < (3, 12):  # 3.12's sum compensates
                assert _dot_bits(got) == _dot_bits(sum(map(mul, a, b)))

    def test_no_compensation(self):
        # a compensated sum gives 1.0 for the first, a fold from a float zero -0.0
        # for the second
        for a, b in (((1e16, 1.0, -1e16), (1.0, 1.0, 1.0)), ((-0.0, -0.0), (1.0, 1.0))):
            assert dot(a, b).hex() == (0.0).hex()
            # one affine row h = a.x over x = b, with g's column b and f(t, x) = 0:
            # a = -(a.b) = -0.0, h = 0.0 and b = grad.f + h = 0.0
            zeros, gm = (0.0,) * len(b), tuple((v,) for v in b)
            rows = resolve_rows((("cbf:a", None, a, 0.0, IDENTITY_ALPHA, None),), gm)
            assert [_row_bits(row) for row in eval_rows(rows, 0.0, b, zeros, -math.inf,
                                                        out=[])] == [
                ("cbf:a", [(-0.0).hex()], (0.0).hex())]
            # the clip sink: h = 0.0 meets a floor of 0.0, and not one of 0.5
            assert eval_rows(rows, 0.0, b, zeros, 0.0, -1.0, 1.0) == (-1.0, 1.0)
            assert eval_rows(rows, 0.0, b, zeros, 0.5, -1.0, 1.0) is None

    def test_src_computes_no_dot_with_sum(self):
        # one dot idiom, whose bits do not depend on the Python version
        src = Path(__file__).resolve().parent.parent / "src" / "stlcbf"
        assert [p.name for p in sorted(src.glob("*.py"))
                if "sum(map(mul" in p.read_text()] == []


THREE_STATES = ControlSystem(n=3, m=1, f=lambda t, x: (1.0, 2.0, 0.0),
                             g=lambda t, x: ((0.0,), (1.0,), (0.0,)),
                             domain=Box((-1e3,) * 3, (1e3,) * 3))


class TestGradientLength:
    """A gradient with another number of entries than the state is a
    `BarrierError` that names the row or barrier and both lengths, not a
    row over the shorter of the two vectors."""

    @pytest.mark.parametrize("coeffs", [(0.0, -1.0), (0.0, -1.0, 0.0, 0.0)])
    def test_affine_barrier(self, coeffs):
        bar = AffineBarrier("short", coeffs=coeffs, offset=5.0)
        for constraint, gains in ((cbf_constraint, IDENTITY_ALPHA),
                                  (fcbf_constraint, FcbfParams(0.5, 1.0))):
            with pytest.raises(BarrierError,
                               match=rf"^barrier 'short' has {len(coeffs)} coefficients, "
                                     r"x has 3 entries$"):
                constraint(bar, THREE_STATES, gains, 0.0, (1.0, 2.0, 3.0))
        spec = ("cbf:short", bar, *bar.affine_on(0.0, 1.0), IDENTITY_ALPHA, None)
        with pytest.raises(BarrierError, match=rf"^cbf:short: {len(coeffs)} coefficients, "
                                               r"the system has 3 states$"):
            resolve_rows((spec,), THREE_STATES.g(0.0, None))

    def test_terms_gradient(self):
        bowl, x = Bowl((1.0, 0.5), 40.0), (1.0, 2.0, 3.0)  # its gradient has 2 entries
        rows = resolve_rows((("cbf:bowl", bowl, None, None, IDENTITY_ALPHA, None),),
                            THREE_STATES.g(0.0, x))
        message = r"^cbf:bowl: gradient has 2 entries, the system has 3 states$"
        with pytest.raises(BarrierError, match=message):
            cbf_constraint(bowl, THREE_STATES, IDENTITY_ALPHA, 0.0, x)
        with pytest.raises(BarrierError, match=message):  # the clip sink
            eval_rows(rows, 0.0, x, THREE_STATES.f(0.0, x), -math.inf, -5.0, 5.0)


def _row_bits(row):
    a, b, label = row
    return label, [ai.hex() for ai in a], b.hex()


def list_rows(specs, t, x, sys, dyn=None, floor=-math.inf) -> list:
    """The (a, b, label) rows of `specs` at (t, x): `resolve_rows`, then
    `eval_rows`' list sink."""
    fv, gm = dyn if dyn is not None else (sys.f(t, x), sys.g(t, x))
    return eval_rows(resolve_rows(specs, gm), t, x, fv, floor, out=[])


def clip_sink_reads(rows) -> bool:
    """Whether `eval_rows`' clip sink may read `resolve_rows` rows, by
    `clip_rows`' rule: g has one column, and every affine row's a[0] is
    finite."""
    return all(len(a) == 1 and (grad is None or math.isfinite(a[0]))
               for _, _, grad, *_, a in rows)


class TestConstraintRowCache:
    """One `RegionTable` keeps its plan's rows, resolved once per plan and g
    object, and serves them step after step. Its `conjoin_groups` row, and
    at m = 1 its `clip_groups` bounds, must equal a fresh `cbf_constraint` or
    `fcbf_constraint` row bit for bit at every step, whatever the gradient
    and g do between steps. The plan changes at each whole second."""

    G_KINDS = ("constant", "fresh_equal", "changing", "switching")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_kept_row_matches_fresh_row(self, data):
        n, m = data.draw(st.integers(1, 4), "n"), data.draw(st.integers(1, 3), "m")
        entries = st.floats(-10.0, 10.0)

        def matrix():
            return tuple(tuple(data.draw(entries) for _ in range(m)) for _ in range(n))

        g0, g1 = matrix(), matrix()
        g = {
            "constant": lambda t, x: g0,  # one object
            "fresh_equal": lambda t, x: tuple(tuple([*r]) for r in g0),  # new, equal
            "changing": lambda t, x: tuple(tuple(v + 0.5 * (i + 1) * x[0] for v in r)
                                           for i, r in enumerate(g0)),  # new values
            "switching": lambda t, x: g0 if x[0] >= 0 else g1,  # two objects in turn
        }[data.draw(st.sampled_from(self.G_KINDS), "g")]
        sys = ControlSystem(n=n, m=m, f=lambda t, x: tuple(0.5 * xi - 1.0 for xi in x), g=g,
                            domain=Box((-1e3,) * n, (1e3,) * n))
        coeffs = tuple(data.draw(entries) for _ in range(n))
        bar = data.draw(st.sampled_from(
            [AffineBarrier("aff", coeffs=coeffs, offset=3.0), Bowl(coeffs, 40.0)]), "barrier")
        if data.draw(st.booleans(), "negated"):
            bar = NegatedBarrier(bar)
        if data.draw(st.booleans(), "fcbf"):
            gen, label, param = fcbf_constraint, "fcbf:" + bar.id, FcbfParams(0.5, 2.0)
            alpha, params = None, param
        else:
            gen, label, param = cbf_constraint, "cbf:" + bar.id, AlphaFn(1.5)
            alpha, params = param, None
        use_dyn = data.draw(st.booleans(), "dyn")
        states = data.draw(st.lists(st.tuples(*[entries] * n), min_size=1, max_size=8), "xs")
        u, box = data.draw(entries, "u"), Box((-5.0,), (5.0,))

        def plan(t, x, engagements):
            t0 = float(math.floor(t))
            return t0, t0 + 1.0, [_row_spec(bar, label, t0, t0 + 1.0, alpha, params)]

        table = RegionTable([SimpleNamespace(region=(-math.inf, math.inf), plan=plan)])
        for k, x in enumerate(states):
            t = 0.5 * k
            dyn = (sys.f(t, x), sys.g(t, x)) if use_dyn else None
            fresh = gen(bar, sys, param, t, x, dyn)
            if m == 1:
                fv, gm = dyn if use_dyn else (sys.f(t, x), sys.g(t, x))
                bounds = clip_groups(table, t, x, fv, gm, -math.inf, -5.0, 5.0)
                try:
                    want = solve_qp(u, [fresh], box)
                except BarrierError:  # a non-finite row
                    want = None
                if want is None:
                    assert bounds is None
                else:
                    assert min(max(u, bounds[0]), bounds[1]).hex() == want[0].hex()
            (kept,) = conjoin_groups(table, t, x, sys, dyn)
            assert _row_bits(kept) == _row_bits(fresh)


LIE_BASES = ((0.0, -1.0, 0.0), (-1.0, -1.8, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0))


class TestSharedLieSums:
    """`eval_rows` computes grad.x and grad.f once for affine rows whose
    coefficients compare equal. Each row must still equal the row its spec
    gives alone, bit for bit: with equal coefficients in distinct tuples or
    differing in the sign of a zero (a negated (0, 1, 0) beside (0, -1, 0)),
    `terms` rows between and around them, and finite-time rows at h < 0,
    h = 0 and h > 0."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_rows_equal_one_spec_rows(self, data):
        x = tuple(data.draw(SIGNED) for _ in range(3))
        fv = tuple(data.draw(SIGNED) for _ in range(3))
        gm = ((0.0, 1.0), (0.5, -0.0), (0.0, 2.0))
        sys = ControlSystem(n=3, m=2, f=lambda t, x: fv, g=lambda t, x: gm,
                            domain=Box((-1e3,) * 3, (1e3,) * 3))
        specs = []
        for i in range(data.draw(st.integers(1, 8), "rows")):
            kind = data.draw(st.sampled_from(("copy", "negated", "drawn", "terms")))
            if kind == "terms":
                bar = data.draw(st.sampled_from(
                    [Bowl((1.0, 0.5, 0.0), 40.0), AffineBarrier("t", coeffs=(0.0, -1.0, 0.0),
                                                                  offset=3.0)]))
                coeffs = offset = None
            else:
                base = data.draw(st.sampled_from(LIE_BASES))
                if kind == "drawn":
                    base = tuple(data.draw(SIGNED) for _ in range(3))
                bar = AffineBarrier(f"b{i}", coeffs=[*base], offset=1.0)  # its own tuple
                if kind == "negated":
                    bar = NegatedBarrier(bar)
                coeffs = bar.affine_on(0.0, 1.0)[0]
                lie_x = sum(map(mul, coeffs, x))
                offset = data.draw(st.sampled_from([-lie_x - 1.0, -lie_x, -lie_x + 1.0])
                                   | SIGNED)  # h < 0, h = 0, h > 0, or any
            if data.draw(st.booleans(), "fcbf"):
                alpha, params = None, FcbfParams(data.draw(st.sampled_from([0.0, 0.5, 0.9])),
                                                 2.0)
            else:
                alpha, params = AlphaFn(data.draw(st.sampled_from([0.5, 1.0, 3.0]))), None
            specs.append((f"r{i}", bar, coeffs, offset, alpha, params))

        dyn = (fv, gm) if data.draw(st.booleans(), "dyn") else None
        got = list_rows(specs, 0.5, x, sys, dyn)
        want = [list_rows((s,), 0.5, x, sys, dyn)[0] for s in specs]
        assert list(map(_row_bits, got)) == list(map(_row_bits, want))


class TestInvarianceFloor:
    """Only a caller that passes a floor, the synthesis loop, has an
    invariance row below it raise; library queries at h < 0 return rows."""

    POS = AffineBarrier("pos", coeffs=(1.0,), offset=0.0)

    def _schedule(self):
        reg = BarrierRegistry()
        reg.register(self.POS)
        group = TaskGroup("G", ((TimeInterval(0.0, 20.0), PredicateRef("pos")),))
        return build_schedule(group, reg, ScheduleConfig(domain=Box((-50.0,), (50.0,)),
                                                         horizon=20.0))

    def test_library_calls_never_raise_below_zero(self):
        assert cbf_constraint(self.POS, scalar_system(), IDENTITY_ALPHA, 0.0, (-5.0,)) == \
            ((-1.0,), -5.0, "cbf:pos")
        (row,) = constraints_at(self._schedule(), 1.0, (-5.0,), scalar_system(), {})
        assert row[0] == (-1.0,) and row[1] == -5.0

    def test_floor_guards_invariance_rows_only(self):
        cbf = ("cbf:pos", self.POS, None, None, IDENTITY_ALPHA, None)
        fcbf = ("fcbf:pos", self.POS, None, None, None, FcbfParams(0.5, 1.0))
        assert list_rows((cbf,), 0.0, (-1e-3,), scalar_system(), floor=-1e-3)
        with pytest.raises(BarrierViolation, match=r"^cbf:pos h=-0\.0011$") as info:
            list_rows((fcbf, cbf), 0.0, (-0.0011,), scalar_system(), floor=-1e-3)
        assert (info.value.label, info.value.h) == ("cbf:pos", -0.0011)
        assert list_rows((fcbf,), 0.0, (-5.0,), scalar_system(), floor=-1e-3)

    @pytest.mark.parametrize("tol, t_fail, h", [(1e-3, 5.0, -0.4), (0.5, 15.0, -6.4)])
    def test_run_ends_where_a_sampled_dip_passes_tol(self, tol, t_fail, h):
        # u >= -h holds at each sample, but a 5 s step at u = -h overshoots:
        # x = 0.1, 0.1 - 5 * 0.1 = -0.4, -0.4 + 5 * 0.4 = 1.6, 1.6 - 5 * 1.6 = -6.4
        res = run_simulation(scalar_system(), [self._schedule()], lambda t, x: -10.0,
                             Box((-10.0,), (10.0,)), (0.1,), dt=5.0, t_max=20.0, tol=tol)
        assert res.failure.describe() == (
            f"barrier_violated at t={t_fail:.6f} [cbf:pos h={h:g}]")
        assert res.trace.qp_status[-1] == "violated" and math.isnan(res.trace.u_safe[-1, 0])
        assert res.trace.u_nom[-1, 0] == -10.0


FEW = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0)
ODD = (1e-300, -1e-300, 1e200, -1e200, math.inf, -math.inf, math.nan)
CLIP_GRADS = ((0.0, -1.0), (-0.0, -1.0), (-1.0, -1.8), (1.0, 0.0), (0.0, 0.0), (0.0, -1e200))


def _num(draw, odd: int = 1) -> float:
    """A float: mostly a small or signed-zero one, and `odd` times in ten a
    tiny, huge or non-finite one."""
    k = draw(st.integers(0, 9))
    if k < odd:
        return draw(st.sampled_from(ODD))
    return draw(st.sampled_from(FEW)) if k < 6 else draw(st.floats(-10.0, 10.0))


def _admitting(deficit: float, drift) -> tuple:
    """An h >= 0 at which a drift like `drift` makes up `deficit`, and that
    drift: the least such h, but with rho = 0, where the drift is gamma at
    every h > 0, gamma rises to 2 * deficit if it is less and h is 1."""
    if not deficit > 0:
        return 0.0, drift
    if drift[0] == "cbf":
        return deficit / drift[1], drift
    _, rho, gamma = drift
    if not rho:
        return 1.0, ("fcbf", 0.0, max(gamma, 2 * deficit))
    try:
        return (deficit / gamma) ** (1 / rho), drift
    except OverflowError:
        return 1e300, drift


@st.composite
def clip_cases(draw):
    """(x, f, g, (lo, hi), floor, u, rows) for a 2-state, 1-input plan. A row
    is (source, coeffs, negated, offset, drift): its barrier, affine with a
    form ("form") or read through `terms` ("terms", or the quadratic "bowl"
    with coeffs as weights); drift ("cbf", kappa) or ("fcbf", rho, gamma).
    Odd values are picked per case, as in `parallel_cases`: in one case in
    three, a number is, one time in ten, tiny, huge or not finite, an entry
    of g, one time in five, not finite, and a row's h at x may be negative
    or its offset anything. Every other case draws small numbers, f from
    `FEW`, one input u* in [lo, hi] and rows around it: each row's h at x is
    the least h >= 0 whose drift makes up what dh/dt + grad.(f + g u*) lacks,
    plus 0, 1e-300, 1 or up to 20, so that plans of many rows still end with
    bounds."""
    odd = int(draw(st.integers(0, 2)) == 0)

    def num() -> float:
        return _num(draw, odd)

    x = (num(), num())
    fv = (num(), num()) if odd else (draw(st.sampled_from(FEW)), draw(st.sampled_from(FEW)))
    gm = tuple((draw(st.sampled_from((math.inf, -math.inf, math.nan))),)
               if odd and draw(st.integers(0, 9)) < 2 else (_num(draw, 0),) for _ in x)
    if draw(st.integers(0, 19)) == 0:  # g with two columns
        gm = tuple(r + (num(),) for r in gm)
    lo, hi = sorted(draw(st.sampled_from((-5.0, -1.0, -0.0, 0.0, 1.0, 5.0))) for _ in "lh")
    floor = draw(st.sampled_from((-math.inf, -math.inf, -1e-3, 0.0)))
    u_star = draw(st.sampled_from((lo, hi, lo / 2 + hi / 2)))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        source = draw(st.sampled_from(("form", "form", "terms", "bowl")))
        if draw(st.booleans()):
            coeffs = draw(st.sampled_from(CLIP_GRADS))
        else:
            coeffs = (num(), num())
        negated = draw(st.booleans())
        if draw(st.booleans()):
            drift = ("cbf", draw(st.sampled_from((0.5, 1.0, 3.0))))
        else:
            drift = ("fcbf", draw(st.sampled_from((0.0, 0.5, 0.9))),
                     draw(st.sampled_from((1e-3, 2.0))))
        if source == "bowl":  # h at x of offset 0, not negated, its dh/dt and gradient
            base, dh, grad = (-0.5 * sum(w * v * v for w, v in zip(coeffs, x)), 0.25,
                              tuple(-w * v for w, v in zip(coeffs, x)))
        else:
            base, dh, grad = sum(map(mul, coeffs, x)), 0.0, coeffs
        if odd:
            if draw(st.booleans()):  # h < 0, h = 0 or h > 0 at x
                h = draw(st.sampled_from((-1.0, -1e-300, 0.0, 1e-300, 1.0)))
            else:  # any offset
                h = None
        else:
            lie = dh + sum(gi * (fi + r[0] * u_star) for gi, fi, r in zip(grad, fv, gm))
            need, drift = _admitting(lie if negated else -lie, drift)
            h = need + draw(st.sampled_from((0.0, 1e-300, 1.0)) | st.floats(0.0, 20.0))
        offset = num() if h is None else (-h if negated else h) - base
        rows.append((source, coeffs, negated, offset, drift))
    return x, fv, gm, (lo, hi), floor, _num(draw, 0), tuple(rows)


def _clip_specs(rows) -> list:
    """Specs of `clip_cases` rows, each with its own barrier and label."""
    specs = []
    for i, (source, coeffs, negated, offset, drift) in enumerate(rows):
        if source == "bowl":
            bar = Bowl(coeffs, offset)
        else:
            bar = AffineBarrier(f"b{i}", coeffs=[*coeffs], offset=offset)  # its own tuple
        if negated:
            bar = NegatedBarrier(bar)
        form = bar.affine_on(0.0, 1.0) if source == "form" else None
        alpha, params = ((AlphaFn(drift[1]), None) if drift[0] == "cbf"
                         else (None, FcbfParams(*drift[1:])))
        specs.append((f"r{i}", bar, *(form or (None, None)), alpha, params))
    return specs


ZERO_X, ZERO_F, UNIT_G = (0.0, 0.0), (0.0, 0.0), ((0.0,), (1.0,))
CBF = ("cbf", 1.0)


class TestClipSink:
    """The m = 1 clip sink of `eval_rows` against its list sink and
    `solve_qp`: where `solve_qp` returns a clip, the pass gives bounds whose
    clip of u equals it bit for bit; where the list sink or `solve_qp` raise
    or return None, the pass returns None."""

    @settings(max_examples=600, deadline=None)
    @given(clip_cases())
    # a terms row's upper bound 0.0 ties an affine row's -0.0 (-1e-300 / 1e200):
    # the first one read stays, so the rows' order shows in the sign of u
    @example((ZERO_X, ZERO_F, UNIT_G, (-5.0, 5.0), -1e-3, 1.0,
              (("terms", (0.0, -1.0), False, 0.0, CBF),
               ("form", (0.0, -1e200), False, -1e-300, CBF))))
    # a NaN b on a row with a > 0; an infinite a on a terms row, and on an
    # affine row, each with a finite b
    @example(((1.0, 1.0), (math.nan, 0.0), UNIT_G, (-5.0, 5.0), -1e-3, 1.0,
              (("form", (-1.0, -1.8), False, 10.0, CBF),)))
    @example((ZERO_X, ZERO_F, ((0.0,), (math.inf,)), (-5.0, 5.0), -1e-3, 1.0,
              (("terms", (0.0, -1.0), False, 1.0, CBF),)))
    @example((ZERO_X, ZERO_F, ((0.0,), (math.inf,)), (-5.0, 5.0), -1e-3, 1.0,
              (("form", (0.0, -1.0), False, 1.0, CBF),)))
    def test_pass_matches_list_sink_and_solve_qp(self, case):
        x, fv, gm, (lo, hi), floor, u, rows = case
        sys = ControlSystem(n=2, m=1, f=lambda t, x: fv, g=lambda t, x: gm,
                            domain=Box((-1e3,) * 2, (1e3,) * 2))
        try:
            want = solve_qp(u, list_rows(_clip_specs(rows), 0.5, x, sys, (fv, gm), floor),
                            Box((lo,), (hi,)))
        except (BarrierViolation, BarrierError, QpError):
            want = None
        resolved = resolve_rows(_clip_specs(rows), gm)
        bounds = (eval_rows(resolved, 0.5, x, fv, floor, lo, hi) if clip_sink_reads(resolved)
                  else None)
        if want is None:
            assert bounds is None
        else:
            assert bounds is not None
            assert min(max(u, bounds[0]), bounds[1]).hex() == want[0].hex()


class Fixed(Barrier):
    """`terms` gives the same (h, dh/dt, gradient) at every (t, x)."""

    def __init__(self, h, dh, grad):
        super().__init__("fixed")
        self.fixed = (h, dh, grad)

    def terms(self, t, x):
        return self.fixed


@st.composite
def evaluator_cases(draw):
    """(rows, x, fv, floor, lo, hi) for n = 1 to 5 states and 1 or 2 inputs:
    up to 6 resolved rows, affine ones over two drawn gradients (each row
    its own tuple, a zero coefficient of either sign) and `terms` ones (a
    fixed gradient or `Bowl`'s), with invariance or finite-time drifts, half
    the time through `clip_rows`. Tiny, huge and non-finite numbers (`_num`)
    come in one case in three; one time in seven each, the fixed gradient,
    x or fv has another length than n."""
    n, odd = draw(st.integers(1, 5)), draw(st.sampled_from((0, 0, 1)))

    def vector(size):
        return tuple(_num(draw, odd) for _ in range(size))

    def length():
        return max(n + draw(st.sampled_from((0,) * 12 + (-1, 1))), 0)

    gm = tuple(vector(draw(st.shared(st.sampled_from((1, 1, 2)), key="m"))) for _ in range(n))
    bases, specs = (vector(n), vector(n)), []
    for i in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 3)) == 0:
            bar = draw(st.sampled_from((Fixed(*vector(2), vector(length())),
                                        Bowl(vector(n), _num(draw, odd)))))
            coeffs = offset = None
        else:
            coeffs = tuple(-c if c == 0 and draw(st.booleans()) else c
                           for c in draw(st.sampled_from(bases)))
            bar, offset = None, _num(draw, odd)
        if draw(st.booleans()):
            alpha, params = None, FcbfParams(draw(st.sampled_from((0.0, 0.5, 0.9))), 2.0)
        else:
            alpha, params = AlphaFn(draw(st.sampled_from((0.5, 1.0, 1e300)))), None
        specs.append((f"r{i}", bar, coeffs, offset, alpha, params))
    rows = resolve_rows(specs, gm)
    if draw(st.booleans()):
        rows = clip_rows(rows) or rows
    lo, hi = sorted(draw(st.sampled_from((-5.0, -0.0, 0.0, 5.0, -1e300, 1e300))) for _ in "lh")
    floor = draw(st.sampled_from((-math.inf, -math.inf, -1e-3, 0.0)))
    return rows, vector(length()), vector(length()), floor, lo, hi


def _outcome(evaluate, rows, x, fv, floor, lo, hi, out):
    """What an evaluator gives, by type and bits: its result, or its
    exception's type, message and (for a `BarrierViolation`) label and h;
    and the rows it appended to `out` before it returned or raised."""
    def bits(v):
        if isinstance(v, (tuple, list)):
            return type(v).__name__, [bits(e) for e in v]
        return type(v).__name__, v.hex() if isinstance(v, float) else repr(v)

    try:
        result = bits(evaluate(rows, 0.5, x, fv, floor, lo, hi, out))
    except BarrierViolation as exc:
        result = "BarrierViolation", str(exc), exc.label, exc.h.hex()
    except (BarrierError, ValueError, TypeError) as exc:
        result = type(exc).__name__, str(exc)
    return result, None if out is None else bits(out)


class TestGeneratedEvaluator:
    """`eval_rows` runs the evaluator generated for the state width; both
    sinks must give what the generic evaluator it replaced
    (`oracles.reference_eval_rows`) gives, bit for bit, and raise what it
    raises, with the same message, where a row falls below the floor or a
    gradient, x or fv has another length."""

    @settings(max_examples=1000, deadline=None)
    @given(evaluator_cases(), st.booleans())
    def test_both_sinks_match_the_reference(self, case, list_sink):
        rows, x, fv, floor, lo, hi = case
        got = _outcome(eval_rows, rows, x, fv, floor, lo, hi, [] if list_sink else None)
        want = _outcome(reference_eval_rows, rows, x, fv, floor, lo, hi,
                        [] if list_sink else None)
        assert got == want

    def test_a_short_fv_raises_at_the_first_row(self):
        x, fv = (1.0, 2.0, 3.0), (1.0, 2.0)
        bowl = ("cbf:bowl", Bowl((1.0, 0.5, 0.0), 40.0), None, None, IDENTITY_ALPHA, None)
        cap = ("cbf:cap", None, (0.0, -1.0, 0.0), 5.0, IDENTITY_ALPHA, None)
        gm = THREE_STATES.g(0.0, x)
        with pytest.raises(BarrierError, match=r"^cbf:bowl: gradient has 3 entries, "
                                               r"the system has 3 states$"):
            eval_rows(resolve_rows((bowl, cap), gm), 0.0, x, fv, -math.inf, out=[])
        with pytest.raises(ValueError, match=r"^not enough values to unpack"):
            eval_rows(resolve_rows((cap, bowl), gm), 0.0, x, fv, -math.inf, out=[])
        assert eval_rows((), 0.0, x, fv, -math.inf, out=[]) == []  # no row reads fv

    @staticmethod
    def _assert_sinks_match_reference(rows, x, fv):
        for x, fv in ((x, fv), ((math.inf, 2.0), fv), (x, (math.nan, -1.0))):
            for list_sink in (True, False):
                got, want = (_outcome(evaluate, rows, x, fv, -1e-3, -5.0, 5.0,
                                      [] if list_sink else None)
                             for evaluate in (eval_rows, reference_eval_rows))
                assert got == want

    @pytest.mark.parametrize("forms", [
        # equal coefficients in distinct tuples, around another gradient
        [tuple([0.5, -1.0]), tuple([0.5, -1.0]), (1.0, 1.0), tuple([0.5, -1.0])],
        # list-valued forms, equal to each other and to a tuple
        [[0.5, -1.0], (0.5, -1.0), [0.5, -1.0], [1.0, 1.0]],
        # +-0.0 twins
        [(0.0, -1.0), (-0.0, -1.0), (-0.0, -1.0), (1.0, -0.0), (1.0, 0.0)],
        # NaN coefficients: one NaN object in two tuples, then another NaN object
        [(math.nan, -1.0), (math.nan, -1.0), (float("nan"), -1.0), (0.5, math.nan)],
    ], ids=["distinct-objects", "lists", "signed-zeros", "nans"])
    def test_shared_coefficients_match_the_reference(self, forms):
        """Equal coefficients share one object, and the generated evaluator
        reuses Lie sums by identity where the reference compares values."""
        specs = [(f"cbf:r{i}", None, form, float(i), AlphaFn(1.0 + i % 2), None)
                 for i, form in enumerate(forms)]
        specs.insert(2, ("cbf:bowl", Bowl((1.0, 0.5), 40.0), None, None, IDENTITY_ALPHA, None))
        specs.append(("fcbf:w", None, forms[0], 0.25, None, FcbfParams(0.5, 2.0)))
        rows = resolve_rows(specs, UNIT_G)
        for i, (_, _, form, *_) in enumerate(specs):
            for j in range(i):
                if form is not None and specs[j][2] is not None:
                    # shared exactly where the values compare equal
                    assert (rows[i][2] is rows[j][2]) == (tuple(form) == tuple(specs[j][2]))
        self._assert_sinks_match_reference(rows, (0.25, -1.5), (0.5, 2.0))
        self._assert_sinks_match_reference(clip_rows(rows) or rows, (0.25, -1.5), (0.5, 2.0))

    @pytest.mark.parametrize("gm, want", [
        (((), ()), [("cbf:cap", [], (4.0).hex()), ("cbf:t", [], (1.0).hex())]),
        (((1.0, 0.0), (0.0, 2.0)),
         [("cbf:cap", [(-0.0).hex(), (2.0).hex()], (4.0).hex()),
          ("cbf:t", [(-1.0).hex(), (-0.0).hex()], (1.0).hex())]),
    ], ids=["m=0", "m=2"])
    def test_list_sink_takes_any_number_of_inputs(self, gm, want):
        specs = [("cbf:cap", None, (0.0, -1.0), 5.0, IDENTITY_ALPHA, None),
                 ("cbf:t", AffineBarrier("t", coeffs=(1.0, 0.0), offset=-0.5), None, None,
                  IDENTITY_ALPHA, None)]
        rows = resolve_rows(specs, gm)
        got = eval_rows(rows, 0.0, (1.0, 2.0), (0.5, -1.0), -math.inf, out=[])
        assert [_row_bits(row) for row in got] == want
        assert clip_rows(rows) is None  # the clip sink reads one input only


PARALLEL_OFFSETS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308, math.inf,
                    -math.inf, math.nan)
KAPPAS = (1e-300, 1e-10, 0.5, 1.0, 3.0, 1e10, 1e300)


@st.composite
def parallel_cases(draw):
    """(x, f, g, (lo, hi), floor, specs) for a 2-state, 1-input plan of 2 to 12
    affine invariance rows drawn from two gradients and two kappas, so that
    rows fall into classes, with a `terms` row and a finite-time row on a
    class's gradient at drawn places. In one case in three, an offset is,
    one time in four, a signed zero, a subnormal, huge or not finite; else
    it sets h to a tiny value of either sign, or to a moderate one. a1 takes
    each sign and zero."""
    huge, odd = draw(st.integers(0, 9)) == 0, draw(st.integers(0, 2)) == 0
    x = (_num(draw, 0), draw(st.sampled_from((-1e308, 1e308))) if huge else _num(draw, 0))
    fv = (draw(st.sampled_from((0.0, -0.0, 1.0))), _num(draw, 0))
    gm = ((_num(draw, 0),), (draw(st.sampled_from((1.0, -1.0, 0.0, 1e300, -1e-300, 2.5))),))
    lo, hi = sorted(draw(st.sampled_from((-5.0, -0.0, 0.0, 5.0, -1e300, 1e300))) for _ in "lh")
    floor = draw(st.sampled_from((-math.inf, -math.inf, -1e-3)))
    grads = [draw(st.sampled_from(CLIP_GRADS[:4])) for _ in "ab"]
    kappas = [draw(st.sampled_from(KAPPAS) | st.floats(1e-300, 1e300)) for _ in "ab"]

    def offset(coeffs):
        lie = sum(map(mul, coeffs, x))
        kind = draw(st.integers(0, 3))
        if kind == 0 and odd:
            return draw(st.sampled_from(PARALLEL_OFFSETS))
        if kind == 1:
            return draw(st.sampled_from([d - lie for d in (-1e-300, -5e-324, 0.0, 1e-300)]))
        return draw(st.floats(0.0, 20.0)) - lie

    specs = []
    for i in range(draw(st.integers(2, 12))):
        coeffs, kappa = draw(st.sampled_from(grads)), draw(st.sampled_from(kappas))
        d = offset(coeffs)
        bar = AffineBarrier(f"p{i}", coeffs=[*coeffs], offset=d)  # its own tuple
        specs.append((f"cbf:p{i}", bar, bar.coeffs, d, AlphaFn(kappa), None))
    terms = NegatedBarrier(AffineBarrier("t", coeffs=(0.0, 1.0), offset=-offset((0.0, 1.0))))
    specs.insert(draw(st.integers(0, len(specs))), ("cbf:t", terms, None, None, IDENTITY_ALPHA,
                                                    None))
    coeffs = draw(st.sampled_from(grads))
    d = offset(coeffs)
    specs.insert(draw(st.integers(0, len(specs))), ("fcbf:w", AffineBarrier("w", coeffs, d),
                                                    coeffs, d, None, FcbfParams(0.5, 2.0)))
    return x, fv, gm, (lo, hi), floor, specs


def _plan_table(specs) -> RegionTable:
    """A table whose one schedule plans `specs` over [0, 1)."""
    return RegionTable([SimpleNamespace(region=(-math.inf, math.inf),
                                           plan=lambda t, x, engagements: (0.0, 1.0, specs))])


def _unit_specs(offsets, terms_at=None, terms_offset=0.0, kappas=None) -> list:
    """Rows of h = offset - x[1] with kappa 1 (or `kappas`), and a `terms`
    row of h = terms_offset - x[1] before row `terms_at`."""
    specs = [(f"cbf:c{i}", None, (0.0, -1.0), d, AlphaFn(k), None)
             for i, (d, k) in enumerate(zip(offsets, kappas or [1.0] * len(offsets)))]
    if terms_at is not None:
        bar = AffineBarrier("t", coeffs=(0.0, -1.0), offset=terms_offset)
        specs.insert(terms_at, ("cbf:t", bar, None, None, IDENTITY_ALPHA, None))
    return specs


class TestClipRows:
    """`clip_groups` reads the plan's `clip_rows`: of each class of affine
    invariance rows with equal coefficients and kappa, the first rows of
    least and of greatest offset. Its (lo, hi) must equal, by `float.hex`,
    the clip sink's over every row, or both must be None."""

    @settings(max_examples=800, deadline=None)
    @given(parallel_cases())
    # h = 1e308 at the least offset, inf at the greatest: only that row's b
    # is not finite, so the clip has no bounds
    @example(((0.0, -1e308), ZERO_F, UNIT_G, (-5.0, 5.0), -math.inf,
              _unit_specs([0.0, 1.0, 1e308])))
    # a NaN offset between finite ones: its b is NaN, so no bounds
    @example((ZERO_X, ZERO_F, UNIT_G, (-5.0, 5.0), -math.inf,
              _unit_specs([1.0, math.nan, 2.0, 3.0])))
    # b = 100, 2, 3: the least offset's row has another kappa, and the bound
    # 2 comes from a row of neither least nor greatest offset in its class
    @example((ZERO_X, ZERO_F, UNIT_G, (-5.0, 5.0), -math.inf,
              _unit_specs([1.0, 2.0, 3.0], kappas=[100.0, 1.0, 1.0])))
    # bounds +0.0 (1e-300 / 1e300), -0.0 and 5e-300: the first zero read is +0.0,
    # from a row of neither least nor greatest offset
    @example((ZERO_X, ZERO_F, ((0.0,), (1e300,)), (-5.0, 5.0), -math.inf,
              _unit_specs([1e-300, -1e-300, 5.0])))
    # tied least offsets, -0.0 bounds on both sides of a terms row's +0.0:
    # the first of the tied rows is the one read before the terms row
    @example((ZERO_X, ZERO_F, ((0.0,), (1e300,)), (-5.0, 5.0), -math.inf,
              _unit_specs([-1e-300, -1e-300, 5.0], terms_at=1, terms_offset=1e-300)))
    def test_pruned_clip_matches_every_row(self, case):
        x, fv, gm, (lo, hi), floor, specs = case
        resolved = resolve_rows(specs, gm)
        want = (eval_rows(resolved, 0.5, x, fv, floor, lo, hi) if clip_sink_reads(resolved)
                else None)
        table = _plan_table(specs)
        got = clip_groups(table, 0.5, x, fv, gm, floor, lo, hi)
        assert (None if got is None else [v.hex() for v in got]) == \
            (None if want is None else [v.hex() for v in want])
        kept = table.rows[2]
        assert (kept is None) == (not clip_sink_reads(resolved))
        if kept is not None:  # a subsequence that keeps every terms and finite-time row
            labels = [row[0] for row in resolved]
            assert [labels.index(row[0]) for row in kept] == sorted(
                labels.index(row[0]) for row in kept)
            assert {row[0] for row in resolved if row[2] is None or row[5] is not None} <= \
                {row[0] for row in kept}

    def test_each_finite_class_keeps_two_rows(self):
        specs = _unit_specs([3.0, 1.0, 2.0, 1.0, 4.0, 4.0], terms_at=2)
        specs.append(("cbf:k", None, (0.0, -1.0), 0.5, AlphaFn(2.0), None))  # another kappa
        specs.append(("cbf:d", None, (-1.0, -1.8), 0.5, IDENTITY_ALPHA, None))
        # c1 and c4 hold the least and greatest offsets first; c1 now opens the Lie sums
        for specs, labels in ((specs, ["cbf:c1", "cbf:t", "cbf:c4", "cbf:k", "cbf:d"]),
                              (_unit_specs([2.0, 1.0, 3.0]), ["cbf:c1", "cbf:c2"])):
            kept = clip_rows(resolve_rows(specs, UNIT_G))
            assert [row[0] for row in kept] == labels
            for list_sink in (True, False):
                got, want = (_outcome(evaluate, kept, (0.25, -1.5), (0.5, 2.0), -math.inf,
                                      -5.0, 5.0, [] if list_sink else None)
                             for evaluate in (eval_rows, reference_eval_rows))
                assert got == want

    def test_classes_that_stay_whole(self):
        for specs in (_unit_specs([1.0, 2.0]),  # nothing to drop
                      _unit_specs([1.0, math.inf, 2.0]),  # a non-finite offset
                      _unit_specs([1.0, math.nan, 2.0]),
                      [(f"fcbf:w{i}", None, (0.0, -1.0), float(i), None, FcbfParams(0.5, 2.0))
                       for i in range(4)]):  # finite-time rows
            rows = resolve_rows(specs, UNIT_G)
            assert clip_rows(rows) is rows
        assert clip_rows(resolve_rows(_unit_specs([1.0] * 3), ((0.0,), (math.inf,)))) is None


class TestConvergenceTime:
    def test_unit_deficit(self):
        assert convergence_time(-1.0, FcbfParams(0.9, 2.0)) == pytest.approx(5.0)

    def test_already_safe(self):
        assert convergence_time(3.0, FcbfParams(0.9, 2.0)) == 0.0

    def test_matches_scalar_pull_simulation(self):
        # independent oracle: integrate dh/dt = gamma sign(h)|h|^rho
        p = FcbfParams(0.5, 1.0)
        assert convergence_time(-4.0, p) == pytest.approx(4.0)
        crossing = simulate_scalar_pull(-4.0, p.gamma, p.rho)
        assert crossing == pytest.approx(4.0, abs=5e-3)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-10, -0.1), st.floats(0.0, 0.9), st.floats(0.5, 4.0))
    def test_pull_simulation_property(self, h0, rho, gamma):
        p = FcbfParams(rho, gamma)
        t_pred = convergence_time(h0, p)
        crossing = simulate_scalar_pull(h0, gamma, rho, dt=min(1e-3, t_pred / 100 + 1e-6))
        assert crossing <= t_pred + 2e-2 * max(1.0, t_pred)


class TestGammaForDeadline:
    def test_round_trip_unit(self):
        g = gamma_for_deadline(-1.0, 0.9, 5.0)
        assert g == pytest.approx(2.0)
        assert convergence_time(-1.0, FcbfParams(0.9, g)) == pytest.approx(5.0)

    def test_round_trip_generic(self):
        g = gamma_for_deadline(-4.0, 0.5, 4.0)
        assert g == pytest.approx(1.0)
        assert convergence_time(-4.0, FcbfParams(0.5, g)) == pytest.approx(4.0)

    def test_already_safe_returns_minimum(self):
        assert gamma_for_deadline(0.0, 0.9, 5.0) == pytest.approx(1e-3)
        assert gamma_for_deadline(2.5, 0.9, 5.0) == pytest.approx(1e-3)

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(BarrierError):
            gamma_for_deadline(-1.0, 0.9, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-50, -0.01), st.floats(0, 0.95), st.floats(0.1, 60))
    def test_round_trip_property(self, h0, rho, t_target):
        g = gamma_for_deadline(h0, rho, t_target)
        assert convergence_time(h0, FcbfParams(rho, g)) == pytest.approx(t_target)


class TestFiniteDiffCheck:
    def test_affine_is_nearly_exact(self):
        bar = AffineBarrier("v", coeffs=(0.4, -1.0), offset=5.0)
        assert finite_diff_check(bar, 1.0, (2.0, 3.0), step=1e-6) < 1e-8

    def test_piecewise_switch_is_flagged(self):
        # the oracle finds the jump from h alone: within one step of a piece
        # start the forward and backward differences in t disagree
        bar = AffineBarrier("hv", coeffs=(0.0, -1.0), pieces=[(0.0, 30.0), (50.0, 25.0)])
        assert finite_diff_check(bar, 50.0, (0.0, 10.0)) is None
        assert finite_diff_check(bar, 50.0 - 5e-7, (0.0, 10.0)) is None
        assert finite_diff_check(bar, 25.0, (0.0, 10.0)) < 1e-8

    def test_wrong_dh_dt_is_caught(self):
        class Mutant(SpacingBarrier):
            def terms(self, t, x):
                h, dh, grad = super().terms(t, x)
                return h, 1.01 * dh, grad

        x = (11.0, 17.0, 95.0)
        assert finite_diff_check(SpacingBarrier(VehicleParams(), LEAD), 7.3, x) < 1e-8
        assert finite_diff_check(Mutant(VehicleParams(), LEAD), 7.3, x) > 1e-5


SIGNED = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-50.0, 50.0)


@st.composite
def affine_on_cases(draw):
    """(barrier, t0, t1, sample times in [t0, t1), x): 1-5 pieces starting on
    a quarter-second grid, interval ends on, one ulp either side of, or
    between the piece starts."""
    starts = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=5)))
    bar = AffineBarrier("b", coeffs=draw(st.lists(SIGNED, min_size=1, max_size=3)),
                        pieces=[(k / 4, draw(SIGNED)) for k in starts])
    near = [w for k in starts for w in (math.nextafter(k / 4, -math.inf), k / 4,
                                        math.nextafter(k / 4, math.inf))]
    ends = st.sampled_from(near) | st.floats(-1.0, 11.0)
    t0, t1 = draw(ends), draw(ends)
    ts = [t for t in [t0, math.nextafter(t1, -math.inf)] + near if t0 <= t < t1]
    if t0 < t1:
        ts += draw(st.lists(st.floats(t0, t1, exclude_max=True), max_size=5))
    return bar, t0, t1, ts, tuple(draw(SIGNED) for _ in bar.coeffs)


LEFT_OF_50 = math.nextafter(50.0, -math.inf)  # h(50-) is h one ulp before 50


class TestPiecewiseAffine:
    def test_left_limit_at_switch(self):
        bar = AffineBarrier("hv", coeffs=(0.0, -1.0), pieces=[(0.0, 30.0), (50.0, 25.0)])
        x = (0.0, 10.0)
        assert bar.h(49.999, x) == pytest.approx(20.0)
        assert bar.h(50.0, x) == pytest.approx(15.0)      # half-open: new piece
        assert bar.h(LEFT_OF_50, x) == pytest.approx(20.0)  # left limit: old piece
        assert bar.affine_on(math.nextafter(50.0, 0.0), 50.0)[1] == 30.0

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_non_finite_piece_start_rejected(self, start):
        """The lookup took a NaN start as passed: h(5, x) read the second
        piece's offset."""
        with pytest.raises(BarrierError, match="offset piece start times must be finite"):
            AffineBarrier("hv", (0.0, -1.0, 0.0), pieces=[(0.0, 30.0), (start, 20.0)])

    def test_negation_flips_everything(self):
        bar = AffineBarrier("v", coeffs=(0.0, -1.0), offset=10.0)
        neg = bar.negate()
        assert neg.h(0.0, (0.0, 4.0)) == pytest.approx(-6.0)
        assert neg.terms(0.0, (0.0, 4.0))[2] == (0.0, 1.0)
        coeffs, offset = neg.affine_on(0.0, 1.0)
        assert coeffs == (0.0, 1.0) and offset == -10.0

    def test_top_barrier_is_always_safe(self):
        """TopBarrier is the affine form 0.x + 1, with the bits of +0.0 and
        1.0, and overrides only h_grid, which gives the scalar 1.0."""
        top = TopBarrier(2)
        assert isinstance(top, AffineBarrier) and top.id == "__top__"
        assert [name for name, v in vars(TopBarrier).items() if callable(v)] == [
            "__init__", "h_grid"]
        assert top.h(0.0, (5.0, 5.0)) == 1.0
        for t0 in (0.0, 7.5, math.nextafter(1e9, -math.inf)):
            coeffs, offset = top.affine_on(t0, math.nextafter(t0, math.inf))
            assert [c.hex() for c in coeffs] == [(0.0).hex()] * 2 and offset.hex() == (1.0).hex()
        for x in ((5.0, 5.0), (-3.0, -0.0), (-1e308, 1e308)):
            h, dh, grad = top.terms(2.0, x)
            assert _bits(h, dh, grad) == _bits(1.0, 0.0, (0.0, 0.0))
        got = top.h_grid(3.0, (np.zeros((4, 1)), np.ones((1, 5))))
        assert type(got) is float and got == 1.0

    def test_safe_set_membership_and_left_limit(self):
        bar = AffineBarrier("hv", coeffs=(0.0, -1.0), pieces=[(0.0, 30.0), (50.0, 25.0)])
        x = (0.0, 27.0)
        assert SafeSet(bar, 10.0).membership(x)
        assert SafeSet(bar, 10.0).margin(x) == pytest.approx(3.0)
        assert not SafeSet(bar, 50.0).membership(x)          # new piece: 25
        assert SafeSet(bar, LEFT_OF_50).membership(x)  # left limit: 30

    @pytest.mark.parametrize("side,t,offset", [
        ("right", 5.0, 30.0),                           # before the first piece
        ("left", 5.0, 30.0),
        ("right", 10.0, 30.0),                          # at the first piece's start
        ("left", 10.0, 30.0),
        ("right", math.nextafter(50.0, 0.0), 30.0),     # just before a switch
        ("left", math.nextafter(50.0, 0.0), 30.0),
        ("right", 50.0, 25.0),                          # at the switch
        ("left", 50.0, 30.0),
        ("right", math.nextafter(50.0, math.inf), 25.0),  # just after it
        ("left", math.nextafter(50.0, math.inf), 25.0),
    ])
    def test_offset_lookup_around_piece_starts(self, side, t, offset):
        """The static checks' one-ulp reads of `affine_on` give `h`'s offset
        at t ("right"), or at t- = nextafter(t, -inf) for the left limit."""
        bar = AffineBarrier("hv", coeffs=(0.0, -1.0), pieces=[(10.0, 30.0), (50.0, 25.0)])
        if side == "left":
            t = math.nextafter(t, -math.inf)
        assert bar.affine_on(t, math.nextafter(t, math.inf))[1] == offset
        assert bar.h(t, (0.0, 0.0)) == offset

    @settings(max_examples=400, deadline=None)
    @given(affine_on_cases())
    def test_affine_on_agrees_with_terms(self, case):
        """`affine_on(t0, t1)` is None exactly when a piece starts strictly
        inside (t0, t1); otherwise its form gives the bits of `terms` at
        every t of [t0, t1): the same h, dh/dt = 0.0 and the same gradient
        object, ±0.0 coefficients and states included."""
        bar, t0, t1, ts, x = case
        aff = bar.affine_on(t0, t1)
        assert (aff is None) == any(t0 < start < t1 for start, _ in bar.pieces)
        if aff is None:
            return
        coeffs, offset = aff
        for t in ts:
            h, dh, grad = bar.terms(t, x)
            assert grad is coeffs
            assert dh.hex() == (0.0).hex()
            assert h.hex() == (sum(map(mul, coeffs, x)) + offset).hex()


# ---------------------------------------------------------------------------
# terms: h and the closed-form derivatives of each template, bit for bit
# ---------------------------------------------------------------------------

VP = VehicleParams()
# two signals with cycles green [0,20) -> yellow [20,24) -> red [24,40)
SIGNALS = [SignalTimings(200.0, 20.0, 4.0, 16.0), SignalTimings(500.0, 20.0, 4.0, 16.0)]
LEAD = LeadProfile(3.0, [(0.0, 1.2), (10.0, 0.0), (20.0, -1.5), (40.0, 0.5)])


def _templates():
    base = [
        AffineBarrier("hv", coeffs=(0.0, -1.0, 0.0), pieces=[(0.0, 30.0), (25.0, 10.0)]),
        AffineBarrier("lin", coeffs=(0.4, -1.0, 0.2), offset=5.0),
        TopBarrier(3),
        SpacingBarrier(VP, LEAD),
        TrafficSignalBarrier(SIGNALS, VP),
    ]
    return base + [bar.negate() for bar in base]


TEMPLATES = _templates()


def closed_form(bar, t, x):
    """(dh/dt, grad_x) as each template's docstring states them."""
    if isinstance(bar, NegatedBarrier):
        dh, grad = closed_form(bar.inner, t, x)
        return -dh, tuple(-g for g in grad)
    if isinstance(bar, AffineBarrier):  # TopBarrier too: coeffs (0.0, 0.0, 0.0)
        return 0.0, bar.coeffs
    if isinstance(bar, SpacingBarrier):
        # h1: V_l a_l / a_max and (-1, -t_hw - V_f/a_max, 1)
        return (LEAD.velocity(t) * LEAD.cached_motion(t)[1] / VP.a_max,
                (-1.0, -VP.t_headway - x[1] / VP.a_max, 1.0))
    # hpos: 0 and (-1, -beta, 0), or zeros past the last governing line
    if math.isinf(bar.h(t, x)):
        return 0.0, (0.0, 0.0, 0.0)
    return 0.0, (-1.0, -VP.beta, 0.0)


def _bits(h, dh, grad):
    """Exact identity of floats: float.hex tells -0.0 from 0.0."""
    return (h.hex(), dh.hex(), tuple(g.hex() for g in grad))


def assert_terms_match(bar, t, x):
    expected = _bits(bar.h(t, x), *closed_form(bar, t, x))
    assert _bits(*bar.terms(t, x)) == expected, (bar, t, x)


class TestTerms:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(TEMPLATES), st.floats(0.0, 60.0),
           st.floats(0.0, 700.0), st.floats(0.0, 40.0), st.floats(0.0, 800.0))
    def test_terms_equal_h_and_closed_forms(self, bar, t, x_f, v_f, x_l):
        assert_terms_match(bar, t, (x_f, v_f, x_l))

    @pytest.mark.parametrize("bar", [TEMPLATES[4], TEMPLATES[9]], ids=["hpos", "!hpos"])
    @pytest.mark.parametrize("t,phase", [(10.0, "green"), (22.0, "yellow"), (30.0, "red")])
    @pytest.mark.parametrize("x_f", [150.0, 200.0, 250.0, 480.0, 520.0],
                             ids=["before1", "on1", "after1", "before2", "past_last"])
    def test_signal_terms_across_stop_lines_and_phases(self, bar, t, phase, x_f):
        assert SIGNALS[0].phase(t) == phase
        assert_terms_match(bar, t, (x_f, 8.0, 0.0))


class TestAffineTermsLookup:
    """`AffineBarrier.terms` finds its offset with its own bisect; its value
    must equal `h_grid`'s, which goes through `step_lookup`, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5, unique=True),
           st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5),
           st.integers(0, 4), st.sampled_from(["before", "on", "below", "above", "free"]),
           st.floats(-2e3, 2e3), st.tuples(*[st.floats(-1e3, 1e3)] * 3))
    def test_terms_value_equals_h_around_piece_starts(self, starts, offsets, k, where,
                                                     free_t, x):
        starts = sorted(starts)
        bar = AffineBarrier("p", coeffs=(0.4, -1.0, 0.2), pieces=list(zip(starts, offsets)))
        start = starts[min(k, len(starts) - 1)]
        t = {"before": starts[0] - abs(free_t) - 1.0, "on": start,
             "below": math.nextafter(start, -math.inf),
             "above": math.nextafter(start, math.inf), "free": free_t}[where]
        h, dh, grad = bar.terms(t, x)
        assert h.hex() == bar.h_grid(t, x).hex(), (starts, t)
        assert dh == 0.0 and grad is bar.coeffs


@st.composite
def left_limit_cases(draw):
    """(barrier, t, x): an `AffineBarrier` of 2-5 pieces starting on a
    quarter-second grid, plain or negated, with t on a piece start or one
    ulp either side of it."""
    starts = sorted(draw(st.sets(st.integers(-40, 40), min_size=2, max_size=5)))
    coeffs = draw(st.lists(SIGNED, min_size=1, max_size=3))
    bar = AffineBarrier("b", coeffs=coeffs, pieces=[(k / 4, draw(SIGNED)) for k in starts])
    start = draw(st.sampled_from(starts)) / 4
    t = draw(st.sampled_from([math.nextafter(start, -math.inf), start,
                              math.nextafter(start, math.inf)]))
    x = tuple(draw(SIGNED) for _ in coeffs)
    return (bar.negate() if draw(st.booleans()) else bar), t, x


class TestLeftLimitRule:
    """h(t-) is h one ulp before t: at `math.nextafter(t, -math.inf)`, `h` and
    `h_grid` give the value of the left lookup (the last piece that starts
    strictly before t), bit for bit, for piecewise-constant offsets."""

    @settings(max_examples=400, deadline=None)
    @given(left_limit_cases())
    def test_h_one_ulp_before_t_is_the_left_lookup(self, case):
        bar, t, x = case
        affine = getattr(bar, "inner", bar)
        starts, offsets = zip(*affine.pieces)
        sign = -1.0 if bar is not affine else 1.0
        base, t_left = sum(map(mul, affine.coeffs, x)), math.nextafter(t, -math.inf)
        want = sign * (base + left_limit_lookup(starts, offsets, t))
        assert bar.h(t_left, x).hex() == want.hex()
        cols = tuple(np.array([xi]) for xi in x)
        assert float(bar.h_grid(t_left, cols)[0]).hex() == want.hex()
        # an array t: every piece start and one ulp either side, at once
        ts = np.array([v for s0 in starts for v in (math.nextafter(s0, -math.inf), s0,
                                                     math.nextafter(s0, math.inf))])
        got = np.broadcast_to(bar.h_grid(np.nextafter(ts, -math.inf), x), ts.shape)
        want_all = [sign * (base + v) for v in left_limit_lookup(starts, offsets, ts).tolist()]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want_all]


# ---------------------------------------------------------------------------
# A custom barrier needs only terms
# ---------------------------------------------------------------------------


class Ramp(Barrier):
    """h = s(t) t - x with the slope s jumping from 1 to 2 at t=5: h(5-, x),
    read one ulp before 5, is about 5 - x, and h(5, x) = 10 - x. Defines
    nothing beyond the one required method."""

    def __init__(self):
        super().__init__("ramp")

    def terms(self, t, x):
        s = 2.0 if t >= 5.0 else 1.0
        return s * t - x[0], s, (-1.0,)


class FloatsOnly(Barrier):
    """h = t - x[0] * x[-1], less each of x[1:], read from Python floats
    only: `terms` asserts the types that the default `h_grid` passes it."""

    def __init__(self):
        super().__init__("floats_only")

    def terms(self, t, x):
        assert type(t) is float and type(x) is tuple and all(type(v) is float for v in x)
        h = t - x[0] * x[-1]
        for v in x[1:]:
            h -= v
        return h, 1.0, (0.0,) * len(x)


FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 5e-324])


@st.composite
def h_grid_inputs(draw):
    """(t, cols) of broadcastable shapes, 0-d and size-0 ones included: t a
    Python float or an array, and one to three state columns."""
    n = draw(st.integers(1, 3))
    shapes = draw(npst.mutually_broadcastable_shapes(num_shapes=n + 1, min_dims=0,
                                                     max_dims=3, min_side=0, max_side=3))
    t_shape, *col_shapes = shapes.input_shapes
    arrays = [draw(npst.arrays(np.float64, shape, elements=FLOATS))
              for shape in (t_shape, *col_shapes)]
    t = arrays[0]
    if t.shape == () and draw(st.booleans()):
        t = float(t)
    return t, tuple(arrays[1:])


class TestDefaultHGrid:
    """`Barrier.h_grid`'s default (`np.vectorize` over `h`) against the
    point-by-point loop it replaced, `oracles.pointwise_h_grid`."""

    @settings(max_examples=200, deadline=None)
    @given(h_grid_inputs())
    @example((2.0, (np.array(1.0),)))
    @example((np.zeros((0, 2)), (np.ones((3, 1, 1)), np.ones(2))))
    @example((np.array([-0.0, math.inf]), (np.array([math.inf, -0.0]), np.array(math.nan))))
    # h's own float overflow, which the loop never reported as a numpy warning
    @example((0.0, (np.array([1e200]), np.array(1e200))))
    def test_default_equals_the_pointwise_loop_bit_for_bit(self, case):
        t, cols = case
        bar = FloatsOnly()
        got, want = bar.h_grid(t, cols), pointwise_h_grid(bar, t, cols)
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype == np.float64
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestMinimalBarrier:
    def test_derivative_check_reads_terms(self):
        assert finite_diff_check(Ramp(), 2.0, (1.0,)) < 1e-8
        assert finite_diff_check(Ramp(), 7.0, (1.0,)) < 1e-8

    def test_cbf_constraint(self):
        # h = 2 - 1, dh/dt = 1, grad = (-1,), x' = u: -u + 1 + 1 >= 0
        a, b, _ = cbf_constraint(Ramp(), scalar_system(), IDENTITY_ALPHA, 2.0, (1.0,))
        assert a == (1.0,) and b == 2.0

    def test_grid_fallback_reads_the_left_limit(self):
        box = Box((0.0,), (10.0,))
        below6 = AffineBarrier("x<=6", coeffs=(-1.0,), offset=6.0)
        below4 = AffineBarrier("x<=4", coeffs=(-1.0,), offset=4.0)
        # C_prev(5-) = {x <= nextafter(5, -inf)}: inside {x <= 6}, not inside
        # {x <= 4}; the grid point x = 5 lies just outside it
        assert Ramp().h(math.nextafter(5.0, -math.inf), (5.0,)) < 0
        with mock.patch.object(contracts, "GRID_RESOLUTION", 11):
            assert check_subset(Ramp(), below6, 5.0, box).holds
            res = check_subset(Ramp(), below4, 5.0, box)
        assert res.method == "sampled(11)" and res.holds  # no grid point in (4, 5)
        with mock.patch.object(contracts, "GRID_RESOLUTION", 21):
            res = check_subset(Ramp(), below4, 5.0, box)
        assert res.method == "sampled(21)" and res.counterexample == (4.5,)

    def test_schedule_and_run(self):
        """Ramp opens a schedule (its entry assumption reads h(0, x0)) and is
        the next barrier of the window into [8, 12) (its engagement reads
        h): a group ramp on [0, 4), x >= -1 on [4, 8), ramp on [8, 12)."""
        reg = BarrierRegistry()
        reg.register(Ramp())
        reg.register(AffineBarrier("floor", coeffs=(1.0,), offset=1.0))
        group = TaskGroup("G", tuple((TimeInterval(t0, t0 + 4.0), PredicateRef(bid))
                                     for t0, bid in ((0.0, "ramp"), (4.0, "floor"),
                                                     (8.0, "ramp"))))
        cfg = ScheduleConfig(domain=Box((-50.0,), (50.0,)), horizon=12.0, t_conv=2.0)
        sched = build_schedule(group, reg, cfg)
        assert [(b.verdict, b.method, b.tau) for b in sched.boundaries] == [
            (Verdict.OVERLAP_DEADLINE, "sampled(101)", 2.0),
            (Verdict.OVERLAP_DEADLINE, "sampled(101)", 6.0)]
        box = Box((-10.0,), (10.0,))
        with pytest.raises(InitialConditionError, match=r"h\[sat\(ramp\)\]\(0, x0\) = -0.5"):
            run_simulation(scalar_system(), [sched], lambda t, x: 1.0, box, (0.5,),
                           dt=0.01, t_max=12.0)
        res = run_simulation(scalar_system(), [sched], lambda t, x: 1.0, box, (0.0,),
                             dt=0.01, t_max=12.0)
        assert res.failure is None and res.trace.n_rows() == 1201
        rec = res.engagements["G", 1]
        x = res.trace.states[res.trace.ts.index(rec.time)]
        assert 6.0 < rec.time < 8.0 and rec.h_engage == 2.0 * rec.time - x[0]
