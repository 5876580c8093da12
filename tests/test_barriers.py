import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SafeSet, finite_diff_check, simulate_scalar_pull
from stlcbf.barriers import (
    AffineBarrier,
    AlphaFn,
    Barrier,
    BarrierError,
    ConstraintRow,
    FcbfParams,
    HalfspaceConstraint,
    IDENTITY_ALPHA,
    NegatedBarrier,
    StateBox,
    TopBarrier,
    cbf_constraint,
    convergence_time,
    fcbf_constraint,
    gamma_for_deadline,
)
from stlcbf.contracts import check_subset
from stlcbf.sim import ControlSystem
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
        domain=StateBox((-1e6,), (1e6,)),
    )


class TestParamTypes:
    def test_alpha_positive_gain(self):
        with pytest.raises(BarrierError):
            AlphaFn(0.0)

    @pytest.mark.parametrize("rho,gamma", [(1.0, 1.0), (-0.1, 1.0), (0.5, 0.0)])
    def test_fcbf_params_validated(self, rho, gamma):
        with pytest.raises(BarrierError):
            FcbfParams(rho, gamma)

    def test_infeasible_marker(self):
        assert HalfspaceConstraint((0.0,), -1.0).is_infeasible_marker()
        assert HalfspaceConstraint((0.0,), 1.0).is_vacuous()
        assert not HalfspaceConstraint((1.0,), -1.0).is_infeasible_marker()


class TestCbfConstraint:
    def test_speed_limit_on_double_integrator(self, double_integrator):
        # h = 25 - V at V=20 with alpha(h)=h gives u <= 5
        bar = AffineBarrier("v25", coeffs=(0.0, -1.0), offset=25.0)
        c = cbf_constraint(bar, double_integrator, IDENTITY_ALPHA, 0.0, (0.0, 20.0))
        assert c.a == (1.0,)
        assert c.b == pytest.approx(5.0)

    def test_constant_inside_barrier_is_vacuous(self, double_integrator):
        bar = AffineBarrier("one", coeffs=(0.0, 0.0), offset=1.0)
        c = cbf_constraint(bar, double_integrator, IDENTITY_ALPHA, 0.0, (0.0, 0.0))
        assert c.a == (0.0,) and c.b == pytest.approx(1.0) and c.is_vacuous()

    def test_constant_outside_barrier_is_infeasible_marker(self, double_integrator):
        bar = AffineBarrier("neg", coeffs=(0.0, 0.0), offset=-1.0)
        c = cbf_constraint(bar, double_integrator, IDENTITY_ALPHA, 0.0, (0.0, 0.0))
        assert c.is_infeasible_marker()

    def test_boundary_input_zeroes_propagated_rate(self, double_integrator):
        # on a.u = b the closed-loop dh/dt + alpha(h) must vanish
        bar = AffineBarrier("v25", coeffs=(0.0, -1.0), offset=25.0)
        for v, kappa in ((20.0, 1.0), (27.5, 0.5), (3.0, 2.0)):
            alpha = AlphaFn(kappa)
            x = (1.0, v)
            c = cbf_constraint(bar, double_integrator, alpha, 0.0, x)
            u = c.b / c.a[0]
            _, dh_dt, grad = bar.terms(0.0, x)
            fv = double_integrator.f(0.0, x)
            hdot = dh_dt + sum(
                gi * (fi + gm[0] * u)
                for gi, fi, gm in zip(grad, fv, double_integrator.g(0.0, x))
            )
            assert abs(hdot + alpha.kappa * bar.h(0.0, x)) < 1e-9

    def test_negated_affine_row_keeps_its_input_row(self, double_integrator):
        """A negated affine barrier returns one negated gradient object while
        the inner gradient repeats, so its row derives a = -grad.g once."""
        bar = AffineBarrier("fast", coeffs=(0.0, 1.0), offset=-20.0).negate()
        g = ((0.0,), (1.0,))
        row = ConstraintRow("cbf:!fast")
        c1 = cbf_constraint(bar, double_integrator, IDENTITY_ALPHA, 0.0, (0.0, 5.0),
                            dyn=((5.0, 0.0), g), row=row)
        a = row.a
        c2 = cbf_constraint(bar, double_integrator, IDENTITY_ALPHA, 0.1, (0.5, 6.0),
                            dyn=((6.0, 0.0), g), row=row)
        assert row.a is a and c1.a is c2.a
        assert c2 == (a, 20.0 - 6.0, "cbf:!fast")


class TestFcbfConstraint:
    def test_outside_set_demands_convergence(self):
        # h = x at x=-1, rho=0.9, gamma=2: constraint -u <= -2, i.e. u >= 2
        bar = AffineBarrier("x", coeffs=(1.0,), offset=0.0)
        c = fcbf_constraint(bar, scalar_system(), FcbfParams(0.9, 2.0), 0.0, (-1.0,))
        assert c.a == (-1.0,)
        assert c.b == pytest.approx(-2.0)

    def test_sign_zero_on_boundary(self):
        bar = AffineBarrier("x", coeffs=(1.0,), offset=0.0)
        c = fcbf_constraint(bar, scalar_system(), FcbfParams(0.9, 2.0), 0.0, (0.0,))
        assert c.b == pytest.approx(0.0)

    def test_inside_set_relaxes_by_gamma_h_rho(self, double_integrator):
        # for h > 0 the bound exceeds the alpha-free drift by exactly gamma h^rho
        bar = AffineBarrier("v25", coeffs=(0.0, -1.0), offset=25.0)
        p = FcbfParams(0.5, 3.0)
        x = (0.0, 20.0)
        c = fcbf_constraint(bar, double_integrator, p, 0.0, x)
        drift_only = cbf_constraint(bar, double_integrator, AlphaFn(1.0), 0.0, x).b \
            - bar.h(0.0, x)
        assert c.b - drift_only == pytest.approx(p.gamma * 5.0 ** p.rho)


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


class TestPiecewiseAffine:
    def test_left_limit_at_switch(self):
        bar = AffineBarrier("hv", coeffs=(0.0, -1.0), pieces=[(0.0, 30.0), (50.0, 25.0)])
        x = (0.0, 10.0)
        assert bar.h(49.999, x) == pytest.approx(20.0)
        assert bar.h(50.0, x) == pytest.approx(15.0)      # half-open: new piece
        assert bar.h(50.0, x, "left") == pytest.approx(20.0)  # left limit: old piece
        assert bar.affine_at(50.0, side="left")[1] == 30.0

    def test_negation_flips_everything(self):
        bar = AffineBarrier("v", coeffs=(0.0, -1.0), offset=10.0)
        neg = bar.negate()
        assert neg.h(0.0, (0.0, 4.0)) == pytest.approx(-6.0)
        assert neg.terms(0.0, (0.0, 4.0))[2] == (0.0, 1.0)
        coeffs, offset = neg.affine_at(0.0)
        assert coeffs == (0.0, 1.0) and offset == -10.0

    def test_top_barrier_is_always_safe(self):
        top = TopBarrier(2)
        assert top.h(0.0, (5.0, 5.0)) == 1.0
        assert top.affine_at(0.0) == ((0.0, 0.0), 1.0)

    def test_safe_set_membership_and_left_limit(self):
        bar = AffineBarrier("hv", coeffs=(0.0, -1.0), pieces=[(0.0, 30.0), (50.0, 25.0)])
        x = (0.0, 27.0)
        assert SafeSet(bar, 10.0).membership(x)
        assert SafeSet(bar, 10.0).margin(x) == pytest.approx(3.0)
        assert not SafeSet(bar, 50.0).membership(x)          # new piece: 25
        assert SafeSet(bar, 50.0, side="left").membership(x)  # left limit: 30

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
        bar = AffineBarrier("hv", coeffs=(0.0, -1.0), pieces=[(10.0, 30.0), (50.0, 25.0)])
        assert bar.affine_at(t, side=side)[1] == offset
        assert bar.h(t, (0.0, 0.0), side) == offset


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
    if isinstance(bar, AffineBarrier):
        return 0.0, bar.coeffs
    if isinstance(bar, TopBarrier):
        return 0.0, (0.0, 0.0, 0.0)
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
    must equal `h`'s, which goes through `step_lookup`, bit for bit."""

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
        assert h.hex() == bar.h(t, x).hex(), (starts, t)
        assert dh == 0.0 and grad is bar.coeffs


# ---------------------------------------------------------------------------
# A custom barrier needs only h(t, x, side) and terms
# ---------------------------------------------------------------------------


class Ramp(Barrier):
    """h = s(t) t - x with the slope s jumping from 1 to 2 at t=5: h(5-, x) =
    5 - x, h(5, x) = 10 - x. Defines nothing beyond the two required methods."""

    def __init__(self):
        super().__init__("ramp")

    def h(self, t, x, side="right"):
        jumped = t >= 5.0 if side == "right" else t > 5.0
        return (2.0 if jumped else 1.0) * t - x[0]

    def terms(self, t, x):
        return self.h(t, x), 2.0 if t >= 5.0 else 1.0, (-1.0,)


class TestMinimalBarrier:
    def test_derivative_check_reads_terms(self):
        assert finite_diff_check(Ramp(), 2.0, (1.0,)) < 1e-8
        assert finite_diff_check(Ramp(), 7.0, (1.0,)) < 1e-8

    def test_cbf_constraint(self):
        # h = 2 - 1, dh/dt = 1, grad = (-1,), x' = u: -u + 1 + 1 >= 0
        c = cbf_constraint(Ramp(), scalar_system(), IDENTITY_ALPHA, 2.0, (1.0,))
        assert c.a == (1.0,) and c.b == 2.0

    def test_grid_fallback_reads_the_left_limit(self):
        box = StateBox((0.0,), (10.0,))
        below6 = AffineBarrier("x<=6", coeffs=(-1.0,), offset=6.0)
        below4 = AffineBarrier("x<=4", coeffs=(-1.0,), offset=4.0)
        # C_prev(5-) = {x <= 5}, so it lies inside {x <= 6} but not {x <= 4}
        assert check_subset(Ramp(), below6, 5.0, box, 11).holds
        res = check_subset(Ramp(), below4, 5.0, box, 11)
        assert res.method == "sampled(11)" and res.counterexample == (5.0,)
