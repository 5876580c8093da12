import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grid_qp
from stlcbf.barriers import BarrierError, HalfspaceConstraint
from stlcbf.qp import InputBox, PidState, QpError, pid_nominal, solve_qp

BOX1 = InputBox((-6000.0,), (6000.0,))


def hs(a, b):
    return HalfspaceConstraint(tuple(a) if isinstance(a, (tuple, list)) else (a,), b)


class TestSolveQp1D:
    def test_projection_onto_halfspace(self):
        assert solve_qp(500.0, [hs(1.0, 300.0)], BOX1) == (300.0,)

    def test_interior_point_unchanged(self):
        assert solve_qp(100.0, [hs(1.0, 300.0)], BOX1) == (100.0,)

    def test_empty_feasible_set(self):
        assert solve_qp(0.0, [hs(1.0, -7000.0)], BOX1) is None

    def test_lower_halfspace(self):
        # -u <= -50, i.e. u >= 50
        assert solve_qp(0.0, [hs(-1.0, -50.0)], BOX1) == (50.0,)

    def test_contradictory_halfspaces(self):
        assert solve_qp(0.0, [hs(1.0, 10.0), hs(-1.0, -20.0)], BOX1) is None

    def test_infeasible_marker_short_circuits(self):
        assert solve_qp(0.0, [hs(0.0, -1.0)], BOX1) is None

    def test_vacuous_constraint_ignored(self):
        assert solve_qp(42.0, [hs(0.0, 5.0)], BOX1) == (42.0,)

    def test_box_clamp(self):
        assert solve_qp(9000.0, [], BOX1) == (6000.0,)


class TestQpEntry:
    """Constraints are validated where they enter solve_qp, for every m."""

    BOXES = {1: BOX1, 2: InputBox((-2.0, -2.0), (2.0, 2.0))}

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("bad", ["a_inf", "a_nan", "b_inf", "b_nan"])
    def test_non_finite_constraint_raises(self, m, bad):
        a = [1.0] * m
        b = 1.0
        if bad.startswith("a"):
            a[-1] = math.inf if bad == "a_inf" else math.nan
        else:
            b = -math.inf if bad == "b_inf" else math.nan
        c = HalfspaceConstraint(tuple(a), b, "cbf:bad")  # building it does not check
        with pytest.raises(BarrierError, match="non-finite constraint"):
            solve_qp((0.0,) * m, [hs([0.5] * m, 3.0), c], self.BOXES[m])

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_nominal_input_raises(self, m, bad):
        """A NaN u_nom would pass through the m = 1 clip as u_safe, and make
        every m = 2 KKT candidate fail as if the set were empty."""
        u_nom = (0.0,) * (m - 1) + (bad,)
        for cons in ([], [hs([1.0] * m, 0.5)]):
            with pytest.raises(QpError, match="non-finite nominal input"):
                solve_qp(u_nom, cons, self.BOXES[m])

    @pytest.mark.parametrize("m", [1, 2])
    def test_zero_a_infeasible_marker_returns_none(self, m):
        cons = [hs([1.0] * m, 5.0), hs([0.0] * m, -1.0)]
        assert solve_qp((0.0,) * m, cons, self.BOXES[m]) is None

    @pytest.mark.parametrize("m", [1, 2])
    def test_vacuous_zero_a_constraint_ignored(self, m):
        cons = [hs([1.0] * m, 0.5)]
        u_nom = (1.5,) * m
        plain = solve_qp(u_nom, cons, self.BOXES[m])
        assert solve_qp(u_nom, cons + [hs([0.0] * m, 2.0)], self.BOXES[m]) == plain


class TestSolveQp2D:
    BOX2 = InputBox((-2.0, -2.0), (2.0, 2.0))

    def test_feasible_nominal_unchanged(self):
        out = solve_qp((0.5, -0.5), [hs((1.0, 1.0), 3.0)], self.BOX2)
        assert out == (0.5, -0.5)

    def test_projection_onto_slanted_halfspace(self):
        # project (1,1) onto x+y<=0: analytic answer (0,0) wait no: (1,1)-(1,1)*(2/2)=(0,0)
        out = solve_qp((1.0, 1.0), [hs((1.0, 1.0), 0.0)], self.BOX2)
        assert out == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_corner_projection_needs_two_active(self):
        out = solve_qp((3.0, 3.0), [hs((1.0, 0.0), 1.0), hs((0.0, 1.0), 1.0)], self.BOX2)
        assert out == pytest.approx((1.0, 1.0))

    def test_duplicate_constraints_deduplicated(self):
        cons = [hs((1.0, 1.0), 0.0)] * 4
        out = solve_qp((1.0, 1.0), cons, self.BOX2)
        assert out == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_infeasible_pair(self):
        cons = [hs((1.0, 0.0), 0.0), hs((-1.0, 0.0), -0.5)]
        assert solve_qp((0.0, 0.0), cons, self.BOX2) is None

    def test_wrong_dimension_rejected(self):
        with pytest.raises(QpError):
            solve_qp((0.0, 0.0), [hs((1.0,), 0.0)], self.BOX2)

    def test_agrees_with_grid_oracle_on_seeded_instances(self):
        rng = np.random.RandomState(11)
        lower, upper = (-2.0, -2.0), (2.0, 2.0)
        box = InputBox(lower, upper)
        for _ in range(40):
            rows = []
            anchor = rng.uniform(-1.5, 1.5, size=2)
            for _ in range(rng.randint(1, 5)):
                a = rng.uniform(-1, 1, size=2)
                rows.append((tuple(a), float(a @ anchor + rng.uniform(0.05, 1.0))))
            u_nom = tuple(rng.uniform(-2, 2, size=2))
            out = solve_qp(u_nom, [hs(a, b) for a, b in rows], box)
            assert out is not None
            for a, b in rows:
                assert np.dot(a, out) <= b + 1e-9
            ref = grid_qp(u_nom, rows, lower, upper, resolution=0.05)
            d_out = sum((o - n) ** 2 for o, n in zip(out, u_nom))
            d_ref = sum((r - n) ** 2 for r, n in zip(ref, u_nom))
            assert d_out <= d_ref + 1e-9  # no grid point is strictly closer


class TestInvariants:
    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-10, 10), st.floats(-10, 10),
        st.lists(st.tuples(st.floats(-2, 2), st.floats(-3, 3)), max_size=4),
    )
    def test_projection_idempotent_and_feasible_1d(self, u_nom, extra, raw):
        box = InputBox((-5.0,), (5.0,))
        cons = [hs(a, b) for a, b in raw]
        out = solve_qp(u_nom, cons, box)
        if out is None:
            return
        for c in cons:
            if not c.is_vacuous():
                assert sum(a * u for a, u in zip(c.a, out)) - c.b <= 1e-9
        assert box.lower[0] - 1e-12 <= out[0] <= box.upper[0] + 1e-12
        assert solve_qp(out, cons, box) == pytest.approx(out)

    def test_strict_convexity_gives_unique_answer(self):
        cons = [hs((1.0, 1.0), 0.0), hs((1.0, 1.0), 0.0)]
        a = solve_qp((1.0, 1.0), cons, InputBox((-2.0, -2.0), (2.0, 2.0)))
        b = solve_qp((1.0, 1.0), list(reversed(cons)), InputBox((-2.0, -2.0), (2.0, 2.0)))
        assert a == b


class TestInputBox:
    def test_ordering_enforced(self):
        with pytest.raises(QpError):
            InputBox((1.0,), (-1.0,))

    def test_finiteness_enforced(self):
        with pytest.raises(QpError):
            InputBox((-math.inf,), (0.0,))


class TestPidNominal:
    M = 1650.0

    def test_equilibrium_is_feedforward_only(self):
        pid = PidState()
        out = pid_nominal(0.0, 0.0, pid, 0.01, self.M, feedforward=200.1)
        assert out == pytest.approx(200.1)

    def test_velocity_term(self):
        # k1=0.5, Vr=2, e=0, I=0, m=1650, F_r(20)=200.1 -> 1850.1 N
        pid = PidState(k1=0.5, k2=0.1, k3=0.01)
        out = pid_nominal(0.0, 2.0, pid, 0.01, self.M, feedforward=200.1)
        assert out == pytest.approx(1850.1)

    def test_integral_accumulates_and_clamps(self):
        pid = PidState(windup_limit=1.0)
        for _ in range(300):
            pid_nominal(5.0, 0.0, pid, 0.01, self.M, feedforward=0.0)
        assert pid.integral == 1.0
        for _ in range(600):
            pid_nominal(-5.0, 0.0, pid, 0.01, self.M, feedforward=0.0)
        assert pid.integral == -1.0

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(QpError):
            pid_nominal(0.0, 0.0, PidState(), 0.0, self.M, feedforward=0.0)
