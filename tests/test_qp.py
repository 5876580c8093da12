import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import feasible_vertex, grid_qp, min_max_clamp, reference_clip
from stlcbf.barriers import BarrierError, Box
from stlcbf.qp import PidState, QpError, pid_nominal, solve_qp

BOX1 = Box((-6000.0,), (6000.0,))
SIGNED_ZERO = st.sampled_from([0.0, -0.0])


def hs(a, b):
    return (tuple(a) if isinstance(a, (tuple, list)) else (a,), b, "")


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

    BOXES = {1: BOX1, 2: Box((-2.0, -2.0), (2.0, 2.0))}

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("bad", ["a_inf", "a_nan", "b_inf", "b_nan"])
    def test_non_finite_constraint_raises(self, m, bad):
        a = [1.0] * m
        b = 1.0
        if bad.startswith("a"):
            a[-1] = math.inf if bad == "a_inf" else math.nan
        else:
            b = -math.inf if bad == "b_inf" else math.nan
        c = (tuple(a), b, "cbf:bad")  # building it does not check
        with pytest.raises(BarrierError, match="non-finite constraint"):
            solve_qp((0.0,) * m, [hs([0.5] * m, 3.0), c], self.BOXES[m])

    @pytest.mark.parametrize("m", [1, 2], ids=["m1", "m2"])
    @pytest.mark.parametrize("kind", ["list", "float", "ndarray"])
    def test_a_that_is_no_tuple_is_qp_error(self, m, kind):
        """Every m checks a row's type first. At m = 2 a list used to escape
        as TypeError: unhashable type: 'list'; at m = 1 a list of one entry
        was read as its entry, and a float failed the dimension check."""
        a = {"list": [1.0] * m, "float": 1.0, "ndarray": np.ones(m)}[kind]
        with pytest.raises(QpError, match=f"^constraint cbf:bad needs a as a tuple, "
                                          f"got {type(a).__name__}$"):
            solve_qp((0.0,) * m, [hs([0.5] * m, 3.0), (a, 2.0, "cbf:bad")], self.BOXES[m])

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_nominal_input_raises(self, m, bad):
        """A NaN u_nom would pass through the m = 1 clip as u_safe, and make
        every m = 2 face projection fail as if the set were empty."""
        u_nom = (0.0,) * (m - 1) + (bad,)
        for cons in ([], [hs([1.0] * m, 0.5)]):
            with pytest.raises(QpError, match="non-finite nominal input"):
                solve_qp(u_nom, cons, self.BOXES[m])

    @pytest.mark.parametrize("m", [1, 2])
    def test_numpy_array_nominal_reads_as_its_floats(self, m):
        """A 1-D array of length m is its m floats; it used to fail with a
        bare TypeError at m = 1 and as a 1-D input at m = 2."""
        cons = [hs([1.0] * m, 2.0)]
        want = solve_qp((3.0,) * m, cons, self.BOXES[m])
        got = solve_qp(np.array([3.0] * m), cons, self.BOXES[m])
        assert got == want and all(type(v) is float for v in got)
        with pytest.raises(QpError, match=f"^u_nom has dimension {m + 1}, box has {m}$"):
            solve_qp(np.zeros(m + 1), cons, self.BOXES[m])

    @pytest.mark.parametrize("u_nom", [np.array([[3.0]]), (np.array([3.0]),), [[3.0]]],
                             ids=["2d_array", "tuple_of_array", "nested_list"])
    def test_nested_nominal_is_qp_error(self, u_nom):
        """A nominal whose entries are sequences used to escape as a bare
        TypeError from float()."""
        with pytest.raises(QpError, match=r"^nominal input .*3\..* is not a number or "
                                          r"a flat sequence$"):
            solve_qp(u_nom, [hs(1.0, 2.0)], BOX1)

    @pytest.mark.parametrize("u_nom", [np.float64(3.0), np.float32(3.0), np.array(3.0), 3])
    def test_numpy_scalar_nominal_still_reads_as_one_float(self, u_nom):
        got = solve_qp(u_nom, [hs(1.0, 2.0)], BOX1)
        assert got == (2.0,) and type(got[0]) is float

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


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 5e-324, 1e308]
ENTRIES = st.sampled_from(SPECIAL) | st.floats(-10.0, 10.0) | st.floats()
ROWS = st.lists(st.tuples(
    st.lists(ENTRIES, min_size=1, max_size=1).map(tuple)
    | st.lists(ENTRIES, max_size=3).map(tuple),  # wrong lengths: 0, 2, 3
    ENTRIES, st.sampled_from(["", "cbf:v", "fcbf:w"])), max_size=6)


def _outcome(solve, u, rows, box):
    """The result's bits, or the exception's type and message."""
    try:
        out = solve(u, rows, box)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return None if out is None else tuple(v.hex() for v in out)


class TestClipDifferential:
    """The m = 1 `solve_qp` against `oracles.reference_clip`, the clip in its
    plain min/max form: the same result bits, or the same exception."""

    @settings(max_examples=500, deadline=None)
    @given(st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0]), ROWS,
           st.tuples(st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0]),
                     st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0])))
    @example(0.5, [((0.0,), -1.0, "cbf:z")], (-1.0, 1.0))  # zero a, b < 0
    @example(0.5, [((-0.0,), 0.0, "cbf:z")], (-1.0, 1.0))  # zero a, b >= 0
    @example(0.5, [((1.0,), -2.0, ""), ((-1.0,), -1.0, "")], (-5.0, 5.0))  # lo > hi
    @example(1.0, [((1.0,), -0.0, "")], (-1.0, 0.0))  # a tie keeps hi = 0.0
    @example(-1.0, [((-1.0,), -0.0, "")], (-0.0, 1.0))  # a tie keeps lo = -0.0
    @example(0.0, [((math.nan,), 1.0, "cbf:n")], (-1.0, 1.0))
    @example(0.0, [((1.0,), -math.inf, "")], (-1.0, 1.0))
    @example(0.0, [((1.0, 2.0), math.nan, "cbf:w")], (-1.0, 1.0))  # length checked first
    @example(0.0, [((), 1.0, "")], (-1.0, 1.0))
    @example(0.0, [((1e-300,), 1e300, "")], (-1.0, 1.0))  # b / a overflows to inf
    def test_clip_matches_reference(self, u, rows, bounds):
        lo, hi = sorted(bounds)
        box = Box((lo,), (hi,))
        assert _outcome(solve_qp, u, rows, box) == _outcome(reference_clip, u, rows, box)


class TestSolveQp2D:
    BOX2 = Box((-2.0, -2.0), (2.0, 2.0))

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
        for m, resolution in ((2, 0.05), (3, 0.1)):
            lower, upper = (-2.0,) * m, (2.0,) * m
            box = Box(lower, upper)
            for _ in range(40):
                rows = []
                anchor = rng.uniform(-1.5, 1.5, size=m)
                for _ in range(rng.randint(1, 5)):
                    a = rng.uniform(-1, 1, size=m)
                    rows.append((tuple(a), float(a @ anchor + rng.uniform(0.05, 1.0))))
                u_nom = tuple(rng.uniform(-2, 2, size=m))
                out = solve_qp(u_nom, [hs(a, b) for a, b in rows], box)
                assert out is not None
                for a, b in rows:
                    assert np.dot(a, out) <= b + 1e-9
                ref = grid_qp(u_nom, rows, lower, upper, resolution=resolution)
                d_out = sum((o - n) ** 2 for o, n in zip(out, u_nom))
                d_ref = sum((r - n) ** 2 for r, n in zip(ref, u_nom))
                assert d_out <= d_ref + 1e-9  # no grid point is strictly closer


def _with_box(rows, box):
    """(a, b) of rows and the box faces, in the order `solve_qp` stacks them."""
    faces = []
    for i in range(box.dim):
        e = tuple(1.0 if j == i else 0.0 for j in range(box.dim))
        faces += [(e, box.upper[i]), (tuple(-v for v in e), -box.lower[i])]
    return list(rows) + faces


class TestNearestVertex:
    """Emptiness comes from the same face pass as the answer: None when no
    face projection is feasible, and a vertex when the projection is one."""

    BOX2 = Box((-2.0, -2.0), (2.0, 2.0))

    def test_empty_polytope(self):
        cons = [hs((1.0, 0.0), 0.0), hs((-1.0, 0.0), -0.5)]
        assert solve_qp((0.0, 0.0), cons, self.BOX2) is None

    def test_empty_beyond_feasibility_tolerance(self):
        # 0 <= X <= -5e-8: every point is off by 5e-8, beyond the 1e-9 tolerance
        cons = [hs((1.0, 0.0), -5e-8), hs((-1.0, 0.0), 0.0)]
        assert solve_qp((0.0, 0.0), cons, self.BOX2) is None

    def test_nearest_vertex(self):
        # X + Y <= 1 cuts the box; its vertices: (-2,-2), (-2,2), (2,-2),
        # (2,-1), (-1,2); (2,-1) is nearest (3, 0) and is also the projection
        assert solve_qp((3.0, 0.0), [hs((1.0, 1.0), 1.0)], self.BOX2) == (2.0, -1.0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda m: st.tuples(
        st.just(m),
        st.lists(st.floats(-3, 3), min_size=m, max_size=m),
        st.lists(st.floats(-1.5, 1.5), min_size=m, max_size=m),
        st.lists(st.tuples(st.lists(st.floats(-1, 1), min_size=m, max_size=m),
                           st.floats(-10, -6), st.floats(-10, -6),
                           st.lists(st.floats(-1, 1), min_size=m, max_size=m)),
                 min_size=1, max_size=4))))
    # nearly parallel rows: solved through A_S A_S^T, every vertex missed 1e-9
    @example((3, [0.0, 0.0, 2.0], [0.0, 0.0, 0.0],
              [([1.0, 1.0, 1.192092896e-07], -10.0, -6.0, [0.0, 0.0, 0.0]),
               ([0.0, 1.0, 0.0], -6.0, -6.0, [0.0, 0.0, 0.0]),
               ([1.0, 1.0, 0.0], -7.0, -6.0, [0.0, 0.0, 0.0])]))
    # empty by less than 1e-9: (0, 4e-9) meets every row within 1e-9, no vertex does
    @example((2, [0.0, 0.0], [0.0, 0.0],
              [([0.0, 0.0], -6.0, -6.0, [0.0, 0.0]), ([0.0, 0.125], -9.0, -6.0, [0.0, 0.0]),
               ([1.0, -0.046875], -8.25, -7.0, [0.0, 0.75]),
               ([0.4375, 0.0625], -10.0, -8.25, [0.5, 0.0])]))
    def test_thin_polytope_empty_iff_no_feasible_vertex(self, drawn):
        """Slabs of width 10^w around a centre, each shifted by up to 10^s.
        The verdict sits between two vertex oracles: an answer whenever some
        vertex (m rows met) is feasible within 1e-9, and None whenever the
        polytope relaxed by 1e-9 has no such vertex. Between them lie the
        polytopes empty by less than 1e-9, where either verdict is right.
        An answer satisfies every row, the box faces included, within 1e-9."""
        m, u_nom, centre, slabs = drawn
        rows = []
        for a, w, s, shift in slabs:
            d = float(np.dot(a, np.add(centre, np.multiply(shift, 10.0 ** s))))
            rows += [(tuple(a), d + 10.0 ** w / 2), (tuple(-v for v in a), -d + 10.0 ** w / 2)]
        box = Box((-2.0,) * m, (2.0,) * m)
        out = solve_qp(tuple(u_nom), [hs(a, b) for a, b in rows], box)
        faces = _with_box(rows, box)
        if out is None:
            assert not feasible_vertex(faces, m)
        else:
            assert feasible_vertex([(a, b + 1e-9) for a, b in faces], m)
            for a, b in faces:
                assert np.dot(a, out) <= b + 1e-9


class TestInvariants:
    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-10, 10), st.floats(-10, 10),
        st.lists(st.tuples(st.floats(-2, 2), st.floats(-3, 3)), max_size=4),
    )
    def test_projection_idempotent_and_feasible_1d(self, u_nom, extra, raw):
        box = Box((-5.0,), (5.0,))
        cons = [hs(a, b) for a, b in raw]
        out = solve_qp(u_nom, cons, box)
        if out is None:
            return
        for a_row, b, _ in cons:
            if any(a_row) or b < 0:  # not vacuous
                assert sum(a * u for a, u in zip(a_row, out)) - b <= 1e-9
        assert box.lower[0] - 1e-12 <= out[0] <= box.upper[0] + 1e-12
        assert solve_qp(out, cons, box) == pytest.approx(out)

    def test_strict_convexity_gives_unique_answer(self):
        cons = [hs((1.0, 1.0), 0.0), hs((1.0, 1.0), 0.0)]
        a = solve_qp((1.0, 1.0), cons, Box((-2.0, -2.0), (2.0, 2.0)))
        b = solve_qp((1.0, 1.0), list(reversed(cons)), Box((-2.0, -2.0), (2.0, 2.0)))
        assert a == b


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
        for dt in (0.0, math.nan):  # NaN <= 0 is False: a NaN dt once went through
            pid = PidState(integral=3.0)
            with pytest.raises(QpError):
                pid_nominal(1.0, 0.0, pid, dt, self.M, feedforward=0.0)
            assert pid.integral == 3.0

    @settings(max_examples=300, deadline=None)
    @given(integral=SIGNED_ZERO | st.floats(-200.0, 200.0) | st.integers(-200, 200),
           error=SIGNED_ZERO | st.just(math.nan) | st.floats(-1e4, 1e4) | st.integers(-50, 50),
           dt=st.sampled_from([0.01, 1.0, 1]),
           limit=SIGNED_ZERO | st.sampled_from([1.0, 100.0]) | st.floats(0.0, 1e3)
           | st.integers(0, 100))
    @example(integral=-0.0, error=-0.0, dt=0.01, limit=0.0)
    @example(integral=0.0, error=-1.0, dt=0.01, limit=0.0)
    @example(integral=5.0, error=math.nan, dt=0.01, limit=0.0)
    @example(integral=150, error=1, dt=1, limit=100)
    def test_integral_clamp_matches_min_max(self, integral, error, dt, limit):
        # the windup clamp compares instead of calling min and max: the same
        # object, so the same type and bits, for ties, +-0.0, NaN and limit 0
        pid = PidState(integral=integral, windup_limit=limit)
        want = min_max_clamp(integral + error * dt, -limit, limit)
        pid_nominal(error, 0.0, pid, dt, self.M, feedforward=0.0)
        assert type(pid.integral) is type(want)
        assert float(pid.integral).hex() == float(want).hex()
