import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import max_overlap_depth, scalar_monitor_task
from stlcbf.barriers import Barrier
from stlcbf.pipeline import read_trace_csv
from stlcbf.stl import (
    Globally,
    PredicateRef,
    StlError,
    StlParseError,
    StlSpec,
    TimeInterval,
    group_tasks,
    monitor_trace,
    parse_spec,
)


class FakeRegistry:
    def __init__(self, ids):
        self._ids = set(ids)

    def __contains__(self, bid):
        return bid in self._ids


REG = FakeRegistry({"h1", "reach", "v1", "v2", "a", "b", "c", "x"})


def spec_of(*tasks, horizon=1000.0):
    return StlSpec(tasks=tuple(tasks), horizon=horizon)


class TestTimeInterval:
    def test_half_open_membership(self):
        # the end instant belongs to the next interval: abutting intervals
        # share a group
        iv = TimeInterval(0.0, 300.0)
        assert str(iv) == "[0,300)"
        spec = spec_of(Globally(iv, PredicateRef("a")),
                       Globally(TimeInterval(300.0, 400.0), PredicateRef("b")))
        assert len(group_tasks(spec)) == 1

    @pytest.mark.parametrize("bounds", [(5.0, 5.0), (3.0, 2.0), (-1.0, 4.0),
                                        (0.0, math.inf)])
    def test_invalid_intervals_rejected(self, bounds):
        with pytest.raises(StlError):
            TimeInterval(*bounds)


class TestParser:
    def test_globally_line(self):
        spec = parse_spec("horizon 300\nG[0,300) sat(h1)", REG)
        assert spec.tasks == (Globally(TimeInterval(0, 300), PredicateRef("h1")),)
        assert spec.horizon == 300

    def test_eventually_line_with_window(self):
        # F[a,b) with time of satisfaction t_s parses as G[t_s, t_s + eps)
        spec = parse_spec("horizon 10\nF[2,8) sat(reach) @ts=4 eps=0.5", REG)
        assert spec.tasks == (Globally(TimeInterval(4.0, 4.5), PredicateRef("reach")),)

    def test_empty_interval_is_error(self):
        with pytest.raises(StlParseError, match="interval"):
            parse_spec("horizon 10\nG[5,5) sat(h1)", REG)

    def test_negation_and_conjunction_on_one_line(self):
        spec = parse_spec("horizon 10\nG[0,5) !sat(a) & G[5,10) sat(b)", REG)
        assert spec.tasks[0].pred == PredicateRef("a", negated=True)
        assert len(spec.tasks) == 2

    def test_eps_default(self):
        spec = parse_spec("horizon 10\nF[2,8) sat(reach) @ts=4", REG)
        assert spec.tasks[0].interval == TimeInterval(4.0, 4.0 + 0.5)

    def test_unknown_barrier(self):
        with pytest.raises(StlParseError, match="unknown barrier"):
            parse_spec("horizon 10\nG[0,5) sat(nope)", REG)

    def test_nested_temporal_rejected(self):
        with pytest.raises(StlParseError, match="nested"):
            parse_spec("horizon 10\nG[0,5) F[0,2) sat(a)", REG)

    def test_ts_outside_interval_rejected(self):
        with pytest.raises(StlParseError, match="not contained"):
            parse_spec("horizon 10\nF[2,8) sat(reach) @ts=7.8 eps=0.5", REG)

    @pytest.mark.parametrize("text", [
        "horizon 1e17\nF[0,1e17) sat(x) @ts=1e16 eps=0.5",  # 1e16 + 0.5 == 1e16
        "horizon 10\nF[2,8) sat(x) @ts=4 eps=1e-300",
    ])
    def test_window_that_rounds_empty_names_its_line(self, text):
        # t_s + eps rounds to t_s: the G window would be empty
        with pytest.raises(StlParseError, match="empty or inverted") as exc:
            parse_spec(text, REG)
        assert (exc.value.line, exc.value.column) == (2, 1 + text.splitlines()[1].index("@ts") + 4)

    def test_error_carries_line_number(self):
        with pytest.raises(StlParseError, match="line 3"):
            parse_spec("horizon 10\nG[0,5) sat(a)\nwhat is this", REG)

    def test_comments_and_blanks_ignored(self):
        spec = parse_spec("# intro\nhorizon 10\n\nG[0,5) sat(a)  # trailing\n", REG)
        assert len(spec.tasks) == 1

    def test_missing_horizon(self):
        with pytest.raises(StlParseError, match="horizon"):
            parse_spec("G[0,5) sat(a)", REG)

    def test_interval_beyond_horizon(self):
        with pytest.raises(StlParseError, match="exceeds horizon"):
            parse_spec("horizon 4\nG[0,5) sat(a)", REG)


class TestEventuallyToGlobally:
    """The parser gives every eventually task as the globally task over its
    satisfaction window."""

    def test_window_becomes_globally(self):
        # the window ends at the float sum t_s + eps; a negation is kept
        spec = parse_spec("horizon 10\nF[0,1) !sat(reach) @ts=0.1 eps=0.2", REG)
        assert spec.tasks == (Globally(TimeInterval(0.1, 0.1 + 0.2),
                                       PredicateRef("reach", negated=True)),)
        assert spec.tasks[0].interval.end == 0.30000000000000004

    def test_no_eventually_is_identity(self):
        spec = parse_spec("horizon 10\nG[0,10) sat(a) & G[2,8) !sat(b)", REG)
        assert spec.tasks == (Globally(TimeInterval(0, 10), PredicateRef("a")),
                              Globally(TimeInterval(2, 8), PredicateRef("b", negated=True)))

    def test_idempotent_and_preserves_count(self):
        spec = parse_spec("horizon 10\nF[2,8) sat(reach) @ts=4\nG[0,10) sat(a)", REG)
        assert len(spec.tasks) == 2
        again = parse_spec("\n".join(["horizon 10", *map(str, spec.tasks)]), REG)
        assert again == spec

    def test_missing_window_is_error(self):
        with pytest.raises(StlParseError, match="requires @ts"):
            parse_spec("horizon 10\nF[2,8) sat(reach)", REG)

    def test_window_exiting_interval_rejected_at_construction(self):
        for line, why in [("F[2,8) sat(reach) @ts=7.8 eps=0.5",
                           r"window \[7.8,8.3\) not contained in \[2,8\)"),
                          ("F[2,8) sat(reach) @ts=1 eps=0.5", "not contained"),
                          ("F[2,8) sat(reach) @ts=4 eps=0", "eps must be positive")]:
            with pytest.raises(StlParseError, match=why) as exc:
                parse_spec("horizon 10\n" + line, REG)
            assert (exc.value.line, exc.value.column) == (2, 1 + line.index("@ts") + 4)


def _group_ids(groups):
    return sorted(
        tuple(sorted(p.barrier_id for _, p in g.predicates)) for g in groups
    )


class TestGroupTasks:
    def test_overlapping_split_into_two_groups(self):
        spec = spec_of(
            Globally(TimeInterval(0, 300), PredicateRef("h1")),
            Globally(TimeInterval(0, 50), PredicateRef("v1")),
            Globally(TimeInterval(50, 100), PredicateRef("v2")),
        )
        groups = group_tasks(spec)
        assert len(groups) == 2
        assert _group_ids(groups) == [("h1",), ("v1", "v2")]

    def test_adjacent_disjoint_share_a_group(self):
        spec = spec_of(Globally(TimeInterval(0, 10), PredicateRef("a")),
                       Globally(TimeInterval(10, 20), PredicateRef("b")))
        assert len(group_tasks(spec)) == 1

    def test_identical_intervals_need_one_group_each(self):
        spec = spec_of(*[Globally(TimeInterval(0, 5), PredicateRef(b))
                         for b in ("a", "b", "c")])
        assert len(group_tasks(spec)) == 3

    def test_groups_sorted_and_exhaustive(self):
        spec = spec_of(
            Globally(TimeInterval(30, 40), PredicateRef("a")),
            Globally(TimeInterval(0, 35), PredicateRef("b")),
            Globally(TimeInterval(0, 25), PredicateRef("c")),
        )
        groups = group_tasks(spec)
        seen = [p.barrier_id for g in groups for _, p in g.predicates]
        assert sorted(seen) == ["a", "b", "c"]
        for g in groups:
            starts = [iv.start for iv, _ in g.predicates]
            assert starts == sorted(starts)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(0, 100), st.floats(0.01, 50)).map(
            lambda p: (round(p[0], 3), round(p[0] + p[1], 3))),
        min_size=1, max_size=30,
    ))
    def test_group_count_equals_max_overlap_depth(self, raw):
        intervals = [(a, b) for a, b in raw if b > a]
        if not intervals:
            return
        spec = spec_of(*[
            Globally(TimeInterval(a, b), PredicateRef("a")) for a, b in intervals
        ])
        groups = group_tasks(spec)
        assert len(groups) == max_overlap_depth(intervals)
        assert sum(len(g.predicates) for g in groups) == len(intervals)


class FakeTrace:
    def __init__(self, ts, states):
        self.ts = ts
        self.states = states


class ValueRegistry:
    """Registry whose barriers read a named component of the state tuple."""

    def __init__(self, **channels):
        self.channels = channels

    def resolve(self, pred):
        idx = self.channels[pred.barrier_id]
        sign = -1.0 if pred.negated else 1.0

        class _B(Barrier):
            def h(self, t, x, side="right"):
                return sign * x[idx]

        return _B(pred.barrier_id)


class TestMonitor:
    def _trace(self, values, dt=1.0):
        ts = [i * dt for i in range(len(values))]
        return FakeTrace(ts, [(v,) for v in values])

    def test_satisfied_with_margin(self):
        trace = self._trace([1.0, 0.5, 0.2, 0.9, 1.0])
        spec = spec_of(Globally(TimeInterval(0, 4), PredicateRef("m")), horizon=4)
        rep = monitor_trace(trace, spec, ValueRegistry(m=0))
        assert rep.satisfied
        assert rep.per_task[0].worst_margin == pytest.approx(0.2)
        assert rep.per_task[0].t_worst == 2.0

    def test_violation_reports_time(self):
        trace = self._trace([1.0, 1.0, -0.5, 1.0, 1.0])
        spec = spec_of(Globally(TimeInterval(0, 4), PredicateRef("m")), horizon=4)
        rep = monitor_trace(trace, spec, ValueRegistry(m=0))
        assert not rep.satisfied
        assert rep.per_task[0].t_worst == 2.0

    def test_empty_spec_vacuously_satisfied(self):
        trace = self._trace([1.0, 1.0])
        assert monitor_trace(trace, spec_of(horizon=1), ValueRegistry()).satisfied

    def test_interval_is_half_open(self):
        # violation exactly at the right endpoint is outside the window
        trace = self._trace([1.0, 1.0, -1.0])
        spec = spec_of(Globally(TimeInterval(0, 2), PredicateRef("m")), horizon=2)
        assert monitor_trace(trace, spec, ValueRegistry(m=0)).satisfied

    def test_short_trace_rejected(self):
        trace = self._trace([1.0, 1.0])
        spec = spec_of(Globally(TimeInterval(0, 5), PredicateRef("m")), horizon=5)
        with pytest.raises(StlError, match="covers"):
            monitor_trace(trace, spec, ValueRegistry(m=0))

    def test_coverage_reads_earliest_and_latest_sample(self):
        # rows in any order: the span is min(ts) to max(ts), not ts[0] to ts[-1]
        spec = spec_of(Globally(TimeInterval(0, 4), PredicateRef("m")), horizon=4)
        ts = [4.0, 2.0, 2.0, 0.0, 3.0, 2.0]
        trace = FakeTrace(ts, [(1.0,), (2.0,), (0.5,), (3.0,), (1.0,), (0.5,)])
        rep = monitor_trace(trace, spec, ValueRegistry(m=0))
        assert rep.satisfied and rep.per_task[0].t_worst == 2.0
        late = FakeTrace([4.0, 1.0, 2.0], [(1.0,)] * 3)
        with pytest.raises(StlError, match=r"covers \[1, 4\]"):
            monitor_trace(late, spec, ValueRegistry(m=0))
        with pytest.raises(StlError, match="covers"):
            monitor_trace(FakeTrace([], []), spec, ValueRegistry(m=0))

    def test_conjunction_equals_conjunction_of_verdicts(self):
        trace = self._trace([1.0, -1.0, 1.0])
        reg = ValueRegistry(m=0, n=0)
        g1 = Globally(TimeInterval(0, 1), PredicateRef("m"))
        g2 = Globally(TimeInterval(1, 2), PredicateRef("n"))
        both = monitor_trace(trace, spec_of(g1, g2, horizon=2), reg)
        sep1 = monitor_trace(trace, spec_of(g1, horizon=2), reg)
        sep2 = monitor_trace(trace, spec_of(g2, horizon=2), reg)
        assert both.satisfied == (sep1.satisfied and sep2.satisfied)

    def test_negated_predicate_monitors_minus_h(self):
        trace = self._trace([-2.0, -2.0])
        spec = spec_of(Globally(TimeInterval(0, 1), PredicateRef("m", negated=True)),
                       horizon=1)
        assert monitor_trace(trace, spec, ValueRegistry(m=0)).satisfied


class TestMonitorEdges:
    """Edge semantics of the array monitor, each against the row-by-row scan
    in `oracles.scalar_monitor_task`."""

    @staticmethod
    def _report(values, ts, task, horizon):
        trace = FakeTrace(ts, [(v,) for v in values])
        rep = monitor_trace(trace, spec_of(task, horizon=horizon), ValueRegistry(m=0))
        task_rep = rep.per_task[0]
        assert (task_rep.satisfied, task_rep.worst_margin, task_rep.t_worst) == \
            scalar_monitor_task(task, trace, ValueRegistry(m=0), 1e-3)
        return task_rep

    def test_all_inf_window_reports_no_t_worst(self):
        # past the last stop line h_pos is +inf at every sample
        g = Globally(TimeInterval(0, 3), PredicateRef("m"))
        rep = self._report([math.inf] * 4, [0.0, 1.0, 2.0, 3.0], g, 3)
        assert rep.satisfied and rep.worst_margin == math.inf and rep.t_worst is None
        # NaN margins only: the same vacuous report, printed without a time
        text = str(monitor_trace(FakeTrace([0.0, 1.0], [(math.nan,), (math.nan,)]),
                                 spec_of(g, horizon=1), ValueRegistry(m=0)))
        assert text.endswith(": satisfied=true worst_margin=inf")

    def test_nan_margins_are_skipped(self):
        g = Globally(TimeInterval(0, 4), PredicateRef("m"))
        rep = self._report([math.nan, 2.0, math.nan, 1.0, 5.0], [0.0, 1.0, 2.0, 3.0, 4.0], g, 4)
        assert rep.worst_margin == 1.0 and rep.t_worst == 3.0
        rep = self._report([math.nan] * 3, [0.0, 1.0, 2.0], g, 2)
        assert rep.satisfied and rep.t_worst is None

    def test_first_minimum_wins_a_tie(self):
        g = Globally(TimeInterval(0, 4), PredicateRef("m"))
        rep = self._report([1.0, 0.0, 3.0, -0.0, 0.0], [0.0, 1.0, 2.0, 3.0, 4.0], g, 4)
        assert rep.t_worst == 1.0 and math.copysign(1.0, rep.worst_margin) == 1.0

    def test_half_open_window_keeps_its_guards(self):
        # [2, 3) reads samples with 2 - 1e-9 <= t < 3 - 1e-9
        g = Globally(TimeInterval(2, 3), PredicateRef("m"))
        ts = [0.0, 2.0 - 2e-9, 2.0 - 0.5e-9, 2.5, 3.0 - 2e-9, 3.0 - 0.5e-9, 3.0, 4.0]
        for i in range(len(ts)):
            values = [1.0] * len(ts)
            values[i] = -1.0
            rep = self._report(values, ts, g, 4)
            assert rep.satisfied == (i not in (2, 3, 4)), ts[i]

    @pytest.mark.parametrize("ts", [
        [0.0, 3.0, 1.0, 2.0, 1.0, 4.0],  # unsorted, one repeat
        [0.0, 4.0, 2.0, 2.0, 1.0, 2.0],  # descending tail, t=2 three times
    ])
    def test_unsorted_and_repeated_times(self, ts):
        values = [0.5, -0.25, -0.25, 2.0, -0.25, 1.0]
        for task in (Globally(TimeInterval(1, 3), PredicateRef("m")),
                     Globally(TimeInterval(0, 4), PredicateRef("m"))):
            self._report(values, ts, task, 0)

    def test_unsorted_csv_trace(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text("t,X_f,V_f,X_l\n0,5,0,0\n2,1,0,0\n1,-3,0,0\n2,-3,0,0\n3,4,0,0\n")
        trace = read_trace_csv(str(path))
        task = Globally(TimeInterval(1, 3), PredicateRef("m"))
        rep = monitor_trace(trace, spec_of(task, horizon=3), ValueRegistry(m=0)).per_task[0]
        assert (rep.worst_margin, rep.t_worst) == (-3.0, 1.0)
        assert (rep.satisfied, rep.worst_margin, rep.t_worst) == \
            scalar_monitor_task(task, trace, ValueRegistry(m=0), 1e-3)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.0 - 1e-9, 3.0]),
                              st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0,
                                               -0.0, 0.25, 2.0])),
                    min_size=1, max_size=12),
           st.sampled_from([(0.0, 1.0), (0.5, 2.0), (1.0, 3.0), (2.0, 3.0)]),
           st.booleans())
    def test_matches_row_by_row_scan(self, rows, window, negated):
        ts = [0.0] + [t for t, _ in rows] + [3.0]
        values = [1.0] + [v for _, v in rows] + [1.0]
        self._report(values, ts, Globally(TimeInterval(*window), PredicateRef("m", negated)), 3)
