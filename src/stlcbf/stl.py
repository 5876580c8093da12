"""STL mission specifications: AST, parser, preprocessing, grouping, monitoring.

The supported fragment is a conjunction of bounded-interval globally /
eventually predicates over registered barrier functions, with no nesting of
temporal operators. A predicate references a barrier by id; negation is
normalized so that "satisfied" always means h >= 0 for the (possibly negated)
barrier. Eventually tasks carry a user-chosen time of satisfaction and are
rewritten to globally tasks over that window before contract synthesis.

Spec source grammar (line oriented, whitespace-insensitive, `#` comments):

    horizon <T>
    G[a,b) sat(<id>)
    G[a,b) !sat(<id>)
    F[a,b) sat(<id>) @ts=<t> eps=<e>     # eps optional, default 0.5 s

Lines are implicitly conjoined; `&` may also join formulas on one line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


DEFAULT_EVENTUALLY_EPS = 0.5
MONITOR_TOL = 1e-3


class StlError(ValueError):
    """Base class for specification errors."""


class StlParseError(StlError):
    def __init__(self, message: str, line: int, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, col {column}: {message}")


@dataclass(frozen=True)
class TimeInterval:
    """Half-open interval [start, end) in seconds; 0 <= start < end, finite."""

    start: float
    end: float

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise StlError(f"interval bounds must be finite, got [{self.start}, {self.end})")
        if self.start < 0:
            raise StlError(f"interval start must be >= 0, got {self.start}")
        if not self.start < self.end:
            raise StlError(f"empty or inverted interval [{self.start}, {self.end})")

    def __str__(self) -> str:
        return f"[{_fmt(self.start)},{_fmt(self.end)})"


@dataclass(frozen=True)
class PredicateRef:
    """Reference to a registry barrier; negated predicates monitor -h."""

    barrier_id: str
    negated: bool = False

    def __str__(self) -> str:
        return ("!" if self.negated else "") + f"sat({self.barrier_id})"


@dataclass(frozen=True)
class Globally:
    interval: TimeInterval
    pred: PredicateRef

    def __str__(self) -> str:
        return f"G{self.interval} {self.pred}"


@dataclass(frozen=True)
class Eventually:
    interval: TimeInterval
    pred: PredicateRef

    def __str__(self) -> str:
        return f"F{self.interval} {self.pred}"


@dataclass(frozen=True)
class SatisfactionWindow:
    """User-chosen window for an eventually task: satisfied on [t_s, t_s+eps)."""

    t_s: float
    eps: float = DEFAULT_EVENTUALLY_EPS

    def __post_init__(self):
        if self.eps <= 0:
            raise StlError(f"eps must be positive, got {self.eps}")


@dataclass(frozen=True)
class StlSpec:
    """Parsed mission: conjunction of `tasks` over horizon [0, horizon].

    `satisfaction_times` is keyed by task index (eventually tasks are always
    top-level conjuncts in the grammar, so the index identifies the node even
    when identical formulas repeat).
    """

    tasks: tuple
    horizon: float
    satisfaction_times: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon >= 0):
            raise StlError(f"horizon must be finite and >= 0, got {self.horizon}")
        for idx, win in self.satisfaction_times.items():
            task = self.tasks[idx]
            if not isinstance(task, Eventually):
                raise StlError(f"satisfaction time attached to non-eventually task {idx}")
            _check_window_in(task.interval, win)


def _check_window_in(interval: TimeInterval, win: SatisfactionWindow) -> None:
    if win.t_s < interval.start or win.t_s + win.eps > interval.end:
        raise StlError(
            f"satisfaction window [{_fmt(win.t_s)},{_fmt(win.t_s + win.eps)}) "
            f"not contained in {interval}"
        )


@dataclass(frozen=True)
class TaskGroup:
    """Predicates on pairwise-disjoint intervals, sorted by start time."""

    label: str
    predicates: tuple  # ((TimeInterval, PredicateRef), ...)

    def __post_init__(self):
        prev_end = -math.inf
        for interval, _ in self.predicates:
            if interval.start < prev_end:
                raise StlError(f"group {self.label} has overlapping intervals")
            prev_end = interval.end


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_HORIZON_RE = re.compile(r"horizon\s+([-+0-9.eE]+)\s*$")
_TASK_RE = re.compile(
    r"([GF])\s*\[\s*([-+0-9.eE]+)\s*,\s*([-+0-9.eE]+)\s*\)\s*"
    r"(!?)\s*sat\(\s*([A-Za-z_][A-Za-z0-9_.:-]*)\s*\)\s*"
    r"(?:@\s*ts\s*=\s*([-+0-9.eE]+)\s*(?:eps\s*=\s*([-+0-9.eE]+)\s*)?)?$"
)


def parse_spec(text: str, registry) -> StlSpec:
    """Parse spec source into an StlSpec with resolved barrier references.

    `registry` only needs to support `id in registry`. Raises StlParseError
    with line/column on malformed input, unknown barrier ids, intervals
    violating 0 <= a < b <= horizon, or satisfaction windows outside their
    eventually interval.
    """
    horizon: Optional[float] = None
    tasks: list = []
    sat_times: dict = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HORIZON_RE.fullmatch(line)
        if m:
            if horizon is not None:
                raise StlParseError("duplicate horizon header", lineno)
            horizon = _num(m.group(1), lineno)
            if not (math.isfinite(horizon) and horizon > 0):
                raise StlParseError(f"horizon must be positive and finite, got {horizon}", lineno)
            continue
        if horizon is None:
            raise StlParseError("expected `horizon <T>` header before task lines", lineno)
        col = 1
        for part in line.split("&"):
            chunk = part.strip()
            if not chunk:
                raise StlParseError("empty conjunct", lineno, col)
            tasks_here = _parse_task(chunk, lineno, col, horizon, registry)
            formula, window = tasks_here
            if window is not None:
                sat_times[len(tasks)] = window
            tasks.append(formula)
            col += len(part) + 1

    if horizon is None:
        raise StlParseError("missing `horizon <T>` header", 1)
    return StlSpec(tasks=tuple(tasks), horizon=horizon, satisfaction_times=sat_times)


def _parse_task(chunk, lineno, col, horizon, registry):
    if len(re.findall(r"[GF]\s*\[", chunk)) > 1:
        raise StlParseError("nested temporal operators are not supported", lineno, col)
    m = _TASK_RE.fullmatch(chunk)
    if m is None:
        bad = _mismatch_column(chunk)
        raise StlParseError(f"cannot parse task {chunk!r}", lineno, col + bad)
    op, a_s, b_s, neg, bar_id, ts_s, eps_s = m.groups()
    try:
        interval = TimeInterval(_num(a_s, lineno), _num(b_s, lineno))
    except StlError as exc:
        raise StlParseError(str(exc), lineno, col + m.start(2)) from exc
    if interval.end > horizon + 1e-9:
        raise StlParseError(
            f"interval {interval} exceeds horizon {_fmt(horizon)}", lineno, col + m.start(3)
        )
    if bar_id not in registry:
        raise StlParseError(f"unknown barrier id {bar_id!r}", lineno, col + m.start(5))
    pred = PredicateRef(bar_id, negated=bool(neg))
    if op == "G":
        if ts_s is not None:
            raise StlParseError("@ts only applies to eventually tasks", lineno, col)
        return Globally(interval, pred), None
    if ts_s is None:
        raise StlParseError("eventually task requires @ts=<t>", lineno, col)
    eps = _num(eps_s, lineno) if eps_s is not None else DEFAULT_EVENTUALLY_EPS
    try:
        window = SatisfactionWindow(_num(ts_s, lineno), eps)
        _check_window_in(interval, window)
    except StlError as exc:
        raise StlParseError(str(exc), lineno, col + m.start(6)) from exc
    return Eventually(interval, pred), window


def _mismatch_column(chunk: str) -> int:
    # Longest prefix that still matches gives a useful caret position.
    for cut in range(len(chunk), 0, -1):
        if _TASK_RE.match(chunk[:cut]) or re.fullmatch(r"[GF]\s*\[[^\]]*", chunk[:cut]):
            return cut - 1
    return 0


def _num(s: str, lineno: int) -> float:
    try:
        return float(s)
    except ValueError:
        raise StlParseError(f"bad number {s!r}", lineno) from None


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


def eventually_to_globally(spec: StlSpec) -> StlSpec:
    """Rewrite every eventually task to globally over its satisfaction window.

    Idempotent; preserves the number of predicates. Raises StlError when an
    eventually task has no registered window or the window exits the interval.
    """
    new_tasks = []
    for idx, task in enumerate(spec.tasks):
        new_tasks.append(_convert(task, spec.satisfaction_times.get(idx), idx))
    return StlSpec(tasks=tuple(new_tasks), horizon=spec.horizon, satisfaction_times={})


def _convert(task, window, idx):
    if isinstance(task, Eventually):
        if window is None:
            raise StlError(f"eventually task {idx} ({task}) has no satisfaction time")
        return Globally(TimeInterval(window.t_s, window.t_s + window.eps), task.pred)
    return task


def group_tasks(spec: StlSpec) -> list:
    """Partition globally predicates into the minimum number of groups with
    pairwise-disjoint intervals.

    Greedy first-fit over intervals sorted by start time: each interval joins
    the first group whose last interval ends at or before its start. For
    interval graphs this is optimal, so the group count equals the maximum
    number of intervals overlapping any single time instant.
    """
    preds = []
    for task in spec.tasks:
        if isinstance(task, Globally):
            preds.append((task.interval, task.pred))
        elif isinstance(task, Eventually):
            raise StlError("group_tasks requires eventually_to_globally first")
        else:
            raise StlError(f"cannot group non-temporal task {task}")

    order = sorted(range(len(preds)), key=lambda i: (preds[i][0].start, preds[i][0].end, i))
    groups: list = []  # list of lists of pred indices
    last_end: list = []
    for i in order:
        start = preds[i][0].start
        for gi, end in enumerate(last_end):
            if end <= start:
                groups[gi].append(i)
                last_end[gi] = preds[i][0].end
                break
        else:
            groups.append([i])
            last_end.append(preds[i][0].end)

    return [
        TaskGroup(label=f"G{gi + 1}", predicates=tuple(preds[i] for i in members))
        for gi, members in enumerate(groups)
    ]


# ---------------------------------------------------------------------------
# Monitoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskReport:
    formula: str
    satisfied: bool
    worst_margin: float
    t_worst: Optional[float]


@dataclass(frozen=True)
class SatisfactionReport:
    satisfied: bool
    per_task: tuple

    def __str__(self) -> str:
        lines = [f"satisfied={str(self.satisfied).lower()}"]
        for rep in self.per_task:
            lines.append(
                f"  {rep.formula}: satisfied={str(rep.satisfied).lower()} "
                f"worst_margin={_fmt(rep.worst_margin)}"
                + (f" at t={_fmt(rep.t_worst)}" if rep.t_worst is not None else "")
            )
        return "\n".join(lines)


def monitor_trace(trace, spec: StlSpec, registry, tol: float = MONITOR_TOL) -> SatisfactionReport:
    """Boolean semantics on a sampled trace: a globally task holds iff
    h(t, x(t)) >= -tol at every sample inside its interval.

    `trace` needs `.ts` and `.states`; its samples, in any order, must cover
    [0, horizon]. Eventually tasks are checked with exists-semantics (best
    margin reported). Each task evaluates its barrier once, with `h_grid`,
    over the samples inside its interval (the earliest row wins a tie).
    """
    ts = np.asarray(trace.ts, dtype=float)
    lo, hi = (ts.min(), ts.max()) if ts.size else (math.nan, math.nan)
    if not (lo <= 1e-9 and hi >= spec.horizon - 1e-9):  # an empty trace stops here
        raise StlError(f"trace covers [{_fmt(lo)}, {_fmt(hi)}], "
                       f"needs [0, {_fmt(spec.horizon)}]")
    cols = np.asarray(trace.states, dtype=float).T  # (n, N), a view of a Trace's rows
    reports = [_monitor_task(task, ts, cols, registry, tol) for task in spec.tasks]
    return SatisfactionReport(
        satisfied=all(r.satisfied for r in reports), per_task=tuple(reports)
    )


def _monitor_task(task, ts, cols, registry, tol) -> TaskReport:
    rows = np.flatnonzero((task.interval.start - 1e-9 <= ts) & (ts < task.interval.end - 1e-9))
    if rows.size and rows[-1] - rows[0] == rows.size - 1:
        rows = slice(rows[0], rows[-1] + 1)  # consecutive rows: views, not copies
    ts = ts[rows]
    margins = np.broadcast_to(registry.resolve(task.pred).h_grid(ts, cols[:, rows]), ts.shape)
    globally = isinstance(task, Globally)
    # G keeps the first strict minimum below +inf, F the first strict maximum
    # above -inf; a NaN margin never wins
    start = math.inf if globally else -math.inf
    margins = np.where(np.isnan(margins), start, margins)
    if ts.size:
        i = int((np.argmin if globally else np.argmax)(margins))
        best = float(margins[i])
        if best != start:
            return TaskReport(str(task), best >= -tol, best, float(ts[i]))
    # No sample inside the window moved the start value: vacuously true for G
    # (worst margin +inf), false for F (best margin -inf).
    return TaskReport(str(task), globally, start, None)


def _fmt(v: float) -> str:
    return f"{v:g}"
