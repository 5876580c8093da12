"""STL mission specifications: AST, parser, grouping, monitoring.

The supported fragment is a conjunction of bounded-interval globally /
eventually predicates over registered barrier functions, with no nesting of
temporal operators. A predicate references a barrier by id; negation is
normalized so that "satisfied" always means h >= 0 for the (possibly negated)
barrier. An eventually task names its time of satisfaction t_s, and the
parser turns it into the globally task over [t_s, t_s + eps): every later
stage, the monitor and the report included, sees only globally tasks.

Spec source grammar (line oriented, whitespace-insensitive, `#` comments);
the horizon T is given to the parser, and every interval lies in [0, T):

    G[a,b) sat(<id>)
    G[a,b) !sat(<id>)
    F[a,b) sat(<id>) @ts=<t> eps=<e>     # eps optional, default 0.5 s

Lines are implicitly conjoined; `&` may also join formulas on one line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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
class StlSpec:
    """Parsed mission: conjunction of globally `tasks` over horizon [0, horizon]."""

    tasks: tuple
    horizon: float

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon >= 0):
            raise StlError(f"horizon must be finite and >= 0, got {self.horizon}")


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

_TASK_RE = re.compile(
    r"([GF])\s*\[\s*([-+0-9.eE]+)\s*,\s*([-+0-9.eE]+)\s*\)\s*"
    r"(!?)\s*sat\(\s*([A-Za-z_][A-Za-z0-9_.:-]*)\s*\)\s*"
    r"(?:@\s*ts\s*=\s*([-+0-9.eE]+)\s*(?:eps\s*=\s*([-+0-9.eE]+)\s*)?)?$"
)


def parse_spec(text: str, registry, horizon: float) -> StlSpec:
    """Parse task lines into an StlSpec over [0, horizon] with resolved
    barrier references.

    `registry` only needs to support `id in registry`. Raises StlParseError
    with line/column on malformed input, unknown barrier ids, intervals
    violating 0 <= a < b <= horizon, or satisfaction windows that are empty
    or leave their eventually interval. Every task comes back as `Globally`.
    """
    tasks: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        col = 1
        for part in line.split("&"):
            chunk = part.strip()
            if not chunk:
                raise StlParseError("empty conjunct", lineno, col)
            indent = len(part) - len(part.lstrip())
            tasks.append(_parse_task(chunk, lineno, col + indent, horizon, registry))
            col += len(part) + 1
    return StlSpec(tasks=tuple(tasks), horizon=horizon)


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
        return Globally(interval, pred)
    if ts_s is None:
        raise StlParseError("eventually task requires @ts=<t>", lineno, col)
    # F[a,b) p with time of satisfaction t_s is G[t_s, t_s + eps) p
    eps = _num(eps_s, lineno) if eps_s is not None else DEFAULT_EVENTUALLY_EPS
    t_s = _num(ts_s, lineno)
    try:
        if eps <= 0:
            raise StlError(f"eps must be positive, got {eps}")
        if t_s < interval.start or t_s + eps > interval.end:
            raise StlError(f"satisfaction window [{_fmt(t_s)},{_fmt(t_s + eps)}) "
                           f"not contained in {interval}")
        return Globally(TimeInterval(t_s, t_s + eps), pred)
    except StlError as exc:
        raise StlParseError(str(exc), lineno, col + m.start(6)) from exc


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


def group_tasks(spec: StlSpec) -> list:
    """Partition globally predicates into the minimum number of groups with
    pairwise-disjoint intervals.

    Greedy first-fit over intervals sorted by start time: each interval joins
    the first group whose last interval ends at or before its start. For
    interval graphs this is optimal, so the group count equals the maximum
    number of intervals overlapping any single time instant.
    """
    preds = [(task.interval, task.pred) for task in spec.tasks]
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
    [0, horizon]. An eventually task is checked as the globally task over
    its satisfaction window, the form `parse_spec` gives it. Each task
    evaluates its barrier once, with `h_grid`, over the samples inside its
    interval (the earliest row wins a tie). A row whose t or state is not
    finite is an `StlError` naming the first such row: a NaN margin would
    read as satisfied.
    """
    ts = np.asarray(trace.ts, dtype=float)
    cols = np.asarray(trace.states, dtype=float).T  # (n, N), a view of a Trace's rows
    if not (np.isfinite(ts).all() and np.isfinite(cols).all()):
        i = int(np.argmin(np.isfinite(ts) & np.isfinite(cols).all(axis=0)))
        raise StlError(f"trace row {i}: t and the state must be finite, got t={_fmt(ts[i])} "
                       f"x=({', '.join(map(_fmt, cols[:, i]))})")
    lo, hi = (ts.min(), ts.max()) if ts.size else (math.nan, math.nan)
    if not (lo <= 1e-9 and hi >= spec.horizon - 1e-9):  # an empty trace stops here
        raise StlError(f"trace covers [{_fmt(lo)}, {_fmt(hi)}], "
                       f"needs [0, {_fmt(spec.horizon)}]")
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
    # the first strict minimum below +inf wins; a NaN margin never does
    margins = np.where(np.isnan(margins), math.inf, margins)
    if ts.size:
        i = int(np.argmin(margins))
        worst = float(margins[i])
        if worst != math.inf:
            return TaskReport(str(task), worst >= -tol, worst, float(ts[i]))
    # no sample inside the window is below +inf: vacuously true
    return TaskReport(str(task), True, math.inf, None)


def _fmt(v: float) -> str:
    return f"{v:g}"
