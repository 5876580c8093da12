"""Pipeline orchestration: parse -> group -> build schedules -> static
compatibility -> simulate -> monitor, plus trace/report serialization.

Exit codes: 0 success, 2 static incompatibility, 3 runtime failure (a
violated invariance row, an empty QP, a domain exit) or monitor violation,
4 config/initial-condition error. Identical configs (including the seed)
produce byte-identical trace and report files.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import stl
from .barriers import AffineBarrier, AlphaFn, BarrierRegistry
from .config import ScenarioConfig
from .contracts import ScheduleConfig, build_schedule
from .qp import pid_nominal
from .sim import SimFailure, Trace, check_opening_assumptions, run_simulation, step_count
from .stl import SatisfactionReport, StlSpec, group_tasks, parse_spec
from .vehicle import (
    PHASES,
    SpacingBarrier,
    TrafficSignalBarrier,
    active_phase_index,
    build_signal_contracts,
    generate_signal_plan,
    make_vehicle_system,
    speed_limit_barrier,
)

EXIT_SUCCESS = 0
EXIT_STATIC_INCOMPATIBLE = 2
EXIT_RUNTIME_FAILURE = 3
EXIT_CONFIG_ERROR = 4

log = logging.getLogger("stlcbf")


class PipelineError(ValueError):
    pass


@dataclass
class ScenarioBundle:
    """Everything instantiated from a config, ready to simulate. The
    schedules, the nominal controller and the margin columns hold their
    barriers, so the step loop looks none up in `registry`."""

    cfg: ScenarioConfig
    registry: BarrierRegistry
    sys: object
    spec: StlSpec            # globally tasks only: F is parsed as its G window
    schedules: list          # ContractSchedule, one per signal for the signal group
    nominal: Callable        # (t, x) -> PID force on the spacing error
    margin_barriers: list    # Barrier, one trace margin column each
    extra_channels: dict


def build_scenario(cfg: ScenarioConfig) -> ScenarioBundle:
    """Wire the config's objects into a registry, schedules and a nominal
    controller. Errors that need the registry or the generated signal plan
    (stop-line order, STL tasks) are raised here."""
    vp, lead, limits = cfg.vp, cfg.lead, cfg.limits
    signals = (cfg.signals if cfg.signal_plan is None
               else generate_signal_plan(cfg.seed, **cfg.signal_plan))

    registry = BarrierRegistry()
    margin_barriers = [registry.register(SpacingBarrier(vp, lead))]
    if limits is not None:
        margin_barriers.append(registry.register(speed_limit_barrier(limits, vp)))
        for _, v in limits.rows:
            bid = f"vmax{v:g}"
            if bid not in registry:
                registry.register(AffineBarrier(
                    bid, coeffs=(0.0, -1.0, 0.0), offset=v, alpha=AlphaFn(1.0 / vp.beta)))
    if signals:
        signal_bar = registry.register(TrafficSignalBarrier(signals, vp))
        margin_barriers.append(signal_bar)
    for bar in cfg.barriers:
        registry.register(bar)

    sys = make_vehicle_system(vp, lead, cfg.domain)

    spec = parse_spec(cfg.stl_text, registry, cfg.horizon)

    sched_cfg = ScheduleConfig(
        domain=cfg.domain, horizon=cfg.horizon, rho=cfg.rho_speed,
        t_conv=cfg.t_conv_speed, gamma_min=cfg.gamma_min,
    )
    schedules = []
    for group in group_tasks(spec):
        if any(p.barrier_id == "hpos" for _, p in group.predicates):
            if len(group.predicates) != 1:
                raise PipelineError(
                    f"group {group.label}: the signal barrier cannot share a group"
                )
            interval, pred = group.predicates[0]
            if pred.negated:
                raise PipelineError(
                    f"group {group.label}: the signal barrier cannot be negated"
                )
            if interval.start != 0.0 or interval.end != cfg.horizon:
                raise PipelineError(
                    f"group {group.label}: the signal task must span [0, horizon)"
                )
            schedules.extend(build_signal_contracts(
                signals, vp, registry, sched_cfg, cfg.rho_signal, label=group.label))
        else:
            schedules.append(build_schedule(group, registry, sched_cfg))

    pid = replace(cfg.pid)  # this build's own integral state
    spacing, motion, mass, dt = margin_barriers[0]._h, lead.cached_motion, vp.mass, cfg.dt
    c0, c1, c2 = vp.c0, vp.c1, vp.c2

    def nominal(t, x):
        # V_l from the lead's held piece; h1 and the friction
        # F_r = c0 + c1 V + c2 V^2 inline
        vl, v = motion(t)[0], x[1]
        return pid_nominal(spacing(vl, x), vl - v, pid, dt, mass, c0 + c1 * v + c2 * v * v)

    # columns over the whole trace, (ts, states) arrays -> one value per row;
    # the trace CSV writes inf, 0 and "none" for a channel the scenario lacks
    extra_channels = {"V_l": lambda ts, states: lead.velocity(ts)}
    if limits is not None:
        extra_channels["V_max"] = lambda ts, states: limits.value(ts)
    if signals:
        extra_channels["active_signal"] = lambda ts, states: np.where(
            (k := signal_bar.active(states[:, 0])) < len(signals), k + 1.0, 0.0)
        extra_channels["signal_phase"] = lambda ts, states: np.take(
            PHASES, active_phase_index(signals, ts, signal_bar.active(states[:, 0])))

    return ScenarioBundle(
        cfg=cfg, registry=registry, sys=sys, spec=spec,
        schedules=schedules, nominal=nominal, margin_barriers=margin_barriers,
        extra_channels=extra_channels,
    )


@dataclass
class RunReport:
    scenario: str
    scenario_hash: str
    dt: float
    seed: int
    horizon: float
    status: str                 # "success" | "failure" | "compatible"
    exit_code: int
    failure_stage: str = ""     # "static" | "runtime" | "monitor" when failed
    compat: list = field(default_factory=list)   # (group label, [boundary text])
    monitor: Optional[SatisfactionReport] = None
    failure: Optional[SimFailure] = None
    static_failures: list = field(default_factory=list)
    engagements: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)


@dataclass
class PipelineOutcome:
    report: RunReport
    trace: Optional[Trace]
    bundle: ScenarioBundle

    @property
    def exit_code(self) -> int:
        return self.report.exit_code


def check_pipeline(cfg: ScenarioConfig) -> PipelineOutcome:
    """Static half of the pipeline: check that dt divides the horizon, build
    everything, classify boundaries, then, when every boundary passes, check
    x0 against each schedule's opening assumption, as `run_simulation` does."""
    step_count(cfg.horizon, cfg.dt)
    bundle = build_scenario(cfg)
    report = RunReport(
        scenario=cfg.name, scenario_hash=cfg.scenario_hash(), dt=cfg.dt,
        seed=cfg.seed, horizon=cfg.horizon, status="compatible", exit_code=EXIT_SUCCESS,
    )
    _fill_compat(report, bundle)
    if report.static_failures:
        report.status, report.failure_stage = "failure", "static"
        report.exit_code = EXIT_STATIC_INCOMPATIBLE
    else:
        check_opening_assumptions(bundle.schedules, cfg.x0)
    return PipelineOutcome(report, None, bundle)


def run_pipeline(cfg: ScenarioConfig) -> PipelineOutcome:
    """Full pipeline. Static incompatibility or a runtime failure stops the
    run exactly where the synthesis loop prescribes; the trace prefix that
    exists by then is kept for serialization, its margin and channel columns
    filled after the loop as for a full run. The run's events then go to the
    `stlcbf` logger: deadline risks at info level, engagements and clamps at
    debug level."""
    outcome = check_pipeline(cfg)
    report, bundle = outcome.report, outcome.bundle
    if report.static_failures:
        return outcome

    result = run_simulation(bundle.sys, bundle.schedules, bundle.nominal,
                            cfg.input_box, cfg.x0, dt=cfg.dt, t_max=cfg.horizon,
                            tol=cfg.margin_tol)
    result.trace.fill_columns(bundle.margin_barriers, bundle.extra_channels)
    for t, text in result.trace.events:
        level = logging.INFO if text.startswith("deadline-risk") else logging.DEBUG
        log.log(level, "t=%.6f %s", t, text)
    report.engagements = [rec.describe() for _, rec in sorted(result.engagements.items())]
    _fill_summary(report, result.trace, bundle)

    if result.failure is not None:
        report.status, report.failure_stage = "failure", "runtime"
        report.exit_code = EXIT_RUNTIME_FAILURE
        report.failure = result.failure
        return PipelineOutcome(report, result.trace, bundle)

    report.monitor = stl.monitor_trace(result.trace, bundle.spec, bundle.registry,
                                       tol=cfg.margin_tol)
    if report.monitor.satisfied:
        report.status, report.exit_code = "success", EXIT_SUCCESS
    else:
        # The filter ran to completion but some task margin dipped below -tol.
        report.status, report.failure_stage = "failure", "monitor"
        report.exit_code = EXIT_RUNTIME_FAILURE
    return PipelineOutcome(report, result.trace, bundle)


def _fill_compat(report, bundle):
    for sched in bundle.schedules:
        lines = [bd.describe() for bd in sched.boundaries]
        report.compat.append((sched.label, lines))
        for bd in sched.failures():
            report.static_failures.append(f"{sched.label}: {bd.describe()}")


def _fill_summary(report, trace, bundle):
    summary = {}
    for bar in bundle.margin_barriers:
        summary[f"min_margin[{bar.id}]"] = trace.min_margin(bar.id)
    un, us = trace.u_nom, trace.u_safe
    # a row whose safe input differs from the nominal one; the NaN row of an
    # infeasible or violated step never counts
    summary["qp_active_steps"] = int(np.count_nonzero(
        (np.abs(un - us) > 1e-9).any(axis=1) & ~np.isnan(us[:, 0])))
    summary["rows"] = trace.n_rows()
    report.summary = summary


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

TRACE_COLUMNS = ("t", "X_f", "V_f", "X_l", "V_l", "V_max", "u_nom", "u_safe",
                 "h1", "h_v", "h_pos", "qp_status", "active_signal", "signal_phase")


# one row of TRACE_COLUMNS; %.6f prints inf, -inf and nan as those words
_ROW = "%.6f," * 11 + "%s,%d,%s\n"

_CHUNK_ROWS = 1024  # rows formatted at once; bounds the writer's scratch memory


def _words(texts, width: int = 8) -> np.ndarray:
    """Each text's bytes, NUL-padded to `width`, as one row of uint64 words."""
    raw = np.array([t.encode() for t in texts], f"S{width}")
    return raw.view(np.uint64).reshape(len(texts), width // 8)


# A float cell is two little-endian uint64 words whose bytes, NULs dropped,
# read as its `%.6f,` text. Word 0 holds the sign at byte 0, the integer
# part's thousands (none below 1000) at bytes 1-3 and its last three digits at
# bytes 4-6, zero-padded when thousands precede them; word 1 is ".ddd" "ddd,".
_INT_HIGH = _words(["\0" + str(v) if v else "" for v in range(1000)]).ravel()
_INT_LOW = _words([f"\0\0\0\0{v}" for v in range(1000)]
                  + [f"\0\0\0\0{v:03d}" for v in range(1000)]).ravel()
_FRAC_HIGH = _words([f".{v:03d}" for v in range(1000)]).ravel()
_FRAC_LOW = _words([f"\0\0\0\0{v:03d}," for v in range(1000)]).ravel()
_MINUS, _INF, _NEG_INF, _NAN, _COMMA = _words(["-", "inf", "-inf", "nan", ","]).ravel()


def _float_cells(x: np.ndarray, word0: np.ndarray, word1: np.ndarray) -> np.ndarray:
    """Write the two words of every cell of `x` whose `%.6f` text they can
    prove; return the mask of the finite cells they cannot.

    Where |rint(y)| < 1e12 < 2**40, the product y = x*1e6 is within 2**-14 of
    the exact one, so rint(y) is the integer that `%.6f` rounds to, unless y
    lies within 2**-11 of a half-integer. Those near-ties (k/128 is an exact
    one) and larger values are left to `_ROW`."""
    with np.errstate(over="ignore", invalid="ignore"):  # y = inf, inf - inf
        y = x * 1e6
        r = np.rint(y)
        mag = np.abs(r)
        proven = (np.abs(y - r) < 0.5 - 2.0 ** -11) & (mag < 1e12)
    mag[~proven] = 0.0
    q = mag.astype(np.int64)
    whole = q // 1_000_000
    frac = q - whole * 1_000_000
    high = whole // 1000
    low = whole - high * 1000 + 1000 * (high > 0)  # the zero-padded half
    frac_high = frac // 1000
    np.bitwise_or(_INT_HIGH[high] | _INT_LOW[low], _MINUS * np.signbit(x), out=word0)
    np.bitwise_or(_FRAC_HIGH[frac_high], _FRAC_LOW[frac - frac_high * 1000], out=word1)
    special = ~np.isfinite(x)
    if special.any():
        v = x[special]
        word0[special] = np.where(np.isnan(v), _NAN, np.where(v > 0, _INF, _NEG_INF))
        word1[special] = _COMMA
    return ~(proven | special)


def _tail_words(status, active, phase) -> np.ndarray:
    """The `%s,%d,%s` tails of one chunk's rows, as uint64 rows: each run of
    rows with equal (qp_status, active_signal, signal_phase) is formatted once."""
    status = np.array(status, object)
    new = np.ones(len(status), bool)
    new[1:] = status[1:] != status[:-1]
    for col in (active, phase):
        new[1:] |= col[1:] != col[:-1]
    starts = np.flatnonzero(new)
    texts = ["%s,%d,%s\n" % (status[i], active[i], phase[i]) for i in starts]
    width = -(-max(map(len, texts)) // 8) * 8
    return np.repeat(_words(texts, width), np.diff(starts, append=len(status)), axis=0)


def write_trace_csv(trace: Trace, path: str) -> None:
    """Fixed-schema CSV at 1e-6 decimal precision; byte-stable for identical
    runs. Missing channels (no speed limits / no signals) serialize as inf,
    the signal columns as 0 and "none". The input columns are the first
    input component.

    `_ROW` is the format of every row. Rows are formatted `_CHUNK_ROWS` at a
    time with numpy (`_float_cells`, `_tail_words`), so the writer's memory
    does not grow with the trace. A row with a finite cell whose text the
    numpy kernel cannot prove equal to `%.6f`'s (a near-tie at the sixth
    decimal, or a value that prints at or above 1e6 in magnitude) is
    formatted by `_ROW` itself."""
    n, margins, extras = trace.n_rows(), trace.margins, trace.extras
    inf = np.broadcast_to(math.inf, (n,))
    states = trace.states
    cols = (np.frombuffer(trace.ts, float), states[:, 0], states[:, 1], states[:, 2],
            extras.get("V_l", inf), extras.get("V_max", inf),
            trace.u_nom[:, 0], trace.u_safe[:, 0],
            margins.get("h1", inf), margins.get("hv", inf), margins.get("hpos", inf))
    status = trace.qp_status
    active = extras.get("active_signal", np.broadcast_to(0, (n,)))
    phase = extras.get("signal_phase", np.broadcast_to("none", (n,)))
    x = np.empty((_CHUNK_ROWS, len(cols)))
    width = 2 * len(cols)  # words of the float cells
    with open(path, "wb") as fh:
        fh.write((",".join(TRACE_COLUMNS) + "\n").encode())
        for a in range(0, n, _CHUNK_ROWS):
            b = min(a + _CHUNK_ROWS, n)
            x = x[:b - a]
            for j, col in enumerate(cols):
                x[:, j] = col[a:b]
            tails = _tail_words(status[a:b], active[a:b], phase[a:b])
            rows = np.empty((b - a, width + tails.shape[1]), np.uint64)
            rows[:, width:] = tails
            unproven = _float_cells(x, rows[:, 0:width:2], rows[:, 1:width:2])
            done = 0
            for i in np.flatnonzero(unproven.any(axis=1)):
                fh.write(rows[done:i].tobytes().translate(None, b"\0"))
                fh.write((_ROW % (*x[i], status[a + i], active[a + i], phase[a + i])).encode())
                done = i + 1
            fh.write(rows[done:].tobytes().translate(None, b"\0"))


def format_report(report: RunReport) -> str:
    lines = [
        "# stlcbf run report",
        f"scenario={report.scenario}",
        f"scenario_hash={report.scenario_hash}",
        f"status={report.status}",
        f"exit_code={report.exit_code}",
    ]
    if report.failure_stage:
        lines.append(f"failure_stage={report.failure_stage}")
    lines += [
        f"dt={report.dt:.6f}",
        f"seed={report.seed}",
        f"horizon={report.horizon:.6f}",
        "[compatibility]",
    ]
    for label, bds in report.compat:
        lines.append(f"group={label} boundaries={len(bds)}")
        lines.extend(f"  {text}" for text in bds)
    if report.static_failures:
        lines.append("[static_failures]")
        lines.extend(f"  {text}" for text in report.static_failures)
    if report.failure is not None:
        lines.append("[failure]")
        lines.append(f"  {report.failure.describe()}")
    if report.monitor is not None:
        lines.append("[monitor]")
        lines.extend("  " + ln for ln in str(report.monitor).splitlines())
    if report.engagements:
        lines.append("[engagements]")
        lines.extend(f"  {text}" for text in report.engagements)
    if report.summary:
        lines.append("[summary]")
        for key in sorted(report.summary):
            val = report.summary[key]
            lines.append(f"{key}={val:.6f}" if isinstance(val, float) else f"{key}={val}")
    return "\n".join(lines) + "\n"


def write_report(report: RunReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_report(report))


# ---------------------------------------------------------------------------
# Offline monitoring of a serialized trace
# ---------------------------------------------------------------------------


@dataclass
class TraceView:
    """Minimal trace protocol (ts, states) reconstructed from a CSV."""

    ts: list
    states: list


def read_trace_csv(path: str) -> TraceView:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        try:
            it, ixf, ivf, ixl = (header.index(k) for k in ("t", "X_f", "V_f", "X_l"))
        except ValueError as exc:
            raise PipelineError(f"trace {path} lacks required columns: {exc}") from None
        ts, states = [], []
        for lineno, line in enumerate(fh, start=2):
            toks = line.rstrip("\n").split(",")
            try:
                if len(toks) != len(header):
                    raise ValueError(f"{len(toks)} fields, header has {len(header)}")
                row = [float(toks[i]) for i in (it, ixf, ivf, ixl)]
                if not all(map(math.isfinite, row)):  # the monitor reads NaN as satisfied
                    raise ValueError(f"t, X_f, V_f and X_l must be finite, got {row}")
            except ValueError as exc:
                raise PipelineError(f"trace {path} line {lineno}: {exc}") from None
            ts.append(row[0])
            states.append(tuple(row[1:]))
    return TraceView(ts=ts, states=states)


def monitor_csv(trace_path: str, cfg: ScenarioConfig) -> SatisfactionReport:
    """Re-evaluate every task margin from the recorded states."""
    bundle = build_scenario(cfg)
    view = read_trace_csv(trace_path)
    return stl.monitor_trace(view, bundle.spec, bundle.registry, tol=cfg.margin_tol)
