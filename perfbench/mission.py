"""Run one benchmark mission in a fresh process and print its result as JSON.

    python3 perfbench/mission.py --workload NAME --seed N --out DIR [--trace]

The mission goes through the public API the way `synth run` and
`synth check` do: load the config, run (or check) the pipeline, write the
trace CSV, format the report. The mission reads the clock at fixed
checkpoints of its work: around the one call into `pipeline.build_scenario`
and the one into `pipeline.run_simulation`, every STEP_CHUNK control steps,
every GRID_CHUNK sampled grid points, and after each stage. Traced, the
module-level names that the program looks up on its hot paths are wrapped
as well. Every wrapper is restored when the mission ends, however it ends.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from stlcbf import config, contracts, pipeline, sim, stl, vehicle  # noqa: E402

from workloads import WORKLOADS, Mission  # noqa: E402


NO_SPAN = (0, 0.0, 0.0)  # (calls, total seconds, self seconds) of an unseen name
STEP_CHUNK = 100  # control steps between two checkpoints (about 10 ms)
GRID_CHUNK = 10_000  # sampled grid points between two checkpoints (about 40 ms)
PROBE_EVERY_S = 0.1  # wall seconds of work between two speed probes
PROBE_LOOPS = 400  # one probe pass takes about 0.13 ms at the fast speed


def speed_probe() -> float:
    """Seconds that a fixed piece of interpreter work takes right now, best
    of three: small tuples, float arithmetic, calls and a dict, as in a
    control step. It does not touch stlcbf, so no change to the program
    moves it; only the machine's speed does."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc, seen = 0.0, {}
        for i in range(PROBE_LOOPS):
            x = (i * 0.5, i % 7 + 1.0, -0.25 * i)
            acc += abs(x[0] - x[2]) / x[1] + math.sqrt(x[1])
            seen[i & 255] = x
        best = min(best, time.perf_counter() - t0)
    return best


class Checkpoints:
    """Wall time of a mission's work in segments, each with the speed probe
    taken just before it started.

    `mark(label)` ends the segment that started at the previous mark. A probe
    runs at the first mark and then at the first mark after every
    PROBE_EVERY_S seconds; the probe itself falls outside every segment.
    """

    def __init__(self):
        self.segments = []  # [label, wall seconds, probe seconds]
        self._start = self._probed_at = self._probe = None

    def mark(self, label):
        now = time.perf_counter()
        if self._start is not None:
            self.segments.append([label, now - self._start, self._probe])
        if self._probed_at is None or now - self._probed_at >= PROBE_EVERY_S:
            self._probe, self._probed_at = speed_probe(), now
            now = time.perf_counter()
        self._start = now


class Tracer:
    """Spans and counts, kept in memory as parallel lists.

    A span records its name, start, end and the index of the span open when
    it started, so each layer's self time can be derived afterwards.
    """

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts: dict = {}
        self._open = [-1]

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, after=None):
        """`fn` recording one span per call; `after(args, result)` may count."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._open)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def counted(self, key, fn):
        counts = self.counts

        def counting(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counting

    def totals(self) -> dict:
        """name -> (calls, total seconds, self seconds); self time is the part
        of a span's interval that its direct child spans do not cover."""
        calls, total, covered = {}, {}, {}
        for name, parent, s, e in zip(self.names, self.parents, self.starts, self.ends):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (e - s)
            if parent >= 0:
                up = self.names[parent]
                covered[up] = covered.get(up, 0.0) + (e - s)
        return {n: (calls[n], total[n], total[n] - covered.get(n, 0.0)) for n in calls}


@contextmanager
def patched(specs):
    """Replace each `(owner, attr, make)` by `make(original)`; restore all."""
    saved = []
    try:
        for owner, attr, make in specs:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _span(tr: Tracer, name, after=None):
    return lambda fn: tr.wrap(name, fn, after)


def _coarse_specs(tr: Tracer):
    return [
        (pipeline, "build_scenario", _span(tr, "pipeline.build_scenario")),
        (pipeline, "run_simulation", _span(tr, "sim.run_simulation")),
    ]


def _checkpoint_specs(cp: Checkpoints):
    """Marks around the two coarse calls, every STEP_CHUNK calls of
    `integrate_step` and every GRID_CHUNK points of the sampled grid. A name
    the program no longer has is skipped: its segment is just coarser."""
    def around(before, after):
        def make(fn):
            def marked(*args, **kwargs):
                cp.mark(before)
                result = fn(*args, **kwargs)
                cp.mark(after)
                return result
            return marked
        return make

    def every_step(fn):
        calls = [0]

        def stepping(*args, **kwargs):
            calls[0] += 1
            if calls[0] % STEP_CHUNK == 0:
                cp.mark("sim.steps")
            return fn(*args, **kwargs)
        return stepping

    def grid_chunks(fn):
        def points(*args, **kwargs):
            it = fn(*args, **kwargs)
            while chunk := tuple(itertools.islice(it, GRID_CHUNK)):
                cp.mark("grid")
                yield from chunk
        return points

    specs = [
        (pipeline, "build_scenario", around("pipeline.pre", "pipeline.build_scenario")),
        (pipeline, "run_simulation", around("sim.pre", "sim.run_simulation")),
        (sim, "integrate_step", every_step),
        (contracts, "_grid_points", grid_chunks),
    ]
    return [spec for spec in specs if hasattr(spec[0], spec[1])]


def _fine_specs(tr: Tracer):
    def conjoin_after(args, cons):
        tr.add("constraints", len(cons))

    def qp_after(args, u_safe):
        u_nom, cons = args[0], args[1]
        tr.add("qp_rows", len(cons))
        if u_safe is not None and any(abs(a - b) > 1e-9 for a, b in zip(u_nom, u_safe)):
            tr.add("qp_active")

    def grid_after(args, result):
        """Count resolution^3 points for every check that took the grid path."""
        method = result[1] if isinstance(result, tuple) else result.method
        if method.startswith("sampled("):
            tr.add("grid_points", int(method[len("sampled("):-1]) ** 3)

    def counted_f(make):
        def make_system(*args, **kwargs):
            system = make(*args, **kwargs)
            return dataclasses.replace(system, f=tr.counted("f_calls", system.f))
        return make_system

    return [
        (sim, "conjoin_groups", _span(tr, "contracts.conjoin_groups", conjoin_after)),
        (contracts, "cbf_constraint", _span(tr, "barriers.cbf_constraint")),
        (contracts, "fcbf_constraint", _span(tr, "barriers.fcbf_constraint")),
        (sim, "solve_qp", _span(tr, "qp.solve_qp", qp_after)),
        (sim, "integrate_step", _span(tr, "sim.integrate_step")),
        (stl, "monitor_trace", _span(tr, "stl.monitor_trace")),
        (pipeline, "build_schedule", _span(tr, "contracts.build_schedule")),
        (vehicle, "build_schedule", _span(tr, "contracts.build_schedule")),
        (contracts, "check_subset", _span(tr, "contracts.check_subset", grid_after)),
        (contracts, "check_intersection",
         _span(tr, "contracts.check_intersection", grid_after)),
        (contracts, "_worst_engage_margin", _span(tr, "contracts.worst_engage", grid_after)),
        (vehicle.LeadProfile, "velocity", lambda fn: tr.counted("lead_velocity_calls", fn)),
        (pipeline, "make_vehicle_system", counted_f),
    ]


def parse_boundary(text: str):
    """(prev->next, verdict, tau, t_conv) of one report boundary line."""
    toks = text.split()
    arrow = next(tok for tok in toks if "->" in tok)
    kv = dict(tok.split("=", 1) for tok in toks if "=" in tok and tok is not arrow)
    tau, t_conv = (float(kv[k]) if k in kv else None for k in ("tau", "t_conv"))
    return [arrow, kv.get("verdict"), tau, t_conv]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_mission(mission: Mission, out_dir: Path, traced: bool = False) -> dict:
    """Run `mission` once in this process and return its measurements."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{mission.workload}-{mission.seed}-{os.getpid()}"
    cfg_path, csv_path = stem.with_suffix(".cfg"), stem.with_suffix(".csv")
    source = mission.preset
    if not source:
        cfg_path.write_text(mission.config_text, encoding="utf-8")
        source = str(cfg_path)
    tr, cp = Tracer(), Checkpoints()
    # The checkpoint wrappers go on last, outermost, so that traced, a probe's
    # time stays out of the coarse spans and out of `integrate_step`'s.
    specs = (_coarse_specs(tr) + _fine_specs(tr) if traced else []) + _checkpoint_specs(cp)
    try:
        with patched(specs):
            t0 = time.perf_counter()
            cp.mark("start")
            cfg = tr.wrap("config.load", config.load_config)(source)
            cp.mark("config.load")
            if mission.static_only:
                outcome = pipeline.check_pipeline(cfg)
                cp.mark("pipeline.check_pipeline")
            else:
                outcome = pipeline.run_pipeline(cfg)
                cp.mark("pipeline.run_pipeline")
                tr.wrap("pipeline.write_trace_csv", pipeline.write_trace_csv)(
                    outcome.trace, str(csv_path))
                cp.mark("pipeline.write_trace_csv")
            report = tr.wrap("pipeline.format_report", pipeline.format_report)(outcome.report)
            cp.mark("pipeline.format_report")
            mission_s = time.perf_counter() - t0
        csv_bytes = csv_path.read_bytes() if csv_path.exists() else b""
    finally:
        cfg_path.unlink(missing_ok=True)
        csv_path.unlink(missing_ok=True)

    rep = outcome.report
    boundaries = [parse_boundary(line) for _, lines in rep.compat for line in lines]
    steps = outcome.trace.n_rows() - 1 if outcome.trace is not None else 0
    spans = tr.totals()
    result = {
        "workload": mission.workload,
        "seed": mission.seed,
        "status": rep.status,
        "exit_code": rep.exit_code,
        "satisfied": rep.monitor.satisfied if rep.monitor is not None else None,
        "csv_sha256": _sha256(csv_bytes) if csv_bytes else None,
        "report_sha256": _sha256(report.encode("utf-8")),
        "boundaries": boundaries,
        "steps": steps,
        "mission_s": mission_s,
        "segments": cp.segments,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        result["layers"] = _layer_metrics(spans, tr.counts, rep, steps, len(csv_bytes))
    return result


def _layer_metrics(spans: dict, counts: dict, rep, steps: int, trace_bytes: int) -> dict:
    def calls(name):
        return spans.get(name, NO_SPAN)[0]

    def total(name):
        return spans.get(name, NO_SPAN)[1]

    def per(key, base):
        return counts.get(key, 0) / base if base else 0.0

    qp_calls = calls("qp.solve_qp")
    sampled = sum("method=sampled(" in line for _, lines in rep.compat for line in lines)
    seconds = {
        "contracts.conjoin_groups_s": total("contracts.conjoin_groups"),
        "barriers.constraint_s": (total("barriers.cbf_constraint")
                                  + total("barriers.fcbf_constraint")),
        "qp.solve_qp_s": total("qp.solve_qp"),
        "sim.integrate_step_s": total("sim.integrate_step"),
        "sim.loop_self_s": spans.get("sim.run_simulation", NO_SPAN)[2],
        "stl.monitor_trace_s": total("stl.monitor_trace"),
        "pipeline.write_trace_csv_s": total("pipeline.write_trace_csv"),
        "pipeline.format_report_s": total("pipeline.format_report"),
        "pipeline.build_scenario_s": total("pipeline.build_scenario"),
        "config.load_s": total("config.load"),
        "contracts.build_schedule_s": total("contracts.build_schedule"),
        "contracts.check_subset_s": total("contracts.check_subset"),
        "contracts.check_intersection_s": total("contracts.check_intersection"),
        "contracts.worst_engage_s": total("contracts.worst_engage"),
    }
    counts_out = {
        "contracts.constraints_per_step": per("constraints", steps),
        "barriers.cbf_calls": calls("barriers.cbf_constraint"),
        "barriers.fcbf_calls": calls("barriers.fcbf_constraint"),
        "qp.rows_per_call": per("qp_rows", qp_calls),
        "vehicle.f_calls_per_step": per("f_calls", steps),
        "vehicle.lead_velocity_calls_per_step": per("lead_velocity_calls", steps),
        "contracts.boundaries_sampled": sampled,
        "contracts.grid_points": counts.get("grid_points", 0),
    }
    out = {name: [v, "s"] for name, v in seconds.items()}
    out.update({name: [v, "count"] for name, v in counts_out.items()})
    out["qp.active_ratio"] = [per("qp_active", qp_calls), "ratio"]
    out["pipeline.trace_bytes"] = [trace_bytes, "bytes"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    mission = WORKLOADS[args.workload](args.seed)
    result = run_mission(mission, Path(args.out), traced=args.trace)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
