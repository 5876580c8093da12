"""stlcbf benchmark: one workload, one seed, a closed loop of missions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each mission runs in its own fresh
child process (`perfbench/mission.py`), one after another, while the next one
is expected to end within `--seconds`, and at least MIN_MISSIONS times.
Every mission's outputs are checked; the failure presets are checked once per
invocation, untimed.

With `--trace 0` the last line of stdout holds the end-to-end metrics
(medians over the missions, at the reference machine speed, see
`split_segments`); with `--trace 1` it holds the per-layer metrics
of one extra traced mission, whose output hashes must equal the untraced
ones. The lines before it give sample counts and the failed share.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_MISSIONS = 3
# `mission.speed_probe()` on the development machine at its fast speed. The
# host of that 2-vCPU VM switches between a fast and a 1.7x slower speed for
# seconds to minutes at a time, so wall times alone do not repeat.
PROBE_REF_S = 1.35e-4
DEADLINE_S = 170.0  # every child is killed before the whole run reaches this


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("STLCBF_LOG", None)
    return env


def _run_child(argv, deadline: float) -> subprocess.CompletedProcess:
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=timeout)


def run_mission_child(workload: str, seed: int, out_dir: Path, traced: bool,
                      deadline: float):
    """One mission in a fresh process: (result dict or None, error text)."""
    argv = [str(HERE / "mission.py"), "--workload", workload, "--seed", str(seed),
            "--out", str(out_dir)] + (["--trace"] if traced else [])
    try:
        proc = _run_child(argv, deadline)
    except subprocess.TimeoutExpired:
        return None, "mission timed out"
    if proc.returncode != 0:
        return None, f"mission exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "mission printed no result"


def check_mission(mission: workloads.Mission, result: dict) -> list:
    """Problems with one mission's outputs; empty when they are correct."""
    problems = []
    if mission.static_only:
        if result["status"] != "compatible" or result["exit_code"] != 0:
            problems.append(f"status {result['status']} exit {result['exit_code']}")
        got = [tuple(b) for b in result["boundaries"]]
        if got != [tuple(h) for h in mission.handoffs]:
            problems.append(f"verdicts {got} != expected {list(mission.handoffs)}")
        return problems
    if result["status"] != "success" or result["satisfied"] is not True:
        problems.append(f"status {result['status']} satisfied={result['satisfied']}")
    if mission.workload == "mission_ref":
        for key, want in (("csv_sha256", workloads.REF_CSV_SHA256),
                          ("report_sha256", workloads.REF_REPORT_SHA256)):
            if result[key] != want:
                problems.append(f"{key} {result[key]} != recorded {want}")
    return problems


def check_failure_presets(out_dir: Path, deadline: float) -> list:
    """Exit codes and failure text of the shipped failure presets, via the CLI."""
    problems = []
    report = out_dir / f"infeasible_red-{os.getpid()}.txt"
    cli = ["-m", "stlcbf.cli"]
    try:
        run = _run_child(cli + ["run", "infeasible_red", "--report", str(report)], deadline)
        text = report.read_text(encoding="utf-8") if report.exists() else ""
        if run.returncode != 3 or "qp_infeasible at t=1.010000" not in text:
            problems.append(f"infeasible_red: exit {run.returncode}, no expected failure")
        check = _run_child(cli + ["check", "incompatible_static"], deadline)
        if check.returncode != 2:
            problems.append(f"incompatible_static: exit {check.returncode}, expected 2")
    except subprocess.TimeoutExpired:
        problems.append("failure presets timed out")
    finally:
        report.unlink(missing_ok=True)
    return problems


def split_segments(segments: list):
    """(mission, setup, simulation) seconds of one mission at the reference
    speed: each segment's wall time scaled by PROBE_REF_S over the speed
    probe taken just before it. Setup is config load plus `build_scenario`;
    simulation is `run_simulation`."""
    labels = [label for label, _, _ in segments]
    secs = [wall * PROBE_REF_S / probe for _, wall, probe in segments]
    build_end = len(labels) - 1 - labels[::-1].index("pipeline.build_scenario")
    setup = sum(s for label, s in zip(labels[:build_end + 1], secs) if label != "pipeline.pre")
    sim = 0.0
    if "sim.pre" in labels:
        sim = sum(secs[labels.index("sim.pre") + 1:labels.index("sim.run_simulation") + 1])
    return sum(secs), setup, sim


def end_to_end(results: list, static_only: bool) -> dict:
    """Medians over the missions, at the reference speed. A step is a control
    step of `run_simulation`; for the static check, which runs none, it is
    one classified boundary."""
    mission_s, setup_s, sim_s = zip(*(split_segments(r["segments"]) for r in results))
    if static_only:
        rates = [len(r["boundaries"]) / m for r, m in zip(results, mission_s)]
    else:
        rates = [r["steps"] / s for r, s in zip(results, sim_s)]
    med = statistics.median
    return {
        "mission_s": {"value": med(mission_s), "unit": "s"},
        "setup_s": {"value": med(setup_s), "unit": "s"},
        "steps_per_s": {"value": med(rates), "unit": "1/s"},
        "peak_rss_mb": {"value": med(r["peak_rss_mb"] for r in results), "unit": "MB"},
    }


def per_layer(layers: dict, traced_s: float, untraced_s: float) -> dict:
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    out["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "stlcbf" / "__init__.py").is_file():
        sys.stderr.write(f"error: no stlcbf sources under {ROOT / 'src'}; "
                         "run from the root of a source checkout\n")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    mission = workloads.WORKLOADS[args.workload](args.seed)

    failures = [f"preset {p}" for p in check_failure_presets(out_dir, deadline)]
    attempted, failed = 2, len(failures)
    results, walls = [], []
    start = time.monotonic()
    # Start a mission only while it is expected to end within --seconds.
    while len(results) < MIN_MISSIONS or (
            time.monotonic() - start + statistics.median(walls) <= args.seconds):
        attempted += 1
        t0 = time.monotonic()
        result, error = run_mission_child(args.workload, args.seed, out_dir, False, deadline)
        walls.append(time.monotonic() - t0)
        problems = [error] if result is None else check_mission(mission, result)
        failures += [f"mission {len(results) + 1}: {p}" for p in problems]
        failed += bool(problems)
        if result is None:
            break
        results.append(result)

    traced = None
    if args.trace and results:
        attempted += 1
        traced, error = run_mission_child(args.workload, args.seed, out_dir, True, deadline)
        problems = [error] if traced is None else check_mission(mission, traced)
        if traced is not None:
            problems += [f"traced {key} differs from the untraced run"
                         for key in ("csv_sha256", "report_sha256")
                         if traced[key] != results[0][key]]
        failures += [f"traced mission: {p}" for p in problems]
        failed += bool(problems)

    for line in failures:
        print(f"FAILED {line}")
    print(f"workload={args.workload} seed={args.seed} missions={len(results)} "
          f"attempted={attempted} failed={failed} failed_share={failed / attempted:.4f}")
    if not results or (args.trace and traced is None):
        metrics = {}
    elif args.trace:
        untraced_s = statistics.median(split_segments(r["segments"])[0] for r in results)
        metrics = per_layer(traced["layers"], split_segments(traced["segments"])[0],
                            untraced_s)
    else:
        metrics = end_to_end(results, mission.static_only)
    note = "" if args.trace else f" (median of {len(results)})"
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
