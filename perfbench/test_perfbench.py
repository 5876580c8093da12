"""Tests of the benchmark itself: generators, checks and tracing wrappers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

import mission
import run
import workloads
from stlcbf import config, contracts, pipeline, sim, stl, vehicle

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    make = workloads.WORKLOADS[name]
    assert make(3) == make(3)
    if name != "mission_ref":  # the preset takes its seed as an override
        assert make(3).config_text != make(4).config_text


def test_dense_contracts_has_eight_overlapping_deadline_groups():
    for seed in (0, 5, 11):
        cfg = config.parse_config(workloads.dense_contracts(seed).config_text)
        outcome = pipeline.check_pipeline(cfg)
        assert outcome.exit_code == 0
        with_windows = [label for label, lines in outcome.report.compat
                        if any("verdict=overlap_deadline" in ln for ln in lines)]
        assert len(with_windows) >= 8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_contracts_succeeds(tmp_path, seed):
    m = workloads.dense_contracts(seed)
    result = mission.run_mission(m, tmp_path)
    assert run.check_mission(m, result) == []
    assert result["steps"] == 10000


def test_static_sampled_handoffs_take_the_grid_path():
    source = workloads.static_sampled(7)
    outcome = pipeline.check_pipeline(config.parse_config(source.config_text))
    lines = [ln for _, group in outcome.report.compat for ln in group]
    assert len(lines) == len(source.handoffs) == 1
    assert all("method=sampled(" in ln for ln in lines)
    assert [tuple(mission.parse_boundary(ln)) for ln in lines] == list(source.handoffs)


def test_reference_hash_mismatch_is_a_failure_at_every_seed():
    result = {"status": "success", "satisfied": True, "csv_sha256": "0" * 64,
              "report_sha256": workloads.REF_REPORT_SHA256}
    for seed in (20, 634512626):
        assert len(run.check_mission(workloads.mission_ref(seed), result)) == 1
    result["csv_sha256"] = workloads.REF_CSV_SHA256
    assert run.check_mission(workloads.mission_ref(7), result) == []


def test_times_are_scaled_to_the_reference_speed_per_segment():
    ref = run.PROBE_REF_S
    labels = ["config.load", "pipeline.pre", "grid", "pipeline.build_scenario",
              "sim.pre", "sim.steps", "sim.run_simulation", "pipeline.format_report"]
    # The same work, once at the reference speed and once half as fast.
    fast = [[label, 1.0, ref] for label in labels]
    slow = [[label, 2.0, 2 * ref] for label in labels]
    assert run.split_segments(fast) == pytest.approx((8, 3, 2))
    assert run.split_segments(slow) == pytest.approx((8, 3, 2))

    def result(segments, rss):
        return {"segments": segments, "steps": 10, "boundaries": [], "peak_rss_mb": rss}
    metrics = run.end_to_end([result(fast, 1.0), result(slow, 2.0), result(fast, 3.0)],
                             static_only=False)
    assert metrics["mission_s"]["value"] == pytest.approx(8)
    assert metrics["steps_per_s"]["value"] == pytest.approx(10 / 2)
    assert metrics["peak_rss_mb"]["value"] == 2.0


def _patched_names():
    return {
        (pipeline, "build_scenario"), (pipeline, "run_simulation"),
        (pipeline, "build_schedule"), (pipeline, "make_vehicle_system"),
        (vehicle, "build_schedule"), (vehicle.LeadProfile, "velocity"),
        (sim, "conjoin_groups"), (sim, "solve_qp"), (sim, "integrate_step"),
        (contracts, "cbf_constraint"), (contracts, "fcbf_constraint"),
        (contracts, "check_subset"), (contracts, "check_intersection"),
        (contracts, "_worst_engage_margin"), (stl, "monitor_trace"),
    }


def _snapshot():
    return {(owner, attr): owner.__dict__[attr] for owner, attr in _patched_names()}


def test_traced_run_restores_wrappers_and_reports_every_layer(tmp_path):
    tracer = mission.Tracer()
    assert {(o, a) for o, a, _ in mission._coarse_specs(tracer)
            + mission._fine_specs(tracer)} == _patched_names()
    before = _snapshot()
    short = workloads.Mission("failure_preset", 0, static_only=False, preset="infeasible_red")
    result = mission.run_mission(short, tmp_path, traced=True)
    assert _snapshot() == before
    assert result["status"] == "failure" and result["steps"] == 101
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = run.per_layer(result["layers"], result["mission_s"], result["mission_s"])
    assert set(layers) == {m["name"] for m in bench["per_layer"]}
    assert layers["vehicle.f_calls_per_step"]["value"] > 0


def test_untraced_run_marks_checkpoints_and_restores_names(tmp_path):
    names = {(pipeline, "build_scenario"), (pipeline, "run_simulation"),
             (sim, "integrate_step"), (contracts, "_grid_points")}
    checkpoints = mission.Checkpoints()
    assert {(o, a) for o, a, _ in mission._checkpoint_specs(checkpoints)} == names
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in names}
    short = workloads.Mission("failure_preset", 0, static_only=False, preset="infeasible_red")
    result = mission.run_mission(short, tmp_path)
    assert {(owner, attr): owner.__dict__[attr] for owner, attr in names} == before
    labels = [label for label, _, _ in result["segments"]]
    assert labels.count("sim.steps") == 101 // mission.STEP_CHUNK
    walls = [wall for _, wall, _ in result["segments"]]
    assert 0 < sum(walls) < result["mission_s"]  # the probes fall outside every segment
    assert all(probe > 0 for _, _, probe in result["segments"])
    total, setup, sim_s = run.split_segments(result["segments"])
    assert 0 < setup and 0 < sim_s < total


def test_wrappers_restored_when_the_mission_raises(tmp_path):
    before = _snapshot()
    broken = workloads.Mission("broken", 0, static_only=False, config_text="[nonsense]\n")
    with pytest.raises(config.ConfigError):
        mission.run_mission(broken, tmp_path, traced=True)
    assert _snapshot() == before
    assert list(tmp_path.iterdir()) == []
