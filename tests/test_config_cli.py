import ast
import hashlib
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import write_trace_csv_rows

from stlcbf import pipeline
from stlcbf.cli import main as cli_main
from stlcbf.config import ConfigError, load_config, parse_config
from stlcbf.pipeline import (
    RunReport,
    build_scenario,
    check_pipeline,
    format_report,
    monitor_csv,
    run_pipeline,
    write_report,
    write_trace_csv,
)
from stlcbf.sim import Trace
from stlcbf.vehicle import PHASES, SpeedLimitSchedule, generate_signal_plan

MINIMAL = """
[scenario]
horizon = 5
[initial]
x_l = 100
[lead]
v0 = 0
[stl]
G[0,5) sat(h1)
"""

BARE = """
[scenario]
horizon = 5
[stl]
G[0,5) sat(h1)
"""

# four independent problems, one per object the file gives
FOUR_ERRORS = MINIMAL.replace("v0 = 0\n", "v0 = 0\nrow = 10 1\nrow = 5 0\n") + """
[speed_limits]
row = 0 -5
[signals]
signal = 200 0 30 -0.5 25
[barriers]
slow = affine 0 -1 0 offset=10 alpha=-1
"""

# eventually-task scenario sized so the convergence demand fits the default
# +-mass*a_max actuation: slow to 5 m/s against a 12 m/s limit, shallow rho
EVENTUALLY_SCENARIO = """
[scenario]
horizon = 60
[initial]
x_l = 200
[fcbf]
rho_speed = 0.5
[speed_limits]
row = 0 12
[barriers]
creep = affine 0 -1 0 offset=5
[lead]
v0 = 25
[stl]
G[0,60) sat(h1)
G[0,60) sat(vmax12)
F[20,60) sat(creep) @ts=50 eps=5
"""


class TestConfigParsing:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.dt == 0.01
        assert cfg.vp.mass == 1650.0
        assert cfg.vp.a_max == pytest.approx(3.92)
        # default input box is +-mass*a_max
        assert cfg.input_box.upper[0] == pytest.approx(1650.0 * 3.92)
        assert cfg.input_box.lower[0] == -cfg.input_box.upper[0]
        # every other default the README lists, on a file that gives none
        cfg = parse_config(BARE)
        assert cfg.seed == 0 and cfg.x0 == (0.0, 0.0, 55.0)
        vp = cfg.vp
        assert (vp.mass, vp.c0, vp.c1, vp.c2, vp.t_headway, vp.s0, vp.beta, vp.g_grav) == \
            (1650.0, 0.1, 5.0, 0.25, 1.0, 5.0, 2.0, 9.8)
        assert vp.a_max == 0.4 * 9.8
        assert (cfg.pid.k1, cfg.pid.k2, cfg.pid.k3, cfg.pid.windup_limit) == \
            (0.5, 0.1, 0.01, 100.0)
        assert (cfg.domain.lower, cfg.domain.upper) == ((-1e4, 0.0, -1e4), (1e6, 80.0, 1e7))
        assert cfg.margin_tol == 0.001
        assert (cfg.rho_speed, cfg.rho_signal, cfg.t_conv_speed, cfg.gamma_min) == \
            (0.91, 0.9, 5.0, 0.001)
        assert cfg.lead.velocity(0.0) == cfg.lead.velocity(4.0) == 0.0  # v0 = 0, no rows
        assert cfg.limits is None and cfg.signals == [] and cfg.barriers == []
        # a [signals] section without keys is generate_signal_plan's plan at the seed
        cfg = replace(parse_config(BARE + "[signals]\n"), seed=7)
        assert cfg.signal_plan == {}
        signals = build_scenario(cfg).registry.get("hpos").signals
        assert signals == generate_signal_plan(7) != generate_signal_plan(0)

    def test_reference_preset_loads_published_values(self):
        cfg = load_config("paper_sec6")
        assert cfg.vp.mass == 1650.0
        assert cfg.vp.a_max == pytest.approx(0.4 * 9.8)
        assert cfg.rho_speed == 0.91 and cfg.rho_signal == 0.9
        assert cfg.t_conv_speed == 5.0
        assert cfg.horizon == 500.0

    def test_every_violation_reported_at_once(self):
        bad = MINIMAL.replace("[scenario]\nhorizon = 5", "[scenario]\nhorizon = 5\ndt = -1") \
                     .replace("[initial]", "[vehicle]\nmass = -5\n[initial]")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        msg = str(err.value)
        assert "mass" in msg and "dt" in msg

    @pytest.mark.parametrize("key, value", [
        ("seed", "inf"), ("seed", "nan"), ("seed", "2.5"), ("count", "inf"),
        ("count", "nan"), ("count", "2.5"), ("dt", "nan"), ("dt", "inf"), ("dt", "-inf"),
        ("first_position", "nan"), ("first_position", "inf"),
    ])
    def test_non_integral_or_non_finite_value_names_its_key(self, key, value, tmp_path,
                                                            capsys):
        if key in ("count", "first_position"):
            text = MINIMAL + f"\n[signals]\n{key} = {value}\n"
        else:
            text = MINIMAL.replace("[scenario]\n", f"[scenario]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"\b{key} must be .* got '?{value}"):
            parse_config(text)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert cli_main(["run", str(cfg)]) == 4
        assert f"{key} must be" in capsys.readouterr().err

    def test_integral_values_still_accepted(self):
        cfg = parse_config(MINIMAL.replace("[scenario]\n", "[scenario]\nseed = 7.0\n"))
        assert cfg.seed == 7 and isinstance(cfg.seed, int)
        text = MINIMAL + "\n[signals]\ncount = 3\n"
        assert parse_config(text).signal_plan == {"count": 3}

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "\n[vehicle]\nwheels = 4\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nope]\nx = 1\n")

    def test_missing_file_and_preset(self):
        with pytest.raises(ConfigError, match="no such config"):
            load_config("definitely_not_a_preset")

    def test_custom_affine_barrier_declaration(self):
        cfg = parse_config(MINIMAL + "\n[barriers]\nslow = affine 0 -1 0 offset=10\n")
        assert cfg.barriers[0].id == "slow"
        assert cfg.barriers[0].coeffs == (0.0, -1.0, 0.0)

    def test_duplicate_and_reserved_barrier_ids_rejected(self):
        with pytest.raises(ConfigError, match="duplicate barrier id"):
            parse_config(MINIMAL + "\n[barriers]\ns = affine 0 -1 0 offset=10\n"
                                   "s = affine 0 1 0 offset=-20\n")
        with pytest.raises(ConfigError, match="reserved"):
            parse_config(MINIMAL + "\n[barriers]\nh1 = affine 0 -1 0 offset=10\n")

    @pytest.mark.parametrize("token", ["offset", "alpha"])
    def test_repeated_barrier_token_names_its_line(self, token, tmp_path, capsys):
        """A second value used to win silently: `offset=10 offset=20` gave
        the cap offset 20."""
        decl = f"affine 0 -1 0 offset=10 alpha=1 {token}=2"
        text = MINIMAL + f"\n[barriers]\ncap = {decl}\n"
        with pytest.raises(ConfigError) as raised:
            parse_config(text)
        assert str(raised.value).splitlines() == [
            "invalid config:", f"  [barriers] line 12: {token}= given twice"]
        cfg = tmp_path / "repeated.cfg"
        cfg.write_text(text)
        for command in ("run", "check"):
            assert cli_main([command, str(cfg)]) == 4
            out, err = capsys.readouterr()
            assert out == "" and err == (f"error: invalid config:\n"
                                         f"  [barriers] line 12: {token}= given twice\n")

    def test_bad_signal_timing_exits_as_config_error(self, tmp_path):
        cfg = tmp_path / "bad_signal.cfg"
        cfg.write_text(MINIMAL + "\n[signals]\nsignal = 65 0 1 0 18.5\n")
        assert cli_main(["run", str(cfg)]) == 4

    def test_every_object_error_reported_at_once(self, tmp_path, capsys):
        """Each object is built while the file is parsed, so each one's own
        check joins the one error list under its section (and line)."""
        wanted = [
            r"\[lead\] lead profile times must be strictly increasing",
            r"\[speed_limits\] speed limits must be positive",
            r"\[signals\] line 16: phase durations must be positive",
            r"\[barriers\] line 18: alpha gain must be positive, got -1.0",
        ]
        with pytest.raises(ConfigError) as err:
            parse_config(FOUR_ERRORS)
        for want in wanted:
            assert re.search(want, str(err.value)), want
        cfg = tmp_path / "four.cfg"
        cfg.write_text(FOUR_ERRORS)
        for command in ("run", "check"):
            assert cli_main([command, str(cfg)]) == 4
            err_text = capsys.readouterr().err
            assert all(re.search(want, err_text) for want in wanted)

    @pytest.mark.parametrize("row", ["65 0 1 -1 0", "65 3 0 0 0"])
    def test_zero_period_signal_is_config_error(self, row, tmp_path, capsys):
        cfg = tmp_path / "zero_period.cfg"
        cfg.write_text(MINIMAL + f"\n[signals]\nsignal = {row}\n")
        for command in ("run", "check"):
            assert cli_main([command, str(cfg)]) == 4
            assert "[signals] line 12: phase durations must be positive" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("entries, want", [
        ("generate = false", "[signals] generate must be true, got 'false'"),
        ("generate = banana", "[signals] generate must be true, got 'banana'"),
        ("generate = True\ncount = 3", "[signals] generate must be true, got 'True'"),
        ("generate = true\nsignal = 200 0 30 5 25",
         "[signals] generate = true cannot go with signal rows"),
    ])
    def test_generate_accepts_only_true(self, entries, want, tmp_path, capsys):
        """`generate` used to be read by nothing: `false` still built the
        generated plan, and with signal rows it was silently ignored."""
        cfg = tmp_path / "generate.cfg"
        cfg.write_text(MINIMAL + f"\n[signals]\n{entries}\n")
        for command in ("run", "check"):
            assert cli_main([command, str(cfg)]) == 4
            assert want in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        "count = 3", "first_position = 150", "spacing = 1 2", "green = 20 30",
        "yellow = 3 5", "red = 20 30",
    ])
    def test_plan_keys_cannot_go_with_signal_rows(self, entry, tmp_path, capsys):
        """Next to explicit rows a generator key would be ignored (the rows
        alone make the plan), so each is an error that names the key."""
        key = entry.split(" = ")[0]
        cfg = tmp_path / "plan_key.cfg"
        cfg.write_text(MINIMAL + f"\n[signals]\nsignal = 200 0 30 5 25\n{entry}\n")
        for command in ("run", "check"):
            assert cli_main([command, str(cfg)]) == 4
            assert f"[signals] {key} = " in capsys.readouterr().err
        with pytest.raises(ConfigError, match=rf"\[signals\] {entry} cannot go with signal rows"):
            parse_config(cfg.read_text())

    def test_generate_true_is_the_keyless_plan(self):
        plain = parse_config(BARE + "[signals]\ncount = 3\n")
        said = parse_config(BARE + "[signals]\ngenerate = true\ncount = 3\n")
        assert said.signal_plan == plain.signal_plan == {"count": 3} and said.signals == []

    def test_negative_lead_row_time_names_lead(self, tmp_path, capsys):
        """A row before t = 0 used to build breakpoints that run backwards
        in time."""
        text = MINIMAL.replace("v0 = 0\n", "v0 = 10\nrow = -5 1\n")
        with pytest.raises(ConfigError, match=r"\[lead\] lead profile times must be >= 0, "
                                              r"got -5\.0"):
            parse_config(text)
        cfg = tmp_path / "negative_lead.cfg"
        cfg.write_text(text)
        assert cli_main(["check", str(cfg)]) == 4
        assert "[lead] lead profile times must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("section, entry", [
        ("speed_limits", "row = 0 nan"), ("speed_limits", "row = 0 inf"),
        ("signals", "signal = nan 0 30 5 25"), ("signals", "signal = 200 0 30 -inf 25"),
        ("lead", "row = 0 nan"),
    ])
    def test_non_finite_row_names_section_and_line(self, section, entry, tmp_path, capsys):
        text = MINIMAL + f"\n[{section}]\n{entry}\n"
        line = text.splitlines().index(entry) + 1
        message = rf"\[{section}\] line {line}: non-finite value in row '{entry.split('= ')[1]}'"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        cfg = tmp_path / "non_finite.cfg"
        cfg.write_text(text)
        for command in ("run", "check"):
            assert cli_main([command, str(cfg)]) == 4
            assert re.search(message, capsys.readouterr().err)

    @pytest.mark.parametrize("section, key, value", [
        ("signals", "green", "nan 40"), ("signals", "spacing", "300 inf"),
        ("domain", "x_f", "-inf 10"), ("domain", "v_f", "0 nan"),
    ])
    def test_non_finite_pair_names_its_key(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} expects two finite "
                                              rf"numbers, got '{value}'"):
            parse_config(MINIMAL + f"\n[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("decl", ["affine 0 nan 0 offset=1", "affine 0 -1 0 offset=inf",
                                      "affine 0 -1 0 offset=1 alpha=inf"])
    def test_non_finite_barrier_declaration_names_its_line(self, decl, tmp_path, capsys):
        text = MINIMAL + f"\n[barriers]\nfoo = {decl}\n"
        message = rf"\[barriers\] line 12: non-finite value in '{decl}'"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        cfg = tmp_path / "non_finite.cfg"
        cfg.write_text(text)
        for command in ("run", "check"):
            assert cli_main([command, str(cfg)]) == 4
            assert re.search(message, capsys.readouterr().err)

    def test_equal_stop_lines_exit_as_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "equal_lines.cfg"
        cfg.write_text(MINIMAL + "\n[signals]\nsignal = 200 0 30 5 25\n"
                                 "signal = 200 10 30 5 25\n")
        assert cli_main(["run", str(cfg)]) == 4
        assert "signal positions must increase" in capsys.readouterr().err

    def test_inverted_input_box_is_config_error(self, tmp_path, capsys):
        """An inverted input box joins the error list under [input]."""
        cfg = tmp_path / "inverted_input.cfg"
        cfg.write_text(MINIMAL + "\n[input]\nlower = 5\nupper = 1\n")
        assert cli_main(["check", str(cfg)]) == 4
        assert "[input] lower 5.0 exceeds upper 1.0" in capsys.readouterr().err

    def test_overflowing_domain_width_exits_as_config_error(self, tmp_path, capsys):
        """A static check on a domain axis whose width overflows would sample
        NaN and inf there, mask every point out and print verdict=subset:
        the config is refused before any check runs."""
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("[domain]\nx_f = -1e308 1e308\n[speed_limits]\nrow = 0 25\n"
                       "[scenario]\nhorizon = 80\n[initial]\nx_l = 62\n[lead]\nv0 = 2\n"
                       "[stl]\nG[0,29) sat(h1)\nG[29,80) sat(vmax25)\n")
        assert cli_main(["check", str(cfg)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: invalid config:\n"
                                     "  [domain] x_f width 1e+308 - (-1e+308) overflows\n")

    @pytest.mark.parametrize("entries, message", [
        ("[domain]\nv_f = 10 0\n", "[domain] v_f lower 10.0 exceeds upper 0.0"),
        ("[domain]\nv_f = 0 0\n", "[domain] v_f has zero width: lower 0.0 equals upper 0.0"),
        # the default bound -mass * a_max is named, not quoted as if the file gave it
        ("[input]\nupper = -1e9\n",
         "[input] the default lower -mass * a_max exceeds upper -1000000000.0"),
        ("[input]\nlower = 1e9\n",
         "[input] lower 1000000000.0 exceeds the default upper mass * a_max"),
        ("[input]\nlower = -inf\n", "[input] lower must be finite, got -inf"),
    ], ids=["domain", "domain-zero-width", "input-upper", "input-lower", "input-non-finite"])
    def test_box_error_names_its_key(self, entries, message):
        with pytest.raises(ConfigError) as raised:
            parse_config(MINIMAL + entries)
        assert str(raised.value).splitlines() == ["invalid config:", f"  {message}"]

    @pytest.mark.parametrize("stl", ["G[0,5) sat(h1)\n", "G[0,2) sat(h1)\nG[2,5) sat(vmax25)\n"],
                             ids=["no-boundary", "boundary"])
    def test_zero_width_domain_axis_exits_as_config_error(self, stl, tmp_path, capsys):
        """Without a boundary, `check` used to exit 0 and `run` to end in a
        domain exit; with one, both exited 4 with a message that named no
        key."""
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(MINIMAL.replace("G[0,5) sat(h1)\n", stl)
                       + "[speed_limits]\nrow = 0 25\n[domain]\nv_f = 0 0\n")
        for command in ("check", "run"):
            assert cli_main([command, str(cfg)]) == 4
            out, err = capsys.readouterr()
            assert out == "" and err == ("error: invalid config:\n  [domain] v_f has zero "
                                         "width: lower 0.0 equals upper 0.0\n")

    def test_scenario_hash_tracks_overrides(self):
        cfg = parse_config(MINIMAL)
        assert cfg.scenario_hash() != replace(cfg, dt=0.02).scenario_hash()
        assert cfg.scenario_hash() == parse_config(MINIMAL).scenario_hash()

    @pytest.mark.parametrize("value", ["0", "-0", "-5", "inf"])
    def test_horizon_must_be_positive(self, value, tmp_path, capsys):
        """A zero horizon admits no task; it used to pass `parse_config` and
        fail as `line 1, col 1` of a line the file does not have."""
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(MINIMAL.replace("horizon = 5", f"horizon = {value}"))
        for command in ("check", "run"):
            assert cli_main([command, str(cfg)]) == 4
            assert capsys.readouterr() == (
                "", "error: invalid config:\n  [scenario] horizon must be a finite number > 0\n")

    @pytest.mark.parametrize("key, value", [
        ("green", "0 0"), ("yellow", "0 6"), ("red", "30 15"),
        ("spacing", "-800 -300"), ("spacing", "800 300"),
    ])
    def test_plan_pair_must_be_positive_and_ordered(self, key, value, tmp_path, capsys):
        """`green = 0 0` and `spacing = -800 -300` used to exit 4 with a
        message that named no key, and `spacing = 800 300` drew another plan
        than `300 800`."""
        cfg = tmp_path / "pair.cfg"
        cfg.write_text(MINIMAL + f"\n[signals]\n{key} = {value}\n")
        for command in ("check", "run"):
            assert cli_main([command, str(cfg)]) == 4
            assert capsys.readouterr() == (
                "", f"error: invalid config:\n  [signals] {key} must satisfy "
                    f"0 < lower <= upper, got '{value}'\n")
        assert parse_config(MINIMAL + f"\n[signals]\n{key} = 7 7\n").signal_plan == \
            {key: (7.0, 7.0)}


# a task on file line 5 under a 60 s horizon: its error names line 5 of the
# file (a parser fed `horizon 60` and the task lines would name line 3)
STL_LINE_5 = """\
[scenario]
horizon = 60
[stl]
G[0,60) sat(h1)
{task}
[barriers]
slow = affine 0 -1 0 offset=10
"""


@pytest.mark.parametrize("task, message", [
    ("G[0,70) sat(h1)", "line 5, col 5: interval [0,70) exceeds horizon 60"),
    ("G[0,60) sat(nope)", "line 5, col 13: unknown barrier id 'nope'"),
    ("F[0,60) sat(slow) @ts=58 eps=5",
     "line 5, col 23: satisfaction window [58,63) not contained in [0,60)"),
    ("horizon 50", "line 5, col 1: cannot parse task 'horizon 50'"),
    ("line = G[0,5) sat(h1)", "line 5, col 1: cannot parse task 'line = G[0,5) sat(h1)'"),
    ("    G[0,70) sat(h1)", "line 5, col 9: interval [0,70) exceeds horizon 60"),
    ("G[0,60) sat(h1) &  G[0,70) sat(h1)", "line 5, col 24: interval [0,70) exceeds horizon 60"),
], ids=["interval", "unknown-id", "window", "horizon-header", "line-alias", "indented",
        "second-conjunct"])
def test_stl_error_names_its_file_line(task, message, tmp_path, capsys):
    cfg = tmp_path / "task.cfg"
    cfg.write_text(STL_LINE_5.format(task=task))
    for command in ("check", "run"):
        assert cli_main([command, str(cfg)]) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # a comment and a blank line above the task move the line it names
    cfg.write_text(STL_LINE_5.format(task=f"# note\n\n{task}"))
    assert cli_main(["check", str(cfg)]) == 4
    assert capsys.readouterr().err == f"error: {message.replace('line 5', 'line 7', 1)}\n"


# sha256 of the paper_sec6 trace CSV and report, as perfbench/workloads.py
# records them: the README's determinism contract, guarded byte for byte.
REF_CSV_SHA256 = "c2b6f78492063c4b8a764f56faf8d8b76b5543c0e819d5f5f12527d9849fc9e2"
REF_REPORT_SHA256 = "57b2fc2b4652b1e2cc16a94c18f250e11260abc502aeb494d21878d40504f98f"

# Every window on this mission whose engagement margin is negative is flagged
# deadline-risk: gamma is sized for t_target, but the window engages one step
# after tau, so the bound lands dt past the switch.
REF_EVENTS = [
    (45.01, "engage G1#0 t=45.01 h=6.99978 gamma=0.001 T_bound=0 deadline=50"),
    (67.75, "engage G3.s3#2 t=67.75 h=36.6717 gamma=0.001 T_bound=0 deadline=73.729"),
    (92.77, "engage G3.s4#3 t=92.77 h=712.682 gamma=0.001 T_bound=0 deadline=97.1785"),
    (95.01, "engage G1#1 t=95.01 h=3.95055 gamma=0.001 T_bound=0 deadline=100"),
    (148.68, "engage G3.s4#5 t=148.68 h=217.792 gamma=0.001 T_bound=0 deadline=153.09"),
    (195.01, "engage G1#3 t=195.01 h=-4.99955 gamma=2.56857 T_bound=5 deadline=200"),
    (195.01, "deadline-risk engage G1#3 t=195.01 h=-4.99955 gamma=2.56857 T_bound=5 "
             "deadline=200"),
    (231.46, "engage G3.s7#8 t=231.46 h=11.6786 gamma=0.001 T_bound=0 deadline=236.834"),
    (245.01, "engage G1#4 t=245.01 h=9.77772 gamma=0.001 T_bound=0 deadline=250"),
    (259.83, "engage G3.s8#8 t=259.83 h=256.226 gamma=0.001 T_bound=0 deadline=265.546"),
    (345.01, "engage G1#6 t=345.01 h=-4.98905 gamma=2.56808 T_bound=5 deadline=350"),
    (345.01, "deadline-risk engage G1#6 t=345.01 h=-4.98905 gamma=2.56808 T_bound=5 "
             "deadline=350"),
    (395.01, "engage G1#7 t=395.01 h=-15 gamma=2.83554 T_bound=5 deadline=400"),
    (395.01, "deadline-risk engage G1#7 t=395.01 h=-15 gamma=2.83554 T_bound=5 "
             "deadline=400"),
]


class TestPipelineOutcomes:
    def test_reference_preset_succeeds(self, tmp_path, caplog):
        with caplog.at_level(logging.DEBUG, logger="stlcbf"):
            out = run_pipeline(load_config("paper_sec6"))
        assert out.exit_code == 0
        assert out.report.monitor.satisfied
        assert out.report.summary["rows"] == 50001
        csv_path = tmp_path / "trace.csv"
        write_trace_csv(out.trace, str(csv_path))
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == REF_CSV_SHA256
        report = format_report(out.report).encode("utf-8")
        assert hashlib.sha256(report).hexdigest() == REF_REPORT_SHA256
        assert out.trace.events == REF_EVENTS
        # every event reaches the stlcbf logger; only the deadline risks at info
        logged = [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "stlcbf"]
        assert logged == [
            (logging.INFO if text.startswith("deadline-risk") else logging.DEBUG,
             f"t={t:.6f} {text}") for t, text in REF_EVENTS]
        assert [msg[:12] for level, msg in logged if level == logging.INFO] == \
            ["t=195.010000", "t=345.010000", "t=395.010000"]

    def test_static_incompatibility_names_boundary(self):
        out = run_pipeline(load_config("incompatible_static"))
        assert out.exit_code == 2
        assert out.trace is None
        assert any("t=50" in f for f in out.report.static_failures)
        assert any("empty intersection" in f for f in out.report.static_failures)

    def test_runtime_infeasibility_is_timestamped(self):
        out = run_pipeline(load_config("infeasible_red"))
        assert out.exit_code == 3
        assert out.report.failure is not None
        assert out.report.failure.reason == "qp_infeasible"
        assert out.report.failure.time == pytest.approx(1.01, abs=1e-9)
        # the partial trace prefix is preserved
        assert out.trace.n_rows() == 102

    def test_check_is_static_only(self):
        out = check_pipeline(load_config("infeasible_red"))
        assert out.exit_code == 0  # statically fine; failure only at runtime
        out2 = check_pipeline(load_config("incompatible_static"))
        assert out2.exit_code == 2

    def test_negated_predicate_end_to_end(self):
        """!sat normalizes to the negated barrier through scheduling,
        simulation, and monitoring alike."""
        src = MINIMAL.replace("G[0,5) sat(h1)",
                              "G[0,5) sat(h1)\nG[0,5) !sat(fast)") + \
            "\n[barriers]\nfast = affine 0 1 0 offset=-20\n"  # !{V>=20} = {V<=20}
        cfg = parse_config(src)
        out = run_pipeline(cfg)
        assert out.exit_code == 0
        assert out.report.monitor.satisfied
        task = next(r for r in out.report.monitor.per_task if "fast" in r.formula)
        assert "!sat(fast)" in task.formula
        # the ego closes the gap but stays well under 20 m/s in 5 s
        assert 0.0 < task.worst_margin < 20.0
        assert max(x[1] for x in out.trace.states) < 20.0

    def test_eventually_task_end_to_end(self):
        """F converts to a satisfaction window whose entry boundary steers the
        speed into the target set before the window opens."""
        cfg = parse_config(EVENTUALLY_SCENARIO)
        out = run_pipeline(cfg)
        assert out.exit_code == 0
        assert out.report.monitor.satisfied
        trace = out.trace
        # the creep window [50, 55) is entered with V_f already <= 5
        idx50 = round(50.0 / cfg.dt)
        idx55 = round(55.0 / cfg.dt)
        window_v = [trace.states[i][1] for i in range(idx50, idx55)]
        assert max(window_v) <= 5.0 + 1e-3
        # before the engagement the limit was the only speed constraint
        assert trace.states[round(40.0 / cfg.dt)][1] > 5.0
        # and the engagement is recorded
        assert any("engage" in msg for _, msg in trace.events)

    def test_dt_halving_stability_on_reference_scenario(self):
        """Halving the step leaves the terminal state within 5e-3 per
        component (engagement instants and phase switches quantize to the
        step grid, so exact sub-1e-4 agreement is not achievable over a
        500 s mission; observed agreement is ~3e-3 on an ~8 km trajectory)."""
        cfg = load_config("paper_sec6")
        coarse = run_pipeline(cfg)
        fine = run_pipeline(replace(cfg, dt=cfg.dt / 2))
        assert coarse.exit_code == 0 and fine.exit_code == 0
        for a, b in zip(coarse.trace.states[-1], fine.trace.states[-1]):
            assert abs(a - b) < 5e-3


def _short_sec6():
    cfg = load_config("paper_sec6")
    return replace(cfg, horizon=20.0,
                   stl_text="G[0,20) sat(h1)\nG[0,20) sat(vmax30)\nG[0,20) sat(hpos)",
                   limits=SpeedLimitSchedule([(0.0, 30.0)], 20.0))


@pytest.fixture(scope="module")
def short_cfg():
    return _short_sec6()


K = pipeline._CHUNK_ROWS
EDGE = 2.0 ** 40 / 1e6  # |x*1e6| = 2**40
# cells whose `%.6f` text is hard to get right: exact and near ties at the
# sixth decimal, signed zeros and tiny values, the edge of the fast path,
# values past it, and the non-finite words
HARD_CELLS = st.one_of(
    st.integers(-2 ** 20, 2 ** 20).map(lambda k: k / 128),
    st.integers(-2 ** 40, 2 ** 40).map(lambda k: k / 2 ** 20),
    st.integers(-10 ** 8, 10 ** 8).map(lambda k: (k + 0.5) * 1e-6),
    st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 5e-324, -5e-324, 999999.9999995, 1e7,
                     1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.sampled_from([EDGE, -EDGE]).flatmap(
        lambda e: st.sampled_from([e, math.nextafter(e, 0.0), math.nextafter(e, 2 * e)])),
    st.floats(-2e6, 2e6),
)


def synthetic_trace(rows, m, hard, seed, channels):
    """A trace of `rows` rows and `m` inputs: random cells at several scales,
    with the `hard` values scattered among them; statuses other than ok carry
    a NaN safe input; only the channels and margins named are present."""
    rng = np.random.default_rng(seed)
    cells = rng.uniform(-2e4, 2e4, (rows, 11)) * 10.0 ** rng.integers(-6, 1, (rows, 11))
    hard = hard[:cells.size]
    cells.flat[rng.choice(cells.size, len(hard), replace=False)] = hard
    status = rng.choice(["ok", "ok", "ok", "infeasible", "violated"], rows)
    u_nom = np.column_stack([cells[:, 6], rng.uniform(-1.0, 1.0, rows)])[:, :m]
    u_safe = np.column_stack([cells[:, 7], rng.uniform(-1.0, 1.0, rows)])[:, :m]
    u_safe[status != "ok"] = math.nan
    trace = Trace(n=3, m=m, qp_status=status.tolist())
    trace.ts.extend(cells[:, 0])
    trace.x_flat.extend(cells[:, 1:4].ravel())
    trace.u_nom_flat.extend(u_nom.ravel())
    trace.u_safe_flat.extend(u_safe.ravel())
    named = {"V_l": 4, "V_max": 5, "h1": 8, "hv": 9, "hpos": 10}
    for name in channels & named.keys():
        (trace.margins if name.startswith("h") else trace.extras)[name] = cells[:, named[name]]
    if "signal" in channels:
        trace.extras["active_signal"] = rng.integers(0, 4, rows).astype(float)
        trace.extras["signal_phase"] = np.take(PHASES, rng.integers(0, len(PHASES), rows))
    return trace


class TestSerialization:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.sampled_from([1, K - 1, K, K + 1, 2 * K + 1]), m=st.sampled_from([1, 2]),
           hard=st.lists(HARD_CELLS, max_size=40), seed=st.integers(0, 2 ** 32 - 1),
           channels=st.sets(st.sampled_from(["V_l", "V_max", "h1", "hv", "hpos", "signal"])))
    @example(rows=1, m=1, hard=[1 / 128, 3 / 128, -5 / 128, 3.5e-6], seed=0, channels=set())
    @example(rows=1, m=2, hard=[-0.0, -1e-9, -5e-324, -4e-7], seed=1,
             channels={"V_l", "V_max", "h1", "hv", "hpos", "signal"})
    def test_trace_csv_matches_the_row_writer(self, rows, m, hard, seed, channels, tmp_path):
        """The chunked writer's bytes equal those of one `_ROW %` per row."""
        trace = synthetic_trace(rows, m, hard, seed, channels)
        write_trace_csv(trace, tmp_path / "chunked.csv")
        write_trace_csv_rows(trace, tmp_path / "rows.csv")
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("rows", [5_001, 50_001])
    def test_trace_csv_memory_is_bounded_per_chunk(self, rows, tmp_path):
        """The writer's peak allocation stays at a few chunks' worth, whatever
        the trace length: an unchunked writer takes about 400 bytes a row."""
        trace = synthetic_trace(rows, 1, [], 7, {"V_l", "V_max", "h1", "hv", "hpos", "signal"})
        tracemalloc.start()
        try:
            write_trace_csv(trace, tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20

    def test_trace_csv_schema_and_determinism(self, short_cfg, tmp_path):
        out = run_pipeline(short_cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(out.trace, p1)
        write_trace_csv(run_pipeline(short_cfg).trace, p2)
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        header = b1.decode().splitlines()[0]
        assert header == ("t,X_f,V_f,X_l,V_l,V_max,u_nom,u_safe,h1,h_v,h_pos,"
                          "qp_status,active_signal,signal_phase")
        assert len(b1.decode().splitlines()) == out.trace.n_rows() + 1

    def test_report_roundtrip_and_status_line(self, short_cfg, tmp_path):
        out = run_pipeline(short_cfg)
        path = tmp_path / "report.txt"
        write_report(out.report, path)
        text = path.read_text()
        assert "status=success" in text
        assert "exit_code=0" in text
        assert "[compatibility]" in text and "[monitor]" in text

    def test_margin_just_below_zero_prints_minus_zero(self):
        """A summary margin prints with `%.6f`, which keeps the sign of a
        value in (-5e-7, 0): the report says that the margin dipped below
        zero (within the monitor's tolerance) though no digit shows it.
        paper_sec6 at dt = 0.1 has such a min_margin[hv], -4.2e-10."""
        report = RunReport(scenario="s", scenario_hash="0", dt=0.01, seed=0, horizon=1.0,
                           status="success", exit_code=0, summary={
                               "min_margin[a]": -5.1e-7, "min_margin[b]": -4.9e-7,
                               "min_margin[c]": -0.0, "min_margin[d]": 4.9e-7})
        assert format_report(report).splitlines()[-4:] == [
            "min_margin[a]=-0.000001", "min_margin[b]=-0.000000",
            "min_margin[c]=-0.000000", "min_margin[d]=0.000000"]
        out = run_pipeline(replace(load_config("paper_sec6"), dt=0.1))
        assert -5e-7 < out.report.summary["min_margin[hv]"] < 0.0
        assert "min_margin[hv]=-0.000000" in format_report(out.report).splitlines()

    def test_failed_report_carries_status(self, tmp_path):
        out = run_pipeline(load_config("infeasible_red"))
        text = format_report(out.report)
        assert "status=failure" in text and "failure_stage=runtime" in text
        assert "qp_infeasible at t=1.010000" in text

    def test_shared_config_objects_change_no_byte(self, tmp_path):
        """Every build of one config shares its objects: the lead profile
        with its velocity cache, the speed limits, the PID gains. Check, run,
        monitor and a second run on one config give a fresh config's bytes."""
        shared = _short_sec6()
        check_pipeline(shared)
        runs = [run_pipeline(shared)]
        write_trace_csv(runs[0].trace, tmp_path / "run0.csv")
        assert monitor_csv(str(tmp_path / "run0.csv"), shared).satisfied
        runs += [run_pipeline(shared), run_pipeline(_short_sec6())]
        for i, out in enumerate(runs):
            write_trace_csv(out.trace, tmp_path / f"run{i}.csv")
        csv0, report0 = (tmp_path / "run0.csv").read_bytes(), format_report(runs[0].report)
        for i, out in enumerate(runs[1:], start=1):
            assert (tmp_path / f"run{i}.csv").read_bytes() == csv0
            assert format_report(out.report) == report0
        assert runs[0].bundle.cfg.lead is runs[1].bundle.cfg.lead is not runs[2].bundle.cfg.lead

    def test_offline_monitor_agrees(self, short_cfg, tmp_path):
        out = run_pipeline(short_cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(out.trace, path)
        rep = monitor_csv(str(path), short_cfg)
        assert rep.satisfied == out.report.monitor.satisfied


class TestCli:
    def test_run_success_and_artifacts(self, tmp_path):
        trace = tmp_path / "out.csv"
        report = tmp_path / "report.txt"
        code = cli_main(["run", "infeasible_red", "--trace", str(trace),
                         "--report", str(report)])
        assert code == 3
        assert trace.exists() and report.exists()
        text = report.read_text()
        assert "status=failure" in text and "failure_stage=runtime" in text

    def test_check_exit_codes(self, capsys):
        assert cli_main(["check", "incompatible_static"]) == 2
        assert cli_main(["check", "infeasible_red"]) == 0
        out = capsys.readouterr().out
        assert "verdict=incompatible" in out

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[vehicle]\nmass = -1\n")
        assert cli_main(["run", str(bad)]) == 4

    def test_missing_config_exit_code(self):
        assert cli_main(["run", "nope_nope"]) == 4

    @pytest.mark.parametrize("dt", ["0.3", "0.7"])
    def test_dt_that_does_not_divide_the_horizon_stops_check_and_run(self, dt, tmp_path,
                                                                    capsys):
        """Before anything runs: `check` used to exit 0, and `run` to
        simulate round(1 / dt) steps and then fail the monitor on a trace
        that stops short of the horizon."""
        plain = tmp_path / "one_second.cfg"
        plain.write_text(MINIMAL.replace("horizon = 5", "horizon = 1")
                         .replace("G[0,5)", "G[0,1)"))
        stepped = tmp_path / "stepped.cfg"
        stepped.write_text(plain.read_text().replace("horizon = 1", f"horizon = 1\ndt = {dt}"))
        trace = tmp_path / "out.csv"
        assert cli_main(["check", str(plain)]) == 0
        assert cli_main(["check", str(stepped)]) == 4
        assert cli_main(["run", str(stepped), "--trace", str(trace)]) == 4
        assert cli_main(["run", str(plain), "--dt", dt, "--trace", str(trace)]) == 4
        assert not trace.exists()
        assert capsys.readouterr().err.count(f"dt={dt} does not divide the horizon 1 ") == 3

    def test_subnormal_dt_exits_as_config_error(self, tmp_path, capsys):
        """500 / 1e-320 overflows: both ways of setting dt used to end in
        an OverflowError traceback and exit 1."""
        cfg = tmp_path / "tiny_dt.cfg"
        cfg.write_text(MINIMAL.replace("horizon = 5", "horizon = 5\ndt = 1e-320"))
        assert cli_main(["check", str(cfg)]) == 4
        assert cli_main(["check", "paper_sec6", "--dt", "1e-320"]) == 4
        assert capsys.readouterr().err == (
            "error: dt=1e-320 is too small for the horizon 5: the step count overflows\n"
            "error: dt=1e-320 is too small for the horizon 500: the step count overflows\n")

    def test_dt_past_the_step_ceiling_exits_as_config_error(self, capsys):
        """500 / 1e-300 is finite and whole, but a run of 5e302 steps never
        ends: `check` used to exit 0 with status=compatible."""
        assert cli_main(["check", "paper_sec6", "--dt", "1e-300"]) == 4
        assert cli_main(["run", "paper_sec6", "--dt", "1e-300"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err == 2 * ("error: dt=1e-300 is too small for the horizon 500: "
                                         "5e+302 steps exceed the ceiling of 1e+09\n")

    @pytest.mark.parametrize("dt", ["nan", "inf", "0", "-0.01"])
    def test_bad_dt_override_is_config_error(self, dt, capsys):
        assert cli_main(["run", "infeasible_red", "--dt", dt]) == 4
        assert "--dt must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("tolerances", "margin", "nan"), ("tolerances", "margin", "-1"),
        ("tolerances", "margin", "inf"),
        ("pid", "k1", "nan"), ("pid", "k2", "inf"), ("pid", "k3", "-inf"),
        ("pid", "windup_limit", "nan"), ("pid", "windup_limit", "-1"),
        ("fcbf", "gamma_min", "-1"), ("fcbf", "gamma_min", "0"),
        ("fcbf", "gamma_min", "nan"), ("fcbf", "gamma_min", "inf"),
        ("fcbf", "t_conv_speed", "nan"), ("fcbf", "t_conv_speed", "inf"),
        ("vehicle", "c1", "inf"), ("vehicle", "mass", "inf"),
        ("initial", "x_f", "nan"), ("initial", "v_f", "inf"),
    ])
    def test_bad_gain_or_tolerance_names_its_key(self, section, key, value, tmp_path,
                                                  capsys):
        text = MINIMAL + f"\n[{section}]\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be .*, "
                                              rf"got {float(value)}$"):
            parse_config(text)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        for command in ("run", "check"):
            assert cli_main([command, str(cfg)]) == 4
            assert f"[{section}] {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("entries, message", [
        ("[initial]\nv_f = 61\n[domain]\nv_f = 0 60\n",
         r"\[initial\] v_f = 61.0 lies outside \[domain\] v_f = 0.0 60.0"),
        ("[domain]\nx_l = 200 300\n",
         r"\[initial\] x_l = 100.0 lies outside \[domain\] x_l = 200.0 300.0"),
        # a bound the file leaves out is the default domain's, not [domain]'s
        ("[initial]\nv_f = 100\n",
         r"\[initial\] v_f = 100.0 lies outside the default domain v_f = 0.0 80.0"),
        ("[initial]\nv_f = 100\n[domain]\nx_l = 0 300\n",
         r"\[initial\] v_f = 100.0 lies outside the default domain v_f = 0.0 80.0"),
    ], ids=["v_f", "x_l", "v_f-default", "v_f-default-beside-x_l"])
    def test_initial_state_outside_domain_names_its_key(self, entries, message, tmp_path,
                                                        capsys):
        # `check` used to pass these, and `run` fail without naming the key
        text = MINIMAL + entries
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        cfg = tmp_path / "outside.cfg"
        cfg.write_text(text)
        for command in ("run", "check"):
            assert cli_main([command, str(cfg)]) == 4
            assert re.search(message, capsys.readouterr().err)

    def test_check_rejects_x0_breaking_an_opening_assumption(self, tmp_path, capsys):
        # x_l = 3 puts h1 at -2 at t=0; `check` used to exit 0 and only `run` fail
        preset = resources.files("stlcbf").joinpath("presets/paper_sec6.cfg")
        text, n = re.subn(r"(?m)^x_l = 55$", "x_l = 3", preset.read_text(encoding="utf-8"))
        assert n == 1
        cfg = tmp_path / "close.cfg"
        cfg.write_text(text)
        for command in ("check", "run"):
            assert cli_main([command, str(cfg)]) == 4
            assert capsys.readouterr() == ("", "error: x0 violates opening assumption of "
                                               "G2: h[sat(h1)](0, x0) = -2 < 0\n")

    def test_negated_signal_task_is_config_error(self, tmp_path, capsys):
        # !sat(hpos) used to pass both signal guards and run as a plain
        # schedule on the stitched barrier: `check` exited 0 and `run` 3, with
        # qp_infeasible at t=0.97 (x0 sits past the first stop line, so the
        # negated barrier holds at t=0)
        preset = resources.files("stlcbf").joinpath("presets/paper_sec6.cfg")
        text = preset.read_text(encoding="utf-8")
        for old, new in (("G[0,500) sat(hpos)", "G[0,100) !sat(hpos)"),
                         ("\nx_f = 0\n", "\nx_f = 396\n"), ("\nx_l = 55\n", "\nx_l = 500\n")):
            assert text.count(old) == 1
            text = text.replace(old, new)
        cfg = tmp_path / "negated_hpos.cfg"
        cfg.write_text(text)
        for command in ("check", "run"):
            assert cli_main([command, str(cfg)]) == 4
            assert capsys.readouterr() == (
                "", "error: group G2: the signal barrier cannot be negated\n")

    def test_signal_window_off_every_boundary_is_config_error(self, monkeypatch, capsys):
        # configs give no windows, so the stray key goes in through the
        # library: each signal schedule's config gets one more, at t=-1
        from stlcbf import vehicle

        real = vehicle.build_schedule

        def with_stray_window(group, registry, cfg):
            windows = {**cfg.boundary_windows, -1.0: (-2.0, 1.0)}
            return real(group, registry, replace(cfg, boundary_windows=windows))

        monkeypatch.setattr(vehicle, "build_schedule", with_stray_window)
        for command in ("check", "run"):
            assert cli_main([command, "paper_sec6"]) == 4
            assert capsys.readouterr() == ("", "error: group G3.s1: boundary window at "
                                               "t=-1.0 is not a boundary time of the group\n")

    @pytest.mark.parametrize("seed", [*range(1, 41), 634512626, 815217483, 1047664193])
    def test_paper_sec6_signal_windows_key_boundary_times(self, seed):
        # every red onset's window is keyed on a boundary time of its
        # schedule, so none is rejected, over the seed sweep
        bundle = build_scenario(replace(load_config("paper_sec6"), seed=seed))
        assert sum(b.tau is not None for s in bundle.schedules for b in s.boundaries) > 0

    def test_boundary_gains_and_tolerances_still_accepted(self, tmp_path):
        text = MINIMAL + ("\n[tolerances]\nmargin = 0\n[pid]\nk1 = -0.5\nwindup_limit = 0\n"
                          "[fcbf]\ngamma_min = 1e-9\n[domain]\nx_l = 0 100\n")
        cfg = parse_config(text)
        assert (cfg.margin_tol, cfg.pid.k1, cfg.pid.windup_limit, cfg.gamma_min) == \
            (0.0, -0.5, 0.0, 1e-9)
        assert cfg.x0 == (0.0, 0.0, 100.0)  # on the edge of [domain] is inside
        path = tmp_path / "ok.cfg"
        path.write_text(text)
        assert cli_main(["check", str(path)]) == 0

    def test_dt_override_changes_rows(self, tmp_path):
        trace = tmp_path / "t.csv"
        code = cli_main(["run", "infeasible_red", "--trace", str(trace), "--dt", "0.02"])
        assert code == 3
        rows = trace.read_text().splitlines()
        # failure at the first window sample after tau=1.0 with dt=0.02
        assert rows[-1].split(",")[0] == "1.020000"

    def test_monitor_cli(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        cli_main(["run", "infeasible_red", "--trace", str(trace)])
        capsys.readouterr()
        # the truncated trace does not cover the horizon: config error path
        code = cli_main(["monitor", str(trace), "infeasible_red"])
        assert code == 4

    def test_monitor_cli_full_trace(self, tmp_path, capsys):
        cfg_path = tmp_path / "short.cfg"
        cfg_path.write_text(EVENTUALLY_SCENARIO)
        trace = tmp_path / "t.csv"
        assert cli_main(["run", str(cfg_path), "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert cli_main(["monitor", str(trace), str(cfg_path)]) == 0
        assert "satisfied=true" in capsys.readouterr().out

    def test_check_and_monitor_take_seed_and_dt(self, tmp_path, capsys):
        """`check` and `monitor` used to drop --seed and --dt: `monitor`
        rebuilt the config seed's signal plan and read a seed-7 trace as
        violated."""
        trace = tmp_path / "t.csv"
        assert cli_main(["run", "paper_sec6", "--seed", "7", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert cli_main(["monitor", str(trace), "paper_sec6", "--seed", "7"]) == 0
        assert capsys.readouterr().out.startswith("satisfied=true\n")
        assert cli_main(["check", "paper_sec6", "--seed", "7", "--dt", "0.05"]) == 0
        cfg = replace(load_config("paper_sec6"), seed=7, dt=0.05)
        out = capsys.readouterr().out
        assert out == format_report(check_pipeline(cfg).report)
        assert "dt=0.050000\nseed=7\n" in out
        for command in (["check", "paper_sec6"], ["monitor", str(trace), "paper_sec6"]):
            assert cli_main([*command, "--dt", "0"]) == 4
            assert "--dt must be positive and finite, got 0.0" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row, why", [
        ("0.02,0.2,0.0", "3 fields"),          # short row
        ("0.02,0.2,,100.0", "could not convert"),  # blank field
        ("0.02,0.2,fast,100.0", "could not convert"),  # non-numeric field
        ("0.02,0.2,0.0,100.0,7", "5 fields, header has 4"),  # long row
        ("0.02,nan,0.0,100.0", "t, X_f, V_f and X_l must be finite"),  # read as satisfied
    ])
    def test_monitor_cli_malformed_trace_is_config_error(self, tmp_path, capsys,
                                                         bad_row, why):
        cfg_path = tmp_path / "minimal.cfg"
        cfg_path.write_text(MINIMAL)
        trace = tmp_path / "bad.csv"
        trace.write_text("t,X_f,V_f,X_l\n0,0,0,100\n0.01,0.1,0,100\n" + bad_row + "\n")
        assert cli_main(["monitor", str(trace), str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert f"trace {trace} line 4:" in err and why in err

    @pytest.mark.parametrize("value", ["basic_format", "verbose", ""])
    def test_unknown_log_level_is_config_error(self, value, monkeypatch, capsys):
        """basic_format used to name logging.BASIC_FORMAT, a format string,
        which basicConfig rejected with a traceback; verbose read as warning."""
        monkeypatch.setenv("STLCBF_LOG", value)
        assert cli_main(["check", "incompatible_static"]) == 4
        assert capsys.readouterr() == (
            "", f"error: STLCBF_LOG={value} is not one of debug, info, warning, error\n")

    @pytest.mark.parametrize("value", ["debug", "INFO", "Warning", "error"])
    def test_log_levels_are_read_in_any_case(self, value, monkeypatch):
        monkeypatch.setenv("STLCBF_LOG", value)
        assert cli_main(["check", "incompatible_static"]) == 2

    def test_entry_point_installed(self):
        # the child imports stlcbf from where this process did
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-m", "stlcbf.cli", "check",
                               "incompatible_static"], capture_output=True, text=True, env=env)
        assert proc.returncode == 2


def test_readme_library_sketch_runs():
    """The README's loop "by hand" runs as printed and gives what its
    comments say, so the public API cannot drift away from it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"By hand, the loop runs as:\n\n```python\n(.*?)```", readme, re.S)
    *body, last = ast.parse(block.group(1)).body
    scope = {}
    exec(compile(ast.Module(body, []), "README.md", "exec"), scope)
    assert eval(compile(ast.Expression(last.value), "README.md", "eval"), scope) == (2.0,)
    result = scope["result"]
    assert result.failure is None and result.trace.states.shape == (501, 2)
    margins = result.trace.margins["v10"]
    assert margins.shape == (501,) and np.isfinite(margins).all() and margins.min() >= -1e-3
