"""`tests/trace_diff.py` names what differs between two traces or reports."""

import pytest

import trace_diff
from stlcbf.cli import main as cli_main


@pytest.fixture
def red_run(tmp_path):
    """The trace and report of `synth run infeasible_red` (102 rows, exit 3)."""
    csv, report = tmp_path / "a.csv", tmp_path / "a.txt"
    assert cli_main(["run", "infeasible_red", "--trace", str(csv), "--report", str(report)]) == 3
    return csv, report


def _edited(path, tmp_path, line_no, old, new):
    """A copy of `path` with `old` replaced by `new` once, on line `line_no`."""
    lines = path.read_text(encoding="utf-8").split("\n")
    assert old in lines[line_no]
    lines[line_no] = lines[line_no].replace(old, new, 1)
    copy = tmp_path / ("b" + path.suffix)
    copy.write_text("\n".join(lines), encoding="utf-8")
    return copy


def test_identical_files(red_run, capsys):
    csv, report = red_run
    assert trace_diff.main([str(csv), str(csv)]) == 0
    assert trace_diff.main([str(report), str(report)]) == 0
    assert capsys.readouterr().out.startswith("identical (")


def test_one_flipped_qp_status_is_named(red_run, tmp_path, capsys):
    csv, _ = red_run
    flipped = _edited(csv, tmp_path, 51, ",ok,", ",infeasible,")  # row 50: the header is line 0
    assert trace_diff.main([str(csv), str(flipped)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "first differing row: 50"
    assert out[1].startswith("  A 0.500000,") and out[2].startswith("  B 0.500000,")
    assert "qp_status differs on 1 rows:" in out
    assert out[out.index("qp_status differs on 1 rows:") + 1] == \
        "  row 50 t=0.500000: ok -> infeasible"
    assert "  u_safe: 0" in out and "  signal_phase: 0 rows" in out


def test_largest_delta_and_row_counts(red_run, tmp_path, capsys):
    csv, _ = red_run
    moved = _edited(csv, tmp_path, 60, ",375.100000,", ",375.100100,")
    moved.write_text(moved.read_text(encoding="utf-8").rsplit("\n", 2)[0] + "\n",
                     encoding="utf-8")  # and the last row dropped
    assert trace_diff.main([str(csv), str(moved)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "first differing row: 59"
    assert "  u_safe: 0.0001 at row 59 t=0.590000" in out
    assert "qp_status differs on 0 rows" in out and out[-1] == "rows: A has 102, B has 101"


def test_report_and_event_lines(red_run, tmp_path, capsys):
    _, report = red_run
    text = report.read_text(encoding="utf-8")
    line_no = text.split("\n").index("[engagements]") + 1
    edited = _edited(report, tmp_path, line_no, "gamma=28.1303", "gamma=28.1304")
    assert trace_diff.main([str(report), str(edited)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "- [engagements]   engage G3.s1#0 t=1.01 h=-30.3 gamma=28.1303 T_bound=0.5 deadline=1.5",
        "+ [engagements]   engage G3.s1#0 t=1.01 h=-30.3 gamma=28.1304 T_bound=0.5 deadline=1.5",
    ]


def test_a_trace_against_a_report_is_an_error(red_run, capsys):
    csv, report = red_run
    assert trace_diff.main([str(csv), str(report)]) == 2
    assert "two trace CSVs or two run reports" in capsys.readouterr().err
