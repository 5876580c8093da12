"""Reachability audit: which functions of `src/stlcbf` no audited run enters.

    python tests/reach_audit.py

Runs, in this process and under `sys.setprofile`:
- `synth run` and `synth check` on the three shipped presets;
- `synth run paper_sec6 --dt 1`, whose sampled h1 dips below the margin, so
  the run ends on the invariance guard;
- `synth monitor` on the `paper_sec6` trace;
- `synth run` on the benchmark's `dense_contracts` mission and
  `synth check` on its `static_sampled` mission, both at seed 3;
- `synth run` on each config of `output_hashes.CUSTOM` (`negated_affine`,
  `h1_window`, `vacuous_gap`);
- the library runs of `library_runs`: the planar m = 2 mission of
  `test_planar.py`, which reaches the m >= 2 QP.
Then it prints every `def` in `src/stlcbf` that none of these runs entered,
with its line count (decorators included), and the total. A function nested
in one that is listed is not listed again. What is listed is either
reachable only from some other input or only from the tests.

It is a script, not a test: pytest does not collect it. The whole audit
takes a few seconds (4-6 s on a 2-vCPU VM).
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stlcbf"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
PRESETS = ("paper_sec6", "infeasible_red", "incompatible_static")
SEED = 3


def cli_runs(tmp: Path):
    """The argument lists of every audited CLI run, in order."""
    import workloads
    from output_hashes import CUSTOM

    runs = []
    for preset in PRESETS:
        runs.append(["run", preset, "--trace", str(tmp / f"{preset}.csv"),
                     "--report", str(tmp / f"{preset}.txt")])
        runs.append(["check", preset])
    runs.append(["run", "paper_sec6", "--dt", "1"])
    runs.append(["monitor", str(tmp / "paper_sec6.csv"), "paper_sec6"])
    for name, command in (("dense_contracts", "run"), ("static_sampled", "check")):
        cfg = tmp / f"{name}.cfg"
        cfg.write_text(workloads.WORKLOADS[name](SEED).config_text)
        runs.append([command, str(cfg)] + (["--trace", str(tmp / f"{name}.csv")]
                                           if command == "run" else []))
    for name, text in CUSTOM.items():
        cfg = tmp / f"{name}.cfg"
        cfg.write_text(text)
        runs.append(["run", str(cfg), "--trace", str(tmp / f"{name}.csv")])
    return runs


def library_runs():
    """(name, call) of each audited library run: programs that build their
    system and schedules from the public API, as the tests do."""
    from test_planar import run_planar

    return [("planar m=2 mission", lambda: run_planar()[1].failure.describe())]


def entered_code(runs, calls=()) -> set:
    """(file, first line) of every code object any run or call entered."""
    from stlcbf.cli import main

    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    jobs = [(f"synth {' '.join(argv[:2])}", lambda argv=argv: f"exit {main(argv)}")
            for argv in runs] + list(calls)
    for name, job in jobs:
        with contextlib.redirect_stdout(io.StringIO()):
            sys.setprofile(profile)
            try:
                outcome = job()
            finally:
                sys.setprofile(None)
        print(f"{name}: {outcome}", file=sys.stderr)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def unreached(entered: set):
    """(module, qualified name, line, line count) of each function no run
    entered, outermost only."""
    out = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                if (path, first) not in entered:
                    out.append((Path(path).name, name, first, child.end_lineno - first + 1))
                    continue
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for module in sorted(SRC.glob("*.py")):
        path = str(module.resolve())
        walk(ast.parse(module.read_text()), path, "")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        entered = entered_code(cli_runs(Path(tmp)), library_runs())
    rows = unreached(entered)
    for module, name, line, count in rows:
        print(f"{count:4d}  {module}:{line}  {name}")
    print(f"{sum(r[3] for r in rows):4d}  lines in {len(rows)} unreached functions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
