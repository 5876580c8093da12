"""Reachability audit: which functions of `src/stlcbf` no CLI run enters.

    PYTHONPATH=src python tests/reach_audit.py

Runs, in this process and under `sys.setprofile`, `synth run` and
`synth check` on the three shipped presets, `synth monitor` on the
`paper_sec6` trace, `synth run` on the benchmark's `dense_contracts` mission
and `synth check` on its `static_sampled` mission, both at seed 3. Then it
prints every `def` in `src/stlcbf` that none of these runs entered, with its
line count (decorators included), and the total. A function nested in one
that is listed is not listed again. What is listed is either reachable only
from some other input (`!sat`, the library API) or only from the tests.

It is a script, not a test: pytest does not collect it. The paper_sec6 run
takes about a minute under the profiler.
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
PRESETS = ("paper_sec6", "infeasible_red", "incompatible_static")
SEED = 3


def cli_runs(tmp: Path):
    """The argument lists of every audited CLI run, in order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    runs = []
    for preset in PRESETS:
        runs.append(["run", preset, "--trace", str(tmp / f"{preset}.csv"),
                     "--report", str(tmp / f"{preset}.txt")])
        runs.append(["check", preset])
    runs.append(["monitor", str(tmp / "paper_sec6.csv"), "paper_sec6"])
    for name, command in (("dense_contracts", "run"), ("static_sampled", "check")):
        cfg = tmp / f"{name}.cfg"
        cfg.write_text(workloads.WORKLOADS[name](SEED).config_text)
        runs.append([command, str(cfg)] + (["--trace", str(tmp / f"{name}.csv")]
                                           if command == "run" else []))
    return runs


def entered_code(runs) -> set:
    """(file, first line) of every code object any run entered."""
    from stlcbf.cli import main

    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            sys.setprofile(profile)
            try:
                code = main(argv)
            finally:
                sys.setprofile(None)
        print(f"synth {' '.join(argv[:2])}: exit {code}", file=sys.stderr)
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
        entered = entered_code(cli_runs(Path(tmp)))
    rows = unreached(entered)
    for module, name, line, count in rows:
        print(f"{count:4d}  {module}:{line}  {name}")
    print(f"{sum(r[3] for r in rows):4d}  lines in {len(rows)} unreached functions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
