"""Output hashes: the sha256 of every byte the CLI writes on a fixed set of runs.

    python tests/output_hashes.py > hashes.txt

Runs `synth` in subprocesses, with `src` of this checkout first on
PYTHONPATH and a fresh temporary directory as the working directory:
`synth run` with and without `--trace/--report` and `synth check` on the
three shipped presets and on the benchmark's `dense_contracts` and
`static_sampled` missions at seed 3, then `synth monitor` on the
`paper_sec6` trace. For each command it prints the exit code and one line
per artifact (stdout, stderr, each file written) with its sha256. Every path
passed is relative to the working directory, so no output holds a temporary
path. Run it on two checkouts and `diff` the outputs: a line that differs
names an artifact whose bytes moved.

It is a script, not a test: pytest does not collect it. It takes about a
minute.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("paper_sec6", "infeasible_red", "incompatible_static")
GENERATED = ("dense_contracts", "static_sampled")
SEED = 3


def commands(tmp: Path):
    """(argv, files written) of every run, in order; generated configs are
    written into tmp first."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    configs = list(PRESETS)
    for name in GENERATED:
        (tmp / f"{name}.cfg").write_text(workloads.WORKLOADS[name](SEED).config_text)
        configs.append(f"{name}.cfg")
    out = []
    for cfg in configs:
        stem = cfg.removesuffix(".cfg")
        files = (f"{stem}.csv", f"{stem}.txt")
        out.append((["run", cfg], ()))
        out.append((["run", cfg, "--trace", files[0], "--report", files[1]], files))
        out.append((["check", cfg], ()))
    out.append((["monitor", "paper_sec6.csv", "paper_sec6"], ()))
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("STLCBF_LOG", None)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for argv, files in commands(tmp):
            for name in files:  # a failed run must not leave an earlier file behind
                (tmp / name).unlink(missing_ok=True)
            proc = subprocess.run([sys.executable, "-m", "stlcbf.cli", *argv], cwd=tmp,
                                  env=env, capture_output=True, check=False)
            label = "synth " + " ".join(argv)
            print(f"{label}: exit {proc.returncode}")
            print(f"  {sha256(proc.stdout)}  stdout")
            print(f"  {sha256(proc.stderr)}  stderr")
            for name in files:
                path = tmp / name
                digest = sha256(path.read_bytes()) if path.exists() else "absent"
                print(f"  {digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
