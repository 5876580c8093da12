"""Output hashes: the sha256 of every byte the CLI writes on a fixed set of runs.

    python tests/output_hashes.py > hashes.txt

Runs `synth` in subprocesses, with `src` of this checkout first on
PYTHONPATH and a fresh temporary directory as the working directory:
`synth run` with and without `--trace/--report` and `synth check` on the
three shipped presets, on the benchmark's `dense_contracts` and
`static_sampled` missions at seed 3, on `dense_contracts` at seed 61 (the
first seed of the benchmark's pairs) and on the configs of `CUSTOM`, then
`synth monitor` on the `paper_sec6` trace, and last `synth run` and
`synth monitor` on `paper_sec6` at `--seed 7`. For each command it prints
the exit code and one line per artifact (stdout, stderr, each file written)
with its sha256. Every path passed is relative to the working directory, so
no output holds a temporary path. Run it on two checkouts and `diff` the
outputs: a line that differs names an artifact whose bytes moved.

`tests/output_hashes.txt` holds its output, and
`test_output_hashes.py` runs it and compares, so every test run checks the
determinism contract. It takes about 10 s.
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
SEED = 3
# (workload, seed); a config at another seed than SEED is named <workload>_<seed>
GENERATED = (("dense_contracts", SEED), ("static_sampled", SEED), ("dense_contracts", 61))
# h1 (a row read through `terms`) beside two negated custom affine barriers
# (rows with an affine form); the lead reaches 18 m/s, so the window into
# !sat(fast), V <= 10, engages with h < 0
NEGATED_AFFINE = """\
[scenario]
name = negated_affine
horizon = 80
[input]
lower = -200000
upper = 200000
[domain]
x_f = -1000 100000
v_f = 0 60
x_l = -1000 1000000
[speed_limits]
row = 0 30
row = 50 25
[barriers]
far = affine 1 0 0 offset=-100000
fast = affine 0 1 0 offset=-10
[lead]
v0 = 0
row = 0 1.2
row = 15 0
[stl]
G[0,80) sat(h1)
G[0,50) sat(vmax30)
G[50,80) sat(vmax25)
G[0,40) !sat(far)
G[40,80) !sat(fast)
"""
# a cap of V <= 12 hands over to h1 at t = 20: the boundary takes the sampled
# check, and the FCBF window on [15, 20) engages h1, a barrier without an
# affine form, so the window's row reads `terms`; the lead accelerates to
# 18 m/s past the capped ego
H1_WINDOW = """\
[scenario]
name = h1_window
horizon = 60
[input]
lower = -200000
upper = 200000
[domain]
x_f = -1000 100000
v_f = 0 60
x_l = -1000 1000000
[speed_limits]
row = 0 30
[barriers]
slow = affine 0 -1 0 offset=12
[lead]
v0 = 0
row = 0 1.2
row = 15 0
[stl]
G[0,20) sat(slow)
G[20,60) sat(h1)
"""
# gaps between a group's intervals are the vacuous barrier (h == 1): h1's
# group opens with one and has another, so its boundaries into and out of
# h1 take the sampled check, and the gap between the two speed caps gives an
# exact <top> -> cap boundary whose FCBF window engages with h < 0
VACUOUS_GAP = """\
[scenario]
name = vacuous_gap
horizon = 100
[input]
lower = -200000
upper = 200000
[domain]
x_f = -1000 100000
v_f = 0 60
x_l = -1000 1000000
[barriers]
cap20 = affine 0 -1 0 offset=20
cap15 = affine 0 -1 0 offset=15
[lead]
v0 = 0
row = 0 1.2
row = 15 0
[stl]
G[10,50) sat(h1)
G[60,100) sat(h1)
G[0,30) sat(cap20)
G[40,100) sat(cap15)
"""
CUSTOM = {"negated_affine": NEGATED_AFFINE, "h1_window": H1_WINDOW,
          "vacuous_gap": VACUOUS_GAP}


def commands(tmp: Path):
    """(argv, files written) of every run, in order; generated configs are
    written into tmp first."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    configs = list(PRESETS)
    for name, seed in GENERATED:
        cfg = f"{name}.cfg" if seed == SEED else f"{name}_{seed}.cfg"
        (tmp / cfg).write_text(workloads.WORKLOADS[name](seed).config_text)
        configs.append(cfg)
    for name, text in CUSTOM.items():
        (tmp / f"{name}.cfg").write_text(text)
        configs.append(f"{name}.cfg")
    out = []
    for cfg in configs:
        stem = cfg.removesuffix(".cfg")
        files = (f"{stem}.csv", f"{stem}.txt")
        out.append((["run", cfg], ()))
        out.append((["run", cfg, "--trace", files[0], "--report", files[1]], files))
        out.append((["check", cfg], ()))
    out.append((["monitor", "paper_sec6.csv", "paper_sec6"], ()))
    out.append((["run", "paper_sec6", "--seed", "7", "--trace", "paper_sec6_seed7.csv"],
                ("paper_sec6_seed7.csv",)))
    out.append((["monitor", "paper_sec6_seed7.csv", "paper_sec6", "--seed", "7"], ()))
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
