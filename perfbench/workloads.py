"""Seeded mission generators for the benchmark workloads.

Each generator turns a seed into the config the program receives, plus what
the correctness check expects of that mission. The program sees only the
config: a shipped preset name with a seed override (as `synth run --seed`
passes it), or generated config text written to a file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

REF_PRESET = "paper_sec6"
# sha256 of the trace CSV and of the report of `paper_sec6` at its own seed, 20.
REF_CSV_SHA256 = "c2b6f78492063c4b8a764f56faf8d8b76b5543c0e819d5f5f12527d9849fc9e2"
REF_REPORT_SHA256 = "57b2fc2b4652b1e2cc16a94c18f250e11260abc502aeb494d21878d40504f98f"

DENSE_HORIZON = 100.0
DENSE_CHAINS = 8
T_CONV = 5.0  # the config default t_conv_speed: every generated window uses it


@dataclass(frozen=True)
class Mission:
    """What one run of a workload feeds the program and what it must yield.

    `preset` names a shipped config; otherwise `config_text` is written to a
    file and loaded from there. `handoffs` lists the boundary verdicts a
    static check must report, as (prev->next, verdict, tau, t_conv) tuples.
    """

    workload: str
    seed: int
    static_only: bool
    preset: str = ""
    config_text: str = ""
    handoffs: tuple = ()


def mission_ref(seed: int) -> Mission:
    """The paper's case study, exactly as shipped: the preset's own signal
    plan, whatever the benchmark seed. Its trace and report must match the
    recorded hashes on every run."""
    return Mission("mission_ref", seed, static_only=False, preset=REF_PRESET)


def _header(name: str, horizon: float, seed: int) -> list:
    return [
        "[scenario]", f"name = {name}", f"horizon = {horizon:g}", "dt = 0.01",
        f"seed = {seed}",
        "[input]", "lower = -200000", "upper = 200000",
        "[domain]", "x_f = -1000 100000", "v_f = 0 60", "x_l = -1000 1000000",
    ]


def dense_contracts(seed: int) -> Mission:
    """h1 plus DENSE_CHAINS staggered chains of custom affine speed caps.

    Each chain tiles [0, horizon) with caps that alternate between a low and a
    high band, so every fall is an overlap_deadline boundary with a
    finite-time window and every rise is a subset boundary. Chains start at
    staggered offsets, so the windows of different chains overlap in time and
    every chain contributes a constraint on every step. The lead starts far
    ahead and the input box is wide, so the caps, not the spacing barrier or
    the box, bind the input.
    """
    rng = random.Random(seed)
    caps = set()
    tasks = ["G[0,100) sat(h1)"]
    for chain in range(DENSE_CHAINS):
        t = 0.0
        first = 5.5 + chain + rng.uniform(0.0, 1.0)
        high = chain % 2 == 0
        while t < DENSE_HORIZON:
            end = first if t == 0.0 else t + rng.uniform(7.0, 12.0)
            if DENSE_HORIZON - end < 8.0:
                end = DENSE_HORIZON
            v = rng.randint(20, 30) if high else rng.randint(9, 17)
            caps.add(v)
            tasks.append(f"G[{t:g},{end:g}) sat(cap{v})")
            t, high = end, not high
    lines = _header(f"dense_contracts_{seed}", DENSE_HORIZON, seed)
    lines += ["[initial]", "x_f = 0", "v_f = 0", "x_l = 3000",
              "[lead]", "v0 = 25", "row = 0 0", "[barriers]"]
    lines += [f"cap{v} = affine 0 -1 0 offset={v}" for v in sorted(caps)]
    lines += ["[stl]"] + tasks
    return Mission("dense_contracts", seed, static_only=False,
                   config_text="\n".join(lines) + "\n")


def static_sampled(seed: int) -> Mission:
    """One group that hands off from h1 to a speed limit.

    h1 has no affine form, so the subset, intersection and worst-engage checks
    of that boundary all sample the domain on the default 101^3 grid.
    The expected verdict is overlap_deadline: the spacing set is not inside
    the speed-limit set, they intersect at rest, and the window fits.
    """
    rng = random.Random(seed)
    horizon = float(rng.randint(60, 120))
    t_switch = float(rng.randint(20, int(horizon) - 20))
    v_max = rng.choice((10, 15, 20, 25, 30))
    lines = _header(f"static_sampled_{seed}", horizon, seed)
    lines += ["[initial]", "x_f = 0", "v_f = 0", f"x_l = {rng.randint(50, 200)}",
              "[lead]", f"v0 = {rng.randint(0, 20)}", "row = 0 0",
              "[speed_limits]", f"row = 0 {v_max}",
              "[stl]", f"G[0,{t_switch:g}) sat(h1)",
              f"G[{t_switch:g},{horizon:g}) sat(vmax{v_max})"]
    handoff = (f"sat(h1)->sat(vmax{v_max})", "overlap_deadline", t_switch - T_CONV, T_CONV)
    return Mission("static_sampled", seed, static_only=True,
                   config_text="\n".join(lines) + "\n", handoffs=(handoff,))


WORKLOADS = {
    "mission_ref": mission_ref,
    "dense_contracts": dense_contracts,
    "static_sampled": static_sampled,
}
