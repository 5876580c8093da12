"""A second system through the public API: a planar m = 2 mission.

A point with dx/dt = u (n = m = 2, f = 0, g = I) must stay in box A =
[0,2]^2 over [0,10) and in box B = [6,8] x [4,6] over [20,30), each box
written as four affine conjuncts. The filter runs the m >= 2 QP end to end.
"""

from stlcbf import (
    AffineBarrier,
    BarrierRegistry,
    ControlSystem,
    InputBox,
    ScheduleConfig,
    StateBox,
    build_schedule,
    contracts,
    group_tasks,
    parse_spec,
    run_simulation,
)

BOXES = {"a": ((0.0, 0.0), (2.0, 2.0)), "b": ((6.0, 4.0), (8.0, 6.0))}
SIDES = ("xlo", "xhi", "ylo", "yhi")
DOMAIN = StateBox((-10.0, -10.0), (20.0, 20.0))
IDENTITY = ((1.0, 0.0), (0.0, 1.0))


def planar_mission():
    """(system, schedules) of the mission: one `AffineBarrier` per box side,
    e.g. bxlo = x - 6 and bxhi = 8 - x, and `G[0,10) sat(a..)` and
    `G[20,30) sat(b..)` for each side."""
    registry = BarrierRegistry()
    for name, (lo, hi) in BOXES.items():
        for i, axis in enumerate("xy"):
            unit = tuple(1.0 if j == i else 0.0 for j in range(2))
            registry.register(AffineBarrier(f"{name}{axis}lo", unit, offset=-lo[i]))
            registry.register(AffineBarrier(f"{name}{axis}hi", tuple(-c for c in unit),
                                            offset=hi[i]))
    spec = parse_spec("horizon 30\n" + "\n".join(
        f"G[{a},{b}) sat({name}{side})" for name, a, b in (("a", 0, 10), ("b", 20, 30))
        for side in SIDES), registry)
    cfg = ScheduleConfig(domain=DOMAIN, horizon=30.0, t_conv=8.0, rho=0.5)
    schedules = [build_schedule(group, registry, cfg) for group in group_tasks(spec)]
    system = ControlSystem(n=2, m=2, f=lambda t, x: (0.0, 0.0), g=lambda t, x: IDENTITY,
                           domain=DOMAIN)
    return system, schedules


def run_planar(half_width=2.0):
    """The mission from x0 = (1, 1) under a zero nominal input and the box
    +-half_width on each input, at dt = 0.01."""
    system, schedules = planar_mission()
    box = InputBox((-half_width,) * 2, (half_width,) * 2)
    return schedules, run_simulation(system, schedules, lambda t, x: (0.0, 0.0), box,
                                     (1.0, 1.0), dt=0.01, t_max=30.0)


def test_planar_mission_verdicts_engagements_and_failure():
    schedules, res = run_planar()
    assert [s.label for s in schedules] == ["G1", "G2", "G3", "G4"]
    for sched, side in zip(schedules, SIDES):
        enter_a, a_to_b = (bd.describe() for bd in sched.boundaries)
        assert enter_a == f"t=10 sat(a{side})-><top> verdict=subset method=exact"
        assert a_to_b.startswith(f"t=20 <top>->sat(b{side}) verdict=overlap_deadline "
                                 "method=exact tau=12 t_conv=8 ")
    assert [text for _, text in res.trace.events] == [
        "engage G1#1 t=12.01 h=-5 gamma=0.559017 T_bound=8 deadline=20",
        "deadline-risk engage G1#1 t=12.01 h=-5 gamma=0.559017 T_bound=8 deadline=20",
        "engage G2#1 t=12.01 h=7 gamma=0.001 T_bound=0 deadline=20",
        "engage G3#1 t=12.01 h=-3 gamma=0.433013 T_bound=8 deadline=20",
        "deadline-risk engage G3#1 t=12.01 h=-3 gamma=0.433013 T_bound=8 deadline=20",
        "engage G4#1 t=12.01 h=5 gamma=0.001 T_bound=0 deadline=20",
    ]
    # The bxhi and byhi windows engage with h >= 0, so they get gamma_min and
    # hold their margin nearly constant: bxhi caps u_x <= 0.0026 while bxlo
    # needs u_x >= 1.25, and the QP empties at the first engaged step. Sizing
    # such windows from the invariance row instead will move this line.
    assert res.failure.describe() == (
        "qp_infeasible at t=12.010000 [fcbf:bxlo; fcbf:bxhi; fcbf:bylo; fcbf:byhi]")
    assert res.trace.n_rows() == 1202
    assert res.trace.qp_status[-1] == "infeasible"
    assert set(res.trace.qp_status[:-1]) == {"ok"}


def test_list_rows_resolve_once_per_plan(monkeypatch):
    """The m >= 2 path resolves a plan's specs at the plan's first step and
    reuses them while the plan and g's object last: one `resolve_rows` per
    plan, not one per step."""
    calls = {"resolve_rows": 0, "replan": 0}
    resolve_rows, replan = contracts.resolve_rows, contracts.RegionTable.replan

    def counted_resolve_rows(specs, gm, clip=False):
        calls["resolve_rows"] += 1
        return resolve_rows(specs, gm, clip)

    def counted_replan(table, t, x):
        calls["replan"] += 1
        return replan(table, t, x)

    monkeypatch.setattr(contracts, "resolve_rows", counted_resolve_rows)
    monkeypatch.setattr(contracts.RegionTable, "replan", counted_replan)
    _, res = run_planar()
    assert res.trace.n_rows() == 1202
    assert calls == {"resolve_rows": 3, "replan": 3}
