import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from stlcbf.barriers import AffineBarrier, BarrierRegistry, Box
from stlcbf.sim import ControlSystem


@pytest.fixture
def double_integrator():
    """x = (X, V), u is acceleration."""
    return ControlSystem(
        n=2, m=1,
        f=lambda t, x: (x[1], 0.0),
        g=lambda t, x: ((0.0,), (1.0,)),
        domain=Box((-1e6, -1e3), (1e6, 1e3)),
    )


@pytest.fixture
def speed_registry():
    """Speed-threshold barriers over the double integrator state (X, V)."""
    reg = BarrierRegistry()
    for v in (10, 20, 25, 30):
        reg.register(AffineBarrier(f"v{v}", coeffs=(0.0, -1.0), offset=float(v)))
    return reg


@pytest.fixture
def unit_domain_2d():
    return Box((0.0, 0.0), (40.0, 40.0))
