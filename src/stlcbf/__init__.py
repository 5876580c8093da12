"""Safe controller synthesis from bounded-time STL missions.

Mission predicates compile to time-varying barrier contracts composed over
adjacent intervals; a per-step quadratic program filters a nominal controller
through the conjunction of the active safe-input halfspaces.
"""

from .barriers import (
    AffineBarrier,
    AlphaFn,
    Barrier,
    BarrierRegistry,
    FcbfParams,
    HalfspaceConstraint,
    StateBox,
    cbf_constraint,
    convergence_time,
    fcbf_constraint,
    gamma_for_deadline,
)
from .contracts import (
    ContractSchedule,
    ContractSegment,
    RegionTable,
    ScheduleConfig,
    Verdict,
    build_schedule,
    check_intersection,
    check_subset,
    conjoin_groups,
)
from .config import ScenarioConfig, load_config, parse_config
from .pipeline import check_pipeline, run_pipeline, write_report, write_trace_csv
from .qp import InputBox, PidState, pid_nominal, solve_qp
from .sim import ControlSystem, Trace, integrate_step, run_simulation
from .stl import (
    StlSpec,
    TaskGroup,
    TimeInterval,
    group_tasks,
    monitor_trace,
    parse_spec,
)
from .vehicle import (
    LeadProfile,
    SignalTimings,
    SpacingBarrier,
    SpeedLimitSchedule,
    TrafficSignalBarrier,
    VehicleParams,
    generate_signal_plan,
    make_vehicle_system,
    speed_limit_barrier,
)

__version__ = "0.1.0"
