"""Distributed frequency control in power grids under limited communication.

Simulation of the coupled grid/controller dynamics (continuous, sampled and
degraded messaging), closed-form optimal dispatch, and small-signal
stability certification of the closed loop.
"""
from .controllers import (
    ControlContext,
    PowerAdjacencyError,
    control_rate,
    init_artificial,
    sequential_active_link,
)
from .dispatch import DispatchResult, cost_of, optimal_dispatch
from .model import (
    CONTINUOUS,
    HOLD_SCHEMES,
    CommGraph,
    DisturbanceEvent,
    Line,
    NodeParams,
    PowerGrid,
    Scenario,
    ScenarioFormatError,
    SystemState,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    toy_grid,
    validate,
    with_overrides,
)
from .simulator import (
    IntegrationError,
    RunSummary,
    ScenarioError,
    Trajectory,
    convergence_time,
    derivative,
    first_crossing_time,
    integrate,
    run_scenario,
    schedule,
    write_trajectory_csv,
)
from .stability import (
    IdentityReport,
    IntervalMapReport,
    SpectrumReport,
    StateMatrix,
    assemble_state_matrix,
    build_Lc_star,
    characteristic_identity_check,
    check_sufficient_multi_node,
    check_sufficient_two_node,
    interval_map_spectrum,
    spectrum,
)

__version__ = "0.1.0"
