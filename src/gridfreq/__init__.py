"""Distributed frequency control in power grids under limited communication.

Simulation of the coupled grid/controller dynamics (continuous, sampled and
degraded messaging), closed-form optimal dispatch, and small-signal
stability certification of the closed loop.

Start-up: importing the package imports none of its modules. Each public
name below is looked up in its module on every access (PEP 562), and that
module is imported the first time one of its names is read: loading and
validating a scenario imports ``model`` alone, a run adds ``simulator``
(with ``controllers``, ``csvtext``, ``dispatch`` and ``kernels``), a report
adds ``stability``. The package stores none of these names, so a name
rebound in its module is seen through the package too.
"""
import importlib

_NAMES = {
    "controllers": ("ControlContext", "PowerAdjacencyError", "control_rate",
                    "init_artificial"),
    "dispatch": ("DispatchResult", "cost_of", "optimal_dispatch"),
    "model": ("CONTINUOUS", "HOLD_SCHEMES", "CommGraph", "DisturbanceEvent", "Line",
              "NodeParams", "PowerGrid", "Scenario", "ScenarioFormatError", "SystemState",
              "load_scenario", "save_scenario", "scenario_from_dict", "scenario_to_dict",
              "toy_grid", "validate", "with_overrides"),
    "simulator": ("IntegrationError", "RunSummary", "ScenarioError", "Trajectory",
                  "convergence_time", "first_crossing_time", "integrate", "run_scenario",
                  "schedule", "write_trajectory_csv"),
    "stability": ("IdentityReport", "IntervalMapReport", "SpectrumReport", "StateMatrix",
                  "assemble_state_matrix", "build_Lc_star", "characteristic_identity_check",
                  "check_sufficient_multi_node", "interval_map_spectrum", "spectrum"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
