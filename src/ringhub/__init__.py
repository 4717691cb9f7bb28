"""Minority-game route choice on ring-and-hub networks.

Agents on a ring commute between fixed origin/destination pairs and choose
each step between the peripheral route and a capacity-limited hub shortcut.
Inductive agents score lookup-table strategies against the observed hub
congestion history; the package pairs the simulator with an exact
Nash-equilibrium baseline and a sweep harness for phase-transition and
hub-design experiments.
"""

from __future__ import annotations

from .cli import (
    PRESETS,
    SweepRow,
    SweepSpec,
    emit_outputs,
    main,
    optimal_lambda,
    preset_specs,
    read_rows,
    run_sweep,
)
from .equilibrium import (
    CostAdvantage,
    NEResult,
    brute_force_ne,
    cost_advantages,
    ne_costs,
    potential_count,
)
from .network import (
    InsideRoute,
    Network,
    NetworkConfig,
    ODPair,
    assign_destinations,
    best_inside_route,
    build_network,
    inside_cost,
    interchange_positions,
    outside_cost,
    ring_distance,
    route_table,
)
from .sim import (
    Metrics,
    ReplicateResult,
    SimConfig,
    StepRecord,
    config_with,
    replicate,
    run,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "PRESETS",
    "SweepRow",
    "SweepSpec",
    "emit_outputs",
    "main",
    "optimal_lambda",
    "preset_specs",
    "read_rows",
    "run_sweep",
    "CostAdvantage",
    "NEResult",
    "brute_force_ne",
    "cost_advantages",
    "ne_costs",
    "potential_count",
    "InsideRoute",
    "Network",
    "NetworkConfig",
    "ODPair",
    "assign_destinations",
    "best_inside_route",
    "build_network",
    "inside_cost",
    "interchange_positions",
    "outside_cost",
    "ring_distance",
    "route_table",
    "Metrics",
    "ReplicateResult",
    "SimConfig",
    "StepRecord",
    "config_with",
    "replicate",
    "run",
    "write_trace_csv",
    "__version__",
]
