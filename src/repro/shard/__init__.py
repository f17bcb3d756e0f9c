"""Sharded, deterministic parallel simulation execution.

Partitions scenario matrices and chaos seed sweeps into independent
(scenario, config, seed) cells, runs them across N worker processes,
and merges the outputs into artifacts byte-identical to a serial run.
See :mod:`repro.world` for the world-state/determinism model,
:mod:`repro.shard.state` for warm snapshots, :mod:`repro.shard.cells`
for the work units, and :mod:`repro.shard.runner` for the
execution/merge engine.
"""

from repro.run import ObsConfig, observing
from repro.shard.cells import (
    ChaosCell,
    FleetCell,
    ScenarioCell,
    chaos_seed_sweep,
    parse_seed_range,
    resolve_scenario,
    scenario_matrix,
    scenario_table,
)
from repro.shard.runner import (
    CellResult,
    ShardResult,
    default_start_method,
    merge_profiles,
    run_cells,
)
from repro.shard.state import WarmSnapshot, warm_scenario_prefix

__all__ = [
    "CellResult",
    "ChaosCell",
    "FleetCell",
    "ObsConfig",
    "ScenarioCell",
    "ShardResult",
    "WarmSnapshot",
    "chaos_seed_sweep",
    "default_start_method",
    "merge_profiles",
    "observing",
    "parse_seed_range",
    "resolve_scenario",
    "run_cells",
    "scenario_matrix",
    "scenario_table",
    "warm_scenario_prefix",
]
