# lint: replay-root
"""Unified ablation/benchmark matrix with a persisted perf trajectory.

One declarative :class:`MatrixConfig` sweeps algorithm × backend ×
shards × executor × batch size × cache (plus dynamic-churn and
replay-scenario axes) through one runner; it is the repo's only
benchmark harness. Every cell's matching is asserted pair-identical to
the canonical matcher, thresholds are enforced by declarative *gates*,
and runs persist as schema-validated artifacts — including the
committed ``BENCH_<pr>.json`` trajectory that ``--check`` regresses
against.

See ``docs/guides/benchmarks.md`` for the config reference and the
trajectory workflow; ``python -m repro.bench list`` (or
``python -m repro.bench.matrix list``) prints the shipped configs.
"""

from .cells import CellResult, MatrixContext, run_cell
from .config import (
    CellSpec,
    CheckPolicy,
    GateSpec,
    GridSpec,
    GridWorkload,
    KIND_AXES,
    MatrixConfig,
    available_configs,
    config_digest,
    config_from_dict,
    config_to_dict,
    expand_cells,
    load_config,
    load_named_config,
)
from .gates import GateResult, evaluate_gates
from .runner import MatrixResult, run_matrix, write_artifacts
from .trajectory import (
    CheckReport,
    Trajectory,
    build_trajectory,
    canonical_dumps,
    check_trajectory,
    load_trajectory,
    write_trajectory,
)

__all__ = [
    # configuration
    "MatrixConfig",
    "GridSpec",
    "GridWorkload",
    "GateSpec",
    "CheckPolicy",
    "CellSpec",
    "KIND_AXES",
    "config_from_dict",
    "config_to_dict",
    "config_digest",
    "expand_cells",
    "load_config",
    "load_named_config",
    "available_configs",
    # execution
    "MatrixContext",
    "CellResult",
    "run_cell",
    "run_matrix",
    "MatrixResult",
    "write_artifacts",
    # gates
    "GateResult",
    "evaluate_gates",
    # trajectory
    "Trajectory",
    "CheckReport",
    "build_trajectory",
    "write_trajectory",
    "load_trajectory",
    "check_trajectory",
    "canonical_dumps",
]
