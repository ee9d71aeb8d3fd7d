# lint: replay-root
"""Declarative configuration of a benchmark/ablation matrix.

A :class:`MatrixConfig` names a set of *grids* — each a cartesian
product over benchmark axes (algorithm × backend × shards × executor ×
batch size × cache, plus the dynamic-churn and replay-scenario axes) —
and a set of *gates*, threshold assertions evaluated over the resulting
cells. Configs are plain data: they parse from JSON or TOML (and
round-trip through :func:`config_to_dict`, whose canonical form is the
config's digest), so every speed claim in the repo is one committed
config line plus an enforced gate, not ad-hoc benchmark code.

Grid kinds and their axes:

``match``
    One matcher execution per cell on a cold buffer (the paper's
    protocol: index building excluded).
    Axes: ``algorithm``, ``backend``, ``shards``, ``executor``,
    ``dims``, ``objects``.
``serving``
    Cold ``match()`` vs warm ``prepared.run()`` (miss and cache hit).
    Axes: ``algorithm``, ``backend``, ``cache``.
``throughput``
    Batched ``submit_many`` vs looped ``submit`` requests/second.
    Axes: ``algorithm``, ``backend``, ``batch``.
``dynamic``
    Incremental session repair vs full recompute on an event stream.
    Axes: ``algorithm``, ``backend``, ``churn``.
``replay``
    A scenario trace replayed with freshness verification and an exact
    rewind check. Axes: ``scenario``, ``backend``.
``net``
    In-process ``submit_many`` vs the same stream served by a
    ``python -m repro.net server`` subprocess over the loopback.
    Axis: ``batch``.

Examples
--------
A one-grid config expands into one cell per axis combination::

    >>> from repro.bench.matrix.config import config_from_dict
    >>> config = config_from_dict({
    ...     "name": "tiny",
    ...     "grids": [{"name": "static", "kind": "match",
    ...                "workload": {"num_objects": 300},
    ...                "axes": {"backend": ["disk", "memory"]}}],
    ... })
    >>> [cell.cell_id for cell in expand_cells(config)]
    ['static/algorithm=SB/backend=disk/shards=1/executor=serial/dims=4/objects=300', 'static/algorithm=SB/backend=memory/shards=1/executor=serial/dims=4/objects=300']
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ...engine import MatchingConfig
from ...errors import MatrixConfigError

#: Bench panel name (the ``algorithm`` axis) -> full engine configuration.
BENCH_CONFIGS: Dict[str, MatchingConfig] = {
    "SB": MatchingConfig(algorithm="sb"),
    "BruteForce": MatchingConfig(algorithm="bf"),
    "Chain": MatchingConfig(algorithm="chain"),
    # Reference algorithms (not part of the paper's figures).
    "GaleShapley": MatchingConfig(algorithm="gs"),
    "GenericSB": MatchingConfig(algorithm="generic-sb"),
    # Ablation variants (not part of the paper's figures).
    "SB-single": MatchingConfig(algorithm="sb", multi_pair=False),
    "SB-retraversal": MatchingConfig(algorithm="sb",
                                     maintenance="retraversal"),
    "SB-naive-threshold": MatchingConfig(algorithm="sb", threshold="naive"),
    "SB-nocache": MatchingConfig(algorithm="sb", cache_best=False),
    "Chain-stack": MatchingConfig(algorithm="chain", restart=False),
    "BruteForce-filter": MatchingConfig(algorithm="bf",
                                        deletion_mode="filter"),
}

#: Grid kinds and the axes each one understands, in canonical order.
KIND_AXES: Dict[str, Tuple[str, ...]] = {
    "match": ("algorithm", "backend", "shards", "executor", "dims",
              "objects"),
    "serving": ("algorithm", "backend", "cache"),
    "throughput": ("algorithm", "backend", "batch"),
    "dynamic": ("algorithm", "backend", "churn"),
    "replay": ("scenario", "backend"),
    "net": ("batch",),
}

#: Executors a matrix cell may use (``remote`` needs worker processes
#: the runner does not manage).
MATRIX_EXECUTORS = ("serial", "thread", "process")

#: Dataset generators a workload may name.
WORKLOAD_GENERATORS = ("independent", "anticorrelated", "correlated",
                       "zillow")

#: Gate kinds understood by :mod:`repro.bench.matrix.gates`.
GATE_KINDS = ("ratio", "sum_ratio", "span_ratio", "growth", "min", "max")

#: Trajectory check policies (see :mod:`repro.bench.matrix.trajectory`).
CHECK_POLICIES = ("exact", "ratio", "info")

PathLike = Union[str, Path]


@dataclass(frozen=True)
class GridWorkload:
    """Workload knobs of one grid (sizes are *unscaled* targets).

    ``num_objects``/``num_functions`` scale with the runner's ``scale``
    factor, floored at ``min_objects``/``min_functions``. The remaining
    knobs are read by specific kinds only: ``num_queries`` (serving),
    ``functions_per_request``/``num_requests``/``identity_sample``
    (throughput, net), ``trace_scale`` (replay), ``repeats`` (match).
    """

    generator: str = "independent"
    num_objects: int = 1000
    num_functions: int = 50
    dims: int = 4
    seed: int = 42
    min_objects: int = 200
    min_functions: int = 20
    num_queries: int = 3
    functions_per_request: int = 16
    num_requests: int = 0
    identity_sample: int = 4
    trace_scale: float = 0.5
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.generator not in WORKLOAD_GENERATORS:
            raise MatrixConfigError(
                f"workload generator must be one of "
                f"{WORKLOAD_GENERATORS}, got {self.generator!r}"
            )
        for name in ("num_objects", "num_functions", "min_objects",
                     "min_functions", "num_queries",
                     "functions_per_request", "identity_sample",
                     "repeats"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise MatrixConfigError(
                    f"workload.{name} must be a positive integer, "
                    f"got {value!r}"
                )
        if not isinstance(self.num_requests, int) or self.num_requests < 0:
            raise MatrixConfigError(
                f"workload.num_requests must be a non-negative integer "
                f"(0 = twice the largest batch), got {self.num_requests!r}"
            )
        if not isinstance(self.dims, int) or not 2 <= self.dims <= 10:
            raise MatrixConfigError(
                f"workload.dims must be an integer in [2, 10], "
                f"got {self.dims!r}"
            )
        if not isinstance(self.seed, int):
            raise MatrixConfigError(
                f"workload.seed must be an integer, got {self.seed!r}"
            )
        if not (isinstance(self.trace_scale, (int, float))
                and self.trace_scale > 0):
            raise MatrixConfigError(
                f"workload.trace_scale must be > 0, "
                f"got {self.trace_scale!r}"
            )


@dataclass(frozen=True)
class GridSpec:
    """One sub-grid of the matrix: a kind, a workload, and axis values."""

    name: str
    kind: str
    workload: GridWorkload = field(default_factory=GridWorkload)
    axes: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class GateSpec:
    """One threshold assertion over the matrix's cells.

    ``where`` restricts the cells considered (axis name — or the
    pseudo-axis ``grid`` — to required value). ``ratio`` pairs each
    ``numerator`` cell with the ``denominator`` cell agreeing on every
    other axis and asserts ``num <= max_ratio * den`` (strictly ``<``
    when ``strict``); ``sum_ratio`` compares the two sums;
    ``span_ratio`` compares the two spans (last minus first along
    ``along``); ``growth`` asserts ``last > min_growth * first`` along
    ``along`` within each group; ``min``/``max`` bound the metric on
    every matched cell.
    """

    name: str
    kind: str
    metric: str
    where: Mapping[str, Any] = field(default_factory=dict)
    numerator: Mapping[str, Any] = field(default_factory=dict)
    denominator: Mapping[str, Any] = field(default_factory=dict)
    along: Optional[str] = None
    max_ratio: Optional[float] = None
    min_growth: float = 1.0
    value: Optional[float] = None
    strict: bool = False


@dataclass(frozen=True)
class CheckPolicy:
    """How one metric is compared against the committed trajectory.

    ``exact`` — the fresh value must equal the committed one (counters:
    I/O, pairs, rounds; any drift is a real behaviour change).
    ``ratio`` — the fresh value must not exceed ``max_regression``
    times the committed one (timings, on hardware you control).
    ``info`` — recorded, never gated (timings, by default: wall clock
    does not transfer across machines).
    """

    policy: str = "info"
    max_regression: float = 1.0

    def __post_init__(self) -> None:
        if self.policy not in CHECK_POLICIES:
            raise MatrixConfigError(
                f"check policy must be one of {CHECK_POLICIES}, "
                f"got {self.policy!r}"
            )
        if self.policy == "ratio" and self.max_regression <= 0:
            raise MatrixConfigError(
                f"check max_regression must be > 0, "
                f"got {self.max_regression!r}"
            )


@dataclass(frozen=True)
class MatrixConfig:
    """A named matrix: grids + gates + trajectory check overrides."""

    name: str
    description: str = ""
    reference: str = "sb"
    grids: Tuple[GridSpec, ...] = ()
    gates: Tuple[GateSpec, ...] = ()
    checks: Mapping[str, CheckPolicy] = field(default_factory=dict)


@dataclass(frozen=True)
class CellSpec:
    """One cell of the expanded matrix: its grid plus pinned axes."""

    grid: GridSpec
    axes: Mapping[str, Any]

    @property
    def kind(self) -> str:
        return self.grid.kind

    @property
    def cell_id(self) -> str:
        """Stable, filesystem-safe identifier of this cell."""
        parts = [self.grid.name]
        for axis in KIND_AXES[self.grid.kind]:
            value = self.axes[axis]
            if isinstance(value, bool):
                value = "on" if value else "off"
            parts.append(f"{axis}={value}")
        return "/".join(parts)

    @property
    def file_stem(self) -> str:
        """The cell id flattened for use as a file name."""
        return self.cell_id.replace("/", "__").replace("=", "-")


# ----------------------------------------------------------------------
# Workload scale
# ----------------------------------------------------------------------

def validate_scale(scale: float, source: str = "workload scale") -> float:
    """``scale`` itself if it is a finite factor > 0, else an error."""
    if not math.isfinite(scale) or scale <= 0:
        raise MatrixConfigError(
            f"{source} must be a finite number > 0, got {scale!r}"
        )
    return scale


def bench_scale(default: float = 0.05) -> float:
    """Global workload scale factor, from ``REPRO_BENCH_SCALE``.

    The paper runs |O| up to 400K objects in C++; the default of 0.05
    (the pytest wrappers') keeps the pure-Python suite to minutes while
    preserving every qualitative relationship; the matrix CLI defaults
    to 1.0, the paper's exact cardinalities.
    """
    raw = os.environ.get("REPRO_BENCH_SCALE")
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise MatrixConfigError(
            f"REPRO_BENCH_SCALE must be a number, got {raw!r}"
        ) from None
    return validate_scale(value, "REPRO_BENCH_SCALE")


# ----------------------------------------------------------------------
# Axis domains
# ----------------------------------------------------------------------

def _axis_defaults(workload: GridWorkload) -> Dict[str, Any]:
    return {
        "algorithm": "SB",
        "backend": "memory",
        "shards": 1,
        "executor": "serial",
        "dims": workload.dims,
        "objects": workload.num_objects,
        "cache": True,
        "batch": 1,
        "churn": 0.05,
        "scenario": "flash-crowd",
    }


def _validate_axis_value(axis: str, value: Any, grid: str) -> Any:
    """Type- and domain-check one axis value; returns it normalized."""
    def fail(expected: str) -> MatrixConfigError:
        return MatrixConfigError(
            f"grid {grid!r}: axis {axis!r} {expected}, got {value!r}"
        )

    if axis == "algorithm":
        if value not in BENCH_CONFIGS:
            raise fail(f"must be a bench panel name "
                       f"({', '.join(sorted(BENCH_CONFIGS))})")
    elif axis == "backend":
        from ...engine import available_backends

        if value not in available_backends():
            raise fail(f"must be a registered backend "
                       f"({', '.join(sorted(available_backends()))})")
    elif axis in ("shards", "batch", "objects"):
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 1:
            raise fail("must be a positive integer")
    elif axis == "executor":
        if value not in MATRIX_EXECUTORS:
            raise fail(f"must be one of {MATRIX_EXECUTORS} (the matrix "
                       f"runner does not manage remote workers)")
    elif axis == "dims":
        if not isinstance(value, int) or isinstance(value, bool) \
                or not 2 <= value <= 10:
            raise fail("must be an integer in [2, 10]")
    elif axis == "cache":
        if not isinstance(value, bool):
            raise fail("must be a boolean")
    elif axis == "churn":
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not 0 < value <= 1:
            raise fail("must be a fraction in (0, 1]")
        value = float(value)
    elif axis == "scenario":
        from ...replay import available_scenarios

        if value not in available_scenarios():
            raise fail(f"must be a shipped scenario "
                       f"({', '.join(sorted(available_scenarios()))})")
    return value


def _normalize_grid(grid: GridSpec) -> GridSpec:
    """Fill defaulted axes, validate values and repair support."""
    if grid.kind not in KIND_AXES:
        raise MatrixConfigError(
            f"grid {grid.name!r}: kind must be one of "
            f"{tuple(KIND_AXES)}, got {grid.kind!r}"
        )
    known = KIND_AXES[grid.kind]
    unknown = sorted(set(grid.axes) - set(known))
    if unknown:
        raise MatrixConfigError(
            f"grid {grid.name!r}: axis {unknown[0]!r} does not apply to "
            f"kind {grid.kind!r} (its axes are {', '.join(known)})"
        )
    defaults = _axis_defaults(grid.workload)
    axes: Dict[str, Tuple[Any, ...]] = {}
    for axis in known:
        raw = grid.axes.get(axis)
        values = (defaults[axis],) if raw is None else tuple(raw)
        if not values:
            raise MatrixConfigError(
                f"grid {grid.name!r}: axis {axis!r} needs at least one "
                f"value"
            )
        if len(set(map(repr, values))) != len(values):
            raise MatrixConfigError(
                f"grid {grid.name!r}: axis {axis!r} repeats a value"
            )
        axes[axis] = tuple(
            _validate_axis_value(axis, value, grid.name)
            for value in values
        )
    if grid.workload.generator == "zillow":
        bad_dims = [
            value for value in axes.get("dims", ())
            if value != 5
        ]
        if bad_dims or ("dims" not in axes
                        and grid.workload.dims != 5):
            raise MatrixConfigError(
                f"grid {grid.name!r}: the zillow generator is fixed at "
                f"5 attributes; set dims to 5"
            )
    if grid.kind == "net" and grid.workload.generator != "independent":
        raise MatrixConfigError(
            f"grid {grid.name!r}: net grids need the independent "
            f"generator (the server subprocess regenerates its catalog "
            f"with it)"
        )
    needs_repair = grid.kind == "dynamic" or (
        "shards" in axes and max(axes["shards"]) > 1
    )
    if needs_repair:
        from ...engine import algorithm_supports_repair

        for panel in axes["algorithm"]:
            if not algorithm_supports_repair(BENCH_CONFIGS[panel].algorithm):
                raise MatrixConfigError(
                    f"grid {grid.name!r}: algorithm {panel!r} does not "
                    f"support repair, required for "
                    f"{'dynamic sessions' if grid.kind == 'dynamic' else 'sharded execution'}"
                )
    return GridSpec(name=grid.name, kind=grid.kind,
                    workload=grid.workload, axes=axes)


def expand_cells(config: MatrixConfig) -> List[CellSpec]:
    """Expand every grid into its cells; reject duplicate cell ids."""
    cells: List[CellSpec] = []
    seen: Dict[str, str] = {}
    for grid in config.grids:
        combos: List[Dict[str, Any]] = [{}]
        for axis in KIND_AXES[grid.kind]:
            combos = [
                {**combo, axis: value}
                for combo in combos
                for value in grid.axes[axis]
            ]
        for combo in combos:
            cell = CellSpec(grid=grid, axes=combo)
            if cell.cell_id in seen:
                raise MatrixConfigError(
                    f"duplicate cell {cell.cell_id!r} (grids "
                    f"{seen[cell.cell_id]!r} and {grid.name!r})"
                )
            seen[cell.cell_id] = grid.name
            cells.append(cell)
    return cells


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

def _expect_mapping(value: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise MatrixConfigError(f"{what} must be a mapping, got "
                                f"{type(value).__name__}")
    return value


def _only_keys(payload: Mapping[str, Any], allowed: Sequence[str],
               what: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise MatrixConfigError(
            f"{what}: unknown key {unknown[0]!r} (allowed: "
            f"{', '.join(allowed)})"
        )


def _gate_from_dict(payload: Mapping[str, Any]) -> GateSpec:
    payload = _expect_mapping(payload, "gate")
    _only_keys(payload, ("name", "kind", "metric", "where", "numerator",
                         "denominator", "along", "max_ratio",
                         "min_growth", "value", "strict"), "gate")
    for key in ("name", "kind", "metric"):
        if not isinstance(payload.get(key), str):
            raise MatrixConfigError(f"gate needs a string {key!r}")
    name = payload["name"]
    kind = payload["kind"]
    if kind not in GATE_KINDS:
        raise MatrixConfigError(
            f"gate {name!r}: kind must be one of {GATE_KINDS}, "
            f"got {kind!r}"
        )
    if kind in ("ratio", "sum_ratio", "span_ratio"):
        for side in ("numerator", "denominator"):
            if not payload.get(side):
                raise MatrixConfigError(
                    f"gate {name!r}: {kind} gates need a {side} selector"
                )
        if not isinstance(payload.get("max_ratio"), (int, float)):
            raise MatrixConfigError(
                f"gate {name!r}: {kind} gates need a numeric max_ratio"
            )
    if kind in ("span_ratio", "growth") and \
            not isinstance(payload.get("along"), str):
        raise MatrixConfigError(
            f"gate {name!r}: {kind} gates need an 'along' axis"
        )
    if kind in ("min", "max") and \
            not isinstance(payload.get("value"), (int, float)):
        raise MatrixConfigError(
            f"gate {name!r}: {kind} gates need a numeric value"
        )
    return GateSpec(
        name=name, kind=kind, metric=payload["metric"],
        where=dict(_expect_mapping(payload.get("where", {}),
                                   f"gate {name!r} where")),
        numerator=dict(_expect_mapping(payload.get("numerator", {}),
                                       f"gate {name!r} numerator")),
        denominator=dict(_expect_mapping(payload.get("denominator", {}),
                                         f"gate {name!r} denominator")),
        along=payload.get("along"),
        max_ratio=(None if payload.get("max_ratio") is None
                   else float(payload["max_ratio"])),
        min_growth=float(payload.get("min_growth", 1.0)),
        value=(None if payload.get("value") is None
               else float(payload["value"])),
        strict=bool(payload.get("strict", False)),
    )


def _grid_from_dict(payload: Mapping[str, Any]) -> GridSpec:
    payload = _expect_mapping(payload, "grid")
    _only_keys(payload, ("name", "kind", "workload", "axes"), "grid")
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise MatrixConfigError("every grid needs a non-empty 'name'")
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise MatrixConfigError(f"grid {name!r} needs a string 'kind'")
    workload_raw = _expect_mapping(payload.get("workload", {}),
                                   f"grid {name!r} workload")
    try:
        workload = GridWorkload(**dict(workload_raw))
    except TypeError as error:
        raise MatrixConfigError(
            f"grid {name!r} workload: {error}"
        ) from None
    axes_raw = _expect_mapping(payload.get("axes", {}),
                               f"grid {name!r} axes")
    axes = {}
    for axis, values in axes_raw.items():
        if not isinstance(values, Sequence) or isinstance(values, str):
            raise MatrixConfigError(
                f"grid {name!r}: axis {axis!r} must list its values"
            )
        axes[axis] = tuple(values)
    return _normalize_grid(
        GridSpec(name=name, kind=kind, workload=workload, axes=axes)
    )


def config_from_dict(payload: Mapping[str, Any]) -> MatrixConfig:
    """Build (and fully validate) a :class:`MatrixConfig` from a dict."""
    payload = _expect_mapping(payload, "matrix config")
    _only_keys(payload, ("name", "description", "reference", "grids",
                         "gates", "checks"), "matrix config")
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise MatrixConfigError("matrix config needs a non-empty 'name'")
    grids_raw = payload.get("grids")
    if not isinstance(grids_raw, Sequence) or not grids_raw:
        raise MatrixConfigError(
            f"config {name!r} needs at least one grid"
        )
    reference = payload.get("reference", "sb")
    from ...engine import algorithm_supports_repair, available_algorithms

    if reference not in available_algorithms():
        raise MatrixConfigError(
            f"config {name!r}: reference must be a registered algorithm "
            f"({', '.join(sorted(available_algorithms()))}), "
            f"got {reference!r}"
        )
    grids = tuple(_grid_from_dict(grid) for grid in grids_raw)
    if len({grid.name for grid in grids}) != len(grids):
        raise MatrixConfigError(f"config {name!r}: grid names repeat")
    gates_raw = payload.get("gates", ())
    if not isinstance(gates_raw, Sequence):
        raise MatrixConfigError(f"config {name!r}: gates must be a list")
    gates = tuple(_gate_from_dict(gate) for gate in gates_raw)
    if len({gate.name for gate in gates}) != len(gates):
        raise MatrixConfigError(f"config {name!r}: gate names repeat")
    checks_raw = _expect_mapping(payload.get("checks", {}),
                                 f"config {name!r} checks")
    checks = {}
    for metric, spec in checks_raw.items():
        spec = _expect_mapping(spec, f"check for {metric!r}")
        _only_keys(spec, ("policy", "max_regression"),
                   f"check for {metric!r}")
        checks[metric] = CheckPolicy(
            policy=str(spec.get("policy", "info")),
            max_regression=float(spec.get("max_regression", 1.0)),
        )
    config = MatrixConfig(
        name=name,
        description=str(payload.get("description", "")),
        reference=str(reference),
        grids=grids,
        gates=gates,
        checks=checks,
    )
    expand_cells(config)  # surfaces duplicate-cell errors at parse time
    _validate_gate_axes(config)
    return config


def _validate_gate_axes(config: MatrixConfig) -> None:
    """Gate selectors may only name real axes (or the grid pseudo-axis)."""
    axis_names = {"grid"}
    for grid in config.grids:
        axis_names.update(KIND_AXES[grid.kind])
    for gate in config.gates:
        for selector in (gate.where, gate.numerator, gate.denominator):
            for key in selector:
                if key not in axis_names:
                    raise MatrixConfigError(
                        f"gate {gate.name!r}: selector names unknown "
                        f"axis {key!r}"
                    )
        if gate.along is not None and gate.along not in axis_names:
            raise MatrixConfigError(
                f"gate {gate.name!r}: 'along' names unknown axis "
                f"{gate.along!r}"
            )


# ----------------------------------------------------------------------
# Serialization + digest
# ----------------------------------------------------------------------

def config_to_dict(config: MatrixConfig) -> Dict[str, Any]:
    """The canonical dict form (it re-parses to an equal config)."""
    return {
        "name": config.name,
        "description": config.description,
        "reference": config.reference,
        "grids": [
            {
                "name": grid.name,
                "kind": grid.kind,
                "workload": {
                    name: getattr(grid.workload, name)
                    for name in sorted(GridWorkload.__dataclass_fields__)
                },
                "axes": {
                    axis: list(grid.axes[axis])
                    for axis in KIND_AXES[grid.kind]
                },
            }
            for grid in config.grids
        ],
        "gates": [
            {
                "name": gate.name,
                "kind": gate.kind,
                "metric": gate.metric,
                "where": dict(gate.where),
                "numerator": dict(gate.numerator),
                "denominator": dict(gate.denominator),
                "along": gate.along,
                "max_ratio": gate.max_ratio,
                "min_growth": gate.min_growth,
                "value": gate.value,
                "strict": gate.strict,
            }
            for gate in config.gates
        ],
        "checks": {
            metric: {"policy": policy.policy,
                     "max_regression": policy.max_regression}
            for metric, policy in sorted(config.checks.items())
        },
    }


def config_digest(config: MatrixConfig) -> str:
    """SHA-256 of the canonical JSON form — the config's identity."""
    canonical = json.dumps(config_to_dict(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_config(path: PathLike) -> MatrixConfig:
    """Load a config from a JSON (or, on 3.11+, TOML) file."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python < 3.11
            raise MatrixConfigError(
                f"{path}: TOML configs need Python >= 3.11 (tomllib); "
                f"use JSON"
            ) from None
        payload = tomllib.loads(text)
    else:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise MatrixConfigError(f"{path}: not valid JSON: {error}")
    return config_from_dict(payload)


#: Directory of the named configs shipped in-package.
CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def available_configs() -> Tuple[str, ...]:
    """Names of the configs shipped under ``matrix/configs/``."""
    return tuple(sorted(
        path.stem for path in CONFIG_DIR.glob("*.json")
    ))


def load_named_config(name: str) -> MatrixConfig:
    """Load one shipped config by name (see :func:`available_configs`)."""
    path = CONFIG_DIR / f"{name}.json"
    if not path.is_file():
        raise MatrixConfigError(
            f"unknown matrix config {name!r}; shipped configs: "
            f"{', '.join(available_configs())}"
        )
    config = load_config(path)
    if config.name != name:
        raise MatrixConfigError(
            f"{path}: config names itself {config.name!r}, expected "
            f"{name!r}"
        )
    return config
