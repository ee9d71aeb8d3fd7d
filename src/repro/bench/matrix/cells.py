# lint: replay-root
"""Executing one matrix cell and asserting its pair-identity.

Each grid kind maps to one runner here, and each runner is the whole
measurement protocol of its kind: the cold-buffer matcher run of the
paper's figures, cold vs warm serving, looped vs batched requests,
repair vs recompute under churn, a verified scenario replay, and
in-process vs socket serving.

Every cell's matching is compared against the *canonical* matcher (the
config's ``reference`` algorithm on the in-memory backend, cached per
workload by :class:`MatrixContext`); ``identity_ok`` lands in the cell's
metrics as 0/1 so the identity bar is part of the recorded trajectory,
not just a transient assertion.

No wall clock is read here except ``time.perf_counter`` interval
timing — the artifacts must stay byte-stable for a fixed machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Sequence, Tuple

from ...data import (
    Dataset,
    generate_anticorrelated,
    generate_correlated,
    generate_independent,
    generate_zillow,
)
from ...dynamic import (
    MIXED_CHURN,
    RecomputeSession,
    events_for_ratio,
    generate_events,
)
from ...engine import (
    MatchingConfig,
    MatchingPlan,
    MatchingService,
    MatchResult,
    create_matcher,
    get_backend,
    match,
)
from ...errors import MatchingError
from ...prefs import LinearPreference, generate_preferences
from ...replay import ReplayDriver, scenario_trace
from ..net import run_net_point
from .config import BENCH_CONFIGS, CellSpec, GridSpec, validate_scale

PairSet = FrozenSet[Tuple[int, int]]


def _generate_dataset(generator: str, n: int, dims: int,
                      seed: int) -> Dataset:
    if generator == "independent":
        return generate_independent(n, dims, seed=seed)
    if generator == "anticorrelated":
        return generate_anticorrelated(n, dims, seed=seed)
    if generator == "correlated":
        return generate_correlated(n, dims, seed=seed)
    if generator == "zillow":
        return generate_zillow(n, seed=seed)
    raise MatchingError(f"unknown workload generator {generator!r}")


def scaled_size(target: int, scale: float, floor: int) -> int:
    """An axis/workload size at the runner's global scale factor."""
    return max(floor, int(target * scale))


@dataclass
class CellResult:
    """One executed cell: its spec, flat metrics, and identity verdict."""

    spec: CellSpec
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def identity_ok(self) -> bool:
        return bool(self.metrics.get("identity_ok", 0.0))


class MatrixContext:
    """Shared state of one matrix run: workloads and canonical answers.

    Datasets and preference workloads are cached per (generator, size,
    dims, seed) so every cell of a grid sees the identical inputs, and
    the canonical reference matching is computed once per workload and
    reused by every cell that must equal it.
    """

    def __init__(self, reference: str = "sb", scale: float = 1.0) -> None:
        self.reference = reference
        self.scale = validate_scale(scale)
        self._datasets: Dict[Tuple[str, int, int, int], Dataset] = {}
        self._functions: Dict[Tuple[int, int, int],
                              List[LinearPreference]] = {}
        self._references: Dict[Tuple[int, int], PairSet] = {}

    # -- workloads ---------------------------------------------------
    def dataset(self, generator: str, n: int, dims: int,
                seed: int) -> Dataset:
        key = (generator, n, dims, seed)
        if key not in self._datasets:
            self._datasets[key] = _generate_dataset(generator, n, dims,
                                                    seed)
        return self._datasets[key]

    def functions(self, n: int, dims: int,
                  seed: int) -> List[LinearPreference]:
        key = (n, dims, seed)
        if key not in self._functions:
            self._functions[key] = list(
                generate_preferences(n, dims, seed=seed)
            )
        return self._functions[key]

    def grid_objects(self, grid: GridSpec, n_unscaled: int,
                     dims: int) -> Dataset:
        workload = grid.workload
        n = scaled_size(n_unscaled, self.scale, workload.min_objects)
        return self.dataset(workload.generator, n, dims, workload.seed)

    def grid_functions(self, grid: GridSpec, dims: int,
                       offset: int = 1) -> List[LinearPreference]:
        workload = grid.workload
        n = scaled_size(workload.num_functions, self.scale,
                        workload.min_functions)
        return self.functions(n, dims, workload.seed + offset)

    # -- canonical answers -------------------------------------------
    def reference_pairs(self, objects: Dataset,
                        functions: Sequence[LinearPreference]) -> PairSet:
        """The canonical matching of one workload, as a pair set."""
        key = (id(objects), id(functions))
        if key not in self._references:
            result = match(objects, list(functions),
                           algorithm=self.reference, backend="memory")
            self._references[key] = frozenset(result.as_set())
        return self._references[key]


# ----------------------------------------------------------------------
# Per-kind runners
# ----------------------------------------------------------------------

def _timed_match(config: MatchingConfig, objects: Dataset,
                 functions: Sequence[LinearPreference],
                 ) -> Tuple[Dict[str, float], PairSet]:
    """One timed matching: its metrics and its pair set."""
    if config.shards > 1:
        # Sharded execution only exists on the plan path; measure the
        # end-to-end prepare + run wall and its merged I/O, then release
        # the worker pool outside the timed span.
        plan = MatchingPlan(config)
        start = time.perf_counter()
        with plan.prepare(objects) as prepared:
            result = prepared.run(functions)
            elapsed = time.perf_counter() - start
        return {
            "cpu_seconds": elapsed,
            "io_accesses": float(result.io_accesses),
            "pairs": float(len(result)),
            "shards_used": float(
                result.stats.get("shards_used", config.shards)
            ),
        }, frozenset(result.as_set())
    problem = get_backend(config.backend).build_problem(
        objects, functions, config
    )
    matcher = create_matcher(config.algorithm, problem, config)
    # The paper's protocol: counters reset and buffer emptied after
    # staging, so the numbers cover one matching, not index building.
    problem.reset_io()
    start = time.perf_counter()
    matching = matcher.run()
    elapsed = time.perf_counter() - start
    stats = problem.io_stats
    return {
        "io_accesses": float(stats.io_accesses),
        "page_reads": float(stats.page_reads),
        "page_writes": float(stats.page_writes),
        "buffer_hits": float(stats.buffer_hits),
        "cpu_seconds": elapsed,
        "pairs": float(len(matching)),
        "rounds": float(matching.num_rounds),
        "top1_searches": float(getattr(matcher, "top1_searches", 0)),
        "reverse_top1_queries": float(
            getattr(matcher, "reverse_top1_queries", 0)
        ),
    }, frozenset(matching.as_set())


def _run_match_cell(spec: CellSpec, ctx: MatrixContext) -> CellResult:
    axes = spec.axes
    dims = int(axes["dims"])
    objects = ctx.grid_objects(spec.grid, int(axes["objects"]), dims)
    functions = ctx.grid_functions(spec.grid, dims)
    config = BENCH_CONFIGS[str(axes["algorithm"])].replace(
        backend=str(axes["backend"]),
        shards=int(axes["shards"]),
        executor=str(axes["executor"]),
    )
    reference = ctx.reference_pairs(objects, functions)
    # Best of ``repeats`` runs, each on a fresh problem (Brute Force and
    # Chain consume the tree they match on).
    metrics, pair_set = min(
        (_timed_match(config, objects, functions)
         for _ in range(max(1, spec.grid.workload.repeats))),
        key=lambda run: run[0]["cpu_seconds"],
    )
    metrics["n_objects"] = float(len(objects))
    metrics["n_functions"] = float(len(functions))
    metrics["identity_ok"] = float(pair_set == reference)
    return CellResult(spec=spec, metrics=metrics)


def _serving_config(spec: CellSpec) -> MatchingConfig:
    """The cell's panel as served: tree-preserving, on the cell backend.

    A delete-mode matcher would consume the warm tree and re-pay
    staging on every run.
    """
    return BENCH_CONFIGS[str(spec.axes["algorithm"])].replace(
        backend=str(spec.axes["backend"]), deletion_mode="filter",
    )


def _run_serving_cell(spec: CellSpec, ctx: MatrixContext) -> CellResult:
    workload = spec.grid.workload
    dims = workload.dims
    objects = ctx.grid_objects(spec.grid, workload.num_objects, dims)
    workloads = [
        ctx.grid_functions(spec.grid, dims, offset=1 + query)
        for query in range(workload.num_queries)
    ]
    config = _serving_config(spec)
    if not bool(spec.axes["cache"]):
        config = config.replace(cache_size=0)

    # Cold: a fresh prepare per request pays staging every time; the
    # fastest request is kept.
    cold_seconds = float("inf")
    cold_results: List[MatchResult] = []
    for functions in workloads:
        plan = MatchingPlan(config)
        start = time.perf_counter()
        with plan.prepare(objects) as prepared:
            cold_results.append(prepared.run(functions))
            cold_seconds = min(cold_seconds, time.perf_counter() - start)

    # Warm: one prepared object set; each workload once as a miss,
    # then again as a (cache) hit.
    prepared = MatchingPlan(config).prepare(objects)
    try:
        warm_results: List[MatchResult] = []
        miss_seconds = 0.0
        for functions in workloads:
            start = time.perf_counter()
            warm_results.append(prepared.run(functions))
            miss_seconds += time.perf_counter() - start
        hit_seconds = 0.0
        for functions in workloads:
            start = time.perf_counter()
            prepared.run(functions)
            hit_seconds += time.perf_counter() - start
    finally:
        prepared.close()

    identity = all(
        cold.as_set() == warm.as_set()
        and frozenset(warm.as_set()) == ctx.reference_pairs(objects,
                                                            functions)
        for cold, warm, functions in zip(cold_results, warm_results,
                                         workloads)
    )
    warm_miss_seconds = miss_seconds / len(workloads)
    warm_hit_seconds = hit_seconds / len(workloads)
    metrics = {
        "cold_seconds": cold_seconds,
        "warm_miss_seconds": warm_miss_seconds,
        "warm_hit_seconds": warm_hit_seconds,
        "miss_speedup": cold_seconds / max(1e-9, warm_miss_seconds),
        "hit_speedup": cold_seconds / max(1e-9, warm_hit_seconds),
        "n_objects": float(len(objects)),
        "n_functions": float(len(workloads[0])),
        "n_queries": float(len(workloads)),
        "identity_ok": float(identity),
    }
    return CellResult(spec=spec, metrics=metrics)


def grid_requests(grid: GridSpec) -> int:
    """Distinct requests a throughput or net grid serves (all cells)."""
    explicit = grid.workload.num_requests
    if explicit:
        return explicit
    return 2 * max(int(value) for value in grid.axes["batch"])


def _request_workloads(spec: CellSpec, ctx: MatrixContext,
                       count: int) -> List[List[LinearPreference]]:
    """The first ``count`` distinct per-request preference workloads."""
    workload = spec.grid.workload
    return [
        ctx.functions(workload.functions_per_request, workload.dims,
                      workload.seed + 1 + request)
        for request in range(count)
    ]


def _run_throughput_cell(spec: CellSpec,
                         ctx: MatrixContext) -> CellResult:
    workload = spec.grid.workload
    objects = ctx.grid_objects(spec.grid, workload.num_objects,
                               workload.dims)
    workloads = _request_workloads(spec, ctx, grid_requests(spec.grid))
    batch = int(spec.axes["batch"])
    config = _serving_config(spec)

    # Each mode gets a fresh service, so neither inherits the other's
    # cache warmth: every request is a miss.
    with MatchingService(objects, config) as service:
        start = time.perf_counter()
        looped = [service.submit(functions) for functions in workloads]
        looped_seconds = time.perf_counter() - start
    with MatchingService(objects, config) as service:
        start = time.perf_counter()
        batched: List[MatchResult] = []
        for offset in range(0, len(workloads), batch):
            batched.extend(
                service.submit_many(workloads[offset:offset + batch])
            )
        batched_seconds = time.perf_counter() - start
        vectorized = int(service.snapshot().vectorized_requests)

    identity = all(
        one.as_set() == other.as_set()
        for one, other in zip(looped, batched)
    ) and all(
        frozenset(result.as_set()) == ctx.reference_pairs(objects,
                                                          functions)
        for result, functions in zip(looped[:workload.identity_sample],
                                     workloads)
    )
    looped_rps = len(workloads) / max(1e-9, looped_seconds)
    batched_rps = len(workloads) / max(1e-9, batched_seconds)
    metrics = {
        "looped_rps": looped_rps,
        "batched_rps": batched_rps,
        "speedup": batched_rps / max(1e-9, looped_rps),
        "vectorized_requests": float(vectorized),
        "vectorized_fraction": vectorized / max(1, len(workloads)),
        "n_requests": float(len(workloads)),
        "n_objects": float(len(objects)),
        "n_functions": float(len(workloads[0])),
        "identity_ok": float(identity),
    }
    return CellResult(spec=spec, metrics=metrics)


def _run_dynamic_cell(spec: CellSpec, ctx: MatrixContext) -> CellResult:
    workload = spec.grid.workload
    dims = workload.dims
    objects = ctx.grid_objects(spec.grid, workload.num_objects, dims)
    functions = ctx.grid_functions(spec.grid, dims)
    insert_pool = ctx.dataset(
        workload.generator, max(64, len(objects) // 4), dims,
        workload.seed + 2,
    )
    churn = float(spec.axes["churn"])
    n_events = events_for_ratio(objects, churn)
    events = generate_events(
        objects, functions, n_events, mix=MIXED_CHURN,
        seed=workload.seed + 3, insert_pool=insert_pool,
    )
    config = BENCH_CONFIGS[str(spec.axes["algorithm"])].replace(
        backend=str(spec.axes["backend"]),
    )

    # Incremental path, recompute fallback disabled: the repair
    # machinery must absorb every event itself.
    session = MatchingPlan(
        config.replace(repair_threshold=1e9)
    ).open_session(objects, functions)
    io_before = session.io_snapshot().io_accesses
    start = time.perf_counter()
    for event in events:
        session.submit(event)
    session.flush()
    incremental_seconds = time.perf_counter() - start
    incremental_io = session.io_snapshot().io_accesses - io_before
    incremental_pairs = frozenset(session.matching().as_set())
    session.close()

    baseline = RecomputeSession(objects, functions, config)
    io_before = baseline.io_accesses
    start = time.perf_counter()
    for event in events:
        baseline.submit(event)
    baseline.flush()
    recompute_seconds = time.perf_counter() - start
    recompute_io = baseline.io_accesses - io_before
    recompute_pairs = frozenset(baseline.matching().as_set())

    metrics = {
        "n_events": float(len(events)),
        "n_objects": float(len(objects)),
        "n_functions": float(len(functions)),
        "incremental_io": float(incremental_io),
        "recompute_io": float(recompute_io),
        "incremental_seconds": incremental_seconds,
        "recompute_seconds": recompute_seconds,
        "time_speedup": recompute_seconds
        / max(1e-9, incremental_seconds),
        "identity_ok": float(incremental_pairs == recompute_pairs),
    }
    if incremental_io or recompute_io:
        # Undefined (and uninteresting) on the in-memory backend: leave
        # the metric out rather than record a fake infinity.
        metrics["io_speedup"] = recompute_io / max(1, incremental_io)
    return CellResult(spec=spec, metrics=metrics)


def _replay_state(driver: ReplayDriver) -> Tuple[Tuple[Any, ...], Tuple]:
    """What an exact rewind must restore: the pairs and cache keys."""
    pairs = tuple(
        (pair.function_id, pair.object_id, pair.score)
        for pair in driver.matching().pairs
    )
    return pairs, driver.cache_keys()


def _run_replay_cell(spec: CellSpec, ctx: MatrixContext) -> CellResult:
    workload = spec.grid.workload
    trace = scenario_trace(str(spec.axes["scenario"]), seed=workload.seed,
                           scale=workload.trace_scale)
    # Rewind target: the end of the first phase. After the full replay,
    # rewind must restore the state captured when the clock first
    # passed it.
    first_end = next(iter(trace.phase_spans().values()))[1]
    with ReplayDriver(trace, backend=str(spec.axes["backend"]),
                      transport="local", verify=True) as driver:
        start = time.perf_counter()
        driver.advance(first_end)
        midpoint = _replay_state(driver)
        report = driver.run()
        replay_seconds = time.perf_counter() - start

        start = time.perf_counter()
        driver.rewind(first_end)
        rewind_seconds = time.perf_counter() - start
        rewind_verified = _replay_state(driver) == midpoint
    metrics = {
        "requests": float(report.requests),
        "churn_events": float(report.churn_events),
        "freshness_checks": float(report.freshness_checks),
        "freshness_mismatches": float(report.freshness_mismatches),
        "stale_hits": float(report.stale_hits),
        "replay_seconds": replay_seconds,
        "rewind_seconds": rewind_seconds,
        "rewind_verified": float(rewind_verified),
        "identity_ok": float(report.stale_hits == 0
                             and report.freshness_mismatches == 0
                             and rewind_verified),
    }
    return CellResult(spec=spec, metrics=metrics)


def _run_net_cell(spec: CellSpec, ctx: MatrixContext) -> CellResult:
    workload = spec.grid.workload
    objects = ctx.grid_objects(spec.grid, workload.num_objects,
                               workload.dims)
    # run_net_point raises unless every served answer equals the
    # in-process one; a sample of the in-process answers (same
    # generator seeds) is checked against the canonical matcher.
    point = run_net_point(
        len(objects), batch_size=int(spec.axes["batch"]),
        num_requests=grid_requests(spec.grid), dims=workload.dims,
        seed=workload.seed,
        functions_per_request=workload.functions_per_request,
    )
    with MatchingPlan(BENCH_CONFIGS["SB"].replace(
        backend="memory", deletion_mode="filter",
    )).prepare(objects) as prepared:
        identity = all(
            frozenset(prepared.run(functions).as_set())
            == ctx.reference_pairs(objects, functions)
            for functions in _request_workloads(
                spec, ctx, min(workload.identity_sample, point.n_requests)
            )
        )
    metrics = {
        "inproc_rps": point.inproc_rps,
        "net_rps": point.net_rps,
        "ratio": point.ratio,
        "requests_per_batch": point.requests_per_batch,
        "fallback_requests": float(point.fallback_requests),
        "n_requests": float(point.n_requests),
        "n_objects": float(point.n_objects),
        "n_functions": float(point.n_functions),
        "identity_ok": float(identity),
    }
    return CellResult(spec=spec, metrics=metrics)


_RUNNERS: Dict[str, Callable[[CellSpec, MatrixContext], CellResult]] = {
    "match": _run_match_cell,
    "serving": _run_serving_cell,
    "throughput": _run_throughput_cell,
    "dynamic": _run_dynamic_cell,
    "replay": _run_replay_cell,
    "net": _run_net_cell,
}


def run_cell(spec: CellSpec, ctx: MatrixContext) -> CellResult:
    """Execute one cell, returning its metrics (identity included)."""
    return _RUNNERS[spec.kind](spec, ctx)
