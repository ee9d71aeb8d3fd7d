"""The sharded matcher: partition, fan out, merge, repair, emit.

:class:`ShardedMatcher` is a drop-in :class:`~repro.core.base.Matcher`
that wraps any canonical linear-preference algorithm (one whose matcher
sets ``supports_repair``: sb, bf, chain, gs) and executes it as ``K``
concurrent shard matchings followed by an exact cross-shard repair pass.
It is registered as the ``"sharded-sb"`` algorithm and is also what
:class:`~repro.engine.plan.PreparedMatching` runs whenever
``MatchingConfig.shards > 1``.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional

from ..core.base import Matcher
from ..core.problem import MatchingProblem
from ..core.result import MatchPair
from ..engine.config import MatchingConfig
from ..engine.registry import (
    algorithm_aliases,
    algorithm_supports_repair,
    create_matcher,
    register_matcher,
)
from ..errors import MatchingError
from ..prefs import LinearPreference
from ..storage.stats import SearchStats
from .executors import run_shard_tasks
from .merge import cross_shard_repair, merge_shard_pairs
from .partition import hilbert_shards
from .shard import ShardOutcome, ShardTask

#: Shard count used when the sharded algorithm is selected by name but
#: the config still carries the single-process default ``shards=1``.
DEFAULT_SHARDS = 4


def is_sharded_algorithm(name: str) -> bool:
    """Whether ``name`` resolves to an already-sharded algorithm."""
    normalized = name.strip().lower()
    canonical = algorithm_aliases().get(normalized, normalized)
    return canonical.startswith("sharded")


class ShardedMatcher(Matcher):
    """Concurrent shard matchings merged into the exact global matching.

    Parameters
    ----------
    problem:
        The *full* staged problem (all objects). Shard workers stage
        their own sub-problems; the parent problem backs the cross-shard
        repair pass and is never mutated.
    config:
        The run configuration; ``shards``, ``executor`` and
        ``max_workers`` drive the fan-out, everything else is inherited
        by the shard workers.
    base_algorithm:
        The algorithm each shard runs (default ``config.algorithm``
        when that is not itself sharded, else ``"sb"``). Must support
        repair (:func:`~repro.engine.registry.algorithm_supports_repair`)
        — that flag marks exactly the matchers producing the canonical
        greedy matching over linear preferences.
    """

    supports_repair = False

    def __init__(self, problem: MatchingProblem, config: MatchingConfig,
                 base_algorithm: Optional[str] = None,
                 shards: Optional[int] = None,
                 executor: Optional[str] = None,
                 search_stats: Optional[SearchStats] = None,
                 pool=None, staging_token: Optional[int] = None,
                 parts=None) -> None:
        super().__init__(problem, search_stats=search_stats)
        if base_algorithm is None:
            base_algorithm = config.algorithm
            if is_sharded_algorithm(base_algorithm):
                base_algorithm = "sb"
        normalized = base_algorithm.strip().lower()
        canonical = algorithm_aliases().get(normalized)
        if canonical is None:
            raise MatchingError(
                f"unknown base algorithm {base_algorithm!r} for sharded "
                f"matching"
            )
        if canonical.startswith("sharded"):
            raise MatchingError(
                f"base algorithm {canonical!r} is itself sharded"
            )
        if not algorithm_supports_repair(canonical):
            raise MatchingError(
                f"algorithm {canonical!r} cannot run sharded: the "
                f"cross-shard merge repairs with displacement chains, "
                f"which requires a canonical linear-preference matcher "
                f"(one whose matcher sets supports_repair)"
            )
        for function in problem.functions:
            if not isinstance(function, LinearPreference):
                raise MatchingError(
                    "sharded matching requires linear preference "
                    f"functions; got {type(function).__name__}"
                )
        self.base_algorithm = canonical
        self.name = f"sharded-{canonical}"
        if shards is None:
            shards = config.shards if config.shards > 1 else DEFAULT_SHARDS
        if shards < 1:
            raise MatchingError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.executor = executor if executor is not None else config.executor
        self.config = config
        #: Optional persistent :class:`~repro.parallel.ShardWorkerPool`
        #: (plan-scoped); ``None`` spins an executor up per run.
        self.pool = pool
        #: Staging epoch for the worker-side shard-problem cache; tasks
        #: carry ``(token, shard index)`` keys so workers reuse their
        #: bulk-loaded trees across runs of the same prepared matching.
        self.staging_token = staging_token
        #: Precomputed :func:`~repro.parallel.partition.hilbert_shards`
        #: arrays (a serving-path warm asset); ``None`` partitions on
        #: the fly.
        self._parts = parts
        # Aggregated counters, populated when pairs() is consumed.
        self.rounds = 0
        self.top1_searches = 0
        self.reverse_top1_queries = 0
        self.shards_used = 0
        self.merge_displaced = 0
        self.repair_chains = 0
        self.repair_steals = 0
        self.shard_stagings = 0
        self.shard_outcomes: List[ShardOutcome] = []
        self.shard_seconds: List[float] = []
        self.merge_seconds = 0.0

    # ------------------------------------------------------------------
    # Configuration plumbing
    # ------------------------------------------------------------------
    def _worker_config(self) -> MatchingConfig:
        """The config each shard worker runs under.

        Capacity expansion already happened at staging (the parent
        problem holds virtual objects), so workers must not re-expand;
        and a worker is always a single-process run.
        """
        return self.config.replace(
            algorithm=self.base_algorithm, shards=1, capacities=None,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def pairs(self) -> Iterator[MatchPair]:
        """Yield the canonical global stable pairs (computed eagerly)."""
        problem = self.problem
        functions = tuple(problem.functions)
        worker_config = self._worker_config()

        if len(problem.objects) <= 1 or not functions or self.shards <= 1:
            # Degenerate fan-out: run the base algorithm directly on the
            # parent problem, byte-for-byte the single-process path.
            matcher = create_matcher(
                self.base_algorithm, problem, worker_config,
                search_stats=self.search_stats,
            )
            yield from matcher.pairs()
            self.rounds = getattr(matcher, "rounds", 0)
            self.top1_searches = getattr(matcher, "top1_searches", 0)
            self.reverse_top1_queries = getattr(
                matcher, "reverse_top1_queries", 0
            )
            self.shards_used = 1
            return

        parts = (
            self._parts if self._parts is not None
            else hilbert_shards(problem.objects, self.shards)
        )
        tasks = [
            ShardTask(
                index=index, ids=ids, points=points, functions=functions,
                config=worker_config,
                staging_key=(
                    (self.staging_token, index)
                    if self.staging_token is not None else None
                ),
            )
            for index, (ids, points) in enumerate(parts) if len(ids)
        ]
        if self.pool is not None:
            outcomes = self.pool.run(tasks)
        else:
            outcomes = run_shard_tasks(
                tasks, executor=self.executor,
                max_workers=self.config.max_workers,
                remote_workers=self.config.remote_workers,
            )

        merge_start = time.perf_counter()
        merged, displaced = merge_shard_pairs(
            outcome.pairs for outcome in outcomes
        )
        repair = cross_shard_repair(
            problem, worker_config, merged, displaced,
            search_stats=self.search_stats,
        )
        final = repair.pairs()
        self.merge_seconds = time.perf_counter() - merge_start

        self.shard_outcomes = outcomes
        self.shard_seconds = [outcome.seconds for outcome in outcomes]
        self.shards_used = len(outcomes)
        self.shard_stagings = sum(
            1 for outcome in outcomes if outcome.staged
        )
        self.merge_displaced = len(displaced)
        self.repair_chains = repair.stats.chains
        self.repair_steals = repair.stats.steals
        self.rounds = max(
            (outcome.rounds for outcome in outcomes), default=0
        )
        self.top1_searches = sum(o.top1_searches for o in outcomes)
        self.reverse_top1_queries = sum(
            o.reverse_top1_queries for o in outcomes
        )
        self._aggregate_costs(outcomes)
        yield from final

    def _aggregate_costs(self, outcomes: List[ShardOutcome]) -> None:
        """Fold shard-side costs into the parent's counters.

        Shard I/O happened on worker-private simulated disks; adding the
        snapshots into the parent problem's live counters makes the
        end-of-run snapshot the true cross-shard total. The
        same for CPU-side :class:`SearchStats` when the caller passed
        one (the repair pass already wrote into it directly).
        """
        io = self.problem.io_stats
        for outcome in outcomes:
            if outcome.io is not None:
                io.page_reads += outcome.io.page_reads
                io.page_writes += outcome.io.page_writes
                io.buffer_hits += outcome.io.buffer_hits
                io.buffer_evictions += outcome.io.buffer_evictions
                io.pages_allocated += outcome.io.pages_allocated
                io.pages_freed += outcome.io.pages_freed
            if self.search_stats is not None:
                stats = self.search_stats
                stats.dominance_checks += outcome.search.dominance_checks
                stats.score_evaluations += outcome.search.score_evaluations
                stats.heap_pushes += outcome.search.heap_pushes
                stats.heap_pops += outcome.search.heap_pops
                stats.comparisons += outcome.search.comparisons


@register_matcher("sharded-sb", aliases=("ssb", "parallel-sb"))
def _sharded_sb_factory(problem: MatchingProblem, config: MatchingConfig,
                        search_stats: Optional[SearchStats] = None,
                        **overrides) -> ShardedMatcher:
    """Factory for the registered ``"sharded-sb"`` algorithm.

    Runs the paper's SB per shard. With the config's single-process
    default ``shards=1`` it still fans out to :data:`DEFAULT_SHARDS`
    (selecting the algorithm by name *is* opting into sharding).
    """
    return ShardedMatcher(
        problem, config, base_algorithm="sb",
        search_stats=search_stats, **overrides,
    )
