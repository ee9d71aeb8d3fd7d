"""The sharded matcher: fan out, merge, repair, emit.

:class:`ShardedMatcher` is a :class:`~repro.core.base.Matcher` that
wraps any canonical linear-preference algorithm (one whose matcher sets
``supports_repair``: sb, bf, chain, gs) and executes it as ``K``
concurrent shard matchings followed by an exact cross-shard repair pass.
It is what :class:`~repro.engine.plan.PreparedMatching` runs whenever
``MatchingConfig.shards > 1``, over the prepared matching's staged
Hilbert partition and persistent worker pool, and its results report
``algorithm="sharded-<base algorithm>"``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..core.base import Matcher
from ..core.problem import MatchingProblem
from ..core.result import MatchPair
from ..engine.config import MatchingConfig
from ..engine.registry import (
    algorithm_aliases,
    algorithm_supports_repair,
    create_matcher,
)
from ..errors import MatchingError
from ..prefs import LinearPreference
from ..storage.stats import SearchStats
from .executors import ShardWorkerPool
from .merge import cross_shard_repair, merge_shard_pairs
from .partition import ShardArrays
from .shard import ShardOutcome, ShardTask


class ShardedMatcher(Matcher):
    """Concurrent shard matchings merged into the exact global matching.

    Parameters
    ----------
    problem:
        The *full* staged problem (all objects). Shard workers stage
        their own sub-problems; the parent problem backs the cross-shard
        repair pass and is never mutated.
    config:
        The run configuration; everything but the fan-out is inherited
        by the shard workers.
    base_algorithm:
        The algorithm each shard runs (default ``config.algorithm``).
        Must support repair
        (:func:`~repro.engine.registry.algorithm_supports_repair`) —
        that flag marks exactly the matchers producing the canonical
        greedy matching over linear preferences.
    pool / parts / staging_token:
        The prepared matching's persistent
        :class:`~repro.parallel.ShardWorkerPool`, its staged
        :func:`~repro.parallel.partition.hilbert_shards` arrays, and
        its staging epoch: tasks carry ``(token, shard index)`` keys so
        workers reuse their bulk-loaded trees across runs. ``parts`` is
        ``None`` exactly when the staged set holds at most one object;
        the base algorithm then runs on ``problem`` itself.
    """

    supports_repair = False

    def __init__(self, problem: MatchingProblem, config: MatchingConfig,
                 base_algorithm: Optional[str] = None, *,
                 pool: ShardWorkerPool,
                 parts: Optional[List[ShardArrays]],
                 staging_token: int,
                 search_stats: Optional[SearchStats] = None) -> None:
        super().__init__(problem, search_stats=search_stats)
        if base_algorithm is None:
            base_algorithm = config.algorithm
        normalized = base_algorithm.strip().lower()
        canonical = algorithm_aliases().get(normalized)
        if canonical is None:
            raise MatchingError(
                f"unknown base algorithm {base_algorithm!r} for sharded "
                f"matching"
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
        self.config = config
        self.pool = pool
        self.parts = parts
        self.staging_token = staging_token
        # Aggregated counters, populated when pairs() is consumed.
        self.rounds = 0
        self.top1_searches = 0
        self.reverse_top1_queries = 0
        self.shards_used = 0
        self.merge_displaced = 0
        self.repair_chains = 0
        self.repair_steals = 0
        self.shard_stagings = 0

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

        if not functions:
            # Nothing to match: no shard runs, and the parent problem
            # (deferred on the serving path) is never staged.
            self.shards_used = 1
            return
        if self.parts is None:
            # At most one object: run the base algorithm directly on the
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

        tasks = [
            ShardTask(
                index=index, ids=ids, points=points, functions=functions,
                config=worker_config,
                staging_key=(self.staging_token, index),
            )
            for index, (ids, points) in enumerate(self.parts) if len(ids)
        ]
        outcomes = self.pool.run(tasks)

        merged, displaced = merge_shard_pairs(
            outcome.pairs for outcome in outcomes
        )
        repair = cross_shard_repair(
            problem, worker_config, merged, displaced,
            search_stats=self.search_stats,
        )
        final = repair.pairs()

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
