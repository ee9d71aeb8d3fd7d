"""The serving-path request pipeline: compile → prepare → serve.

The paper's algorithms were measured as one-shot batch runs; a serving
deployment answers *streams* of preference workloads against a mostly
stable object set. One-shot :func:`repro.match` pays everything on every
call: config validation, capacity expansion, R-tree bulk loading, (on
the sharded path) process-pool startup, and the matching itself. This
module splits that into three stages so each cost is paid exactly as
often as its inputs change:

1. **compile** — :func:`plan` validates the full configuration once and
   returns an immutable :class:`MatchingPlan`: algorithm and backend
   resolved against their registries, the shard fan-out decided, every
   invalid combination rejected *before* any data is touched;
2. **prepare** — :meth:`MatchingPlan.prepare` stages one object set and
   returns a :class:`PreparedMatching` owning the warm state: the
   capacity-expanded dataset, the staged problem (per-shard trees on
   the sharded path — the parent tree is never bulk-loaded there), the
   Hilbert partition, and a persistent
   :class:`~repro.parallel.ShardWorkerPool` that spawns workers once;
3. **serve** — :meth:`PreparedMatching.run` matches one preference
   workload against the warm state, with results cached in a keyed LRU
   (config fingerprint × objects version × preference digest; see
   :mod:`repro.engine.cache`) that dynamic-session events invalidate.

:func:`repro.match` and :func:`repro.open_session` are thin wrappers
over this pipeline, so every entry point produces pair-identical
results routed through the same code.

Examples
--------
>>> import repro
>>> objects = repro.generate_independent(n=150, dims=2, seed=21)
>>> plan = repro.plan(algorithm="sb", backend="memory")
>>> prepared = plan.prepare(objects)
>>> prefs = repro.generate_preferences(n=5, dims=2, seed=22)
>>> warm = prepared.run(prefs)
>>> warm.as_set() == repro.match(objects, prefs, backend="memory").as_set()
True
>>> prepared.run(prefs) is warm      # identical workload: a cache hit
True
>>> prepared.cache.info()["hits"]
1
"""

from __future__ import annotations

import itertools
import threading
import time
from types import MappingProxyType
from typing import (Hashable, List, Mapping, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from ..core.capacity import expand_capacities
from ..core.problem import MatchingProblem
from ..core.result import MatchPair
from ..data import Dataset
from ..errors import MatchingError
from ..storage import DiskManager
from .backends import StorageBackend, get_backend
from .cache import ResultCache, config_fingerprint, prefs_digest
from .config import MatchingConfig
from .registry import (
    algorithm_aliases,
    algorithm_supports_repair,
    create_matcher,
)
from .result import MatchResult

#: Sharded-run counters always reported together (zeros included) so
#: ``result.stats`` lookups are reliable whenever ``shards_used`` exists.
_SHARD_COUNTERS = (
    "shards_used", "merge_displaced", "repair_chains", "repair_steals",
    "shard_stagings",
)

#: Process-wide staging-epoch tokens for the worker-side shard caches.
_STAGING_TOKENS = itertools.count(1)

#: The most score cells (functions x staged objects) one workload may
#: have and still take the vectorized scorer: a cap on score memory,
#: 2**21 float64 cells (16 MiB) per workload, that keeps paper-scale
#: workloads (100,000 x 5,000 cells, 4 GB of scores) on the tree
#: matchers. It is not where the tree gets faster:
#: ``benchmarks/lone_miss_crossover.py`` times both paths on shapes
#: either side of it.
MAX_VECTOR_CELLS = 2 ** 21


class _DeferredProblem:
    """The sharded path's parent problem: objects and functions, no tree.

    The sharded execution path reads only ``problem.objects`` and
    ``problem.functions``: shard workers bulk-load their own sub-trees,
    the cross-shard repair runs on a tree-less view of the shard
    winners (see :func:`~repro.parallel.merge.cross_shard_repair`), and
    an empty workload returns before any matcher runs. Staging the
    parent workload this way skips the full-dataset bulk load.
    """

    def __init__(self, objects: Dataset, disk: DiskManager,
                 functions: Sequence = ()) -> None:
        self.objects = objects
        # Inert: pages are never allocated; the counters exist so shard
        # outcomes have a live sink to aggregate into.
        self._disk = disk
        self.functions = list(functions)
        for function in self.functions:
            if function.dims != self.objects.dims:
                from ..errors import DimensionalityError

                raise DimensionalityError(
                    self.objects.dims, function.dims, "function weights"
                )
        fids = [function.fid for function in self.functions]
        if len(set(fids)) != len(fids):
            raise MatchingError("function ids must be unique")

    @property
    def dims(self) -> int:
        return self.objects.dims

    @property
    def io_stats(self):
        return self._disk.stats

    def reset_io(self) -> None:
        self._disk.stats.reset()

    def with_functions(self, functions: Sequence) -> "_DeferredProblem":
        """A sibling view over the same objects and I/O counters."""
        return _DeferredProblem(self.objects, self._disk, functions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"_DeferredProblem(|O|={len(self.objects)}, "
            f"|F|={len(self.functions)})"
        )


class MatchingPlan:  # lint: frozen
    """A compiled, immutable matching configuration.

    Compiling resolves every registry lookup and cross-field constraint
    once, so configuration mistakes surface here — with the same error
    messages the late-binding path used — rather than mid-request:

    * the algorithm name must be registered (aliases resolve);
    * the backend name must be registered;
    * a sharded plan's algorithm must support displacement-chain
      repair (the cross-shard merge depends on it).

    The plan itself holds no data and is freely shareable; call
    :meth:`prepare` per object set to obtain warm, runnable state.

    Examples
    --------
    >>> import repro
    >>> plan = repro.plan(algorithm="skyline", backend="memory")
    >>> (plan.algorithm, plan.backend_name, plan.shards)
    ('sb', 'memory', 1)
    >>> repro.plan(algorithm="sb", shards=4).is_sharded
    True
    >>> repro.plan(algorithm="oracle")   # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    repro.errors.MatchingError: unknown algorithm 'oracle'; ...
    """

    def __init__(self, config: Optional[MatchingConfig] = None,
                 **overrides) -> None:
        if config is None:
            config = MatchingConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config

        aliases = algorithm_aliases()
        normalized = config.algorithm.strip().lower()
        canonical = aliases.get(normalized)
        if canonical is None:
            from .registry import available_algorithms

            raise MatchingError(
                f"unknown algorithm {config.algorithm!r}; available "
                f"algorithms: {', '.join(available_algorithms())}"
            )
        #: Canonical algorithm name (aliases resolved).
        self.algorithm = canonical
        # Resolving the backend validates the name (instances are cheap
        # and stateless; prepare() obtains a fresh one).
        #: Canonical backend name.
        self.backend_name = get_backend(config.backend).name

        #: Shard fan-out (1 = single-process).
        self.shards = config.shards
        if self.shards > 1 and not algorithm_supports_repair(canonical):
            raise MatchingError(
                f"algorithm {canonical!r} cannot run sharded: "
                f"the cross-shard merge repairs with displacement "
                f"chains, which requires a canonical linear-preference "
                f"matcher (one whose matcher sets supports_repair)"
            )
        #: Stable cache-key component (see :mod:`repro.engine.cache`).
        self.fingerprint = config_fingerprint(config)

    @property
    def backend(self) -> StorageBackend:
        """A fresh instance of the plan's storage backend."""
        return get_backend(self.config.backend)

    @property
    def is_sharded(self) -> bool:
        """Whether serving fans out over shard workers."""
        return self.shards > 1

    def prepare(self, objects: Dataset) -> "PreparedMatching":
        """Stage one object set into warm, servable state."""
        return PreparedMatching(self, objects)

    def open_session(self, objects: Dataset, functions: Sequence,
                     on_change=None):
        """Open a dynamic session under this plan's configuration.

        Same contract as :func:`repro.open_session` (which delegates
        here): 1-1 only, single-process only, and the algorithm must
        support incremental repair. ``on_change`` is
        forwarded to the session (used by
        :meth:`PreparedMatching.open_session` for cache invalidation).
        """
        from ..dynamic import DynamicMatcher

        config = self.config
        if config.capacities is not None:
            raise MatchingError(
                "dynamic sessions do not support capacitated matching; "
                "open the session without capacities"
            )
        if config.shards > 1:
            raise MatchingError(
                "dynamic sessions are single-process; open the session "
                "with shards=1 (sharded matching is for one-shot match())"
            )
        if not algorithm_supports_repair(config.algorithm):
            raise MatchingError(
                f"algorithm {config.algorithm!r} does not support "
                f"incremental repair; choose one whose matcher sets "
                f"supports_repair"
            )
        # The session owns all physical tree churn: matchers must not
        # delete objects out from under it.
        session_config = config.replace(deletion_mode="filter")
        problem = get_backend(session_config.backend).build_problem(
            objects, functions, session_config
        )
        return DynamicMatcher(
            problem, session_config, backend_name=self.backend_name,
            on_change=on_change,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fan_out = f", shards={self.shards}" if self.is_sharded else ""
        return (
            f"MatchingPlan(algorithm={self.algorithm!r}, "
            f"backend={self.backend_name!r}{fan_out}, "
            f"fingerprint={self.fingerprint!r})"
        )


class PreparedMatching:
    """Warm, servable state for one plan × one object set.

    Owns everything a repeated request should not re-pay:

    * the capacity-expanded dataset and virtual-owner fold-back map;
    * the staged problem — a real backend staging on the single-process
      path, a *deferred* one on the sharded path (shard workers build
      their own trees; the parent tree is never bulk-loaded). A restage
      after session churn stages only the data: the single-process tree
      is bulk-loaded again by the first tree-path run that needs it,
      never by vectorized batches, which read only the objects;
    * the precomputed Hilbert partition and a persistent
      :class:`~repro.parallel.ShardWorkerPool` (workers spawn once, and
      their shard stagings are cached worker-side across runs);
    * the keyed LRU result cache (:class:`~repro.engine.cache.ResultCache`).

    Obtain via :meth:`MatchingPlan.prepare`; serve with :meth:`run`.
    A bound dynamic session (:meth:`open_session`) keeps the prepared
    state honest: object events bump :attr:`objects_version` — which
    invalidates every cached result for the old object state — and the
    next :meth:`run` restages from the session's surviving objects.
    """

    def __init__(self, plan: MatchingPlan, objects: Dataset) -> None:
        self.plan = plan
        config = plan.config
        #: The caller's object set (pre-expansion; capacity fold-back
        #: reports against these ids).
        self.objects = objects
        #: Cache-key component: bumped whenever the served object set
        #: changes (session events, restages from a session).
        self.objects_version = 0    # guarded-by: _serve_lock
        #: Problem stagings performed (1 after construction; +1 per
        #: restage after destructive-matcher damage or session churn).
        self.stagings = 0
        self.cache = ResultCache(config.cache_size)
        self._pool = None
        self._session = None
        self._session_dirty = False  # guarded-by: _serve_lock
        self._closed = False
        # Serializes staging and tree-touching cold runs: the staged
        # problem (tree, buffer pool) is shared mutable state, so
        # concurrent submit()/submit_many() callers take turns on it.
        # The vectorized batch path only snapshots the object matrix
        # under this lock and scores outside it.
        self._serve_lock = threading.RLock()
        #: The staged problem: a _DeferredProblem on the sharded path,
        #: else the backend problem, or None until a tree-path run needs
        #: it (see _staged_problem).
        self._problem: Union[MatchingProblem, _DeferredProblem, None] = None  # guarded-by: _serve_lock
        self._stage(objects)
        # prepare() pays the bulk load; only restages defer it.
        self._staged_problem()

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    def _stage(self, objects: Dataset) -> None:  # lint: holds-lock=_serve_lock
        """(Re)stage the object set's data: no tree is bulk-loaded here.

        Stages the capacity-expanded objects and the virtual-owner map;
        a sharded plan also gets its deferred parent problem and Hilbert
        partition. An unsharded plan's backend problem is dropped, to be
        built by :meth:`_staged_problem` when a tree-path run needs it:
        the vectorized scorer reads only the objects.
        """
        config = self.plan.config
        #: Each virtual object's owner id (an int64 array indexed by
        #: virtual id) and a read-only ``{object_id: units}`` view that
        #: every capacitated result of this staging shares; ``None`` when
        #: the plan is 1-1.
        self._virtual_owner: Optional[np.ndarray] = None
        self._capacities: Optional[Mapping[int, int]] = None
        expanded = objects
        if config.capacities is not None:
            expanded, owner = expand_capacities(objects, config.capacities)
            self._virtual_owner = np.asarray(owner, dtype=np.int64)
            self._capacities = MappingProxyType({
                object_id: int(config.capacities.get(object_id, 1))
                for object_id in objects.ids
            })
        self._expanded = expanded
        self._parts: Optional[list] = None
        self._problem = None
        if self.plan.is_sharded and len(expanded) > 1:
            from ..parallel.partition import hilbert_shards

            self._problem = _DeferredProblem(expanded, DiskManager())
            self._parts = hilbert_shards(expanded, self.plan.shards)
        self._drop_worker_stagings()
        self._token = next(_STAGING_TOKENS)
        self.stagings += 1

    def _staged_problem(self) -> Union[MatchingProblem, _DeferredProblem]:  # lint: holds-lock=_serve_lock
        """The staged problem, bulk-loading the unsharded one on first use."""
        if self._problem is None:
            self._problem = self.plan.backend.build_problem(
                self._expanded, [], self.plan.config
            )
        return self._problem

    def _drop_worker_stagings(self) -> None:
        """Free this staging epoch's in-process worker shard caches."""
        token = getattr(self, "_token", None)
        if token is not None:
            from ..parallel.shard import purge_staged_shards

            purge_staged_shards(token)

    def _ensure_fresh(self) -> None:  # lint: holds-lock=_serve_lock
        """Restage when the warm state went stale (serve lock held).

        Two staleness sources: a bound session's object churn (restage
        from the surviving objects), and a ``deletion_mode="delete"``
        matcher having consumed part of the staged tree on the previous
        run (drop it: the next tree-path run bulk-loads a fresh one).
        """
        if self._session is not None and self._session_dirty:
            self.objects = self._session.objects()  # flushes the session
            self._stage(self.objects)
            self._session_dirty = False
            return
        problem = self._problem
        if (isinstance(problem, MatchingProblem)
                and problem.tree.num_objects != len(problem.objects)):
            self._problem = None
            self.stagings += 1

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    @property
    def pool(self):
        """The persistent shard worker pool (created on first use)."""
        if self._pool is None:
            from ..parallel import ShardWorkerPool

            config = self.plan.config
            self._pool = ShardWorkerPool(
                executor=config.executor, max_workers=config.max_workers,
                remote_workers=config.remote_workers,
            )
        return self._pool

    @property
    def parent_tree_built(self) -> bool:
        """Whether a full-dataset parent tree is bulk-loaded right now.

        ``False`` on the sharded path, whose merge/repair read only
        ``problem.objects``, and after a restage until a tree-path run
        builds the tree.
        """
        with self._serve_lock:
            return isinstance(self._problem, MatchingProblem)

    def _create_matcher(self, problem):
        config = self.plan.config
        if self.plan.is_sharded:
            # Even degenerate workloads (one object, no functions) route
            # through the sharded matcher, whose delegation path keeps
            # the result's name and counter set consistent.
            from ..parallel import ShardedMatcher

            return ShardedMatcher(
                problem, config, self.plan.algorithm, pool=self.pool,
                parts=self._parts, staging_token=self._token,
            )
        return create_matcher(self.plan.algorithm, problem, config)

    def run(self, functions: Sequence) -> MatchResult:
        """Serve one preference workload against the warm state.

        Pair-identical to a cold ``repro.match(objects, functions,
        config=...)`` on the current object set. Repeated identical
        workloads are answered from the result cache (the *same*
        :class:`~repro.engine.result.MatchResult` object is returned —
        treat served results as immutable).
        """
        if self._closed:
            raise MatchingError("PreparedMatching is closed")
        functions = list(functions)
        key = self.request_key(functions)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        return self.run_miss(key, functions)

    def request_key(self, functions: Sequence) -> Tuple[str, int, Hashable]:
        """The cache key one workload would be served under, right now.

        The key is correct before any restage: session events bump
        ``objects_version`` at submission time, so a stale staging can
        only ever be consulted by a key that misses. The version read
        is deliberately lock-free — a concurrent bump simply makes this
        key miss, which is the safe outcome.
        """
        return (
            self.plan.fingerprint,
            self.objects_version,  # lint: disable=lock-guard
            prefs_digest(functions),
        )

    def run_miss(self, key: Hashable, functions: Sequence) -> MatchResult:
        """Serve one known cache miss through the per-request tree path.

        The batched entry points partition their requests against the
        cache up front (counting each exactly once) and route the
        misses here, so the cache is not consulted a second time. The
        result is always published under ``key`` — even a request that
        opted out of *reading* the cache refreshes it for later
        submitters (the documented ``use_cache=False`` contract).
        """
        with self._serve_lock:
            self._ensure_fresh()
            result = self._run_cold(list(functions))
        self.cache.put(key, result)
        return result

    # ------------------------------------------------------------------
    # Vectorized batch serving
    # ------------------------------------------------------------------
    def vectorized_eligible(self, functions: Sequence) -> bool:
        """Whether a workload may use the linear batch-scoring fast path.

        Three gates: the algorithm must advertise ``supports_repair`` —
        the documented marker for matchers that produce the canonical
        greedy matching over linear preferences, which is exactly what
        the vectorized scorer computes — the workload must have at most
        :data:`MAX_VECTOR_CELLS` score cells against the staged
        (capacity-expanded) objects, and every function must be
        *exactly* a :class:`~repro.prefs.LinearPreference`. The gate
        counts a workload alone, however many arrive with it. It only
        picks a path: a count read before a pending restage may route a
        workload differently, never answer it differently.
        """
        from .batch import is_linear_workload

        if not algorithm_supports_repair(self.plan.algorithm):
            return False
        if len(functions) * len(self._expanded) > MAX_VECTOR_CELLS:
            return False
        return is_linear_workload(functions)

    def run_vectorized_batch(self, workloads: Sequence[Sequence],
                             ) -> List[MatchResult]:
        """Serve a batch of linear workloads in one vectorized pass.

        Every workload must satisfy :meth:`vectorized_eligible`. The
        staged object matrix is snapshotted under the serve lock (after
        any pending restage), then scored outside it — the scorer only
        reads, so concurrent batches can overlap. A capacitated plan
        scores the capacity-expanded objects and folds each pair's
        virtual object back to its owner, as the tree path does. Results
        are pair-identical to :meth:`run` (bitwise-equal scores, same
        pairs); provenance records the batched execution
        (``algorithm="batched-<plan algorithm>"``). The result cache is
        *not* consulted or filled here — the batched entry points own
        that partitioning.
        """
        from .batch import linear_batch_results

        if self._closed:
            raise MatchingError("PreparedMatching is closed")
        with self._serve_lock:
            self._ensure_fresh()
            expanded = self._expanded
            owner, capacities = self._virtual_owner, self._capacities
        return linear_batch_results(
            expanded, workloads,
            algorithm=f"batched-{self.plan.algorithm}",
            backend=self.plan.backend_name,
            seed=self.plan.config.seed,
            owner=owner, capacities=capacities,
        )

    def _run_cold(self, functions: List) -> MatchResult:
        """One actual matching run, packaged as a :class:`MatchResult`."""
        config = self.plan.config
        problem = self._staged_problem().with_functions(functions)
        problem.reset_io()
        matcher = self._create_matcher(problem)

        start = time.perf_counter()
        pairs = list(matcher.pairs())
        cpu_seconds = time.perf_counter() - start

        if self._virtual_owner is not None:
            virtual_owner = self._virtual_owner
            pairs = [
                MatchPair(
                    pair.function_id, int(virtual_owner[pair.object_id]),
                    pair.score, round=pair.round, rank=pair.rank,
                )
                for pair in pairs
            ]
        matched = {pair.function_id for pair in pairs}
        unmatched = [
            function.fid for function in functions
            if function.fid not in matched
        ]
        stats = {"rounds": getattr(matcher, "rounds", 0)}
        for counter in ("top1_searches", "reverse_top1_queries"):
            value = getattr(matcher, counter, 0)
            if value:
                stats[counter] = value
        if getattr(matcher, "shards_used", 0):
            for counter in _SHARD_COUNTERS:
                stats[counter] = getattr(matcher, counter, 0)
        return MatchResult(
            pairs,
            unmatched_functions=unmatched,
            unmatched_objects_count=len(problem.objects) - len(pairs),
            algorithm=getattr(matcher, "name", config.algorithm),
            backend=self.plan.backend_name,
            capacities=self._capacities,
            io=problem.io_stats.snapshot(),
            cpu_seconds=cpu_seconds,
            seed=config.seed,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Dynamic integration
    # ------------------------------------------------------------------
    def open_session(self, functions: Sequence):
        """Open a dynamic session bound to this prepared state.

        The session maintains its own matching under streaming events
        (see :class:`~repro.dynamic.DynamicMatcher`); binding it here
        additionally keeps the serving cache honest: every
        ``insert_object``/``delete_object`` event bumps
        :attr:`objects_version` — so cached results for the old object
        state can never be served again — and the next :meth:`run`
        restages from the session's surviving objects. Function-only
        events (``add_function``/``remove_function``) change nothing a
        served workload depends on and leave the cache intact.
        """
        session = self.plan.open_session(
            self.objects, functions, on_change=self._on_session_event,
        )
        with self._serve_lock:
            self._session = session
            self._session_dirty = False
        return session

    def _on_session_event(self, event) -> None:
        from ..dynamic.events import DeleteObject, InsertObject

        if isinstance(event, (InsertObject, DeleteObject)):
            # Taken against concurrent submits: a half-observed bump
            # could serve a pre-churn result under a post-churn key.
            with self._serve_lock:
                self.objects_version += 1
                self._session_dirty = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Manually mark every cached result stale (version bump)."""
        with self._serve_lock:
            self.objects_version += 1

    def restore_version(self, objects_version: int) -> None:
        """Reset the cache-key version counter to a recorded value.

        The :mod:`repro.replay` rewind path restores a bound session and
        the result cache to an earlier checkpoint; this hook completes
        the picture by winding ``objects_version`` back with them, so a
        re-replayed event stream reproduces the *identical* cache keys
        it produced the first time (restaging never bumps the version —
        only session events do, and those are replayed deterministically).
        The next serve restages from the restored session state.
        """
        with self._serve_lock:
            self.objects_version = int(objects_version)
            if self._session is not None:
                self._session_dirty = True

    def close(self) -> None:
        """Release warm state; further :meth:`run` calls error.

        Shuts the worker pool down (process workers' shard caches die
        with it) and purges this staging's entries from the in-process
        shard cache the serial/thread executors share.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._drop_worker_stagings()
        self._closed = True

    def __enter__(self) -> "PreparedMatching":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # Racy-read repr by design: the serve lock is held across whole
    # matching runs, and repr must never block behind one.
    def __repr__(self) -> str:  # pragma: no cover - cosmetic; lint: disable=lock-guard
        return (
            f"PreparedMatching(|O|={len(self.objects)}, "
            f"plan={self.plan.algorithm!r}@{self.plan.backend_name!r}, "
            f"version={self.objects_version}, cache={self.cache.info()})"
        )


def plan(config: Optional[MatchingConfig] = None, **overrides) -> MatchingPlan:
    """Compile a matching configuration into a :class:`MatchingPlan`.

    The serving-path front door: accepts exactly the surface of
    :class:`~repro.engine.config.MatchingConfig` (a full ``config=``, or
    keyword fields, or both — keywords win) and fails fast on anything
    a run could not execute.

    Examples
    --------
    >>> import repro
    >>> plan = repro.plan(algorithm="chain", backend="memory")
    >>> objects = repro.generate_independent(n=100, dims=2, seed=31)
    >>> prepared = plan.prepare(objects)
    >>> prefs = repro.generate_preferences(n=4, dims=2, seed=32)
    >>> len(prepared.run(prefs))
    4
    """
    return MatchingPlan(config, **overrides)
