"""`MatchingService`: the request-level serving API.

Where :func:`repro.match` is a batch call and
:class:`~repro.engine.plan.PreparedMatching` is the warm machinery, a
:class:`MatchingService` is the thing you put in front of traffic: one
object set behind one compiled plan, answering a *stream* of preference
workloads — one at a time through :meth:`MatchingService.submit`, or
whole batches through :meth:`MatchingService.submit_many`, which is the
actual core (``submit`` is a batch of one).

``submit_many`` partitions its batch before any matcher runs:

* **cache hits** are answered from the keyed LRU immediately;
* **duplicates** — requests whose preference digests are identical —
  are computed once and fanned out to every submitter;
* remaining **misses** run through the *vectorized linear fast path*
  when eligible (plain linear workloads, non-capacitated plans: all
  functions in the batch are stacked and scored against the staged
  objects in one numpy pass — see :mod:`repro.engine.batch` — with
  chunks dispatched over a bounded thread pool), and through the
  per-request tree path otherwise.

The service adds no matching semantics of its own — every answer is
pair-identical to a cold ``repro.match()`` on the current object set —
it only decides *what work can be skipped and what can be shared*.
Admission control (``max_inflight`` + a block/reject policy) bounds the
work in flight, and :meth:`MatchingService.snapshot` returns a
:class:`ServiceStats` with queue depth, hit/duplicate/miss counts, and
p50/p95 latency.

Examples
--------
>>> import repro
>>> objects = repro.generate_independent(n=200, dims=2, seed=41)
>>> service = repro.MatchingService(objects, algorithm="sb",
...                                 backend="memory")
>>> prefs = repro.generate_preferences(n=6, dims=2, seed=42)
>>> first = service.submit(prefs)
>>> second = service.submit(prefs)        # served from cache
>>> second is first
True
>>> snap = service.snapshot()
>>> (snap.requests, snap.cache["hits"], snap.cache["misses"])
(2, 1, 1)
>>> other = repro.generate_preferences(n=6, dims=2, seed=43)
>>> batch = service.submit_many(
...     [repro.MatchingRequest(other, priority=1), prefs, other])
>>> batch[1] is first              # the repeated workload: a cache hit
True
>>> batch[0] is batch[2]           # in-batch duplicates computed once
True
>>> batch[0].as_set() == repro.match(objects, other,
...                                  backend="memory").as_set()
True
>>> service.snapshot().duplicate_hits
1
>>> service.submit(prefs).as_set() == repro.match(
...     objects, prefs, backend="memory").as_set()
True
>>> service.close()
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..data import Dataset
from ..errors import MatchingError, ServiceOverloadedError
from .config import MatchingConfig
from .plan import MatchingPlan, PreparedMatching
from .request import MatchingRequest
from .result import MatchResult

#: Minimum number of distinct linear misses in one batch before the
#: vectorized scorer engages. A single miss goes through the per-request
#: tree path — there is nothing to amortize, and the tree matcher's
#: sublinear traversal usually wins on one small workload.
MIN_VECTOR_BATCH = 2

#: Vectorized chunks aim for at least this many workloads per numpy
#: pass, so tiny chunks don't forfeit the batching win to dispatch cost;
#: a batch of at most this many distinct misses runs inline on the
#: calling thread. How much two chunk threads overlap is up to the
#: host: on a shared 2-vCPU host a batch of 8 workloads x 16 functions
#: x 4,000 objects took 30% less time on two threads in some minutes and
#: the same time as on one in others, so its latency followed the host.
#: Inline, it does not.
MIN_CHUNK_WORKLOADS = 16

#: Recent per-request latencies kept for the percentile snapshot.
LATENCY_WINDOW = 2048


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time snapshot of one service's serving counters.

    ``cache_hits``/``duplicate_hits``/``misses`` partition every request
    the service has answered: answered from the LRU, answered by sharing
    a batch-mate's computation, or actually computed — so
    ``cache_hits + duplicate_hits + misses == requests``.
    ``vectorized_requests`` and ``fallback_requests`` split the misses
    by execution path (``vectorized_requests + fallback_requests ==
    misses``). ``inflight``/``queue_depth`` describe *this instant*:
    requests currently admitted and requests currently waiting for
    admission. Latency percentiles are over the most recent requests
    (a bounded window), in milliseconds.
    """

    requests: int
    batches: int
    cache_hits: int
    duplicate_hits: int
    misses: int
    vectorized_requests: int
    fallback_requests: int
    rejected: int
    inflight: int
    queue_depth: int
    max_inflight: Optional[int]
    admission: str
    latency_p50_ms: float
    latency_p95_ms: float
    serve_seconds: float
    stagings: int
    objects_version: int
    cache: Dict[str, int] = field(default_factory=dict)

    #: The cumulative counters a window delta is computed over. The
    #: instantaneous gauges (inflight, queue_depth), configuration echoes
    #: (max_inflight, admission), and windowed percentiles are excluded —
    #: subtracting those is meaningless. ``stagings`` is also excluded:
    #: it counts *physical* work (a rewound replay restages once where
    #: the original pass did not), while the delta contract covers the
    #: request-path counters that replaying a window must reproduce
    #: exactly.
    COUNTER_FIELDS = (
        "requests", "batches", "cache_hits", "duplicate_hits", "misses",
        "vectorized_requests", "fallback_requests", "rejected",
    )

    def as_dict(self) -> Dict[str, object]:
        """The snapshot as a plain dict, suitable for a stats endpoint.

        Every value is a plain int, float, str, ``None``, or dict of
        ints — ``json.dumps`` round-trips it losslessly, which is the
        contract the :mod:`repro.net` ``stats`` RPC relies on.

        Examples
        --------
        >>> import json
        >>> import repro
        >>> objects = repro.generate_independent(n=80, dims=2, seed=3)
        >>> service = repro.MatchingService(objects, backend="memory")
        >>> _ = service.submit(
        ...     repro.generate_preferences(n=2, dims=2, seed=4))
        >>> snap = service.snapshot().as_dict()
        >>> (snap["requests"], snap["misses"], snap["cache_hits"])
        (1, 1, 0)
        >>> sorted(key for key in snap if key.startswith("latency"))
        ['latency_p50_ms', 'latency_p95_ms']
        >>> json.loads(json.dumps(snap)) == snap
        True
        >>> service.close()
        """
        from dataclasses import asdict

        return asdict(self)

    def delta(self, earlier: "ServiceStats") -> Dict[str, int]:
        """Per-window counter deltas against an ``earlier`` snapshot.

        The measurement primitive behind :mod:`repro.replay`'s per-phase
        accounting: snapshot before a window, snapshot after, and the
        delta says exactly how many requests/hits/misses *that window*
        contributed — independent of everything served before it.

        Examples
        --------
        >>> import repro
        >>> objects = repro.generate_independent(n=80, dims=2, seed=5)
        >>> service = repro.MatchingService(objects, backend="memory")
        >>> prefs = repro.generate_preferences(n=2, dims=2, seed=6)
        >>> before = service.snapshot()
        >>> _ = service.submit(prefs)
        >>> _ = service.submit(prefs)
        >>> after = service.snapshot()
        >>> window = after.delta(before)
        >>> (window["requests"], window["misses"], window["cache_hits"])
        (2, 1, 1)
        >>> service.close()
        """
        return {
            name: getattr(self, name) - getattr(earlier, name)
            for name in self.COUNTER_FIELDS
        }


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[index]


class MatchingService:
    """A serving endpoint: one prepared object set, many workloads.

    Parameters
    ----------
    objects:
        The object set to serve (staged once, at construction).
    config / overrides:
        The run configuration, exactly as :func:`repro.match` accepts
        it; alternatively pass a pre-compiled ``plan=``. The serving
        switches ``max_inflight`` and ``admission`` (see
        :class:`~repro.engine.config.MatchingConfig`) configure this
        service's admission control.
    plan:
        An existing :class:`~repro.engine.plan.MatchingPlan` to serve
        under (mutually exclusive with ``config``/overrides).
    """

    def __init__(self, objects: Dataset,
                 config: Optional[MatchingConfig] = None, *,
                 plan: Optional[MatchingPlan] = None, **overrides) -> None:
        if plan is not None and (config is not None or overrides):
            raise MatchingError(
                "pass either a compiled plan= or config/keyword "
                "overrides, not both"
            )
        if plan is None:
            plan = MatchingPlan(config, **overrides)
        #: The compiled plan this service runs under.
        self.plan = plan
        #: The warm state serving every request.
        self.prepared: PreparedMatching = plan.prepare(objects)
        #: Requests answered (hits, duplicates, and computed alike).
        self.requests = 0           # guarded-by: _state_cv
        #: Batches served (a single submit counts as a batch of one).
        self.batches = 0            # guarded-by: _state_cv
        #: Cumulative wall seconds inside submit/submit_many.
        self.serve_seconds = 0.0    # guarded-by: _state_cv
        #: Admission bound (None = unbounded) and overflow policy.
        self.max_inflight = plan.config.max_inflight
        self.admission = plan.config.admission

        self._hits = 0              # guarded-by: _state_cv
        self._duplicates = 0        # guarded-by: _state_cv
        self._misses = 0            # guarded-by: _state_cv
        self._vectorized = 0        # guarded-by: _state_cv
        self._fallback = 0          # guarded-by: _state_cv
        self._rejected = 0          # guarded-by: _state_cv
        self._inflight = 0          # guarded-by: _state_cv
        self._queued = 0            # guarded-by: _state_cv
        self._latencies: "deque[float]" = deque(maxlen=LATENCY_WINDOW)  # guarded-by: _state_cv
        self._closed = False        # guarded-by: _state_cv
        # One lock + condition guards every counter above and the
        # admission/drain protocol; per-request work runs outside it.
        self._state_cv = threading.Condition()
        self._batch_pool = None     # guarded-by: _state_cv

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(self, functions) -> MatchResult:
        """Answer one preference workload (a batch of one).

        Accepts a bare function sequence or a
        :class:`~repro.engine.request.MatchingRequest`. Returns the
        stable matching against the service's current object set — from
        the result cache when this exact workload (and object state)
        was served before, via a warm run otherwise. Served results are
        shared objects: treat them as immutable.
        """
        return self.submit_many([functions])[0]

    def submit_many(self, requests: Sequence) -> List[MatchResult]:
        """Answer a batch of workloads, amortizing shared work.

        ``requests`` may mix bare function sequences and
        :class:`~repro.engine.request.MatchingRequest` objects. Results
        come back in submission order, each pair-identical to a
        sequential :meth:`submit` of the same workload (the new-batched
        property test enforces this element-wise). The batch is
        partitioned into cache hits, in-batch duplicates (computed
        once, fanned out — duplicates share the *same* result object),
        and misses; eligible linear misses are scored in one vectorized
        numpy pass, the rest run the per-request tree path in priority
        order.

        Raises :class:`~repro.errors.ServiceOverloadedError` when
        admission control rejects the batch (``admission="reject"`` or
        a blocked request's ``timeout`` expires before capacity frees).
        """
        batch = [MatchingRequest.of(request) for request in requests]
        if not batch:
            return []
        start = time.perf_counter()
        timeouts = [r.timeout for r in batch if r.timeout is not None]
        self._admit(len(batch), min(timeouts) if timeouts else None)
        try:
            results = self._serve_batch(batch)
        finally:
            self._release(len(batch))
        elapsed = time.perf_counter() - start
        with self._state_cv:
            self.requests += len(batch)
            self.batches += 1
            self.serve_seconds += elapsed
            # Batch-mates arrive and complete together; each request's
            # observed latency is the batch wall time.
            self._latencies.extend([elapsed] * len(batch))
        return results

    def _serve_batch(self, batch: List[MatchingRequest],
                     ) -> List[MatchResult]:
        prepared = self.prepared
        results: List[Optional[MatchResult]] = [None] * len(batch)

        # ---- partition: group identical digests, answer hits --------
        groups: "OrderedDict[object, List[int]]" = OrderedDict()
        for index, request in enumerate(batch):
            key = prepared.request_key(list(request.functions))
            try:
                groups.setdefault(key, []).append(index)
            except TypeError:  # unhashable workload: never shared
                groups[object()] = [index]

        hits = duplicates = misses = 0
        miss_groups: List[Tuple[object, List[int]]] = []
        for key, members in groups.items():
            readable = all(batch[i].use_cache for i in members)
            cached = prepared.cache.get(key) if readable else None
            if cached is not None:
                for i in members:
                    results[i] = cached
                hits += len(members)
                continue
            misses += 1
            duplicates += len(members) - 1
            miss_groups.append((key, members))

        # ---- order misses: priority desc, then arrival --------------
        miss_groups.sort(
            key=lambda item: -max(batch[i].priority for i in item[1])
        )

        # ---- split: vectorized linear path vs per-request path ------
        linear: List[Tuple[object, List[int]]] = []
        fallback: List[Tuple[object, List[int]]] = []
        for key, members in miss_groups:
            functions = list(batch[members[0]].functions)
            if prepared.vectorized_eligible(functions):
                linear.append((key, members))
            else:
                fallback.append((key, members))
        if len(linear) < MIN_VECTOR_BATCH:
            # Nothing to amortize: keep the priority order and let the
            # tree path (which a lone request would have taken anyway)
            # serve everything.
            fallback = miss_groups
            linear = []

        vectorized = fallback_count = 0

        # ---- vectorized linear misses: chunked numpy passes ---------
        if linear:
            workloads = [list(batch[members[0]].functions)
                         for _, members in linear]
            chunk = max(MIN_CHUNK_WORKLOADS,
                        -(-len(workloads) // self._pool().max_workers))
            chunks = [workloads[i:i + chunk]
                      for i in range(0, len(workloads), chunk)]
            chunk_results = self._pool().map_ordered(
                prepared.run_vectorized_batch, chunks,
            )
            flat = [result for piece in chunk_results for result in piece]
            for (key, members), result in zip(linear, flat):
                prepared.cache.put(key, result)
                for i in members:
                    results[i] = result
                vectorized += 1

        # ---- everything else: the per-request tree path -------------
        for key, members in fallback:
            functions = list(batch[members[0]].functions)
            result = prepared.run_miss(key, functions)
            for i in members:
                results[i] = result
            fallback_count += 1

        with self._state_cv:
            self._hits += hits
            self._duplicates += duplicates
            self._misses += misses
            self._vectorized += vectorized
            self._fallback += fallback_count
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _admit(self, n: int, timeout: Optional[float]) -> None:
        """All-or-nothing admission of one batch of ``n`` requests.

        Whole batches are admitted atomically (never a partial grant,
        so two large concurrent batches cannot deadlock holding half
        their permits each), and a batch larger than ``max_inflight``
        is admitted once the service is otherwise idle rather than
        starving forever.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._state_cv:
            if self._closed:
                raise MatchingError("MatchingService is closed")
            if self.max_inflight is None:
                self._inflight += n
                return
            self._queued += n
            try:
                while (self._inflight > 0
                       and self._inflight + n > self.max_inflight):
                    if self.admission == "reject":
                        self._rejected += n
                        raise ServiceOverloadedError(
                            f"{n} request(s) rejected: {self._inflight} "
                            f"in flight against "
                            f"max_inflight={self.max_inflight}"
                        )
                    remaining = (
                        None if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        self._rejected += n
                        raise ServiceOverloadedError(
                            f"{n} request(s) timed out after {timeout}s "
                            f"waiting for admission "
                            f"(max_inflight={self.max_inflight})"
                        )
                    self._state_cv.wait(remaining)
                    if self._closed:
                        raise MatchingError("MatchingService is closed")
            finally:
                self._queued -= n
            self._inflight += n

    def _release(self, n: int) -> None:
        with self._state_cv:
            self._inflight -= n
            self._state_cv.notify_all()

    def _pool(self):
        """The bounded thread pool driving vectorized chunks (lazy)."""
        with self._state_cv:
            if self._batch_pool is None:
                import os

                from ..parallel import BoundedThreadPool

                config = self.plan.config
                workers = (
                    config.max_workers if config.max_workers is not None
                    else max(1, min(4, os.cpu_count() or 1))
                )
                self._batch_pool = BoundedThreadPool(max_workers=workers)
            return self._batch_pool

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def snapshot(self) -> ServiceStats:
        """A consistent :class:`ServiceStats` snapshot, taken now."""
        cache = self.prepared.cache.info()
        with self._state_cv:
            ordered = sorted(self._latencies)
            return ServiceStats(
                requests=self.requests,
                batches=self.batches,
                cache_hits=self._hits,
                duplicate_hits=self._duplicates,
                misses=self._misses,
                vectorized_requests=self._vectorized,
                fallback_requests=self._fallback,
                rejected=self._rejected,
                inflight=self._inflight,
                queue_depth=self._queued,
                max_inflight=self.max_inflight,
                admission=self.admission,
                latency_p50_ms=_percentile(ordered, 0.50) * 1e3,
                latency_p95_ms=_percentile(ordered, 0.95) * 1e3,
                serve_seconds=self.serve_seconds,
                stagings=self.prepared.stagings,
                objects_version=self.prepared.objects_version,
                cache=cache,
            )

    # ------------------------------------------------------------------
    # Object churn
    # ------------------------------------------------------------------
    def open_session(self, functions: Sequence):
        """Open a dynamic session bound to this service's object set.

        Events on the session (object inserts/deletes) invalidate the
        service's cached results and make the next :meth:`submit`
        serve the surviving object set. See
        :meth:`~repro.engine.plan.PreparedMatching.open_session`.
        """
        return self.prepared.open_session(functions)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop serving, drain in-flight work, release warm state.

        Deterministic teardown (idempotent): new submissions are
        rejected immediately, blocked admission waiters are woken (and
        raise), in-flight batches are waited for, then the batch thread
        pool and the prepared state (shard worker pool, staged shard
        caches) are released.
        """
        with self._state_cv:
            if self._closed:
                return
            self._closed = True
            self._state_cv.notify_all()
            while self._inflight > 0:
                self._state_cv.wait()
            pool, self._batch_pool = self._batch_pool, None
        if pool is not None:
            pool.close()
        self.prepared.close()

    def __enter__(self) -> "MatchingService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._state_cv:
            requests = self.requests
        return (
            f"MatchingService(plan={self.plan.algorithm!r}"
            f"@{self.plan.backend_name!r}, |O|={len(self.prepared.objects)}, "
            f"requests={requests})"
        )
