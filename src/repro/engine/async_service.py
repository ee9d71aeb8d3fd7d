"""`AsyncMatchingService`: an asyncio micro-batching front-end.

A thin coalescing layer over :class:`~repro.engine.service.MatchingService`
for async deployments (an aiohttp/FastAPI handler, a websocket fan-in):
each ``await submit(request)`` parks the request on an internal queue,
and a collector task drives the synchronous
:meth:`MatchingService.submit_many` on an executor thread, so the event
loop never blocks on matching work.

The collector is a group commit: it takes the first queued request,
adds whatever else is already queued (up to ``max_batch``) and
dispatches at once. There is no window: a request that reaches an idle
front-end never waits, and requests that arrive while a batch runs form
the next batch. That is what turns concurrent single submissions into
the batched fast path — a burst of ``await``-ers lands in one
``submit_many`` call, where duplicates are computed once and linear
misses share one vectorized scoring pass. Results are exactly what the
wrapped service returns — pair-identical to sequential submission.

The front-end owns only its coalescing machinery (queue, collector
task, executor thread); the wrapped service is borrowed and survives
:meth:`AsyncMatchingService.aclose` unless ``close_service=True``.

Examples
--------
>>> import asyncio
>>> import repro
>>> objects = repro.generate_independent(n=120, dims=2, seed=51)
>>> service = repro.MatchingService(objects, algorithm="sb",
...                                 backend="memory")
>>> async def burst():
...     async with repro.AsyncMatchingService(service,
...                                           max_batch=8) as front:
...         workloads = [repro.generate_preferences(n=3, dims=2, seed=s)
...                      for s in (60, 61, 60)]
...         return await asyncio.gather(
...             *[front.submit(w) for w in workloads])
>>> results = asyncio.run(burst())
>>> results[0] is results[2]       # coalesced duplicates share a result
True
>>> results[1].as_set() == repro.match(
...     objects, repro.generate_preferences(n=3, dims=2, seed=61),
...     backend="memory").as_set()
True
>>> service.close()
"""

from __future__ import annotations

import asyncio
import functools
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ThreadPoolExecutor

from ..errors import MatchingError
from .request import MatchingRequest
from .result import MatchResult
from .service import MatchingService

#: Default micro-batch bound: how many queued requests one
#: ``submit_many`` call may coalesce.
DEFAULT_MAX_BATCH = 32

_SHUTDOWN = object()


class AsyncMatchingService:
    """Micro-batching asyncio front-end over a :class:`MatchingService`.

    Parameters
    ----------
    service:
        The synchronous service that actually answers requests.
    max_batch:
        Coalescing bound: at most this many requests per
        ``submit_many`` call.

    A batch is the first queued request plus whatever else is already
    queued when the collector takes it, up to ``max_batch``; it is
    dispatched at once, never held open for later arrivals.

    Use as an async context manager, or call :meth:`aclose` explicitly;
    both drain queued requests before returning.
    """

    def __init__(self, service: MatchingService, *,
                 max_batch: int = DEFAULT_MAX_BATCH) -> None:
        if max_batch < 1:
            raise MatchingError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        self.service = service
        self.max_batch = max_batch
        #: Micro-batches dispatched so far.
        self.batches_dispatched = 0
        #: Requests coalesced so far.
        self.requests_coalesced = 0
        self._queue: Optional[asyncio.Queue] = None
        self._collector: Optional[asyncio.Task] = None
        self._executor: Optional["ThreadPoolExecutor"] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, request) -> MatchResult:
        """Submit one workload; resolves when its micro-batch completes.

        Accepts a bare function sequence or a
        :class:`~repro.engine.request.MatchingRequest`. A request
        ``timeout`` bounds the total wait for the result
        (:class:`asyncio.TimeoutError` on expiry; the underlying batch
        still completes and warms the cache for later submitters).
        """
        request = MatchingRequest.of(request)
        if self._closed:
            raise MatchingError("AsyncMatchingService is closed")
        self._ensure_started()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put((request, future))
        if request.timeout is not None:
            return await asyncio.wait_for(future, request.timeout)
        return await future

    # ------------------------------------------------------------------
    # The collector
    # ------------------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._collector is None or self._collector.done():
            if self._queue is None:
                self._queue = asyncio.Queue()
            if self._executor is None:
                from concurrent.futures import ThreadPoolExecutor

                self._executor = ThreadPoolExecutor(
                    max_workers=1,
                    thread_name_prefix="repro-async-serve",
                )
            self._collector = asyncio.get_running_loop().create_task(
                self._collect()
            )

    async def _collect(self) -> None:
        while True:
            item = await self._queue.get()
            batch: List[Tuple[MatchingRequest, asyncio.Future]] = []
            while item is not _SHUTDOWN:
                batch.append(item)
                if len(batch) == self.max_batch:
                    break
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            if batch:
                await self._dispatch(batch)
            if item is _SHUTDOWN:
                return

    async def _dispatch(self, batch) -> None:
        loop = asyncio.get_running_loop()
        requests = [request for request, _ in batch]
        self.batches_dispatched += 1
        self.requests_coalesced += len(requests)
        try:
            results = await loop.run_in_executor(
                self._executor, self.service.submit_many, requests,
            )
        except Exception as error:
            for _, future in batch:
                if not future.done():
                    future.set_exception(error)
            return
        for (_, future), result in zip(batch, results):
            if not future.done():       # timed-out waiters dropped out
                future.set_result(result)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def aclose(self, *, close_service: bool = False) -> None:
        """Drain queued requests, stop the collector (idempotent).

        The wrapped service is left serving unless ``close_service``;
        pending submissions queued before the close are still answered.
        The blocking teardown steps (executor join, service drain) run
        on the loop's default executor, so concurrent coroutines keep
        making progress while a slow in-flight batch drains.
        """
        if self._closed:
            return
        self._closed = True
        if self._collector is not None and self._queue is not None:
            await self._queue.put(_SHUTDOWN)
            await self._collector
        loop = asyncio.get_running_loop()
        if self._executor is not None:
            executor, self._executor = self._executor, None
            await loop.run_in_executor(
                None, functools.partial(executor.shutdown, wait=True)
            )
        if close_service:
            await loop.run_in_executor(None, self.service.close)

    async def __aenter__(self) -> "AsyncMatchingService":
        self._ensure_started()
        return self

    async def __aexit__(self, exc_type: object, exc: object,
                        tb: object) -> None:
        await self.aclose()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "live" if self._collector is not None else "idle"
        )
        return (
            f"AsyncMatchingService({self.service!r}, "
            f"max_batch={self.max_batch}, {state}, "
            f"batches={self.batches_dispatched})"
        )
