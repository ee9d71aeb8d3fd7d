"""Shard executors: how the per-shard matchings actually run.

Four strategies behind one function, selected by
``MatchingConfig.executor``:

``"process"``
    One single-process :class:`concurrent.futures.ProcessPoolExecutor`
    per worker slot — the true multi-core path (each worker matches its
    shard in its own interpreter, so the GIL never serializes the
    skyline work), with placement chosen here rather than by a shared
    queue (see :class:`ShardWorkerPool`). Falls back to serial
    execution when the platform cannot spawn workers (sandboxes without
    fork, missing POSIX semaphores), so a sharded run degrades
    gracefully instead of crashing.
``"thread"``
    A :class:`concurrent.futures.ThreadPoolExecutor`. Mostly useful for
    exercising the task plumbing without process startup cost; the GIL
    limits real speedup for this CPU-bound work.
``"serial"``
    Plain in-line execution, in shard order. Deterministic and
    dependency-free — the default in tests.
``"remote"``
    A :class:`~repro.net.RemoteExecutor` fanning tasks out to
    :class:`~repro.net.ShardWorkerServer` processes over sockets
    (addresses from ``MatchingConfig.remote_workers`` or the
    ``REPRO_REMOTE_WORKERS`` environment variable). Unreachable
    workers fail the run loudly — never a silent local fallback.

All four return outcomes in shard order regardless of completion
order, so the merge is deterministic.
"""

from __future__ import annotations

import threading
import warnings
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Executor, ThreadPoolExecutor as _TPE

from ..engine.config import EXECUTORS
from ..errors import MatchingError
from .shard import ShardOutcome, ShardTask, run_shard_task


def available_executors() -> tuple:
    """The executor names understood by :func:`run_shard_tasks`."""
    return tuple(EXECUTORS)


class ShardWorkerPool:
    """A persistent shard executor, reused across matching runs.

    ``run_shard_tasks`` spins a pool up and tears it down per call —
    fine for a one-shot ``match()``, pure overhead for a serving path
    that fans out the same shards every request (process startup alone
    can rival a small shard's matching time). A ``ShardWorkerPool`` is
    owned by a :class:`~repro.engine.plan.PreparedMatching`: the
    underlying executor is created on first use and reused for every
    subsequent run until :meth:`close`.

    **Placement.** The process executor runs one single-process
    executor per worker slot, ``W`` slots (``max_workers``, default the
    first batch's task count), and sends task ``i`` of the pool's
    ``r``-th run (counting from 0) to slot ``(i + r) mod W``. A run's
    tasks never share a slot while ``W >= tasks``, and after ``W`` runs
    every worker has staged every shard. (A shared task queue would let
    whichever worker finishes first take several shards of one run
    while another sits idle.) The placement is static: with
    ``W < tasks``, tasks ``i`` and ``i + W`` queue on one slot even if
    another slot is idle.

    ``spawn_count`` records how many times the underlying workers were
    actually constructed — the serving tests assert it stays at 1 across
    repeated runs. The process executor degrades to serial execution
    (permanently, with a warning) on platforms that cannot spawn
    workers, exactly like :func:`run_shard_tasks`.
    """

    def __init__(self, executor: str = "process",
                 max_workers: Optional[int] = None,
                 remote_workers: Optional[Sequence[str]] = None) -> None:
        if executor not in EXECUTORS:
            raise MatchingError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if max_workers is not None and max_workers < 1:
            raise MatchingError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.executor = executor
        self.max_workers = max_workers
        self.remote_workers = remote_workers
        self._remote: Optional[object] = None
        #: The worker slots: one shared thread pool, or one
        #: single-process executor per process worker.
        self._slots: List["Executor"] = []
        #: Underlying executor constructions (1 after the first parallel
        #: run; stays 1 for the pool's whole life).
        self.spawn_count = 0
        #: Task batches served (parallel or serial alike).
        self.runs = 0
        self._closed = False

    def _ensure_slots(self, num_tasks: int) -> List["Executor"]:
        if not self._slots:
            workers = (
                self.max_workers if self.max_workers is not None
                else num_tasks
            )
            workers = max(1, workers)
            if self.executor == "thread":
                from concurrent.futures import ThreadPoolExecutor

                self._slots = [ThreadPoolExecutor(max_workers=workers)]
            else:
                from concurrent.futures import ProcessPoolExecutor

                self._slots = [
                    ProcessPoolExecutor(max_workers=1)
                    for _ in range(workers)
                ]
            self.spawn_count += 1
        return self._slots

    def _fan_out(self, tasks: List[ShardTask],
                 turn: int) -> List[ShardOutcome]:
        """Task ``i`` to slot ``(i + turn) mod W``, outcomes in order."""
        slots = self._ensure_slots(len(tasks))
        futures = [
            slots[(index + turn) % len(slots)].submit(run_shard_task, task)
            for index, task in enumerate(tasks)
        ]
        return [future.result() for future in futures]

    def _ensure_remote(self):
        if self._remote is None:
            from ..net.worker import RemoteExecutor

            self._remote = RemoteExecutor(
                self.remote_workers or (),
                max_workers=self.max_workers,
            )
            self.spawn_count += 1
        return self._remote

    def run(self, tasks: Sequence[ShardTask]) -> List[ShardOutcome]:
        """Run one batch of shard tasks, in shard order."""
        if self._closed:
            raise MatchingError("ShardWorkerPool is closed")
        tasks = list(tasks)
        turn = self.runs
        self.runs += 1
        if not tasks:
            return []
        if self.executor == "remote":
            # Routed before every local shortcut: even a single-task
            # batch must run on the cluster the caller configured.
            return self._ensure_remote().run(tasks)
        workers = (
            self.max_workers if self.max_workers is not None else len(tasks)
        )
        if (self.executor == "serial" or len(tasks) == 1
                or max(1, workers) == 1):
            return [run_shard_task(task) for task in tasks]
        if self.executor == "thread":
            return self._fan_out(tasks, turn)
        try:
            from concurrent.futures.process import BrokenProcessPool
        except ImportError:  # pragma: no cover - exotic platforms
            BrokenProcessPool = OSError
        try:
            return self._fan_out(tasks, turn)
        except (BrokenProcessPool, OSError, PermissionError,
                ImportError) as error:
            # Platform-level pool failure only: a task-level error —
            # bad input, a bug — must propagate, not silently degrade
            # the pool to serial for the rest of its life.
            self._abandon_pool()
            self.executor = "serial"
            warnings.warn(
                f"process executor unavailable ({error!r}); "
                f"falling back to serial shard execution",
                RuntimeWarning, stacklevel=2,
            )
            return [run_shard_task(task) for task in tasks]

    def _abandon_pool(self, wait: bool = False) -> None:
        slots, self._slots = self._slots, []
        for slot in slots:
            try:
                slot.shutdown(wait=wait)
            except Exception:  # pragma: no cover - defensive
                pass

    def close(self) -> None:
        """Shut the underlying executor down (idempotent).

        Waits for the workers to exit — an abandoned half-shutdown
        executor leaves interpreter-exit hooks poking closed pipes.
        The no-wait teardown is reserved for the fallback path and GC.
        """
        self._abandon_pool(wait=True)
        remote, self._remote = self._remote, None
        if remote is not None:
            remote.close()
        self._closed = True

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self._abandon_pool()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "live" if self._slots else "idle"
        )
        return (
            f"ShardWorkerPool(executor={self.executor!r}, {state}, "
            f"spawns={self.spawn_count}, runs={self.runs})"
        )


class BoundedThreadPool:
    """A lazily-created, bounded thread pool with ordered fan-out.

    The serving layer's dispatch primitive for *in-process* concurrent
    work: vectorized batch-scoring chunks (numpy releases the GIL, so
    threads genuinely overlap) and anything else that reads shared warm
    state. Unlike :class:`ShardWorkerPool` it is task-shape-agnostic —
    :meth:`map_ordered` runs any callable over items and returns results
    in submission order — and it never spawns processes, so there is
    nothing to pickle and no platform fallback to manage.

    The underlying :class:`concurrent.futures.ThreadPoolExecutor` is
    created on the first call that actually needs it (a single-item or
    single-worker map runs inline) and reused until :meth:`close`, which
    waits for in-flight work — the deterministic drain the serving
    ``close()`` contract needs.
    """

    def __init__(self, max_workers: int = 4) -> None:
        if max_workers < 1:
            raise MatchingError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = max_workers
        self._pool: Optional["_TPE"] = None  # guarded-by: _lock
        self._lock = threading.Lock()
        self._closed = False        # guarded-by: _lock

    def _ensure_pool(self) -> "_TPE":
        with self._lock:
            # Re-checked under the lock: a close() racing map_ordered
            # past its unlocked fast check must not resurrect a fresh
            # (and then never shut down) executor.
            if self._closed:
                raise MatchingError("BoundedThreadPool is closed")
            if self._pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers
                )
            return self._pool

    def map_ordered(self, fn: Callable, items: Sequence) -> List:
        """``[fn(item) for item in items]``, concurrently, in order.

        Exceptions propagate exactly as the inline loop would raise
        them (the first failing item's error, remaining work is still
        awaited by the executor).
        """
        items = list(items)
        # Deliberate lock-free fast check: _ensure_pool re-checks under
        # the lock before any executor can be (re)created.
        if self._closed:  # lint: disable=lock-guard
            raise MatchingError("BoundedThreadPool is closed")
        if len(items) <= 1 or self.max_workers == 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        return list(pool.map(fn, items))

    def close(self) -> None:
        """Shut the executor down, waiting for in-flight work (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "BoundedThreadPool":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # Racy-read repr by design: repr must never block on (or deadlock
    # through) the non-reentrant pool lock.
    def __repr__(self) -> str:  # pragma: no cover - cosmetic; lint: disable=lock-guard
        state = "closed" if self._closed else (
            "live" if self._pool is not None else "idle"
        )
        return f"BoundedThreadPool(max_workers={self.max_workers}, {state})"


def run_shard_tasks(tasks: Sequence[ShardTask], executor: str = "process",
                    max_workers: Optional[int] = None,
                    remote_workers: Optional[Sequence[str]] = None,
                    ) -> List[ShardOutcome]:
    """Run every shard task under the named executor, in shard order.

    One-shot convenience over :class:`ShardWorkerPool` — the pool is
    created and torn down around the single batch, so both the one-shot
    and the persistent serving path share one copy of the dispatch and
    platform-fallback policy. ``remote_workers`` only matters for
    ``executor="remote"`` (its connections are torn down with the pool;
    serving paths that want persistent connections hold a pool).
    """
    tasks = list(tasks)
    workers = max_workers if max_workers is not None else len(tasks)
    with ShardWorkerPool(
        executor=executor,
        max_workers=max(1, min(workers, max(1, len(tasks)))),
        remote_workers=remote_workers,
    ) as pool:
        return pool.run(tasks)
