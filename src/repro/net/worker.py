"""Remote shard workers: `repro.parallel` across machine boundaries.

The sharded layer already ships work as picklable
:class:`~repro.parallel.ShardTask` / :class:`~repro.parallel.ShardOutcome`
values — that is exactly a wire protocol, so the cross-node path reuses
it verbatim: a :class:`ShardWorkerServer` accepts length-prefixed
pickle frames, executes each task with the same
:func:`~repro.parallel.shard.run_shard_task` a process-pool worker
would run (worker-resident staging cache included: a shard tree is
bulk-loaded once per staging epoch and reused across requests), and a
:class:`RemoteExecutor` — registered as ``executor="remote"`` in the
:data:`~repro.engine.config.EXECUTORS` registry — fans a run's tasks
out over persistent connections. The merge/repair pass downstream is
byte-for-byte the local one, so ``executor="remote"`` results are
pair-identical to ``executor="process"``.

Worker-raised exceptions travel back as pickled error frames and
re-raise in the caller with their original type (the picklability lint
rule keeps the library's exception types reconstructible); worker
*unavailability* raises
:class:`~repro.errors.ConnectionRetriesExceededError` — never a silent
fallback to local execution, which would mask a dead cluster.

The pickle frames make this a **trusted-cluster** protocol: never
expose a shard worker port to untrusted peers (the JSON front door,
:class:`~repro.net.MatchingServer`, is the untrusted-facing surface).
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import MatchingError, NetworkError
from ..parallel.shard import ShardOutcome, ShardTask, run_shard_task
from .frames import (
    DEFAULT_BACKOFF_SECONDS,
    DEFAULT_CONNECT_ATTEMPTS,
    FrameServer,
    connect_with_retry,
    parse_address,
    recv_frame,
    send_frame,
    serve_listening,
)

__all__ = ["ShardWorkerServer", "RemoteExecutor",
           "resolve_worker_addresses"]

#: Environment variable naming default shard workers (comma-separated
#: ``host:port`` entries) for ``executor="remote"`` runs that do not
#: set ``MatchingConfig.remote_workers`` explicitly.
WORKERS_ENV = "REPRO_REMOTE_WORKERS"

_LOOPBACK = "127.0.0.1"


def resolve_worker_addresses(
    explicit: Optional[Sequence[str]] = None,
) -> Tuple[str, ...]:
    """Worker addresses from config or the environment, validated.

    ``explicit`` (``MatchingConfig.remote_workers``) wins; otherwise
    the :data:`WORKERS_ENV` variable is split on commas. No addresses
    at all is a configuration error, not a fallback to local execution.
    """
    if explicit:
        addresses = tuple(str(address) for address in explicit)
    else:
        raw = os.environ.get(WORKERS_ENV, "")
        addresses = tuple(
            token.strip() for token in raw.split(",") if token.strip()
        )
    if not addresses:
        raise MatchingError(
            f"executor='remote' needs worker addresses: set "
            f"remote_workers=('host:port', ...) on the config or the "
            f"{WORKERS_ENV} environment variable"
        )
    for address in addresses:
        parse_address(address)  # raises NetworkError on bad shapes
    return addresses


class ShardWorkerServer(FrameServer):
    """Execute :class:`~repro.parallel.ShardTask` frames over TCP.

    Each frame is a pickled ``(kind, payload)`` tuple: ``("task",
    ShardTask)`` answers ``("ok", ShardOutcome)`` or ``("error",
    exception)``; ``("ping", None)`` answers ``("ok", "pong")``. Task
    execution runs on a bounded thread pool off the event loop, so one
    worker process overlaps several shards (and stays responsive to
    pings) while the loop keeps multiplexing connections. The pool is
    created on :meth:`start` and joined after :meth:`stop`'s drain.
    """

    def __init__(self, *, host: str = _LOOPBACK, port: int = 0,
                 max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise MatchingError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        super().__init__(host, port)
        self.max_workers = (
            max_workers if max_workers is not None
            else max(1, min(4, os.cpu_count() or 1))
        )
        #: Tasks executed (ok and error alike).
        self.tasks_served = 0
        self._executor: Optional[Any] = None

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns the address."""
        from concurrent.futures import ThreadPoolExecutor

        if self._server is None and self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-shard-worker",
            )
        return await super().start()

    async def stop(self) -> None:
        """Drain in-flight tasks, then join the task pool (idempotent)."""
        import asyncio
        import functools

        if self._stopped:
            return
        await super().stop()
        if self._executor is not None:
            executor, self._executor = self._executor, None
            await asyncio.get_running_loop().run_in_executor(
                None, functools.partial(executor.shutdown, wait=True)
            )

    async def answer(self, frame: bytes) -> bytes:
        """The pickled reply to one pickled ``(kind, payload)`` frame."""
        import asyncio

        try:
            kind, payload = pickle.loads(frame)
            if kind == "task":
                if not isinstance(payload, ShardTask):
                    raise NetworkError(
                        f"'task' frame payload must be a ShardTask, "
                        f"got {type(payload).__name__}"
                    )
                self.tasks_served += 1
                outcome = await asyncio.get_running_loop().run_in_executor(
                    self._executor, run_shard_task, payload
                )
                response: Tuple[str, Any] = ("ok", outcome)
            elif kind == "ping":
                response = ("ok", "pong")
            else:
                raise NetworkError(f"unknown worker op {kind!r}")
        except Exception as error:
            response = ("error", error)
        try:
            return pickle.dumps(response)
        except Exception as error:  # pragma: no cover - defensive
            # An unpicklable result/exception must still answer the
            # frame, or the caller hangs waiting for it.
            return pickle.dumps(
                ("error", NetworkError(
                    f"worker response could not be pickled: {error}"
                ))
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardWorkerServer({self._state()}, "
            f"workers={self.max_workers}, tasks={self.tasks_served})"
        )


class RemoteExecutor:
    """Round-robin shard tasks over persistent worker connections.

    The ``executor="remote"`` strategy behind
    :class:`~repro.parallel.executors.ShardWorkerPool`: task *i* of a
    run goes to worker ``i % len(workers)``; per-worker connections are
    opened lazily (with the shared retry/backoff policy), serialized by
    a per-worker lock, and reused across runs — which is what lets the
    worker-resident staging caches stay warm between serving requests.
    A connection that died between runs is re-opened once; a worker
    that stays unreachable fails the run loudly.
    """

    def __init__(self, workers: Sequence[str], *,
                 connect_attempts: int = DEFAULT_CONNECT_ATTEMPTS,
                 backoff: float = DEFAULT_BACKOFF_SECONDS,
                 timeout: Optional[float] = None,
                 max_workers: Optional[int] = None) -> None:
        self.workers = resolve_worker_addresses(workers)
        self.connect_attempts = connect_attempts
        self.backoff = backoff
        self.timeout = timeout
        self.max_workers = (
            max_workers if max_workers is not None else len(self.workers)
        )
        if self.max_workers < 1:
            raise MatchingError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        # Key i of _sockets is only touched while holding _locks[i]
        # (see _roundtrip); close() runs after _closed stops new runs.
        self._sockets: Dict[int, socket.socket] = {}
        self._locks = [threading.Lock() for _ in self.workers]
        self._fanout: Optional[Any] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _connected(self, worker_index: int) -> socket.socket:
        sock = self._sockets.get(worker_index)
        if sock is None:
            host, port = parse_address(self.workers[worker_index])
            sock = connect_with_retry(
                host, port, attempts=self.connect_attempts,
                backoff=self.backoff, timeout=self.timeout,
            )
            self._sockets[worker_index] = sock
        return sock

    def _drop(self, worker_index: int) -> None:
        sock = self._sockets.pop(worker_index, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - teardown
                pass

    def _roundtrip(self, worker_index: int, frame: bytes) -> bytes:
        """One framed exchange with a worker, under its lock.

        A cached connection that fails is dropped and re-opened once —
        persistent connections go stale between runs; a freshly-opened
        one that fails is a real worker failure and propagates.
        """
        with self._locks[worker_index]:
            retried = worker_index in self._sockets
            while True:
                sock = self._connected(worker_index)
                try:
                    send_frame(sock, frame)
                    response = recv_frame(sock)
                    if response is None:
                        raise NetworkError(
                            f"worker {self.workers[worker_index]} "
                            f"closed the connection mid-exchange"
                        )
                    return response
                except (OSError, NetworkError):
                    self._drop(worker_index)
                    if not retried:
                        raise
                    retried = False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_assignment(self, assignment: Tuple[ShardTask, int],
                        ) -> ShardOutcome:
        task, worker_index = assignment
        frame = pickle.dumps(("task", task))
        response = self._roundtrip(worker_index, frame)
        kind, payload = pickle.loads(response)
        if kind == "error":
            raise payload
        if kind != "ok" or not isinstance(payload, ShardOutcome):
            raise NetworkError(
                f"worker {self.workers[worker_index]} answered a "
                f"malformed frame (kind={kind!r})"
            )
        return payload

    def run(self, tasks: Sequence[ShardTask]) -> List[ShardOutcome]:
        """Run one batch of shard tasks remotely, in shard order."""
        if self._closed:
            raise MatchingError("RemoteExecutor is closed")
        tasks = list(tasks)
        if not tasks:
            return []
        assignments = [
            (task, index % len(self.workers))
            for index, task in enumerate(tasks)
        ]
        if len(assignments) == 1:
            return [self._run_assignment(assignments[0])]
        if self._fanout is None:
            from ..parallel.executors import BoundedThreadPool

            self._fanout = BoundedThreadPool(
                max_workers=self.max_workers
            )
        return self._fanout.map_ordered(self._run_assignment, assignments)

    def ping(self, worker_index: int = 0) -> bool:
        """Health-check one worker (True on a ``pong``)."""
        response = self._roundtrip(
            worker_index, pickle.dumps(("ping", None))
        )
        kind, payload = pickle.loads(response)
        return kind == "ok" and payload == "pong"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the fan-out pool and every connection (idempotent)."""
        self._closed = True
        fanout, self._fanout = self._fanout, None
        if fanout is not None:
            fanout.close()
        for worker_index in list(self._sockets):
            self._drop(worker_index)

    def __enter__(self) -> "RemoteExecutor":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            f"{len(self._sockets)} connected"
        )
        return f"RemoteExecutor(workers={list(self.workers)}, {state})"


# ----------------------------------------------------------------------
# Subprocess entry point
# ----------------------------------------------------------------------
def main(argv: Optional[list] = None) -> int:
    """``python -m repro.net.worker``: run one shard worker server.

    Binds, prints ``LISTENING <host> <port>`` for the parent process to
    parse, and serves until terminated.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.net.worker",
        description="Execute repro.parallel shard tasks over TCP "
                    "(trusted-cluster pickle protocol).",
    )
    parser.add_argument("--host", default=_LOOPBACK)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--max-workers", type=int, default=None)
    args = parser.parse_args(argv)
    return serve_listening(ShardWorkerServer(
        host=args.host, port=args.port, max_workers=args.max_workers,
    ))


if __name__ == "__main__":  # pragma: no cover - exercised as subprocess
    import sys

    sys.exit(main())
