"""Network serving benchmark: the socket front-end against real subprocesses.

Two measurements, both against genuinely separate processes on the
loopback (never in-thread stubs — the point is to price the whole wire:
JSON codec, framing, asyncio dispatch, and a second Python process):

``matching protocol``
    A ``python -m repro.net server`` subprocess serves the same
    workload stream that an in-process ``MatchingService.submit_many``
    answers locally (the subprocess regenerates the identical dataset
    from the generator seed — the generators are deterministic). The
    networked requests/second are reported as a fraction of the
    in-process rate, and every served answer is verified pair-identical
    to the local one *before* any rate is reported.
``remote shard workers``
    A ``python -m repro.net worker`` subprocess executes a sharded
    matching via ``executor="remote"``; the result is verified
    pair-identical to ``executor="serial"`` on the same instance.

The CI acceptance bar (``benchmarks/bench_net.py``) is networked
throughput ≥ 0.5x in-process at batch 32 — the wire may at most double
the cost of a served batch on the loopback. The matrix's ``net`` grid
kind runs :func:`run_net_point` once per batch size.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

from ..data import generate_independent
from ..engine import MatchingService
from ..errors import MatchingError, NetworkError
from ..prefs import generate_preferences

#: Functions per request.
NET_FUNCTIONS_PER_REQUEST = 16

#: Distinct requests measured per point (all cache misses).
NET_NUM_REQUESTS = 64

#: The CI acceptance batch size.
NET_BATCH_SIZE = 32

#: Seconds to wait for a subprocess to announce LISTENING.
_SPAWN_TIMEOUT = 60.0


@dataclass
class NetPoint:
    """One batch size cell: in-process vs networked ``submit_many``."""

    batch_size: int
    n_objects: int
    n_functions: int
    n_requests: int
    inproc_rps: float
    net_rps: float
    #: Server-side ``submit_many`` calls and tree-path misses during the
    #: served stream (``stats`` RPC deltas).
    batches: int
    fallback_requests: int

    @property
    def ratio(self) -> float:
        """Networked / in-process requests-per-second."""
        return self.net_rps / max(1e-9, self.inproc_rps)

    @property
    def requests_per_batch(self) -> float:
        """How many served requests each server batch held on average."""
        return self.n_requests / max(1, self.batches)


@dataclass
class RemoteSmoke:
    """The remote-worker smoke: one sharded matching over the wire."""

    shards: int
    n_objects: int
    n_functions: int
    serial_seconds: float
    remote_seconds: float
    verified: bool


# ----------------------------------------------------------------------
# Subprocess plumbing
# ----------------------------------------------------------------------
def _subprocess_env() -> dict:
    """The child's environment, with this library importable."""
    import repro

    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_root + (os.pathsep + existing if existing else "")
    )
    return env


def spawn_listening(argv: Sequence[str],
                    ) -> Tuple[subprocess.Popen, str, int]:
    """Start a server subprocess and parse its ``LISTENING`` line."""
    process = subprocess.Popen(
        list(argv), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_subprocess_env(), text=True,
    )
    deadline = time.monotonic() + _SPAWN_TIMEOUT
    assert process.stdout is not None
    while True:
        line = process.stdout.readline()
        if line.startswith("LISTENING "):
            _, host, port = line.split()
            return process, host, int(port)
        if not line or process.poll() is not None:
            stderr = ""
            if process.stderr is not None:
                stderr = process.stderr.read()
            process.kill()
            raise NetworkError(
                f"subprocess {argv[-1]!r} exited before LISTENING: "
                f"{stderr.strip()[-500:]}"
            )
        if time.monotonic() > deadline:  # pragma: no cover - hang guard
            process.kill()
            raise NetworkError(
                f"subprocess {argv[-1]!r} did not announce LISTENING "
                f"within {_SPAWN_TIMEOUT}s"
            )


def _stop(process: subprocess.Popen) -> None:
    # Leaving the block closes the stdout/stderr pipes and reaps.
    with process:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
            process.kill()


# ----------------------------------------------------------------------
# The matching-protocol point
# ----------------------------------------------------------------------
def run_net_point(n_objects: int, batch_size: int = NET_BATCH_SIZE,
                  num_requests: int = NET_NUM_REQUESTS,
                  dims: int = 4, seed: int = 42,
                  functions_per_request: int = NET_FUNCTIONS_PER_REQUEST,
                  ) -> NetPoint:
    """Measure one cell: in-process vs networked ``submit_many``.

    The server subprocess regenerates the identical dataset from
    ``(n_objects, dims, seed)``; both sides answer the same distinct
    workload stream in ``batch_size`` chunks from a cold cache, and the
    served answers are verified pair-identical to the in-process ones
    before any rate is computed. The server's ``stats`` RPC, read
    before and after the timed stream, says how the stream was batched.
    """
    from ..net import MatchingClient

    if batch_size < 1:
        raise MatchingError(f"batch_size must be >= 1, got {batch_size}")
    objects = generate_independent(n_objects, dims, seed=seed)
    workloads = [
        generate_preferences(functions_per_request, dims,
                             seed=seed + 1 + request)
        for request in range(num_requests)
    ]

    with MatchingService(objects, algorithm="sb", backend="memory",
                         deletion_mode="filter") as service:
        start = time.perf_counter()
        local: List = []
        for offset in range(0, len(workloads), batch_size):
            local.extend(
                service.submit_many(workloads[offset:offset + batch_size])
            )
        inproc_seconds = time.perf_counter() - start

    process, host, port = spawn_listening([
        sys.executable, "-m", "repro.net", "server",
        "--objects", str(n_objects), "--dims", str(dims),
        "--seed", str(seed), "--algorithm", "sb",
        "--backend", "memory",
    ])
    try:
        with MatchingClient(host, port, timeout=120.0) as client:
            before = client.stats()
            start = time.perf_counter()
            served: List = []
            for offset in range(0, len(workloads), batch_size):
                served.extend(client.submit_many(
                    workloads[offset:offset + batch_size]
                ))
            net_seconds = time.perf_counter() - start
            after = client.stats()
    finally:
        _stop(process)

    for one, other in zip(local, served):
        if one.as_set() != other.as_set():
            raise MatchingError(
                f"networked serving diverged from in-process "
                f"submit_many at batch size {batch_size}"
            )

    return NetPoint(
        batch_size=batch_size,
        n_objects=n_objects,
        n_functions=functions_per_request,
        n_requests=len(workloads),
        inproc_rps=len(workloads) / max(1e-9, inproc_seconds),
        net_rps=len(workloads) / max(1e-9, net_seconds),
        batches=after["batches"] - before["batches"],
        fallback_requests=(after["fallback_requests"]
                           - before["fallback_requests"]),
    )


# ----------------------------------------------------------------------
# The remote-worker smoke
# ----------------------------------------------------------------------
def run_remote_smoke(n_objects: int, shards: int = 3, dims: int = 4,
                     seed: int = 42) -> RemoteSmoke:
    """One sharded matching through a real worker subprocess."""
    import repro

    objects = generate_independent(n_objects, dims, seed=seed)
    prefs = generate_preferences(NET_FUNCTIONS_PER_REQUEST, dims,
                                 seed=seed + 1)

    start = time.perf_counter()
    serial = repro.match(objects, prefs, backend="memory", shards=shards,
                         executor="serial")
    serial_seconds = time.perf_counter() - start

    process, host, port = spawn_listening([
        sys.executable, "-m", "repro.net", "worker",
    ])
    try:
        start = time.perf_counter()
        remote = repro.match(objects, prefs, backend="memory",
                             shards=shards, executor="remote",
                             remote_workers=(f"{host}:{port}",))
        remote_seconds = time.perf_counter() - start
    finally:
        _stop(process)

    if remote.as_set() != serial.as_set():
        raise MatchingError(
            f"executor='remote' diverged from executor='serial' at "
            f"{shards} shards"
        )
    return RemoteSmoke(
        shards=shards,
        n_objects=n_objects,
        n_functions=len(prefs),
        serial_seconds=serial_seconds,
        remote_seconds=remote_seconds,
        verified=True,
    )
