"""`MatchingServer`: the socket front door of the serving stack.

The server binds the existing in-process pipeline to a TCP port:
each connection speaks length-prefixed JSON frames
(:mod:`repro.net.frames`), every ``match`` message is decoded into a
:class:`~repro.engine.request.MatchingRequest` and awaited on an
:class:`~repro.engine.async_service.AsyncMatchingService` — so frames
get the same group-commit micro-batches, duplicate elimination, and
vectorized scoring that in-process callers get. A pipelined burst that
arrives in one read is queued whole before the collector wakes, so it
becomes one batch; a request that reaches an idle server is dispatched
at once. Responses carry the matched request ``id``, so clients may
pipeline any number of frames over one connection.

Three operations:

``match``
    ``payload`` is an encoded request; the response payload an encoded
    :class:`~repro.engine.result.MatchResult`. Failures come back as
    typed error frames: admission-control rejections as code **429**,
    codec rejections as **400**, request timeouts as **504**, drain
    rejections as **503**, anything else as **500**.
``stats``
    :meth:`ServiceStats.as_dict()
    <repro.engine.service.ServiceStats.as_dict>` of the wrapped
    service — the observability endpoint.
``health``
    ``{"status": "ok" | "draining"}`` plus the server address.

A frame that is not a UTF-8 JSON object with a string ``op`` answers
400 with type ``CodecError``, echoing the ``id`` when one could be
read; an unknown ``op`` answers 400 too. The connection stays usable.

Shutdown is the :class:`~repro.net.frames.FrameServer` graceful drain:
the listener closes first (new connections are refused), in-flight
requests run to completion and their responses are delivered, new
frames on surviving connections are rejected with 503, then connections
and the async front-end are closed.

:class:`ServerThread` runs either :mod:`repro.net` server on a
dedicated event-loop thread — the deployment shape the synchronous
client, the tests, and the examples use.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from ..engine.async_service import DEFAULT_MAX_BATCH, AsyncMatchingService
from ..engine.service import MatchingService
from ..errors import (
    CodecError,
    MatchingError,
    NetworkError,
    ReproError,
    ServiceOverloadedError,
)
from .codec import decode_request, encode_result
from .frames import FrameServer, serve_listening

__all__ = ["MatchingServer", "ServerThread"]

#: Loopback default: exposing a matching service beyond the host is a
#: deployment decision, not a default.
DEFAULT_HOST = "127.0.0.1"


def _error_code(error: BaseException) -> int:
    """Map a server-side exception to its wire status code."""
    import asyncio

    if isinstance(error, ServiceOverloadedError):
        return 429
    if isinstance(error, (asyncio.TimeoutError, TimeoutError)):
        return 504
    if isinstance(error, (CodecError, MatchingError, ReproError)):
        return 400
    return 500


def error_payload(error: BaseException,
                  code: Optional[int] = None) -> Dict[str, Any]:
    """The ``error`` object of a failure response frame."""
    return {
        "code": code if code is not None else _error_code(error),
        "type": type(error).__name__,
        "message": str(error) or type(error).__name__,
    }


class MatchingServer(FrameServer):
    """Serve a :class:`~repro.engine.service.MatchingService` over TCP.

    Parameters
    ----------
    service:
        The synchronous service answering requests (borrowed: it
        survives :meth:`stop` unless ``close_service=True``).
    host / port:
        Bind address; port ``0`` picks a free port (read it back from
        :attr:`address` after :meth:`start`).
    max_batch:
        Batch bound of the internal
        :class:`~repro.engine.async_service.AsyncMatchingService`.
    close_service:
        Close the wrapped service when the server stops.
    """

    def __init__(self, service: MatchingService, *,
                 host: str = DEFAULT_HOST, port: int = 0,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 close_service: bool = False) -> None:
        super().__init__(host, port)
        self.service = service
        self.close_service = close_service
        self._front = AsyncMatchingService(service, max_batch=max_batch)
        self._draining = False

    async def stop(self) -> None:
        """Graceful drain (idempotent).

        Refuse new connections, answer everything in flight, reject
        late frames with 503, then tear the connections and the async
        front-end down.
        """
        if self._stopped:
            return
        self._draining = True
        await super().stop()
        await self._front.aclose(close_service=self.close_service)

    # ------------------------------------------------------------------
    # One frame
    # ------------------------------------------------------------------
    async def answer(self, frame: bytes) -> bytes:
        """The JSON reply to one JSON message frame."""
        message_id: Any = None
        try:
            try:
                message = json.loads(frame.decode("utf-8"))
            except (ValueError, RecursionError) as error:
                # ValueError covers UnicodeDecodeError; RecursionError
                # is JSON nested deeper than the decoder can follow.
                raise CodecError(
                    f"frame is not readable UTF-8 JSON: {error}"
                ) from None
            if not isinstance(message, dict):
                raise CodecError(
                    f"frame must be a JSON object, got "
                    f"{type(message).__name__}"
                )
            message_id = message.get("id")
            op = message.get("op")
            if not isinstance(op, str):
                raise CodecError(f"frame op must be a string, got {op!r}")
            if op == "match":
                response = await self._handle_match(
                    message_id, message.get("payload") or {}
                )
            elif op == "stats":
                response = self._envelope(
                    message_id, self.service.snapshot().as_dict()
                )
            elif op == "health":
                response = self._envelope(message_id, {
                    "status": "draining" if self._draining else "ok",
                    "address": list(self.address),
                })
            else:
                response = self._failure(
                    message_id,
                    error_payload(NetworkError(f"unknown op {op!r}"),
                                  code=400),
                )
        except Exception as error:
            response = self._failure(message_id, error_payload(error))
        return json.dumps(response).encode("utf-8")

    async def _handle_match(self, message_id: Any,
                            payload: Dict[str, Any]) -> Dict[str, Any]:
        if self._draining:
            return self._failure(message_id, error_payload(
                NetworkError("server is draining; request rejected"),
                code=503,
            ))
        try:
            request = decode_request(payload)
            result = await self._front.submit(request)
        except Exception as error:
            return self._failure(message_id, error_payload(error))
        return self._envelope(message_id, encode_result(result))

    @staticmethod
    def _envelope(message_id: Any,
                  payload: Dict[str, Any]) -> Dict[str, Any]:
        return {"id": message_id, "ok": True, "payload": payload}

    @staticmethod
    def _failure(message_id: Any,
                 error: Dict[str, Any]) -> Dict[str, Any]:
        return {"id": message_id, "ok": False, "error": error}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = self._state()
        if self._draining and state != "stopped":
            state = "draining"
        return f"MatchingServer({self.service!r}, {state})"


class ServerThread:
    """Run one :mod:`repro.net` server on a dedicated event-loop thread.

    The synchronous deployment shape: hand it a constructed (not yet
    started) :class:`MatchingServer` or
    :class:`~repro.net.worker.ShardWorkerServer`, call :meth:`start` to
    get the bound address, talk to it from any thread or process, and
    call :meth:`stop` (or leave the ``with`` block) to drain and join.
    """

    _READY_TIMEOUT = 30.0

    def __init__(self, server: FrameServer) -> None:
        self.server = server
        self._thread: Optional[Any] = None
        self._loop: Optional[Any] = None
        self._stop_event: Optional[Any] = None
        self._ready: Any = None
        self._error: Optional[BaseException] = None

    def start(self) -> Tuple[str, int]:
        """Start the loop thread; returns the server's bound address."""
        import threading

        if self._thread is not None:
            raise NetworkError("ServerThread is already started")
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-net-server", daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(self._READY_TIMEOUT):  # pragma: no cover
            raise NetworkError("server thread did not become ready")
        if self._error is not None:
            error, self._error = self._error, None
            raise error
        return self.server.address

    def _run(self) -> None:
        import asyncio

        asyncio.run(self._main())

    async def _main(self) -> None:
        import asyncio

        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as error:  # surfaced from start()
            self._error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self) -> None:
        """Drain the server and join the loop thread (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._thread.is_alive():
            loop, event = self._loop, self._stop_event
            if event is not None:
                loop.call_soon_threadsafe(event.set)
        self._thread.join(self._READY_TIMEOUT)

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        alive = self._thread is not None and self._thread.is_alive()
        return f"ServerThread({self.server!r}, alive={alive})"


# ----------------------------------------------------------------------
# Subprocess entry point (benchmarks, deployment sketches)
# ----------------------------------------------------------------------
def main(argv: Optional[list] = None) -> int:
    """``python -m repro.net server``: serve a generated catalog.

    Regenerates the object set from ``--objects/--dims/--seed`` (the
    generators are deterministic, so a client that generates the same
    workload locally gets pair-identical answers), binds, and prints
    ``LISTENING <host> <port>`` on stdout for the parent process to
    parse. Serves until the process is terminated.
    """
    import argparse

    from ..data import generate_independent

    parser = argparse.ArgumentParser(
        prog="python -m repro.net server",
        description="Serve matching requests over TCP "
                    "(length-prefixed JSON frames).",
    )
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--objects", type=int, default=2000)
    parser.add_argument("--dims", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--algorithm", default="sb")
    parser.add_argument("--backend", default="memory")
    parser.add_argument("--max-inflight", type=int, default=None)
    parser.add_argument("--admission", default="block")
    args = parser.parse_args(argv)

    objects = generate_independent(args.objects, args.dims, seed=args.seed)
    service = MatchingService(
        objects, algorithm=args.algorithm, backend=args.backend,
        deletion_mode="filter", max_inflight=args.max_inflight,
        admission=args.admission,
    )
    return serve_listening(MatchingServer(
        service, host=args.host, port=args.port, close_service=True,
    ))


if __name__ == "__main__":  # pragma: no cover - exercised as subprocess
    import sys

    # A second copy of this module (the package imported the first):
    # refuse rather than serve from a second class.
    sys.exit("python -m repro.net.server is not an entry point; "
             "run python -m repro.net server")
