"""The network client: the remote face of ``service.submit``.

:class:`MatchingClient` mirrors the in-process serving API for
scripts, benchmarks, and thread-based callers, over one blocking socket
per client. :meth:`MatchingClient.submit_many` pipelines a whole batch
over the single connection: every request frame goes out in one write
before any response is read, so the server reads the burst at once and
answers it with one vectorized ``submit_many`` pass. An asyncio caller
runs the client in a thread, or skips the socket and awaits an
in-process :class:`~repro.engine.async_service.AsyncMatchingService`.

The client connects lazily with bounded exponential-backoff retries
(:class:`~repro.errors.ConnectionRetriesExceededError` carries the
attempt count and the last socket error when the budget is spent), and
converts error frames back into typed exceptions: a 429 frame raises
the same :class:`~repro.errors.ServiceOverloadedError` an in-process
caller would see, a codec rejection raises
:class:`~repro.errors.CodecError`, anything else raises
:class:`~repro.errors.RemoteError` with the server's status code.

Per-request timeouts ride inside the request itself
(:class:`~repro.engine.request.MatchingRequest` ``timeout``) and are
enforced server-side (a 504 frame comes back); the client-level
``timeout`` bounds socket I/O.
"""

from __future__ import annotations

import itertools
import json
import socket
from typing import Any, Dict, List, Optional, Sequence

from ..engine.request import MatchingRequest
from ..engine.result import MatchResult
from ..errors import (
    CodecError,
    NetworkError,
    RemoteError,
    ServiceOverloadedError,
)
from .codec import decode_result, encode_request
from .frames import (
    DEFAULT_BACKOFF_SECONDS,
    DEFAULT_CONNECT_ATTEMPTS,
    connect_with_retry,
    recv_frame,
    send_frame,
)

__all__ = ["MatchingClient"]


def raise_error_frame(error: Dict[str, Any]) -> None:
    """Convert one error frame back into its typed local exception."""
    code = int(error.get("code", 500))
    remote_type = str(error.get("type", "Exception"))
    message = str(error.get("message", ""))
    if code == 429 or remote_type == "ServiceOverloadedError":
        raise ServiceOverloadedError(message)
    if remote_type == "CodecError":
        raise CodecError(message)
    raise RemoteError(code, remote_type, message)


def _decode_response(frame: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(frame.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise NetworkError(f"malformed response frame: {error}")
    if not isinstance(message, dict) or "id" not in message:
        raise NetworkError("malformed response frame: no request id")
    return message


def _collect(responses: Dict[Any, Dict[str, Any]],
             wanted: Sequence[Any]) -> List[MatchResult]:
    """Order responses by submission; raise the first error in order."""
    results: List[MatchResult] = []
    for message_id in wanted:
        message = responses[message_id]
        if not message.get("ok"):
            raise_error_frame(message.get("error") or {})
        results.append(decode_result(message.get("payload") or {}))
    return results


class MatchingClient:
    """A synchronous client for one :class:`~repro.net.MatchingServer`.

    Parameters
    ----------
    host / port:
        The server address.
    timeout:
        Socket timeout in seconds for connect and I/O (``None`` blocks
        indefinitely — per-request deadlines belong on the requests).
    connect_attempts / backoff:
        Connect retry budget and initial backoff (doubled per retry).

    Not thread-safe: one client per thread (clients are cheap — one
    socket each).
    """

    def __init__(self, host: str, port: int, *,
                 timeout: Optional[float] = None,
                 connect_attempts: int = DEFAULT_CONNECT_ATTEMPTS,
                 backoff: float = DEFAULT_BACKOFF_SECONDS) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_attempts = connect_attempts
        self.backoff = backoff
        self._sock: Optional[socket.socket] = None
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Connect now (otherwise the first call connects lazily)."""
        if self._sock is None:
            self._sock = connect_with_retry(
                self.host, self.port,
                attempts=self.connect_attempts, backoff=self.backoff,
                timeout=self.timeout,
            )

    def close(self) -> None:
        """Close the connection (idempotent; the client is reusable —
        the next call reconnects)."""
        if self._sock is not None:
            sock, self._sock = self._sock, None
            try:
                sock.close()
            except OSError:  # pragma: no cover - teardown
                pass

    def __enter__(self) -> "MatchingClient":
        self.connect()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The wire exchange
    # ------------------------------------------------------------------
    def _exchange(self, messages: List[Dict[str, Any]],
                  ) -> List[Dict[str, Any]]:
        """Pipeline request frames, demultiplex responses by id."""
        self.connect()
        assert self._sock is not None
        wanted = [message["id"] for message in messages]
        try:
            send_frame(self._sock, *[json.dumps(message).encode("utf-8")
                                     for message in messages])
            responses: Dict[Any, Dict[str, Any]] = {}
            outstanding = set(wanted)
            while outstanding:
                frame = recv_frame(self._sock)
                if frame is None:
                    raise NetworkError(
                        f"server closed the connection with "
                        f"{len(outstanding)} response(s) outstanding"
                    )
                message = _decode_response(frame)
                if message["id"] in outstanding:
                    outstanding.discard(message["id"])
                    responses[message["id"]] = message
            return [responses[message_id] for message_id in wanted]
        except NetworkError:
            # The stream is no longer frame-aligned; drop it so the
            # next call reconnects cleanly.
            self.close()
            raise
        except OSError as error:
            # A timeout or reset: the same, as the typed error.
            self.close()
            raise NetworkError(
                f"exchange with {self.host}:{self.port} failed: {error!r}"
            ) from error

    def _call(self, op: str,
              payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        message = {"id": next(self._ids), "op": op,
                   "payload": payload or {}}
        (response,) = self._exchange([message])
        if not response.get("ok"):
            raise_error_frame(response.get("error") or {})
        return response.get("payload") or {}

    # ------------------------------------------------------------------
    # The serving surface
    # ------------------------------------------------------------------
    def submit(self, request: Any) -> MatchResult:
        """Answer one workload remotely (mirrors ``service.submit``)."""
        return self.submit_many([request])[0]

    def submit_many(self, requests: Sequence[Any]) -> List[MatchResult]:
        """Answer a batch, pipelined over the one connection.

        All frames go out in one write before any response is read, so
        the server's micro-batcher sees the whole batch at once. Results
        come back in submission order; the first failed request's typed
        error is raised (after all responses are drained, so the
        connection survives).
        """
        batch = [MatchingRequest.of(request) for request in requests]
        if not batch:
            return []
        messages = [
            {"id": next(self._ids), "op": "match",
             "payload": encode_request(request)}
            for request in batch
        ]
        responses = self._exchange(messages)
        by_id = {message["id"]: message for message in responses}
        return _collect(by_id, [message["id"] for message in messages])

    def stats(self) -> Dict[str, Any]:
        """The server's :class:`~repro.engine.service.ServiceStats`
        snapshot as a plain dict (the ``stats`` RPC)."""
        return self._call("stats")

    def health(self) -> Dict[str, Any]:
        """The server's liveness/drain state (the ``health`` RPC)."""
        return self._call("health")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "connected" if self._sock is not None else "idle"
        return f"MatchingClient({self.host}:{self.port}, {state})"
