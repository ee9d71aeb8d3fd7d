"""Length-prefixed framing: the one wire shape every peer speaks.

A frame is a 4-byte big-endian unsigned length followed by exactly that
many payload bytes. The matching protocol puts UTF-8 JSON in the
payload (:mod:`repro.net.codec`); the shard-worker protocol puts a
pickle there (the :class:`~repro.parallel.ShardTask` types are already
picklable by contract). Both directions of both protocols use this one
framing, so there is a single place that enforces the size cap and a
single set of read/write helpers — synchronous (plain sockets: the
client and the thread-driven remote executor) and asynchronous (asyncio
streams: the servers).

Both servers are a :class:`FrameServer`: one connection loop, one
start/drain lifecycle, and one command-line runner
(:func:`serve_listening`); a subclass only answers a frame's bytes.

A clean EOF *between* frames reads as ``None`` (the peer hung up); an
EOF *inside* a frame is a protocol error and raises
:class:`~repro.errors.NetworkError`.
"""

from __future__ import annotations

import socket
import struct
import time
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Optional, Protocol, Tuple, TypeVar

if TYPE_CHECKING:
    import asyncio


class _Closeable(Protocol):
    """Anything with a non-blocking ``close()`` (transports, servers)."""

    def close(self) -> object: ...

from ..errors import ConnectionRetriesExceededError, NetworkError

#: 4-byte big-endian unsigned frame length.
HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload. Large enough for any realistic
#: matching batch; small enough that a corrupt or hostile length prefix
#: cannot make a peer allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Default connect retry budget of the clients.
DEFAULT_CONNECT_ATTEMPTS = 3

#: Default initial backoff between connect attempts (doubles each try).
DEFAULT_BACKOFF_SECONDS = 0.05


def encode_frame(*payloads: bytes) -> bytes:
    """Header + payload for each payload, concatenated, ready for one
    ``sendall``/``write``."""
    parts = []
    for payload in payloads:
        if len(payload) > MAX_FRAME_BYTES:
            raise NetworkError(
                f"frame of {len(payload)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte cap"
            )
        parts += (HEADER.pack(len(payload)), payload)
    return b"".join(parts)


def _checked_length(header: bytes) -> int:
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise NetworkError(
            f"peer announced a {length}-byte frame, over the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return length


# ----------------------------------------------------------------------
# Synchronous (plain socket) side
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, n: int,
                allow_eof: bool = False) -> Optional[bytes]:
    """Exactly ``n`` bytes, or ``None`` on clean EOF at byte zero."""
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise NetworkError(
                f"connection closed mid-frame ({n - remaining} of {n} "
                f"bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, *payloads: bytes) -> None:
    """Write one frame per payload to a blocking socket, in one
    ``sendall`` (a pipelined batch reaches the peer as one burst)."""
    sock.sendall(encode_frame(*payloads))


def recv_frame(sock: socket.socket) -> Optional[bytes]:
    """Read one frame from a blocking socket (``None`` on clean EOF)."""
    header = _recv_exact(sock, HEADER.size, allow_eof=True)
    if header is None:
        return None
    length = _checked_length(header)
    if length == 0:
        return b""
    return _recv_exact(sock, length)


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``"host:port"`` string (the worker address format)."""
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise NetworkError(
            f"address must look like 'host:port', got {address!r}"
        )
    return host, int(port)


def connect_with_retry(host: str, port: int, *,
                       attempts: int = DEFAULT_CONNECT_ATTEMPTS,
                       backoff: float = DEFAULT_BACKOFF_SECONDS,
                       timeout: Optional[float] = None) -> socket.socket:
    """A connected TCP socket, retrying with exponential backoff.

    Each failed attempt sleeps ``backoff * 2**attempt`` before the next;
    once the budget is spent the last error is attached to a
    :class:`~repro.errors.ConnectionRetriesExceededError`.
    """
    if attempts < 1:
        raise NetworkError(f"attempts must be >= 1, got {attempts}")
    last_error: Optional[BaseException] = None
    for attempt in range(attempts):
        if attempt:
            time.sleep(backoff * (2 ** (attempt - 1)))
        try:
            return socket.create_connection((host, port), timeout=timeout)
        except OSError as error:
            last_error = error
    raise ConnectionRetriesExceededError(
        f"{host}:{port}", attempts, last_error
    )


# ----------------------------------------------------------------------
# Asynchronous (asyncio stream) side
# ----------------------------------------------------------------------
async def read_frame_async(
    reader: "asyncio.StreamReader",
) -> Optional[bytes]:
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns ``None`` on clean EOF between frames; raises
    :class:`~repro.errors.NetworkError` on EOF inside a frame.
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise NetworkError(
            "connection closed inside a frame header"
        ) from error
    length = _checked_length(header)
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise NetworkError(
            f"connection closed mid-frame ({len(error.partial)} of "
            f"{length} bytes received)"
        ) from error


async def write_frame_async(writer: "asyncio.StreamWriter",
                            *payloads: bytes) -> None:
    """Write one frame per payload to an :class:`asyncio.StreamWriter`
    with one ``write``, then drain once."""
    writer.write(encode_frame(*payloads))
    await writer.drain()


def start_closing(closeable: _Closeable) -> None:
    """Begin closing a transport/listener (documented non-blocking).

    A synchronous helper so coroutines can initiate the close and then
    ``await ...wait_closed()`` without calling a blocking ``.close()``
    on the event loop.
    """
    closeable.close()


# ----------------------------------------------------------------------
# The frame server
# ----------------------------------------------------------------------
_Server = TypeVar("_Server", bound="FrameServer")


class FrameServer(ABC):
    """An asyncio TCP server answering length-prefixed frames.

    The connection loop and lifecycle both servers share: each
    connection reads frames in order and answers each in its own task
    (a slow frame never holds up the next), and each reply is written
    whole under a per-connection lock. A connection whose peer hangs up,
    cuts a frame short or announces one over :data:`MAX_FRAME_BYTES`
    ends after its frames in flight are answered; other connections
    never notice.

    Subclasses implement :meth:`answer`.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._server: Optional[Any] = None
        self._stopped = False
        #: Frames currently being answered (all connections).
        self._tasks: set = set()
        #: Live connection writers, for teardown.
        self._writers: set = set()

    @abstractmethod
    async def answer(self, frame: bytes) -> bytes:
        """The reply payload for one frame. Never raises: a failure
        becomes an error payload of the server's protocol."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise NetworkError(f"{type(self).__name__} is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns the address."""
        import asyncio

        if self._server is not None:
            raise NetworkError(f"{type(self).__name__} is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port,
        )
        return self.address

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI entry point's main loop)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain (idempotent).

        Refuse new connections, answer every frame in flight (and any
        that arrive meanwhile on open connections), then close the
        connections.
        """
        import asyncio

        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            start_closing(self._server)
        # Every frame task runs to completion and its reply is written
        # before any connection is torn down.
        while self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)
        for writer in list(self._writers):
            start_closing(writer)
        if self._server is not None:
            await self._server.wait_closed()

    def _state(self) -> str:
        if self._stopped:
            return "stopped"
        return "listening" if self._server is not None else "unbound"

    async def __aenter__(self: _Server) -> _Server:
        await self.start()
        return self

    async def __aexit__(self, exc_type: object, exc: object,
                        tb: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # The connection loop
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: Any, writer: Any) -> None:
        import asyncio

        self._writers.add(writer)
        write_lock = asyncio.Lock()
        pending: set = set()
        try:
            while True:
                try:
                    frame = await read_frame_async(reader)
                except (NetworkError, ConnectionError):
                    break
                if frame is None:
                    break
                task = asyncio.get_running_loop().create_task(
                    self._reply(frame, writer, write_lock)
                )
                pending.add(task)
                self._tasks.add(task)
                task.add_done_callback(pending.discard)
                task.add_done_callback(self._tasks.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            self._writers.discard(writer)
            start_closing(writer)
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _reply(self, frame: bytes, writer: Any,
                     write_lock: Any) -> None:
        data = await self.answer(frame)
        try:
            async with write_lock:
                await write_frame_async(writer, data)
        except (ConnectionError, OSError):  # peer went away mid-reply
            pass


def serve_listening(server: FrameServer) -> int:
    """Serve from the command line until the process is terminated.

    Binds, prints ``LISTENING <host> <port>`` on stdout for a parent
    process to parse, and serves; the ``main()`` of both
    ``python -m repro.net.server`` and ``python -m repro.net.worker``.
    """
    import asyncio

    async def _serve() -> None:
        host, port = await server.start()
        print(f"LISTENING {host} {port}", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - teardown
            pass

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - operator stop
        pass
    return 0
