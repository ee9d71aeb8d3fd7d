"""Length-prefixed framing: the one wire shape every peer speaks.

A frame is a 4-byte big-endian unsigned length followed by exactly that
many payload bytes. The matching protocol puts UTF-8 JSON in the
payload (:mod:`repro.net.codec`); the shard-worker protocol puts a
pickle there (the :class:`~repro.parallel.ShardTask` types are already
picklable by contract). Both directions of both protocols use this one
framing, so there is a single place that enforces the size cap and a
single set of read/write helpers — synchronous (plain sockets, the sync
client and the thread-driven remote executor) and asynchronous (asyncio
streams, the servers and the async client).

A clean EOF *between* frames reads as ``None`` (the peer hung up); an
EOF *inside* a frame is a protocol error and raises
:class:`~repro.errors.NetworkError`.
"""

from __future__ import annotations

import socket
import struct
import time
from typing import TYPE_CHECKING, Optional, Protocol, Tuple

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
