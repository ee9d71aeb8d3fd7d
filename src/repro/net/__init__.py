"""Network serving: the matching stack across a socket.

Two protocols share one length-prefixed framing (:mod:`repro.net.frames`):

- the **matching protocol** — UTF-8 JSON frames carrying
  :class:`~repro.engine.request.MatchingRequest` /
  :class:`~repro.engine.result.MatchResult` mirrors
  (:mod:`repro.net.codec`), spoken by :class:`MatchingServer` (a socket
  front-end over :class:`~repro.engine.async_service.AsyncMatchingService`)
  and :class:`MatchingClient`; and
- the **shard-worker protocol** — pickle frames carrying
  :class:`~repro.parallel.ShardTask` / outcome values, spoken by
  :class:`ShardWorkerServer` and :class:`RemoteExecutor`, which plugs
  into the executor registry as ``executor="remote"``. Pickle means
  trusted-cluster only; the JSON front door is the untrusted-facing
  surface.

Both servers are one :class:`~repro.net.frames.FrameServer`: one
connection loop, one graceful drain, one command-line runner; each
answers its own protocol's frames.

Everything is standard-library (``asyncio`` streams + ``socket``), so
the serving stack deploys anywhere the library imports.
"""

from __future__ import annotations

from .client import MatchingClient
from .codec import (decode_request, decode_result, encode_request,
                    encode_result)
from .frames import (DEFAULT_BACKOFF_SECONDS, DEFAULT_CONNECT_ATTEMPTS,
                     MAX_FRAME_BYTES)
from .server import MatchingServer, ServerThread
from .worker import (RemoteExecutor, ShardWorkerServer,
                     resolve_worker_addresses)

__all__ = [
    # Matching protocol
    "MatchingServer",
    "ServerThread",
    "MatchingClient",
    # Shard-worker protocol
    "ShardWorkerServer",
    "RemoteExecutor",
    "resolve_worker_addresses",
    # Codec
    "encode_request",
    "decode_request",
    "encode_result",
    "decode_result",
    # Framing constants
    "MAX_FRAME_BYTES",
    "DEFAULT_CONNECT_ATTEMPTS",
    "DEFAULT_BACKOFF_SECONDS",
]
