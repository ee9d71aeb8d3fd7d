"""A dead peer ends in a typed error, not a raw socket error.

``MatchingClient`` and ``RemoteExecutor`` talk to peers that can stop
answering without closing, or close inside a frame. Either way the
caller gets a :class:`~repro.errors.NetworkError` (chained from the
socket error) within its socket timeout, and nothing is left behind: no
thread, no open socket (the ``no_leaks`` fixture in ``conftest.py``).
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time

import pytest

import repro
from repro.errors import NetworkError
from repro.net import MatchingClient
from repro.net.frames import HEADER, recv_frame, send_frame
from repro.net.worker import RemoteExecutor

#: The seconds every exchange in these tests may wait on a socket.
TIMEOUT = 0.5


def silent(conn: socket.socket, index: int) -> None:
    """Accept and never answer (the connection stays open)."""


def cut_inside_a_frame(conn: socket.socket, index: int) -> None:
    """Read the request, send part of an answer, then reset."""
    conn.settimeout(5.0)
    recv_frame(conn)
    conn.sendall(HEADER.pack(100) + b"0123456789")
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    conn.close()


def pong_then_silent(conn: socket.socket, index: int) -> None:
    """The first connection answers one ping; every later one is silent."""
    if index == 0:
        conn.settimeout(5.0)
        recv_frame(conn)
        send_frame(conn, pickle.dumps(("ok", "pong")))


class Peer:
    """A loopback listener running ``behave(conn, index)`` per connection
    on one thread."""

    def __init__(self, behave) -> None:
        self.behave = behave
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.address = self.listener.getsockname()
        self.connections: list = []
        self.stopping = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while not self.stopping.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            self.connections.append(conn)
            self.behave(conn, len(self.connections) - 1)

    def close(self) -> None:
        self.stopping.set()
        self.thread.join(5.0)
        assert not self.thread.is_alive()
        for conn in self.connections:
            conn.close()
        self.listener.close()


def client_call(address) -> None:
    client = MatchingClient(*address, timeout=TIMEOUT)
    try:
        client.submit(repro.generate_preferences(3, 2, seed=1))
    finally:
        client.close()


def remote_call(address) -> None:
    with RemoteExecutor([f"{address[0]}:{address[1]}"],
                        timeout=TIMEOUT) as remote:
        remote.ping()


@pytest.mark.parametrize("call", [client_call, remote_call],
                         ids=["client", "remote"])
@pytest.mark.parametrize("behave", [silent, cut_inside_a_frame],
                         ids=["silent", "cut"])
def test_a_dead_peer_raises_network_error(no_leaks, call, behave):
    peer = Peer(behave)
    try:
        start = time.monotonic()
        with pytest.raises(NetworkError) as raised:
            call(peer.address)
        assert time.monotonic() - start < 5.0
    finally:
        peer.close()
    if behave is silent:
        assert isinstance(raised.value.__cause__, OSError)


def test_the_remote_reconnects_once_before_raising(no_leaks):
    peer = Peer(pong_then_silent)
    try:
        with RemoteExecutor([f"{peer.address[0]}:{peer.address[1]}"],
                            timeout=TIMEOUT) as remote:
            assert remote.ping()
            start = time.monotonic()
            with pytest.raises(NetworkError) as raised:
                remote.ping()
            assert time.monotonic() - start < 5.0
        assert isinstance(raised.value.__cause__, OSError)
        assert len(peer.connections) == 2  # the cached one, then one more
    finally:
        peer.close()
