"""The lifecycle both socket servers share, checked on each of them.

``MatchingServer`` and ``ShardWorkerServer`` are one ``FrameServer``:
one connection loop, one start/drain lifecycle. Every case runs on both,
each under a ``ServerThread``, with one server and at most two client
connections at a time: a peer that cuts a frame short or announces an
oversized one loses only its own connection, a server refuses a second
``start()``, a second ``stop()`` does nothing, a stopped server
refuses connections, and a reply too large to frame ends its connection
at once instead of leaving the client waiting.
"""

import asyncio
import json
import pickle
import socket
import time

import pytest

import repro
import repro.net.frames as frames
from repro.errors import NetworkError, ReproError
from repro.net import (MatchingClient, MatchingServer, RemoteExecutor,
                       ServerThread, ShardWorkerServer)
from repro.net.frames import (HEADER, MAX_FRAME_BYTES, connect_with_retry,
                              recv_frame, send_frame)


def matching_server():
    objects = repro.generate_independent(n=50, dims=2, seed=3)
    service = repro.MatchingService(objects, backend="memory",
                                    deletion_mode="filter")
    return MatchingServer(service, close_service=True)


def worker_server():
    return ShardWorkerServer(max_workers=1)


SERVERS = {"matching": matching_server, "worker": worker_server}

#: One liveness probe per protocol: the frame, and a check of its reply.
PROBES = {
    "matching": (json.dumps({"id": 1, "op": "health"}).encode(),
                 lambda reply: json.loads(reply)["payload"]["status"]
                 == "ok"),
    "worker": (pickle.dumps(("ping", None)),
               lambda reply: pickle.loads(reply) == ("ok", "pong")),
}


@pytest.fixture(params=sorted(SERVERS))
def kind(request):
    return request.param


@pytest.fixture()
def harness(kind):
    with ServerThread(SERVERS[kind]()) as running:
        yield running


def answers_probe(kind, address):
    frame, check = PROBES[kind]
    sock = connect_with_retry(*address, timeout=10.0)
    try:
        send_frame(sock, frame)
        return check(recv_frame(sock))
    finally:
        sock.close()


def closed_by_server(sock):
    """Whether the server ended this connection (EOF or reset)."""
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def test_a_frame_cut_short_ends_only_its_connection(kind, harness):
    address = harness.server.address
    sock = connect_with_retry(*address, timeout=10.0)
    try:
        sock.sendall(HEADER.pack(100) + b"only part of the payload")
        sock.shutdown(socket.SHUT_WR)
        assert closed_by_server(sock)
    finally:
        sock.close()
    assert answers_probe(kind, address)


def test_an_oversized_header_ends_only_its_connection(kind, harness):
    address = harness.server.address
    sock = connect_with_retry(*address, timeout=10.0)
    try:
        sock.sendall(HEADER.pack(MAX_FRAME_BYTES + 1))
        assert closed_by_server(sock)
    finally:
        sock.close()
    assert answers_probe(kind, address)


def ask_stats(host, port):
    with MatchingClient(host, port, timeout=5.0) as client:
        client.stats()


def ask_ping(host, port):
    with RemoteExecutor([f"{host}:{port}"], timeout=5.0) as executor:
        executor.ping()


#: Per protocol: a frame cap the request fits under but its reply does
#: not, and the client call making that request. A ``stats`` reply runs
#: to hundreds of bytes; ``("ok", "pong")`` pickles a few bytes longer
#: than ``("ping", None)``.
OVERSIZED_REPLIES = {
    "matching": (200, ask_stats),
    "worker": (len(pickle.dumps(("ping", None))), ask_ping),
}


def test_a_reply_over_the_cap_ends_its_connection_at_once(kind, harness,
                                                          monkeypatch):
    address = harness.server.address
    cap, call = OVERSIZED_REPLIES[kind]
    with monkeypatch.context() as patch:
        patch.setattr(frames, "MAX_FRAME_BYTES", cap)
        start = time.monotonic()
        with pytest.raises(ReproError):
            call(*address)
        assert time.monotonic() - start < 2.5
    assert answers_probe(kind, address)


def test_address_and_start_need_exactly_one_start(kind):
    server = SERVERS[kind]()
    with pytest.raises(NetworkError, match="not started"):
        server.address
    with ServerThread(server) as running:
        second = asyncio.run_coroutine_threadsafe(server.start(),
                                                  running._loop)
        with pytest.raises(NetworkError, match="already started"):
            second.result(10)
        assert answers_probe(kind, running.server.address)


def test_a_second_stop_does_nothing(kind):
    server = SERVERS[kind]()
    with ServerThread(server) as running:
        assert answers_probe(kind, running.server.address)
    # The first stop's loop is gone; the second returns at once on a
    # fresh one instead of touching the closed listener again.
    assert asyncio.run(asyncio.wait_for(server.stop(), 10)) is None


def test_a_stopped_server_refuses_connections(kind):
    with ServerThread(SERVERS[kind]()) as running:
        address = running.server.address
        assert answers_probe(kind, address)
    with pytest.raises(OSError):
        socket.create_connection(address, timeout=10.0).close()
