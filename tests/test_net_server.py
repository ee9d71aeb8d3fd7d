"""The matching protocol end to end: server, clients, and lifecycle.

The acceptance property of the socket front-end is *transparency*: a
client talking to a loopback server must see exactly what an in-process
``service.submit()`` caller sees — same pairs, same scores, same typed
errors for overload — plus the network-only behaviours (retry/backoff
on dead endpoints, graceful drain on shutdown, 503 while draining).
Everything here is deterministic: overload is staged through the
service's admission hooks, drain through a gated ``submit_many``.
"""

import socket
import threading
import time

import pytest

import repro
from repro.errors import (ConnectionRetriesExceededError, RemoteError,
                          ServiceOverloadedError)
from repro.net import (AsyncMatchingClient, MatchingClient, MatchingServer,
                       ServerThread)


def make_service(**overrides):
    objects = repro.generate_independent(n=100, dims=2, seed=3)
    options = dict(backend="memory", deletion_mode="filter")
    options.update(overrides)
    return objects, repro.MatchingService(objects, **options)


def free_port():
    """A port that was just free (nothing listens there afterwards)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture()
def served():
    objects, service = make_service()
    server = MatchingServer(service, close_service=True)
    with ServerThread(server) as harness:
        host, port = harness.server.address
        yield objects, service, harness, host, port


# ----------------------------------------------------------------------
# Transparency: the wire adds nothing and loses nothing
# ----------------------------------------------------------------------
def test_client_submit_equals_service_submit(served):
    objects, service, harness, host, port = served
    prefs = repro.generate_preferences(n=5, dims=2, seed=7)
    request = repro.MatchingRequest(prefs)
    local = service.submit(request)
    with MatchingClient(host, port) as client:
        remote = client.submit(request)
    assert remote.as_set() == local.as_set()
    assert ([pair.score for pair in remote]
            == [pair.score for pair in local])
    assert remote.algorithm == local.algorithm
    assert remote.backend == local.backend


def test_submit_many_pipelines_a_batch_over_one_connection(served):
    objects, service, harness, host, port = served
    workloads = [
        repro.generate_preferences(n=3, dims=2, seed=seed)
        for seed in range(5)
    ]
    local = service.submit_many(workloads)
    with MatchingClient(host, port) as client:
        before = client.stats()["batches"]
        remote = client.submit_many(workloads)
        # The burst arrives in one write, so the server answers it with
        # one submit_many batch.
        assert client.stats()["batches"] - before == 1
    assert len(remote) == len(local)
    for got, want in zip(remote, local):
        assert got.as_set() == want.as_set()
        assert ([pair.score for pair in got]
                == [pair.score for pair in want])


class RecordingSocket:
    """Wraps a connected socket; records every ``sendall``."""

    def __init__(self, sock):
        self.sock = sock
        self.sent = []

    def sendall(self, data):
        self.sent.append(bytes(data))
        self.sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self.sock, name)


class RecordingWriter:
    """Wraps an asyncio StreamWriter; records every ``write``/``drain``."""

    def __init__(self, writer):
        self.writer = writer
        self.written = []
        self.drains = 0

    def write(self, data):
        self.written.append(bytes(data))
        self.writer.write(data)

    async def drain(self):
        self.drains += 1
        await self.writer.drain()

    def __getattr__(self, name):
        return getattr(self.writer, name)


def batch_frames(workloads, first_id):
    """The bytes a client pipelines for ``workloads``: one match frame
    per request, ids counting up from ``first_id``."""
    import json

    from repro.net.codec import encode_request
    from repro.net.frames import encode_frame

    return b"".join(
        encode_frame(json.dumps({
            "id": first_id + n, "op": "match",
            "payload": encode_request(repro.MatchingRequest.of(functions)),
        }).encode("utf-8"))
        for n, functions in enumerate(workloads)
    )


def test_several_payloads_read_back_as_one_frame_each():
    from repro.net.frames import recv_frame, send_frame

    left, right = socket.socketpair()
    with left, right:
        send_frame(left, b"one", b"", b"three")
        assert [recv_frame(right) for _ in range(3)] == \
            [b"one", b"", b"three"]


def test_sync_client_writes_a_batch_with_one_sendall(served):
    objects, service, harness, host, port = served
    workloads = [repro.generate_preferences(n=3, dims=2, seed=seed)
                 for seed in range(20, 26)]
    with MatchingClient(host, port) as client:
        recorder = RecordingSocket(client._sock)
        client._sock = recorder
        remote = client.submit_many(workloads)
    assert recorder.sent == [batch_frames(workloads, first_id=1)]
    assert [r.as_set() for r in remote] == \
        [r.as_set() for r in service.submit_many(workloads)]


def test_async_client_writes_a_batch_with_one_write_and_one_drain(served):
    import asyncio

    objects, service, harness, host, port = served
    workloads = [repro.generate_preferences(n=3, dims=2, seed=seed)
                 for seed in range(30, 36)]

    async def go():
        async with AsyncMatchingClient(host, port) as client:
            recorder = RecordingWriter(client._writer)
            client._writer = recorder
            results = await client.submit_many(workloads)
        return recorder, results

    recorder, remote = asyncio.run(go())
    assert recorder.written == [batch_frames(workloads, first_id=1)]
    assert recorder.drains == 1
    assert [r.as_set() for r in remote] == \
        [r.as_set() for r in service.submit_many(workloads)]


def test_stats_and_health_rpcs(served):
    objects, service, harness, host, port = served
    prefs = repro.generate_preferences(n=3, dims=2, seed=9)
    with MatchingClient(host, port) as client:
        client.submit(repro.MatchingRequest(prefs))
        snap = client.stats()
        assert snap["requests"] >= 1
        assert set(snap) == set(service.snapshot().to_dict())
        health = client.health()
        assert health["status"] == "ok"


def test_async_client_matches_sync_client(served):
    import asyncio

    objects, service, harness, host, port = served
    prefs = repro.generate_preferences(n=4, dims=2, seed=11)
    request = repro.MatchingRequest(prefs)
    with MatchingClient(host, port) as client:
        sync_result = client.submit(request)

    async def go():
        async with AsyncMatchingClient(host, port) as client:
            results = await client.submit_many([request, request])
            health = await client.health()
        return results, health

    results, health = asyncio.run(go())
    assert health["status"] == "ok"
    for result in results:
        assert result.as_set() == sync_result.as_set()


def test_codec_rejection_travels_as_a_typed_error(served):
    from repro.errors import CodecError
    from repro.prefs import MinPreference

    objects, service, harness, host, port = served
    with MatchingClient(host, port) as client:
        with pytest.raises(CodecError):
            client.submit(repro.MatchingRequest(
                [MinPreference(0, (0.5, 0.5))]
            ))
        # The connection survives a client-side rejection.
        prefs = repro.generate_preferences(n=2, dims=2, seed=1)
        assert client.submit(repro.MatchingRequest(prefs)).pairs


# ----------------------------------------------------------------------
# Admission control across the wire
# ----------------------------------------------------------------------
def test_overload_surfaces_as_service_overloaded_error():
    objects, service = make_service(max_inflight=1, admission="reject")
    server = MatchingServer(service, close_service=True)
    prefs = repro.generate_preferences(n=2, dims=2, seed=5)
    with ServerThread(server) as harness:
        host, port = harness.server.address
        with MatchingClient(host, port) as client:
            # Deterministic overload: occupy the single admission slot
            # through the service's own hooks, no racing threads.
            service._admit(1, None)
            try:
                with pytest.raises(ServiceOverloadedError):
                    client.submit(repro.MatchingRequest(prefs))
            finally:
                service._release(1)
            # The slot freed: the same connection serves the retry.
            assert client.submit(repro.MatchingRequest(prefs)).pairs


# ----------------------------------------------------------------------
# Lifecycle: retry/backoff and graceful drain
# ----------------------------------------------------------------------
def test_connect_retries_give_up_with_the_last_error_attached():
    port = free_port()
    client = MatchingClient("127.0.0.1", port, connect_attempts=3,
                            backoff=0.001)
    prefs = repro.generate_preferences(n=2, dims=2, seed=5)
    with pytest.raises(ConnectionRetriesExceededError) as excinfo:
        client.submit(repro.MatchingRequest(prefs))
    error = excinfo.value
    assert error.attempts == 3
    assert error.address == f"127.0.0.1:{port}"
    assert isinstance(error.last_error, OSError)


def test_draining_server_rejects_new_requests_with_503(served):
    objects, service, harness, host, port = served
    prefs = repro.generate_preferences(n=2, dims=2, seed=5)
    harness.server._draining = True
    try:
        with MatchingClient(host, port) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.submit(repro.MatchingRequest(prefs))
        assert excinfo.value.code == 503
    finally:
        harness.server._draining = False


def test_graceful_drain_answers_in_flight_requests():
    objects, service = make_service()
    gate = threading.Event()
    started = threading.Event()
    original = service.submit_many

    def gated_submit_many(requests):
        started.set()
        assert gate.wait(10), "drain test gate never opened"
        return original(requests)

    service.submit_many = gated_submit_many
    server = MatchingServer(service, close_service=True)
    harness = ServerThread(server)
    host, port = harness.start()
    outcome = {}

    def submit():
        with MatchingClient(host, port) as client:
            prefs = repro.generate_preferences(n=2, dims=2, seed=5)
            outcome["result"] = client.submit(repro.MatchingRequest(prefs))

    client_thread = threading.Thread(target=submit, daemon=True)
    client_thread.start()
    assert started.wait(10), "request never reached the service"

    stopper = threading.Thread(target=harness.stop, daemon=True)
    stopper.start()
    # The drain must wait for the in-flight request, not abandon it.
    time.sleep(0.05)
    assert stopper.is_alive(), "stop() returned with a request in flight"

    gate.set()
    stopper.join(10)
    client_thread.join(10)
    assert not stopper.is_alive()
    assert "result" in outcome, "in-flight request was dropped by drain"
    assert outcome["result"].pairs


def test_server_thread_reports_bind_failures():
    objects, service = make_service()
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    _, taken = blocker.getsockname()
    try:
        server = MatchingServer(service, port=taken, close_service=True)
        with pytest.raises(OSError):
            ServerThread(server).start()
    finally:
        blocker.close()
        service.close()
