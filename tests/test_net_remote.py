"""The shard-worker protocol: remote execution is pair-identical.

``executor="remote"`` must be a pure *placement* decision — the same
merge, the same repair, the same pairs as running every shard locally.
These tests put real :class:`~repro.net.ShardWorkerServer` instances on
the loopback and drive full matchings through them, including tie-heavy
coarse grids (the canonical trap for any path that reorders shard
work), plus the protocol-level behaviours: worker-raised exceptions
re-raise in the caller with their original type, dead workers fail
loudly, and malformed frames answer typed errors instead of hanging.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.data import Dataset
from repro.errors import (ConnectionRetriesExceededError, MatchingError,
                          NetworkError, PreferenceError)
from repro.net import RemoteExecutor, ShardWorkerServer
from repro.net.frames import connect_with_retry, recv_frame, send_frame
from repro.net.server import ServerThread
from repro.net.worker import resolve_worker_addresses
from repro.prefs import LinearPreference


@pytest.fixture(scope="module")
def worker_address():
    """One shard worker on the loopback, shared across the module."""
    with ServerThread(ShardWorkerServer()) as harness:
        host, port = harness.server.address
        yield f"{host}:{port}"


def triples(result):
    return sorted(
        (pair.function_id, pair.object_id, pair.score)
        for pair in result.pairs
    )


# ----------------------------------------------------------------------
# Pair identity
# ----------------------------------------------------------------------
def test_remote_match_equals_serial_match(worker_address):
    objects = repro.generate_independent(n=150, dims=2, seed=3)
    prefs = repro.generate_preferences(n=8, dims=2, seed=5)
    serial = repro.match(objects, prefs, backend="memory", shards=3,
                         executor="serial")
    remote = repro.match(objects, prefs, backend="memory", shards=3,
                         executor="remote",
                         remote_workers=(worker_address,))
    assert triples(remote) == triples(serial)
    assert sorted(remote.unmatched_functions) == sorted(
        serial.unmatched_functions
    )


coarse = st.integers(min_value=0, max_value=3).map(lambda v: v / 3)
positive = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.tuples(coarse, coarse), min_size=1, max_size=16),
    st.lists(st.tuples(positive, positive), min_size=1, max_size=5),
    st.integers(min_value=2, max_value=4),
)
def test_remote_equals_single_process_on_tie_heavy_grids(points,
                                                         raw_weights,
                                                         shards):
    # The module fixture cannot feed @given, so each property run gets
    # a short-lived worker; 10 examples keep this affordable.
    objects = Dataset([list(point) for point in points])
    functions = [
        LinearPreference.normalized(fid, list(weights))
        for fid, weights in enumerate(raw_weights)
    ]
    single = repro.match(objects, functions, backend="memory")
    with ServerThread(ShardWorkerServer()) as harness:
        host, port = harness.server.address
        remote = repro.match(objects, functions, backend="memory",
                             shards=shards, executor="remote",
                             remote_workers=(f"{host}:{port}",))
    assert triples(remote) == triples(single)


def test_remote_round_robins_over_several_workers():
    objects = repro.generate_independent(n=160, dims=2, seed=7)
    prefs = repro.generate_preferences(n=6, dims=2, seed=9)
    serial = repro.match(objects, prefs, backend="memory", shards=4,
                         executor="serial")
    with ServerThread(ShardWorkerServer()) as one:
        with ServerThread(ShardWorkerServer()) as two:
            addresses = tuple(
                "%s:%d" % harness.server.address for harness in (one, two)
            )
            remote = repro.match(objects, prefs, backend="memory",
                                 shards=4, executor="remote",
                                 remote_workers=addresses)
            assert triples(remote) == triples(serial)
            # Round-robin: both workers actually executed tasks.
            assert one.server.tasks_served > 0
            assert two.server.tasks_served > 0


def test_prepared_serving_reuses_remote_connections(worker_address):
    objects = repro.generate_independent(n=120, dims=2, seed=11)
    prefs = repro.generate_preferences(n=5, dims=2, seed=13)
    prepared = repro.plan(
        backend="memory", shards=3, executor="remote",
        remote_workers=(worker_address,),
    ).prepare(objects)
    try:
        first = prepared.run(prefs)
        second = prepared.run(prefs)
        assert triples(first) == triples(second)
        # One RemoteExecutor construction across repeated runs.
        assert prepared.pool.spawn_count == 1
    finally:
        prepared.close()


# ----------------------------------------------------------------------
# Failure modes
# ----------------------------------------------------------------------
def test_worker_raised_errors_re_raise_with_their_type(worker_address):
    # The facade validates dimensionality locally, so a bad task has to
    # be handed to the executor directly: 2-d shard items against a
    # 3-weight function blow up inside the worker's matcher, and the
    # pickled error frame must re-raise here as the library's own
    # exception type, not a generic network failure.
    from repro.engine.config import MatchingConfig
    from repro.errors import DimensionalityError
    from repro.parallel.shard import ShardTask

    task = ShardTask(
        index=0, ids=np.array([0, 1]),
        points=np.array([[0.25, 0.75], [0.5, 0.5]]),
        functions=(LinearPreference.normalized(0, [1.0, 1.0, 1.0]),),
        config=MatchingConfig(backend="memory"),
    )
    with RemoteExecutor((worker_address,)) as executor:
        with pytest.raises((DimensionalityError, PreferenceError,
                            MatchingError)) as excinfo:
            executor.run([task])
    assert not isinstance(excinfo.value, NetworkError)


def test_unreachable_workers_fail_loudly_never_fall_back():
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead = "127.0.0.1:%d" % probe.getsockname()[1]
    objects = repro.generate_independent(n=60, dims=2, seed=3)
    prefs = repro.generate_preferences(n=4, dims=2, seed=5)
    with pytest.raises(ConnectionRetriesExceededError) as excinfo:
        repro.match(objects, prefs, backend="memory", shards=2,
                    executor="remote", remote_workers=(dead,))
    assert excinfo.value.address == dead
    assert excinfo.value.attempts >= 1


def test_remote_without_addresses_is_a_configuration_error(monkeypatch):
    monkeypatch.delenv("REPRO_REMOTE_WORKERS", raising=False)
    objects = repro.generate_independent(n=60, dims=2, seed=3)
    prefs = repro.generate_preferences(n=4, dims=2, seed=5)
    with pytest.raises(MatchingError):
        repro.match(objects, prefs, backend="memory", shards=2,
                    executor="remote")


def test_worker_addresses_fall_back_to_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_REMOTE_WORKERS", "alpha:9001, beta:9002")
    assert resolve_worker_addresses(None) == ("alpha:9001", "beta:9002")
    assert resolve_worker_addresses(("gamma:1",)) == ("gamma:1",)
    monkeypatch.setenv("REPRO_REMOTE_WORKERS", "not-an-address")
    with pytest.raises(NetworkError):
        resolve_worker_addresses(None)


# ----------------------------------------------------------------------
# Protocol-level behaviour
# ----------------------------------------------------------------------
def test_ping_and_malformed_frames(worker_address):
    host, _, port = worker_address.rpartition(":")
    sock = connect_with_retry(host, int(port))
    try:
        send_frame(sock, pickle.dumps(("ping", None)))
        assert pickle.loads(recv_frame(sock)) == ("ok", "pong")
        # A task frame without a ShardTask answers a typed error...
        send_frame(sock, pickle.dumps(("task", "not-a-task")))
        kind, payload = pickle.loads(recv_frame(sock))
        assert kind == "error"
        assert isinstance(payload, NetworkError)
        # ...as does an unknown op, and the connection stays usable.
        send_frame(sock, pickle.dumps(("??", None)))
        kind, payload = pickle.loads(recv_frame(sock))
        assert kind == "error"
        send_frame(sock, pickle.dumps(("ping", None)))
        assert pickle.loads(recv_frame(sock)) == ("ok", "pong")
    finally:
        sock.close()


def test_remote_executor_ping_and_close(worker_address):
    executor = RemoteExecutor((worker_address,))
    assert executor.ping()
    executor.close()
    executor.close()  # idempotent
    with pytest.raises(MatchingError):
        executor.run([object()])


# ----------------------------------------------------------------------
# The command-line entry point
# ----------------------------------------------------------------------
def test_worker_entry_point_serves_a_sharded_match():
    # A real `python -m repro.net.worker` subprocess: it announces
    # LISTENING, and its sharded results equal executor="serial" ones
    # (run_remote_smoke raises on any divergence).
    from repro.bench.net import run_remote_smoke

    smoke = run_remote_smoke(n_objects=120, shards=3, dims=2, seed=5)
    assert smoke.verified
    assert (smoke.n_objects, smoke.shards) == (120, 3)
