"""Regression tests for the concurrency defects the lint rules caught.

Each test here pins one real finding from the first ``repro.lint`` run
over the serving layer (see ``docs/guides/static-analysis.md``): the
fix is in the engine, the test proves the *behaviour*, and the lint
suite (``test_lint_self.py``) proves the pattern can't silently come
back.
"""

import asyncio
import threading

import pytest

import repro
from repro.core import Matching, MatchPair
from repro.engine.async_service import AsyncMatchingService
from repro.engine.cache import ResultCache
from repro.errors import (
    DimensionalityError,
    GeometryError,
    MatchingError,
    ReproError,
    RTreeError,
)
from repro.geometry import MBR
from repro.prefs import generate_preferences


def test_aclose_teardown_does_not_block_the_event_loop():
    """async-safety finding: ``aclose`` called the synchronous
    ``executor.shutdown(wait=True)`` / ``service.close()`` directly on
    the loop. A slow drain froze every other coroutine; the fix routes
    both through ``run_in_executor``. The heartbeat below can only tick
    — and therefore release the slow close — if the loop stays live
    while ``aclose`` waits."""
    objects = repro.generate_independent(n=60, dims=2, seed=7)
    service = repro.MatchingService(objects, algorithm="sb",
                                    backend="memory")
    release = threading.Event()
    original_close = service.close

    def slow_close():
        assert release.wait(5.0), "event loop never ticked during aclose"
        original_close()

    service.close = slow_close

    async def run():
        front = AsyncMatchingService(service)
        await front.submit(generate_preferences(3, 2, seed=9))
        heartbeats = 0

        async def heartbeat():
            nonlocal heartbeats
            while not release.is_set():
                heartbeats += 1
                if heartbeats >= 3:
                    release.set()
                await asyncio.sleep(0.01)

        beat = asyncio.get_running_loop().create_task(heartbeat())
        await front.aclose(close_service=True)
        await beat
        return heartbeats

    assert asyncio.run(run()) >= 3


def test_invalidate_takes_the_serve_lock():
    """lock-guard finding: ``invalidate`` (and the session-event
    callback) bumped ``objects_version`` without ``_serve_lock``, so a
    concurrent submit could pair a pre-churn result with a post-churn
    cache key. The bump must now block behind a held serve lock."""
    objects = repro.generate_independent(n=40, dims=2, seed=11)
    prepared = repro.plan(algorithm="sb", backend="memory").prepare(objects)
    try:
        acquired = threading.Event()
        release = threading.Event()

        def hold_lock():
            with prepared._serve_lock:
                acquired.set()
                release.wait(5.0)

        holder = threading.Thread(target=hold_lock)
        holder.start()
        assert acquired.wait(5.0)
        before = prepared.objects_version

        bumper = threading.Thread(target=prepared.invalidate)
        bumper.start()
        bumper.join(0.2)
        assert bumper.is_alive(), "invalidate did not wait for the serve lock"
        assert prepared.objects_version == before

        release.set()
        bumper.join(5.0)
        holder.join(5.0)
        assert not bumper.is_alive()
        assert prepared.objects_version == before + 1
    finally:
        release.set()
        prepared.close()


def test_session_event_bump_takes_the_serve_lock():
    """Same defect as :func:`test_invalidate_takes_the_serve_lock`, via
    the dynamic-session callback path: an insert routed through a bound
    session must also serialize its version bump with serving."""
    objects = repro.generate_independent(n=40, dims=2, seed=13)
    prepared = repro.plan(algorithm="sb", backend="memory").prepare(objects)
    try:
        functions = generate_preferences(3, 2, seed=14)
        session = prepared.open_session(functions)
        before = prepared.objects_version

        acquired = threading.Event()
        release = threading.Event()

        def hold_lock():
            with prepared._serve_lock:
                acquired.set()
                release.wait(5.0)

        holder = threading.Thread(target=hold_lock)
        holder.start()
        assert acquired.wait(5.0)

        inserter = threading.Thread(
            target=session.insert_object, args=(9999, (0.5, 0.5)),
        )
        inserter.start()
        inserter.join(0.2)
        blocked_version = prepared.objects_version

        release.set()
        inserter.join(5.0)
        holder.join(5.0)
        assert not inserter.is_alive()
        assert blocked_version == before
        assert prepared.objects_version == before + 1
    finally:
        release.set()
        prepared.close()


def test_service_repr_synchronizes_with_serving_state():
    """lock-guard finding: ``MatchingService.__repr__`` read the
    ``requests`` counter (guarded by ``_state_cv``) lock-free. Render
    it from one thread while another serves — no exception, and the
    final repr reflects every completed submission."""
    objects = repro.generate_independent(n=80, dims=2, seed=17)
    with repro.MatchingService(objects, algorithm="sb",
                               backend="memory") as service:
        errors = []
        total = 60

        def churn():
            try:
                for s in range(total):
                    service.submit(
                        generate_preferences(2, 2, seed=200 + s % 5)
                    )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def render():
            try:
                for _ in range(300):
                    assert "MatchingService(" in repr(service)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=churn),
                   threading.Thread(target=render)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors
        assert f"requests={total}" in repr(service)


def test_public_surface_raises_typed_errors_only():
    """exception-contract findings: the first whole-program run caught
    ``ValueError``/``AssertionError`` escaping through the public
    ``__all__`` surface — a duplicate pair in :class:`Matching`, a bad
    cache size, inverted/empty MBRs, region-dimensionality drift. Every
    one of those paths must now raise a :class:`ReproError` subclass,
    so ``except ReproError`` actually catches what the library throws."""
    with pytest.raises(MatchingError):
        Matching([MatchPair(1, 10, 0.5), MatchPair(1, 11, 0.6)])
    with pytest.raises(MatchingError):
        Matching([MatchPair(1, 10, 0.5), MatchPair(2, 10, 0.6)])
    with pytest.raises(MatchingError):
        ResultCache(maxsize=-1)
    with pytest.raises(GeometryError):
        MBR((1.0, 0.0), (0.0, 1.0))
    with pytest.raises(GeometryError):
        MBR.union_all([])
    objects = repro.generate_independent(n=10, dims=3, seed=3)
    with pytest.raises(MatchingError, match="not both"):
        repro.MatchingService(
            objects, repro.MatchingConfig(backend="memory"),
            plan=repro.plan(backend="memory"),
        )
    # Each of those is catchable as the one documented base class.
    for exc in (MatchingError, GeometryError, RTreeError,
                DimensionalityError):
        assert issubclass(exc, ReproError)


def test_cache_repr_is_consistent_under_concurrent_mutation():
    """lock-guard finding: ``ResultCache.__repr__`` read the entry map
    and counters without the lock. Now it snapshots under the lock —
    hammer it from a mutating thread and it must never raise."""
    cache = ResultCache(maxsize=8)
    stop = threading.Event()
    errors = []

    def churn():
        i = 0
        while not stop.is_set():
            cache.put(i % 32, i)
            cache.get((i + 1) % 32)
            i += 1

    def render():
        try:
            for _ in range(500):
                text = repr(cache)
                assert text.startswith("ResultCache(")
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    writer = threading.Thread(target=churn)
    reader = threading.Thread(target=render)
    writer.start()
    reader.start()
    reader.join(10.0)
    stop.set()
    writer.join(5.0)
    assert not errors
