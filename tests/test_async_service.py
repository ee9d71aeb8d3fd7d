"""The asyncio micro-batching front-end: group-commit coalescing,
identity with the synchronous path, timeouts, and lifecycle."""

import asyncio
import threading

import pytest

import repro
from repro.engine.async_service import AsyncMatchingService
from repro.engine.request import MatchingRequest
from repro.errors import MatchingError
from repro.prefs import generate_preferences


@pytest.fixture(scope="module")
def serving():
    objects = repro.generate_independent(n=250, dims=3, seed=95)
    service = repro.MatchingService(objects, algorithm="sb",
                                    backend="memory",
                                    deletion_mode="filter")
    yield objects, service
    service.close()


def test_burst_is_coalesced_and_pair_identical(serving):
    objects, service = serving
    workloads = [generate_preferences(5, 3, seed=100 + s % 4)
                 for s in range(20)]

    async def burst():
        async with AsyncMatchingService(service, max_batch=16) as front:
            results = await asyncio.gather(
                *[front.submit(functions) for functions in workloads]
            )
            return results, front.batches_dispatched, \
                front.requests_coalesced

    results, batches, coalesced = asyncio.run(burst())
    assert coalesced == len(workloads)
    # 20 simultaneous arrivals with max_batch=16 must land in far fewer
    # submit_many calls than requests.
    assert batches <= 4
    for result, functions in zip(results, workloads):
        cold = repro.match(objects, functions, backend="memory")
        assert result.as_set() == cold.as_set()
    # Coalesced duplicates (seeds repeat mod 4) share result objects.
    assert results[0] is results[4] or results[0].as_set() == \
        results[4].as_set()


def test_async_submit_accepts_requests_and_sequences(serving):
    _, service = serving
    prefs = generate_preferences(4, 3, seed=120)

    async def one():
        async with AsyncMatchingService(service) as front:
            from_sequence = await front.submit(prefs)
            from_request = await front.submit(MatchingRequest(prefs))
            return from_sequence, from_request

    from_sequence, from_request = asyncio.run(one())
    assert from_sequence is from_request       # second was a cache hit


def test_async_timeout_cancels_the_waiter_not_the_batch(serving):
    _, service = serving
    prefs = generate_preferences(4, 3, seed=121)

    async def run():
        front = AsyncMatchingService(service)
        with pytest.raises(asyncio.TimeoutError):
            # An impossible deadline: the matching takes longer.
            await front.submit(
                MatchingRequest(generate_preferences(40, 3, seed=122),
                                timeout=1e-9)
            )
        # The front-end keeps serving afterwards.
        result = await front.submit(prefs)
        await front.aclose()
        return result

    result = asyncio.run(run())
    assert result.as_set() == service.submit(prefs).as_set()


def test_aclose_is_idempotent_and_rejects_new_work(serving):
    _, service = serving

    async def run():
        front = AsyncMatchingService(service)
        result = await front.submit(generate_preferences(3, 3, seed=123))
        await front.aclose()
        await front.aclose()
        with pytest.raises(MatchingError):
            await front.submit(generate_preferences(3, 3, seed=123))
        return result

    assert len(asyncio.run(run())) == 3


def test_aclose_can_close_the_wrapped_service():
    objects = repro.generate_independent(n=60, dims=2, seed=96)
    service = repro.MatchingService(objects, algorithm="sb",
                                    backend="memory")

    async def run():
        front = AsyncMatchingService(service)
        await front.submit(generate_preferences(3, 2, seed=97))
        await front.aclose(close_service=True)

    asyncio.run(run())
    with pytest.raises(MatchingError):
        service.submit(generate_preferences(3, 2, seed=97))


def test_constructor_validates_knobs(serving):
    _, service = serving
    with pytest.raises(MatchingError):
        AsyncMatchingService(service, max_batch=0)


def test_service_errors_propagate_to_every_waiter():
    objects = repro.generate_independent(n=60, dims=2, seed=98)
    service = repro.MatchingService(objects, algorithm="sb",
                                    backend="memory")
    service.close()                      # submissions will raise

    async def run():
        front = AsyncMatchingService(service, max_batch=4)
        workloads = [generate_preferences(3, 2, seed=99 + s)
                     for s in range(3)]
        outcomes = await asyncio.gather(
            *[front.submit(functions) for functions in workloads],
            return_exceptions=True,
        )
        await front.aclose()
        return outcomes

    outcomes = asyncio.run(run())
    assert len(outcomes) == 3
    assert all(isinstance(outcome, MatchingError) for outcome in outcomes)


# ----------------------------------------------------------------------
# Group commit: what forms a batch, with no timing involved
# ----------------------------------------------------------------------
class RecordingService:
    """Stands in for a MatchingService: records the tag of every request
    in each ``submit_many`` batch and blocks there until ``release`` is
    set; each request is answered with its own tag."""

    def __init__(self):
        self.batches = []
        self.queued_at_dispatch = []
        self.entered = threading.Event()
        self.release = threading.Event()
        self.front = None

    def submit_many(self, requests):
        self.batches.append([request.tags[0] for request in requests])
        if self.front is not None:
            self.queued_at_dispatch.append(self.front._queue.qsize())
        self.entered.set()
        assert self.release.wait(5.0), "the test never released the batch"
        return [request.tags[0] for request in requests]


def tagged(tag):
    return MatchingRequest(tags=(tag,))


async def entered(stub):
    """Wait (off the loop) until the stub's first batch is running."""
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, stub.entered.wait, 5.0)


class FrozenClockLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock never moves, so no timer ever fires."""

    def time(self):
        return 0.0


def test_lone_submit_is_dispatched_at_once_with_the_queue_empty():
    stub = RecordingService()

    async def run():
        async with AsyncMatchingService(stub) as front:
            stub.front = front
            lone = asyncio.ensure_future(front.submit(tagged("lone")))
            # No timer can fire on this loop: the batch must go out
            # without any window elapsing.
            reached = await entered(stub)
            stub.release.set()
            return reached, (await lone) if reached else None

    loop = FrozenClockLoop()
    try:
        reached, answer = loop.run_until_complete(run())
    finally:
        loop.close()
    assert reached, "a lone submit waited for batch-mates"
    assert answer == "lone"
    assert stub.batches == [["lone"]]
    assert stub.queued_at_dispatch == [0]


def test_requests_arriving_during_a_batch_form_the_next_batch():
    stub = RecordingService()

    async def run():
        async with AsyncMatchingService(stub) as front:
            first = asyncio.ensure_future(front.submit(tagged("first")))
            assert await entered(stub)
            later = [asyncio.ensure_future(front.submit(tagged(f"r{n}")))
                     for n in range(5)]
            await asyncio.sleep(0)          # every later submit queues
            stub.release.set()
            return await first, await asyncio.gather(*later)

    first, later = asyncio.run(run())
    assert first == "first"
    assert later == [f"r{n}" for n in range(5)]
    assert stub.batches == [["first"], [f"r{n}" for n in range(5)]]


def test_a_queued_backlog_splits_at_max_batch_in_order():
    stub = RecordingService()
    tags = [f"q{n}" for n in range(40)]

    async def run():
        async with AsyncMatchingService(stub, max_batch=16) as front:
            first = asyncio.ensure_future(front.submit(tagged("first")))
            assert await entered(stub)
            queued = [asyncio.ensure_future(front.submit(tagged(tag)))
                      for tag in tags]
            await asyncio.sleep(0)
            stub.release.set()
            await first
            return await asyncio.gather(*queued), front.batches_dispatched

    answers, batches = asyncio.run(run())
    assert answers == tags
    assert batches == 4
    assert stub.batches[1:] == [tags[:16], tags[16:32], tags[32:]]


def test_aclose_answers_work_queued_behind_a_running_batch():
    stub = RecordingService()

    async def run():
        front = AsyncMatchingService(stub)
        first = asyncio.ensure_future(front.submit(tagged("first")))
        assert await entered(stub)
        queued = [asyncio.ensure_future(front.submit(tagged(f"q{n}")))
                  for n in range(3)]
        await asyncio.sleep(0)
        closing = asyncio.ensure_future(front.aclose())
        await asyncio.sleep(0)              # the close is now queued too
        stub.release.set()
        await closing
        with pytest.raises(MatchingError):
            await front.submit(tagged("late"))
        return await first, await asyncio.gather(*queued)

    first, queued = asyncio.run(run())
    assert first == "first"
    assert queued == ["q0", "q1", "q2"]
    assert stub.batches == [["first"], ["q0", "q1", "q2"]]
