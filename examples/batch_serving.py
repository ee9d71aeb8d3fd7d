"""Batched and async serving: one service, bursty concurrent traffic.

``MatchingService.submit()`` answers one workload at a time. Real
traffic arrives in *bursts* — hundreds of users hitting the catalog in
the same instant — and most of the per-request cost (scoring every
candidate object against every preference function) can be shared when
requests are answered together. This example demonstrates both layers
of the batched request path:

* **sync batching** — ``service.submit_many(requests)`` partitions a
  batch into cache hits, duplicates (computed once, fanned out), and
  misses, and serves the linear misses through one vectorized numpy
  scoring pass instead of one tree traversal per function;
* **async coalescing** — ``AsyncMatchingService`` wraps the same
  service for asyncio deployments: concurrent ``await submit(...)``
  calls are coalesced into micro-batches (group commit: whatever is
  queued when the collector is free, up to ``max_batch``) and driven
  through ``submit_many`` on an executor, so a burst of independent
  awaiters shares one batch's economics.

Every answer is verified pair-identical to a from-scratch
``repro.match()``.

Run with::

    python examples/batch_serving.py
"""

import asyncio
import random
import time

import repro
from repro import MatchingRequest, generate_independent, generate_preferences


def simulate_burst(cohorts, n_requests, seed):
    """A bursty request stream: popular cohorts repeat, a few carry
    priorities and tags the way real tenants would."""
    rng = random.Random(seed)
    stream = []
    for index in range(n_requests):
        cohort = cohorts[min(rng.randrange(len(cohorts)),
                             rng.randrange(len(cohorts)))]
        if index % 7 == 0:
            stream.append(MatchingRequest(cohort, priority=1,
                                          tags=("vip",)))
        else:
            stream.append(MatchingRequest(cohort))
    return stream


def main(n_listings: int = 4000, n_buyers: int = 24,
         n_requests: int = 48, n_cohorts: int = 8) -> None:
    listings = generate_independent(n=n_listings, dims=4, seed=17)
    cohorts = [
        generate_preferences(n=n_buyers, dims=4, seed=200 + cohort)
        for cohort in range(n_cohorts)
    ]
    stream = simulate_burst(cohorts, n_requests, seed=18)

    # ---- sync: one submit per request vs one batched call ------------
    # Separate services so neither mode inherits the other's cache
    # warmth: both start cold on the same stream.
    with repro.MatchingService(listings, algorithm="sb",
                               backend="memory",
                               deletion_mode="filter") as looped_service:
        start = time.perf_counter()
        for request in stream:
            looped_service.submit(request)
        looped_ms = (time.perf_counter() - start) * 1e3

    service = repro.MatchingService(listings, algorithm="sb",
                                    backend="memory",
                                    deletion_mode="filter")
    print(f"service up: {service}")

    start = time.perf_counter()
    batched = service.submit_many(stream)
    batched_ms = (time.perf_counter() - start) * 1e3

    snap = service.snapshot()
    print(f"\nlooped submit:   {n_requests} requests in {looped_ms:.1f} ms")
    print(f"batched submit_many: {n_requests} requests in "
          f"{batched_ms:.1f} ms "
          f"({looped_ms / max(1e-9, batched_ms):.1f}x)")
    print(f"  duplicates shared: {snap.duplicate_hits}   "
          f"vectorized: {snap.vectorized_requests}   "
          f"distinct cohorts computed: {snap.misses}   "
          f"p95 latency: {snap.latency_p95_ms:.2f} ms")

    # Every batched answer equals a from-scratch match.
    for request, result in zip(stream, batched):
        scratch = repro.match(listings, list(request.functions),
                              backend="memory")
        assert result.as_set() == scratch.as_set()
    print("verified: batched results == from-scratch repro.match()")

    # ---- async: concurrent awaiters coalesce into micro-batches ------
    async def bursty_client(front, request, delay):
        await asyncio.sleep(delay)
        return await front.submit(request)

    async def async_burst():
        async with repro.AsyncMatchingService(
            service, max_batch=16,
        ) as front:
            rng = random.Random(19)
            tasks = [
                bursty_client(front, request, rng.random() * 0.02)
                for request in stream
            ]
            results = await asyncio.gather(*tasks)
            return results, front.batches_dispatched

    results, n_batches = asyncio.run(async_burst())
    for request, result in zip(stream, results):
        scratch = repro.match(listings, list(request.functions),
                              backend="memory")
        assert result.as_set() == scratch.as_set()
    print(f"\nasync front-end: {n_requests} concurrent awaiters "
          f"coalesced into {n_batches} micro-batches")
    print("verified: async results == from-scratch repro.match()")

    service.close()


if __name__ == "__main__":
    main()
