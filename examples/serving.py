"""Serving preference traffic: one warm service, many query workloads.

``repro.match()`` answers one batch. A deployment answers a *stream* of
preference workloads against a mostly stable catalog — and most of a
one-shot call's cost (validating config, bulk-loading the R-tree,
spawning shard workers) repeats identically on every request. The
serving API splits the lifecycle so each cost is paid once:

* ``repro.plan(...)``              — compile the configuration,
* ``plan.prepare(objects)``        — stage the catalog (warm trees),
* ``service.submit(prefs)``        — answer requests, caching results.

This example stands up a ``MatchingService`` over a listings catalog and
replays a bursty query stream (popular workloads repeat, the realistic
case), reporting cache hits and the measured cold/warm latencies —
while verifying every answer equals a from-scratch ``repro.match()``.

Run with::

    python examples/serving.py
"""

import time

import repro
from repro import generate_independent, generate_preferences


def main(n_listings: int = 4000, n_buyers: int = 60,
         n_requests: int = 40) -> None:
    listings = generate_independent(n=n_listings, dims=4, seed=7)

    # A handful of distinct buyer cohorts; traffic repeats them with a
    # popularity skew (cohort k is requested more often than k+1).
    cohorts = [
        generate_preferences(n=n_buyers, dims=4, seed=100 + cohort)
        for cohort in range(5)
    ]
    stream = [cohorts[(request * request) % len(cohorts)]
              for request in range(n_requests)]

    # Cold baseline: what every request would cost without the service.
    start = time.perf_counter()
    cold = repro.match(listings, stream[0], backend="memory")
    cold_ms = (time.perf_counter() - start) * 1e3
    print(f"cold repro.match(): {len(cold)} pairs in {cold_ms:.1f} ms "
          f"(staging + matching, paid per call)")

    # The serving path: compile once, prepare once, then just answer.
    service = repro.MatchingService(listings, algorithm="sb",
                                    backend="memory")
    print(f"\nservice up: {service}")

    start = time.perf_counter()
    for workload in stream:
        service.submit(workload)
    served_ms = (time.perf_counter() - start) * 1e3

    stats = service.snapshot()
    print(f"served {stats.requests} requests in {served_ms:.1f} ms "
          f"({served_ms / n_requests:.2f} ms/request)")
    print(f"  cache hits: {stats.cache['hits']}   "
          f"cold runs: {stats.cache['misses']}   "
          f"stagings: {stats.stagings}")

    # Every served answer is pair-identical to a from-scratch match.
    for cohort in cohorts:
        served = service.submit(cohort)
        scratch = repro.match(listings, cohort, backend="memory")
        assert served.as_set() == scratch.as_set()
    print("verified: served results == from-scratch repro.match()")

    # The catalog churns: a bound session invalidates stale answers.
    session = service.open_session(cohorts[0])
    sold = cold.pairs[0].object_id
    session.delete_object(sold)
    refreshed = service.submit(stream[0])
    assert sold not in {pair.object_id for pair in refreshed.pairs}
    scratch = repro.match(session.objects(), stream[0], backend="memory")
    assert refreshed.as_set() == scratch.as_set()
    print(f"listing {sold} sold -> cache invalidated, "
          f"request re-served against {session.num_objects} survivors")

    service.close()


if __name__ == "__main__":
    main()
