"""Seeded inputs for every workload.

One ``--seed`` regenerates every input: the object catalog, each
operation's function set, the serve-net Zipf draws and fresh-miss
schedule, and the churn-serve hot-set picks and event stream. Each input
is drawn from its own ``numpy.random.SeedSequence([seed, stream, index])``
stream, so operation ``i`` gets the same functions however long a run
lasts, and the program under test only ever sees the generated data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

import repro
from repro.dynamic.workload import OBJECT_CHURN

#: Attribute count of every catalog (the paper's default dimensionality).
DIMS = 4

# Stream tags: one independent random stream per kind of input.
CATALOG, OPS, WARMUP, HOT, SCHEDULE, FRESH, SESSION, EVENTS, PICKS = range(1, 10)

#: serve-net draws its hit/miss schedule in blocks of this many requests.
SCHEDULE_BLOCK = 1000

#: Catalog ``k``'s operations are numbered from ``k * STRIDE``, so an
#: operation's inputs do not depend on how many operations an earlier
#: catalog ran.
STRIDE = 1_000_000


@dataclass(frozen=True)
class Sizes:
    """The input sizes of one workload."""

    objects: int
    #: Linear functions per operation (per request on serve-net and
    #: churn-serve, per matching on paper-disk and sharded).
    functions: int
    #: Timed set-ups per run. Every workload sets up a different catalog
    #: each time and gives each an equal share of the timed phase: one
    #: catalog's structure moves SB's cost by up to 2x (per-catalog means
    #: 105 to 210 ms on paper-disk), so a run over few catalogs would
    #: measure its seed more than the code.
    setups: int = 1
    #: Distinct workloads in the warmed hot set (serve-net, churn-serve).
    hot_set: int = 0
    #: Share of serve-net requests that are never-seen workloads.
    miss_share: float = 0.0
    #: churn-serve: functions of the bound session, object events and
    #: requests per cycle.
    session_functions: int = 0
    events_per_cycle: int = 0
    batch: int = 0


SIZES = {
    "full": {
        "paper-disk": Sizes(objects=10_000, functions=8, setups=48),
        "serve-net": Sizes(objects=3_000, functions=12, setups=10,
                           hot_set=64, miss_share=0.10),
        "churn-serve": Sizes(objects=4_000, functions=16, setups=12,
                             hot_set=32, session_functions=16,
                             events_per_cycle=4, batch=8),
        "sharded": Sizes(objects=10_000, functions=12, setups=16),
    },
    # The full request path of every workload at a size that runs in a
    # second or two: for the benchmark's own tests.
    "tiny": {
        "paper-disk": Sizes(objects=600, functions=8, setups=2),
        "serve-net": Sizes(objects=400, functions=4, setups=2, hot_set=8,
                           miss_share=0.25),
        "churn-serve": Sizes(objects=500, functions=4, setups=2, hot_set=6,
                             session_functions=4, events_per_cycle=4,
                             batch=3),
        "sharded": Sizes(objects=800, functions=6, setups=2),
    },
}


def stream_seed(seed: int, stream: int, index: int = 0) -> int:
    """The integer seed of one input stream (stable across platforms)."""
    return int(np.random.SeedSequence([seed, stream, index])
               .generate_state(1)[0])


def catalog(seed: int, sizes: Sizes, index: int = 0) -> repro.Dataset:
    """Object catalog ``index``: independent uniform points in ``[0, 1]^4``."""
    return repro.generate_independent(sizes.objects, DIMS,
                                      seed=stream_seed(seed, CATALOG, index))


def functions(seed: int, stream: int, index: int,
              count: int) -> List[repro.LinearPreference]:
    """Function set ``index`` of one stream (ids ``0 .. count - 1``)."""
    return repro.generate_preferences(count, DIMS,
                                      seed=stream_seed(seed, stream, index))


def hot_set(seed: int, sizes: Sizes) -> List[List[repro.LinearPreference]]:
    """The warmed hot set of serve-net and churn-serve."""
    return [functions(seed, HOT, index, sizes.functions)
            for index in range(sizes.hot_set)]


def serve_schedule(seed: int, sizes: Sizes,
                   number: int = 0) -> Iterator[Tuple[str, int]]:
    """serve-net's endless request schedule against catalog ``number``.

    Yields ``("hot", rank)`` for a Zipf draw from the hot set, or
    ``("fresh", j)`` for a never-seen workload, ``fresh_functions(...,
    j)``. Exactly one request in every ``1 / miss_share`` is fresh, at a
    random position: misses set most of serve-net's time, so their share
    must not vary by run.
    """
    weights = 1 / np.arange(1, sizes.hot_set + 1)  # Zipf, exponent 1
    weights /= weights.sum()
    period = round(1 / sizes.miss_share)
    fresh = number * STRIDE
    block = number * STRIDE
    while True:
        rng = np.random.default_rng(stream_seed(seed, SCHEDULE, block))
        misses = np.zeros(SCHEDULE_BLOCK, dtype=bool)
        for start in range(0, SCHEDULE_BLOCK, period):
            misses[start + rng.integers(period)] = True
        picks = rng.choice(sizes.hot_set, size=SCHEDULE_BLOCK, p=weights)
        for miss, pick in zip(misses, picks):
            if miss:
                yield ("fresh", fresh)
                fresh += 1
            else:
                yield ("hot", int(pick))
        block += 1


def session_functions(seed: int, sizes: Sizes) -> List[repro.LinearPreference]:
    """The functions of churn-serve's bound dynamic session."""
    return functions(seed, SESSION, 0, sizes.session_functions)


def churn_picks(seed: int, cycle: int, sizes: Sizes) -> List[int]:
    """The distinct hot-set workloads churn-serve submits in one cycle."""
    rng = np.random.default_rng(stream_seed(seed, PICKS, cycle))
    return [int(k) for k in rng.choice(sizes.hot_set, size=sizes.batch,
                                       replace=False)]


def churn_events(seed: int, objects: repro.Dataset,
                 session: List[repro.LinearPreference], sizes: Sizes,
                 cycles: int, number: int = 0) -> list:
    """churn-serve's object event stream against catalog ``number``, for
    ``cycles`` cycles."""
    return repro.generate_events(
        objects, session, sizes.events_per_cycle * cycles,
        mix=OBJECT_CHURN, seed=stream_seed(seed, EVENTS, number),
    )


def digest(workload: str, seed: int, sizes: Sizes, operations: int = 64,
           cycles: int = 16) -> str:
    """SHA-256 over a workload's generated inputs (first ``operations``).

    Two calls with one seed give the same digest byte for byte; the
    benchmark's tests use it to show that ``--seed`` alone fixes the
    inputs.
    """
    sha = hashlib.sha256()
    for index in range(sizes.setups):
        objects = catalog(seed, sizes, index)
        sha.update(np.ascontiguousarray(objects.matrix).tobytes())

    def add(workload_functions) -> None:
        for function in workload_functions:
            sha.update(repr((function.fid, tuple(function.weights))).encode())

    if workload in ("paper-disk", "sharded"):
        for index in range(operations):
            add(functions(seed, OPS, index, sizes.functions))
    elif workload == "serve-net":
        for workload_functions in hot_set(seed, sizes):
            add(workload_functions)
        for number in range(sizes.setups):
            schedule = serve_schedule(seed, sizes, number)
            for _ in range(operations):
                kind, index = next(schedule)
                sha.update(f"{kind}:{index};".encode())
                if kind == "fresh":
                    add(functions(seed, FRESH, index, sizes.functions))
    else:
        session = session_functions(seed, sizes)
        add(session)
        for workload_functions in hot_set(seed, sizes):
            add(workload_functions)
        for cycle in range(cycles):
            sha.update(repr(churn_picks(seed, cycle, sizes)).encode())
        for event in churn_events(seed, catalog(seed, sizes), session, sizes,
                                  cycles):
            sha.update(repr(event).encode())
    return sha.hexdigest()
