"""Sharded parallel matching: serve one big snapshot on many cores.

A marketplace recomputes its listing/buyer matching every few minutes.
One snapshot is embarrassingly large but the matching decomposes over
space: partition the listings into Hilbert-order shards, match every
shard concurrently, merge exactly. This example runs the same workload
single-process and sharded, verifies the matchings are identical
pair-for-pair, and reports where the sharded run spent its time.

Run with::

    python examples/parallel_matching.py
"""

import time

import repro


def main(n_listings: int = 6000, n_buyers: int = 300, shards: int = 4,
         executor: str = "process") -> None:
    # Anti-correlated attributes (good price <-> worse location, ...)
    # keep skylines large: the hard case, and the one sharding helps.
    listings = repro.generate_anticorrelated(n=n_listings, dims=4, seed=7)
    buyers = repro.generate_preferences(n=n_buyers, dims=4, seed=11)

    start = time.perf_counter()
    single = repro.match(listings, buyers, backend="memory")
    single_seconds = time.perf_counter() - start
    print(f"single process: {len(single)} pairs in {single_seconds:.2f}s")

    start = time.perf_counter()
    wide = repro.match(listings, buyers, backend="memory",
                       shards=shards, executor=executor)
    wide_seconds = time.perf_counter() - start

    assert wide.as_set() == single.as_set(), "sharded matching must be exact"
    print(f"{shards} shards ({executor}): {len(wide)} pairs in "
          f"{wide_seconds:.2f}s — identical stable matching")
    print(f"speedup: {single_seconds / max(1e-9, wide_seconds):.2f}x "
          f"(hardware-dependent; exactness is not)")

    stats = wide.stats
    print(f"shards used: {int(stats['shards_used'])}, "
          f"displaced shard winners repaired: "
          f"{int(stats.get('merge_displaced', 0))}, "
          f"repair steals: {int(stats.get('repair_steals', 0))}")
    # Sharding is a shard count, not an algorithm: the result names the
    # base algorithm each shard ran.
    print(f"provenance: algorithm={wide.algorithm!r}")


if __name__ == "__main__":
    main()
