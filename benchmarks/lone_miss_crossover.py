"""Time one lone workload on both paths, on shapes either side of the bound.

A service routes each linear miss by its score cells (functions x
staged objects): at most ``repro.engine.plan.MAX_VECTOR_CELLS`` go to
the vectorized scorer, larger ones to the plan's tree matcher. The bound
caps score memory; it is not a measured crossover. This script times
both paths on one lone workload per shape, SB on the
memory backend against ``PreparedMatching.run_vectorized_batch``, and
prints a markdown table (raw milliseconds, the minimum of ``--repeats``
runs; the result cache is cleared before every tree run):

    PYTHONPATH=src python benchmarks/lone_miss_crossover.py

It is a standalone script, not a pytest file. Every shape's two answers
are checked pair-identical before its row is printed.
"""

from __future__ import annotations

import argparse
import time

import repro
from repro.engine.plan import MAX_VECTOR_CELLS

#: (generator, dims, objects, functions): serve-net's shape, then the
#: shapes that bracket the bound on independent and anti-correlated data.
SHAPES = (
    ("independent", 4, 3_000, 12),
    ("independent", 4, 10_000, 16),
    ("independent", 4, 100_000, 16),
    ("independent", 4, 100_000, 64),
    ("independent", 4, 400_000, 16),
    ("anticorrelated", 2, 100_000, 4),
    ("anticorrelated", 2, 100_000, 16),
)

GENERATORS = {
    "independent": repro.generate_independent,
    "anticorrelated": repro.generate_anticorrelated,
}


def best_ms(run, repeats: int) -> float:
    """The fastest of ``repeats`` timed calls, in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main(repeats: int = 3) -> None:
    print("| data | D | objects x functions | cells | tree ms | scorer ms "
          "| bound routes to |")
    print("|---|---|---|---|---|---|---|")
    for generator, dims, num_objects, num_functions in SHAPES:
        objects = GENERATORS[generator](num_objects, dims, seed=3)
        functions = repro.generate_preferences(num_functions, dims, seed=4)
        with repro.plan(algorithm="sb", backend="memory").prepare(
                objects) as prepared:
            tree = prepared.run(functions)
            [scored] = prepared.run_vectorized_batch([functions])
            assert tree.as_set() == scored.as_set(), (generator, num_objects)

            def tree_run() -> None:
                prepared.cache.clear()
                prepared.run(functions)

            tree_ms = best_ms(tree_run, repeats)
            scorer_ms = best_ms(
                lambda: prepared.run_vectorized_batch([functions]), repeats)
        cells = num_objects * num_functions
        path = "scorer" if cells <= MAX_VECTOR_CELLS else "tree"
        print(f"| {generator} | {dims} | {num_objects:,} x {num_functions} "
              f"| {cells:,} | {tree_ms:.1f} | {scorer_ms:.1f} | {path} |")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    main(parser.parse_args().repeats)
