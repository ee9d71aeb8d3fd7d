"""Batched-serving throughput: the ≥2x acceptance bar.

Thin wrapper over the ``throughput`` matrix config:
``MatchingService.submit_many`` vs looped single ``submit`` calls vs a
loop of ``PreparedMatching.run`` (the plan's SB tree matcher) on the
memory backend. The gates encode the acceptance bar — batch size 32
answers at least 2x the requests/second of the tree loop with the
vectorized linear fast path fully engaged; at batch size 1 every lone
miss is vectorized too, the looped path answers at least 2x the tree
loop, and batching is no pathological regression against it — and
every answer must agree across the three loops, with a sampled batch
pair-identical to the canonical matcher.

No skips — this file runs anywhere (plain
``pytest benchmarks/bench_throughput.py``), or via
``python -m repro.bench.matrix run --config throughput``.
"""

import pytest

from conftest import assert_cells_identical, assert_gates_pass, run_named_matrix


@pytest.fixture(scope="module")
def result():
    return run_named_matrix("throughput")


def test_batched_answers_pair_identical(result):
    assert_cells_identical(result)


def test_batching_speedup_and_vectorization(result):
    assert_gates_pass(result)
