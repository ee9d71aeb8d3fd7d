"""Shared helpers for the benchmark suite.

The figure/ablation/serving benchmarks are thin wrappers over named
``repro.bench.matrix`` configs (see ``src/repro/bench/matrix/configs/``):
each file loads its config, runs the matrix once per session at
``REPRO_BENCH_SCALE`` (default 0.05: |O| = 5 000, |F| = 250 instead of
100 000 / 5 000), and asserts that every cell is pair-identical to the
canonical matcher and every declared gate holds. Workload shapes,
axes, and thresholds all live in the config JSON, not in this package.

The remaining hand-written benchmarks (substrate ablations, rewind
bit-identity, micro/net) keep the session-scaled workload helpers
below.
"""

from __future__ import annotations

from repro.bench.matrix.config import bench_scale

SEED = 42

#: The paper's cardinalities, |O| and |F|, before scaling.
PAPER_NUM_OBJECTS = 100_000
PAPER_NUM_FUNCTIONS = 5_000


def scaled_objects(scale=None):
    scale = bench_scale() if scale is None else scale
    return max(200, int(PAPER_NUM_OBJECTS * scale))


def scaled_functions(scale=None):
    scale = bench_scale() if scale is None else scale
    return max(20, int(PAPER_NUM_FUNCTIONS * scale))


_MATRIX_CACHE = {}


def run_named_matrix(name, scale=None):
    """Run a shipped matrix config once per session (cached by scale)."""
    from repro.bench.matrix import load_named_config, run_matrix

    scale = bench_scale() if scale is None else scale
    key = (name, scale)
    if key not in _MATRIX_CACHE:
        _MATRIX_CACHE[key] = run_matrix(load_named_config(name), scale=scale)
    return _MATRIX_CACHE[key]


def assert_cells_identical(result):
    """Every cell must reproduce the canonical reference matching."""
    bad = [cell.spec.cell_id for cell in result.cells if not cell.identity_ok]
    assert not bad, f"cells diverged from the canonical matching: {bad}"


def assert_gates_pass(result):
    """Every gate declared by the config must hold."""
    failed = [gate for gate in result.gates if not gate.ok]
    assert not failed, "matrix gates failed:\n" + "\n".join(
        f"  {gate.name}: {gate.detail}" for gate in failed
    )
