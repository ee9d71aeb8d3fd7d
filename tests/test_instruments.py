"""The match cell's measurement: per-algorithm counters, cold buffer."""

import pytest

from repro.bench.matrix import config_from_dict, run_matrix
from repro.engine import DiskBackend
from repro.skyline import compute_skyline


def match_grid(algorithms, backends=("disk",), **workload):
    return config_from_dict({
        "name": "instruments",
        "grids": [{
            "name": "static",
            "kind": "match",
            "workload": {"num_objects": 400, "num_functions": 15,
                         "dims": 3, "seed": 350, "min_functions": 15,
                         **workload},
            "axes": {"algorithm": list(algorithms),
                     "backend": list(backends)},
        }],
    })


@pytest.fixture(scope="module")
def cells():
    result = run_matrix(match_grid(("SB", "BruteForce", "Chain")))
    assert result.identity_ok
    return {cell.spec.axes["algorithm"]: cell.metrics
            for cell in result.cells}


def test_brute_force_measurement_records_top1_searches(cells):
    assert cells["BruteForce"]["top1_searches"] >= 15
    assert cells["BruteForce"]["reverse_top1_queries"] == 0


def test_chain_measurement_records_top1_searches(cells):
    assert cells["Chain"]["top1_searches"] > 0


def test_sb_measurement_records_reverse_queries_and_rounds(cells):
    sb = cells["SB"]
    assert sb["reverse_top1_queries"] > 0
    assert 1 <= sb["rounds"] <= sb["pairs"]


def test_measurement_starts_cold(cells, monkeypatch):
    # Warm each staged problem's buffer and counters with a full
    # skyline pass: the cell must reset both before the timed run, so
    # its counters still equal those of an unwarmed run.
    build_problem = DiskBackend.build_problem

    def warmed(self, *args, **kwargs):
        problem = build_problem(self, *args, **kwargs)
        compute_skyline(problem.tree)
        assert problem.io_stats.page_reads > 0
        return problem

    monkeypatch.setattr(DiskBackend, "build_problem", warmed)
    (cell,) = run_matrix(match_grid(("SB",))).cells
    for metric in ("page_reads", "io_accesses", "buffer_hits"):
        assert cell.metrics[metric] == cells["SB"][metric], metric


def test_figure3_small_universe_reuses_whole_dataset():
    config = config_from_dict({
        "name": "figure3-tiny",
        "grids": [{
            "name": "zillow",
            "kind": "match",
            "workload": {"generator": "zillow", "dims": 5, "seed": 3},
            "axes": {"backend": ["disk"], "objects": [10_000, 400_000]},
        }],
    })
    result = run_matrix(config, scale=0.0005)
    # At this scale every size clamps to the 200-object floor.
    assert [cell.metrics["n_objects"] for cell in result.cells] == [200, 200]
    assert result.identity_ok
