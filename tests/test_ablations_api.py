"""The Section IV design ablations: the shipped ``ablations`` config."""

import io

import pytest

from repro.bench.__main__ import main
from repro.bench.matrix import config_from_dict, load_named_config, run_matrix

VARIANTS = ("SB", "SB-single", "SB-retraversal", "SB-naive-threshold",
            "SB-nocache", "Chain", "Chain-stack")


@pytest.fixture(scope="module")
def results():
    return run_matrix(load_named_config("ablations"), scale=0.004)


def gate(results, name):
    (verdict,) = [gate for gate in results.gates if gate.name == name]
    return verdict


def test_all_variants_present(results):
    assert [cell.spec.axes["algorithm"] for cell in results.cells] == list(
        VARIANTS)
    assert results.identity_ok


def test_design_choices_only_reduce_cost(results):
    # Multi-pair rounds, plist maintenance and fbest caching each pay
    # for themselves; the naive TA threshold's extra score evaluations
    # are checked in tests/test_findex.py.
    for name in ("multi-pair-cuts-rounds-3x",
                 "plist-maintenance-beats-retraversal-io",
                 "fbest-cache-saves-reverse-top1"):
        assert gate(results, name).ok, gate(results, name).detail


def test_retained_stack_no_worse_than_restart(results):
    verdict = gate(results, "chain-stack-no-more-top1-searches")
    assert verdict.ok, verdict.detail


def test_sb_beats_baselines_in_io():
    config = config_from_dict({
        "name": "baselines",
        "grids": [{
            "name": "static",
            "kind": "match",
            "workload": {"generator": "anticorrelated", "num_objects": 300,
                         "num_functions": 20, "seed": 5},
            "axes": {"algorithm": ["SB", "BruteForce", "Chain"],
                     "backend": ["disk"]},
        }],
    })
    io_accesses = {cell.spec.axes["algorithm"]: cell.metrics["io_accesses"]
                   for cell in run_matrix(config).cells}
    assert io_accesses["SB"] < io_accesses["BruteForce"]
    assert io_accesses["SB"] < io_accesses["Chain"]


def test_table_rendering(results):
    text = results.to_markdown()
    assert "## ablations (match)" in text
    for variant in VARIANTS:
        assert f"| {variant} | disk |" in text


def test_cli_ablations(tmp_path):
    out = io.StringIO()
    code = main(["run", "--config", "ablations", "--scale", "0.004",
                 "--out", str(tmp_path), "--quiet"], out=out)
    assert code == 0
    assert "7/7 pair-identical" in out.getvalue()
    assert "verdict: OK" in out.getvalue()
