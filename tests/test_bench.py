"""The paper's figure panels as matrix cells: protocol, sizes, CLI alias.

``python -m repro.bench`` is the matrix CLI; a figure panel is a
``match`` grid whose cells each run one matcher on a cold buffer.
"""

import io
import json

import pytest

from repro.bench.__main__ import main
from repro.bench.matrix import config_from_dict, run_matrix
from repro.bench.matrix.config import BENCH_CONFIGS, bench_scale
from repro.errors import MatrixConfigError


def panel(generator="independent", algorithms=("SB", "BruteForce", "Chain"),
          backends=("disk",), **axes):
    """A one-grid figure-panel config over a tiny workload."""
    dims = 5 if generator == "zillow" else 3
    return {
        "name": "panel",
        "grids": [{
            "name": "panel",
            "kind": "match",
            "workload": {"generator": generator, "num_objects": 250,
                         "num_functions": 12, "dims": dims, "seed": 180,
                         "min_objects": 200, "min_functions": 12},
            "axes": {"algorithm": list(algorithms),
                     "backend": list(backends), **axes},
        }],
    }


@pytest.fixture(scope="module")
def tiny_panel():
    return run_matrix(config_from_dict(panel(backends=("disk", "memory"))),
                      scale=1.0)


def cell_metrics(result, **axes):
    (cell,) = [cell for cell in result.cells
               if all(cell.spec.axes[k] == v for k, v in axes.items())]
    return cell.metrics


def test_measure_matcher_protocol(tiny_panel):
    metrics = cell_metrics(tiny_panel, algorithm="SB", backend="disk")
    assert metrics["pairs"] == 12
    assert metrics["cpu_seconds"] > 0
    assert metrics["io_accesses"] == (metrics["page_reads"]
                                      + metrics["page_writes"])
    assert metrics["rounds"] >= 1


def test_run_point_runs_each_algorithm_fresh():
    # Brute Force and Chain delete matched objects from the tree they
    # search: every repeat must stage a fresh problem.
    config = panel()
    config["grids"][0]["workload"]["repeats"] = 2
    result = run_matrix(config_from_dict(config), scale=1.0)
    assert {cell.spec.axes["algorithm"] for cell in result.cells} == {
        "SB", "BruteForce", "Chain"}
    assert result.identity_ok
    assert {cell.metrics["pairs"] for cell in result.cells} == {12}


def test_run_point_unknown_algorithm():
    with pytest.raises(MatrixConfigError, match="BruteForce.*Oracle"):
        config_from_dict(panel(algorithms=("SB", "Oracle")))


def test_run_point_memory_backend_agrees_with_disk(tiny_panel):
    assert tiny_panel.identity_ok
    disk = cell_metrics(tiny_panel, algorithm="SB", backend="disk")
    memory = cell_metrics(tiny_panel, algorithm="SB", backend="memory")
    assert memory["pairs"] == disk["pairs"]
    assert disk["io_accesses"] > 0
    assert memory["io_accesses"] == 0


def test_ablation_algorithms_registered():
    assert {"SB-single", "SB-retraversal", "SB-naive-threshold",
            "Chain-stack", "BruteForce-filter"} <= set(BENCH_CONFIGS)


def test_figure2_sweep_small():
    result = run_matrix(config_from_dict(panel(algorithms=("SB",),
                                               dims=[2, 3])),
                        scale=0.002)
    assert [cell.spec.axes["dims"] for cell in result.cells] == [2, 3]
    assert all(cell.metrics["io_accesses"] > 0 for cell in result.cells)
    # 250 * 0.002 objects is below the grid's floor.
    assert {cell.metrics["n_objects"] for cell in result.cells} == {200}


def test_figure2_rejects_unknown_variant():
    with pytest.raises(MatrixConfigError, match="generator"):
        config_from_dict(panel(generator="gaussian"))


def test_figure3_sweep_small():
    result = run_matrix(
        config_from_dict(panel(generator="zillow", algorithms=("SB",),
                               objects=[10_000, 400_000])),
        scale=0.002,
    )
    sizes = [cell.metrics["n_objects"] for cell in result.cells]
    assert sizes == [200, 800]  # floored, then 400 000 * 0.002
    assert result.identity_ok


def test_format_sweep_table_contains_everything(tiny_panel):
    text = tiny_panel.to_markdown()
    assert "## panel (match)" in text
    for name in ("SB", "BruteForce", "Chain", "io_accesses",
                 "cpu_seconds"):
        assert name in text
    rows = [line for line in text.splitlines()
            if line.startswith("| SB ") or line.startswith("| Chain ")
            or line.startswith("| BruteForce ")]
    assert len(rows) == len(tiny_panel.cells)


def test_bench_scale_env(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    assert bench_scale(default=0.07) == 0.07
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
    assert bench_scale() == 0.5


def test_cli_single_panel(tmp_path):
    config_file = tmp_path / "panel.json"
    config_file.write_text(json.dumps(panel()))
    out = io.StringIO()
    code = main(["run", "--config-file", str(config_file),
                 "--out", str(tmp_path / "out"), "--quiet"], out=out)
    assert code == 0
    text = out.getvalue()
    assert "3/3 pair-identical" in text
    assert "verdict: OK" in text


def test_cli_rejects_unknown_figure(capsys):
    # The legacy --figure flag is gone, not translated.
    with pytest.raises(SystemExit) as exit_info:
        main(["--figure", "2a"])
    assert exit_info.value.code == 2
    assert "usage: python -m repro.bench " in capsys.readouterr().err


def test_cli_rejects_unknown_algorithm(tmp_path, capsys):
    config_file = tmp_path / "panel.json"
    config_file.write_text(json.dumps(panel(algorithms=("SB", "Oracle"))))
    code = main(["run", "--config-file", str(config_file),
                 "--out", str(tmp_path / "out"), "--quiet"],
                out=io.StringIO())
    assert code == 2
    assert "Oracle" in capsys.readouterr().err
