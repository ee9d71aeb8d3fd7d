"""The benchmark matrix: configs, execution, artifacts, trajectory gate.

Covers the ``repro.bench.matrix`` subsystem end to end on a tiny
two-cell matrix: config validation rejects malformed inputs with
:class:`~repro.errors.MatrixConfigError`, every executed cell is
pair-identical to the canonical matcher, artifacts schema-validate (and
tampered payloads are rejected), the trajectory file round-trips
byte-for-byte, a doctored committed trajectory is caught by ``--check``,
and the CLI returns the documented exit codes (0 ok / 1 regression or
gate failure / 2 config error).
"""

import copy
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bench.matrix import (
    available_configs,
    build_trajectory,
    canonical_dumps,
    check_trajectory,
    config_digest,
    config_from_dict,
    expand_cells,
    load_named_config,
    load_trajectory,
    run_matrix,
    write_artifacts,
    write_trajectory,
)
from repro.bench.matrix.cli import main
from repro.bench.matrix.validate import (
    CELL_SCHEMA,
    MATRIX_SCHEMA,
    validate,
)
from repro.errors import (
    ArtifactValidationError,
    MatrixConfigError,
    TrajectoryError,
)

TINY = {
    "name": "tiny",
    "description": "two-cell test matrix",
    "reference": "sb",
    "grids": [
        {
            "name": "static",
            "kind": "match",
            "workload": {
                "generator": "independent",
                "num_objects": 300,
                "num_functions": 25,
                "dims": 3,
                "seed": 7,
                "min_objects": 200,
                "min_functions": 20,
            },
            "axes": {
                "algorithm": ["SB", "BruteForce"],
                "backend": ["memory"],
            },
        }
    ],
    "gates": [
        {"name": "pairs-exist", "kind": "min", "metric": "pairs",
         "value": 1.0},
    ],
    "checks": {},
}


def tiny_dict(**overrides):
    payload = copy.deepcopy(TINY)
    payload.update(overrides)
    return payload


@pytest.fixture(scope="module")
def tiny_config():
    return config_from_dict(TINY)


@pytest.fixture(scope="module")
def tiny_result(tiny_config):
    return run_matrix(tiny_config, scale=1.0)


@pytest.fixture(scope="module")
def tiny_cells(tiny_result):
    return [tiny_result.cell_payload(cell) for cell in tiny_result.cells]


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def _grid(**overrides):
    grid = copy.deepcopy(TINY["grids"][0])
    grid.update(overrides)
    return grid


@pytest.mark.parametrize("breakage, grids", [
    ("unknown axis", [_grid(axes={"nonsense": [1]})]),
    ("unknown algorithm", [_grid(axes={"algorithm": ["NoSuchPanel"],
                                       "backend": ["memory"]})]),
    ("unknown backend", [_grid(axes={"algorithm": ["SB"],
                                     "backend": ["tape"]})]),
    ("remote executor", [_grid(axes={"algorithm": ["SB"],
                                     "backend": ["memory"],
                                     "executor": ["remote"]})]),
    ("unknown kind", [_grid(kind="nonsense")]),
    ("duplicate cells", [_grid(axes={"algorithm": ["SB", "SB"],
                                     "backend": ["memory"]})]),
    ("duplicate grid names", [_grid(), _grid()]),
    ("net grid off the independent generator",
     [_grid(kind="net", axes={"batch": [1]},
            workload={"generator": "anticorrelated"})]),
])
def test_config_rejects_malformed_grids(breakage, grids):
    with pytest.raises(MatrixConfigError):
        config_from_dict(tiny_dict(grids=grids))


def test_config_rejects_zillow_dims_mismatch():
    grid = _grid()
    grid["workload"]["generator"] = "zillow"
    grid["workload"]["dims"] = 4  # generate_zillow is fixed 5-dim
    with pytest.raises(MatrixConfigError):
        config_from_dict(tiny_dict(grids=[grid]))


def test_config_rejects_gate_on_unknown_axis():
    gate = {"name": "bad", "kind": "min", "metric": "pairs", "value": 1.0,
            "where": {"nonsense": 1}}
    with pytest.raises(MatrixConfigError):
        config_from_dict(tiny_dict(gates=[gate]))


def test_config_rejects_unknown_gate_kind():
    gate = {"name": "bad", "kind": "percentile", "metric": "pairs",
            "value": 1.0}
    with pytest.raises(MatrixConfigError):
        config_from_dict(tiny_dict(gates=[gate]))


def test_config_digest_is_stable_and_sensitive(tiny_config):
    again = config_from_dict(TINY)
    assert config_digest(tiny_config) == config_digest(again)
    changed = config_from_dict(tiny_dict(description="different"))
    assert config_digest(changed) != config_digest(tiny_config)


def test_every_shipped_config_loads_and_expands():
    names = available_configs()
    for expected in ("smoke", "figure2", "figure3", "ablations", "dynamic",
                     "serving", "throughput", "parallel", "parallel-speedup",
                     "replay", "net"):
        assert expected in names
    for name in names:
        config = load_named_config(name)
        assert config.name == name
        assert expand_cells(config)


# ---------------------------------------------------------------------------
# Execution: pair-identity and artifact validation
# ---------------------------------------------------------------------------


def test_tiny_matrix_is_pair_identical_and_gated(tiny_result):
    assert len(tiny_result.cells) == 2
    assert tiny_result.identity_ok
    assert tiny_result.gates_ok
    assert tiny_result.ok
    for cell in tiny_result.cells:
        assert cell.metrics["identity_ok"] == 1.0
        assert cell.metrics["pairs"] == 25.0


def test_net_cell_is_identical_and_reports_rates():
    config = config_from_dict({
        "name": "net-tiny",
        "grids": [{
            "name": "loopback",
            "kind": "net",
            "workload": {"num_objects": 200, "functions_per_request": 4,
                         "num_requests": 2},
            "axes": {"batch": [2]},
        }],
    })
    result = run_matrix(config)
    (cell,) = result.cells
    assert cell.identity_ok
    assert cell.metrics["n_requests"] == 2
    assert cell.metrics["n_functions"] == 4
    for metric in ("inproc_rps", "net_rps", "ratio"):
        assert cell.metrics[metric] > 0
    # The pipelined pair reaches the server as one vectorized batch.
    assert cell.metrics["requests_per_batch"] == 2
    assert cell.metrics["fallback_requests"] == 0


def test_matrix_payload_schema_validates(tiny_result):
    payload = tiny_result.as_dict()
    validate(payload, MATRIX_SCHEMA, "matrix")
    assert payload["config"] == "tiny"
    assert payload["ok"] is True


def test_cell_payload_schema_validates(tiny_result, tiny_cells):
    for payload in tiny_cells:
        validate(payload, CELL_SCHEMA, payload["cell_id"])


def test_tampered_cell_payload_is_rejected(tiny_cells):
    doctored = copy.deepcopy(tiny_cells[0])
    doctored["metrics"]["pairs"] = "twenty-five"
    with pytest.raises(ArtifactValidationError):
        validate(doctored, CELL_SCHEMA, "doctored")


def test_write_artifacts_emits_validated_files(tiny_result, tmp_path):
    written = write_artifacts(tiny_result, tmp_path)
    assert (tmp_path / "matrix.json").is_file()
    assert (tmp_path / "matrix.md").is_file()
    assert (tmp_path / "matrix.csv").is_file()
    cell_files = sorted((tmp_path / "cells").glob("*.json"))
    assert len(cell_files) == 2
    assert set(written) >= {tmp_path / "matrix.json", *cell_files}
    for path in cell_files:
        validate(json.loads(path.read_text()), CELL_SCHEMA, str(path))
    # matrix.json is written in canonical form: loading and re-dumping
    # reproduces the file bytes exactly.
    raw = (tmp_path / "matrix.json").read_text()
    assert canonical_dumps(json.loads(raw)) == raw


# ---------------------------------------------------------------------------
# Trajectory: round-trip, gating, doctored regression
# ---------------------------------------------------------------------------


def test_trajectory_round_trip_is_byte_stable(tiny_config, tiny_cells,
                                              tmp_path):
    trajectory = build_trajectory(tiny_config, 1.0, "test", tiny_cells)
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    write_trajectory(trajectory, first)
    write_trajectory(load_trajectory(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_check_passes_against_own_run(tiny_config, tiny_cells, tmp_path):
    trajectory = build_trajectory(tiny_config, 1.0, "test", tiny_cells)
    report = check_trajectory(trajectory, tiny_config, 1.0, tiny_cells)
    assert report.ok
    assert report.compared > 0
    assert report.format().endswith("OK")


def test_check_detects_doctored_regression(tiny_config, tiny_cells,
                                           tmp_path):
    path = tmp_path / "trajectory.json"
    write_trajectory(
        build_trajectory(tiny_config, 1.0, "test", tiny_cells), path
    )
    payload = json.loads(path.read_text())
    payload["cells"][0]["metrics"]["pairs"] += 1  # exact-policy metric
    path.write_text(canonical_dumps(payload))
    report = check_trajectory(load_trajectory(path), tiny_config, 1.0,
                              tiny_cells, path=path)
    assert not report.ok
    assert "REGRESSION" in report.format()
    assert "pairs" in report.format()


def test_check_rejects_config_and_scale_mismatch(tiny_config, tiny_cells):
    trajectory = build_trajectory(tiny_config, 1.0, "test", tiny_cells)
    with pytest.raises(TrajectoryError):
        check_trajectory(trajectory, tiny_config, 0.5, tiny_cells)
    doctored = dataclasses.replace(trajectory, config_digest="0" * 64)
    with pytest.raises(TrajectoryError):
        check_trajectory(doctored, tiny_config, 1.0, tiny_cells)


def test_load_trajectory_rejects_bad_files(tmp_path):
    with pytest.raises(TrajectoryError):
        load_trajectory(tmp_path / "missing.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(TrajectoryError):
        load_trajectory(garbled)
    unversioned = tmp_path / "unversioned.json"
    unversioned.write_text(canonical_dumps({"pr": "10"}))
    with pytest.raises(TrajectoryError):
        load_trajectory(unversioned)


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------


def _write_config(tmp_path, payload, name="tiny.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_cli_run_and_check_round_trip(tmp_path):
    config_file = _write_config(tmp_path, TINY)
    trajectory = tmp_path / "BENCH_tiny.json"
    out = io.StringIO()
    status = main([
        "run", "--config-file", str(config_file),
        "--out", str(tmp_path / "artifacts"),
        "--write-trajectory", str(trajectory),
        "--check", str(trajectory),
        "--scale", "1.0", "--quiet",
    ], out=out)
    assert status == 0
    assert trajectory.is_file()
    assert "verdict: OK" in out.getvalue()

    # Doctor the committed trajectory: --check must now exit 1.
    payload = json.loads(trajectory.read_text())
    payload["cells"][0]["metrics"]["pairs"] += 1
    trajectory.write_text(canonical_dumps(payload))
    out = io.StringIO()
    status = main([
        "run", "--config-file", str(config_file),
        "--out", str(tmp_path / "artifacts2"),
        "--check", str(trajectory),
        "--scale", "1.0", "--quiet",
    ], out=out)
    assert status == 1
    assert "REGRESSION" in out.getvalue()


def test_cli_config_error_exits_2(tmp_path):
    bad = tiny_dict(grids=[_grid(axes={"nonsense": [1]})])
    config_file = _write_config(tmp_path, bad, name="bad.json")
    status = main([
        "run", "--config-file", str(config_file),
        "--out", str(tmp_path / "artifacts"), "--quiet",
    ], out=io.StringIO())
    assert status == 2


@pytest.mark.parametrize("source, value", [
    ("--scale", "0"),
    ("--scale", "-1"),
    ("--scale", "nan"),
    ("--scale", "inf"),
    ("REPRO_BENCH_SCALE", "abc"),
])
def test_cli_rejects_bad_scale(tmp_path, monkeypatch, capsys, source,
                               value):
    config_file = _write_config(tmp_path, TINY)
    argv = ["run", "--config-file", str(config_file),
            "--out", str(tmp_path / "artifacts"), "--quiet"]
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    if source == "--scale":
        argv += ["--scale", value]
    else:
        monkeypatch.setenv(source, value)
    assert main(argv, out=io.StringIO()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "scale" in err.lower()
    assert not (tmp_path / "artifacts").exists()


def test_bench_alias_lists_the_matrix_configs():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    listings = [
        subprocess.run([sys.executable, "-m", module, "list"], env=env,
                       capture_output=True, text=True, check=True,
                       timeout=60).stdout
        for module in ("repro.bench", "repro.bench.matrix")
    ]
    assert listings[0] == listings[1]
    assert "net " in listings[0]


def test_cli_list_names_shipped_configs():
    out = io.StringIO()
    assert main(["list"], out=out) == 0
    listing = out.getvalue()
    for name in ("smoke", "figure2", "ablations", "replay"):
        assert name in listing
