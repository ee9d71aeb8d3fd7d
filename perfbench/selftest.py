"""The benchmark's own tests: ``python3 -m pytest perfbench/selftest.py``.

They run every workload's full path (subprocess server, process pool,
session churn) at the tiny size with verification on, check
``BENCHMARK.json`` against its format rules and the scaling of times to
the reference host speed, and check that a wrong answer, a changed
exact counter, or a checkout without the library makes the command
fail.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, measure, run, tracing, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def _run(*args: str, cwd: Path = ROOT, code: str = None):
    command = [sys.executable]
    command += ["-c", code] if code else [str(ROOT / "perfbench" / "run.py")]
    done = subprocess.run(command + list(args), cwd=str(cwd),
                          capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def _tiny(workload: str, seed: int, trace: int = 0) -> list:
    return ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--size", "tiny"]


def test_benchmark_json_is_well_formed():
    raw = (ROOT / "BENCHMARK.json").read_text()
    assert len(raw.encode()) <= 64 * 1024
    spec = json.loads(raw)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    command = spec["command"]
    assert 1 <= len(command) <= 32
    assert all(isinstance(part, str) and len(part) <= 200 for part in command)
    assert not any(part.startswith("/") or ".." in part for part in command)
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and ".." not in path
        assert (ROOT / path).is_dir()
        assert all(not p.is_symlink() for p in (ROOT / path).rglob("*"))
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert 1 <= len(spec["end_to_end"]) <= 16
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["workloads"] + spec["end_to_end"]
             + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")


@pytest.mark.parametrize("workload", run.NAMES)
def test_one_seed_fixes_the_inputs(workload):
    sizes = inputs.SIZES["tiny"][workload]
    first = inputs.digest(workload, 5, sizes)
    assert inputs.digest(workload, 5, sizes) == first
    assert inputs.digest(workload, 6, sizes) != first


@pytest.mark.parametrize("workload", run.NAMES)
def test_tiny_run_verifies_every_answer(workload):
    code, lines, stderr = _run(*_tiny(workload, seed=3))
    assert code == 0, stderr + "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == run.metric_units("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_running_out_of_inputs_keeps_the_phase_time(monkeypatch):
    monkeypatch.setattr(workloads, "EVENT_CYCLES_PER_S", 0)  # 10 cycles
    ctx = workloads.Context(workload="churn-serve", seed=3, seconds=30,
                            size="tiny", tracer=tracing.NULL)
    out = workloads.WORKLOADS["churn-serve"](ctx)
    assert out.notes["inputs_exhausted"] is True
    assert out.failed == 0 and out.phase_s > 0
    e2e, _, _ = run._end_to_end("churn-serve", out)
    assert e2e["ops_per_s"] > 0


def test_times_are_stated_at_the_reference_speed():
    out = workloads.Outcome(setup_s=[0.5], latencies=[0.1, 0.2, 0.3],
                            tail_samples=[0.1, 0.2, 0.3], phase_s=2.0,
                            attempted=4, peak_rss_mb=50.0)
    out.host.slices_ms = [2 * measure.REFERENCE_SLICE_MS]  # half speed
    e2e, measured, _ = run._end_to_end("paper-disk", out)
    assert measured["latency_p50_ms"] == pytest.approx(200.0)
    assert e2e["latency_p50_ms"] == pytest.approx(100.0)
    assert e2e["latency_tail_ms"] == pytest.approx(150.0)
    assert e2e["setup_s"] == pytest.approx(0.25)
    assert e2e["ops_per_s"] == pytest.approx(2 * measured["ops_per_s"])
    assert e2e["peak_rss_mb"] == measured["peak_rss_mb"] == 50.0


def test_traced_run_reports_every_layer_metric():
    code, lines, stderr = _run(*_tiny("serve-net", seed=3, trace=1))
    assert code == 0, stderr
    metrics = json.loads(lines[-1])["metrics"]
    assert {name: entry["unit"] for name, entry in
            metrics.items()} == run.metric_units("per_layer")
    for name in ("net.client_codec_ms", "net.server_codec_ms", "net.wire_ms",
                 "engine.coalesce_wait_ms", "engine.tree_miss_ms",
                 "skyline.bbs_ms", "core.rounds"):
        assert metrics[name]["value"] > 0, name


def test_a_wrong_answer_fails_the_command():
    doctored = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "from repro.core.result import MatchPair\n"
        "from repro.engine.plan import PreparedMatching\n"
        "from repro.engine.result import MatchResult\n"
        "real = PreparedMatching.run\n"
        "def run(self, functions):\n"
        "    result = real(self, functions)\n"
        "    a, b = result.pairs[0], result.pairs[1]\n"
        "    pairs = [MatchPair(a.function_id, b.object_id, a.score),\n"
        "             MatchPair(b.function_id, a.object_id, b.score)]\n"
        "    return MatchResult(pairs + list(result.pairs[2:]),\n"
        "                       io=result.io, stats=result.stats)\n"
        "PreparedMatching.run = run\n"
        "from perfbench import run as bench\n"
        "sys.exit(bench.main(sys.argv[1:]))\n"
    ) % (str(ROOT / "src"), str(ROOT))
    code, lines, _ = _run(*_tiny("paper-disk", seed=4), code=doctored)
    assert code == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_changed_exact_counters_fail_the_command():
    seed = 9091
    args = _tiny("sharded", seed=seed)
    record = (measure.STATE_DIR / "counters"
              / f"sharded-tiny-seed{seed}-{measure.source_digest()}.json")
    record.unlink(missing_ok=True)
    try:
        assert _run(*args)[0] == 0
        assert _run(*args)[0] == 0          # the same path again
        stored = json.loads(record.read_text())
        stored["catalog0"][0][0] += 1       # as if a round were added
        record.write_text(json.dumps(stored))
        code, lines, _ = _run(*args)
        assert code == 1
        assert json.loads(lines[-1])["correct"] is False
        assert any("exact counters changed" in line for line in lines)
    finally:
        record.unlink(missing_ok=True)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *_tiny("paper-disk", seed=1)],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
