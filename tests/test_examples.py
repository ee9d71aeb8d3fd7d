"""Every example must run end-to-end (at reduced scale)."""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_quickstart_runs(capsys):
    module = load_example("quickstart")
    module.main(n_rooms=800, n_users=30)
    out = capsys.readouterr().out
    assert "stability verified" in out
    assert "I/O accesses (SB)" in out


def test_hotel_booking_runs(capsys):
    module = load_example("hotel_booking")
    module.main(n_rooms=600, per_segment=10)
    out = capsys.readouterr().out
    assert "matched 30 users" in out
    for segment in ("budget", "family", "business"):
        assert segment in out


def test_real_estate_market_runs(capsys):
    module = load_example("real_estate_market")
    module.main(n_homes=800, n_buyers=40)
    out = capsys.readouterr().out
    assert "identical stable matching" in out
    assert "bathrooms" in out


def test_room_types_capacity_runs(capsys):
    module = load_example("room_types_capacity")
    module.main(n_guests=6)
    out = capsys.readouterr().out
    assert "Capacitated matching" in out
    assert "suite" in out
    assert "MinPreference" in out


def test_parallel_matching_runs(capsys):
    module = load_example("parallel_matching")
    module.main(n_listings=500, n_buyers=25, shards=3, executor="serial")
    out = capsys.readouterr().out
    assert "identical stable matching" in out
    assert "algorithm='sharded-sb'" in out


def test_figure1_walkthrough_runs(capsys):
    module = load_example("figure1_walkthrough")
    module.main()
    out = capsys.readouterr().out
    assert "Osky = {a, e}" in out
    assert "(f1, e)" in out and "(f2, d)" in out


def test_task_assignment_runs(capsys):
    module = load_example("task_assignment")
    module.main(n_workers=1000, n_jobs=40)
    out = capsys.readouterr().out
    assert "skyline" in out
    assert "re-traversal maintenance" in out


def test_streaming_session_runs(capsys):
    module = load_example("streaming_session")
    module.main(n_rooms=600, n_users=25, n_events=60)
    out = capsys.readouterr().out
    assert "initial matching: 25 pairs" in out
    assert "repair chains:" in out
    assert "verified: session matching == from-scratch match()" in out


def test_serving_runs(capsys):
    module = load_example("serving")
    module.main(n_listings=600, n_buyers=20, n_requests=15)
    out = capsys.readouterr().out
    assert "cache hits:" in out
    assert "verified: served results == from-scratch repro.match()" in out
    assert "cache invalidated" in out


def test_batch_serving_runs(capsys):
    module = load_example("batch_serving")
    module.main(n_listings=800, n_buyers=10, n_requests=24, n_cohorts=5)
    out = capsys.readouterr().out
    assert "batched submit_many" in out
    assert "verified: batched results == from-scratch repro.match()" in out
    assert "micro-batches" in out
    assert "verified: async results == from-scratch repro.match()" in out


def test_network_serving_runs(capsys):
    module = load_example("network_serving")
    module.main(n_listings=500, n_buyers=8, n_requests=8, shards=2)
    out = capsys.readouterr().out
    assert "pipelined connection" in out
    assert ("verified: served results == in-process submit_many "
            "(scores bit-exact) == from-scratch repro.match()") in out
    assert "verified: executor='remote' matching" in out
    assert "health: ok" in out


def test_examples_have_docstrings_and_main_guard():
    for path in sorted(EXAMPLES_DIR.glob("*.py")):
        source = path.read_text()
        assert source.lstrip().startswith('"""'), path.name
        assert 'if __name__ == "__main__":' in source, path.name
