"""The public API's docstring examples, executed.

The documentation satellite's enforcement test: the quickstart in
``repro``'s module docstring, the ``match``/``plan`` and config
examples, and the dynamic/parallel package examples are real doctests —
this collects and runs them so the examples can never drift from the
code. Each module must contribute at least one example (an empty
collection would mean the documentation silently stopped being
executable).
"""

import doctest
import importlib
import inspect

import pytest

import repro
import repro.dynamic
import repro.engine.config
import repro.engine.facade
import repro.parallel.partition
import repro.replay

# importlib guarantees the actual submodules (immune to any package
# attribute shadowing a submodule's name).
engine_cache = importlib.import_module("repro.engine.cache")
engine_plan = importlib.import_module("repro.engine.plan")
engine_service = importlib.import_module("repro.engine.service")
engine_request = importlib.import_module("repro.engine.request")
engine_batch = importlib.import_module("repro.engine.batch")
engine_async = importlib.import_module("repro.engine.async_service")
prefs_functions = importlib.import_module("repro.prefs.functions")
net_codec = importlib.import_module("repro.net.codec")
matrix_config = importlib.import_module("repro.bench.matrix.config")
matrix_validate = importlib.import_module("repro.bench.matrix.validate")

DOCUMENTED_MODULES = [
    repro,
    repro.engine.facade,
    repro.engine.config,
    engine_cache,
    engine_plan,
    engine_service,
    engine_request,
    engine_batch,
    engine_async,
    net_codec,
    prefs_functions,
    matrix_config,
    matrix_validate,
    repro.dynamic,
    repro.parallel.partition,
    repro.replay,
]


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=lambda module: module.__name__,
)
def test_docstring_examples_run(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, (
        f"{module.__name__} has no executable docstring examples"
    )
    assert results.failed == 0


def test_every_public_export_has_a_docstring():
    """Every name exported from ``repro`` documents itself."""
    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)
                or inspect.ismodule(obj)):
            continue
        doc = inspect.getdoc(obj)
        if not doc or not doc.strip():
            undocumented.append(name)
    assert not undocumented, (
        f"exported names without docstrings: {undocumented}"
    )


def test_facade_and_config_are_fully_documented():
    """Each public method of the pipeline surface carries a docstring."""
    from repro.engine.config import MatchingConfig
    from repro.engine.plan import MatchingPlan, PreparedMatching

    for cls in (MatchingPlan, PreparedMatching, MatchingConfig):
        for name, member in vars(cls).items():
            if name.startswith("_") or not callable(member):
                continue
            assert inspect.getdoc(member), f"{cls.__name__}.{name}"
