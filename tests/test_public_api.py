"""Public API surface: everything advertised is importable and wired."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


@pytest.mark.parametrize("module_name", [
    "repro.storage",
    "repro.geometry",
    "repro.rtree",
    "repro.skyline",
    "repro.prefs",
    "repro.core",
    "repro.data",
    "repro.bench",
])
def test_subpackage_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, module_name
    for name in module.__all__:
        assert getattr(module, name, None) is not None, (module_name, name)


def test_no_exported_name_means_two_objects():
    # A name exported by repro and by any of its subpackages must be the
    # same object everywhere it is exported.
    import pkgutil

    modules = [repro] + [
        importlib.import_module(f"repro.{info.name}")
        for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
    ]
    owners = {}
    clashes = set()
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            first = owners.setdefault(name, (module.__name__, obj))
            if first[1] is not obj:
                clashes.add((name, first[0], module.__name__))
    assert not clashes, sorted(clashes)


def test_public_classes_have_docstrings():
    from repro import (
        BruteForceMatcher,
        ChainMatcher,
        Dataset,
        FunctionIndex,
        LinearPreference,
        MatchingProblem,
        SkylineMatcher,
    )

    for cls in (BruteForceMatcher, ChainMatcher, Dataset, FunctionIndex,
                LinearPreference, MatchingProblem, SkylineMatcher):
        assert cls.__doc__ and len(cls.__doc__.strip()) > 20, cls.__name__


def test_quickstart_snippet_from_readme_works():
    from repro import (
        MatchingProblem,
        SkylineMatcher,
        generate_independent,
        generate_preferences,
    )

    objects = generate_independent(n=500, dims=4, seed=7)
    prefs = generate_preferences(n=20, dims=4, seed=11)
    problem = MatchingProblem.build(objects, prefs)
    matching = SkylineMatcher(problem).run()
    assert len(matching) == 20
    assert problem.io_stats.io_accesses >= 0


def test_py_typed_marker_shipped():
    from pathlib import Path

    package_dir = Path(repro.__file__).parent
    assert (package_dir / "py.typed").exists()
