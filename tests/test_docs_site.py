"""Structural validation of the MkDocs documentation site.

``mkdocs build --strict`` runs in CI (the ``docs`` job); this test
keeps the site's skeleton honest in environments without mkdocs
installed: the config parses, every nav entry exists, every relative
markdown link resolves, the site actually documents all five layers
and both subsystems, and the Python snippets of the README and the site
name only things the package still exports.
"""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
MKDOCS_YML = REPO / "mkdocs.yml"


class _AnyTagLoader(yaml.SafeLoader):
    """Safe loader that tolerates mkdocs' ``!!python/name:`` tags."""


_AnyTagLoader.add_multi_constructor(
    "tag:yaml.org,2002:python/name:",
    lambda loader, suffix, node: f"python/name:{suffix}",
)


def load_config():
    return yaml.load(MKDOCS_YML.read_text(), Loader=_AnyTagLoader)


def nav_files(entries):
    """Flatten the mkdocs nav tree into its markdown file targets."""
    files = []
    for entry in entries:
        if isinstance(entry, str):
            files.append(entry)
        elif isinstance(entry, dict):
            for value in entry.values():
                if isinstance(value, str):
                    files.append(value)
                else:
                    files.extend(nav_files(value))
    return files


def test_mkdocs_config_parses_and_is_strict():
    config = load_config()
    assert config["site_name"]
    assert config["strict"] is True
    assert config["nav"]


def test_every_nav_entry_exists():
    config = load_config()
    targets = nav_files(config["nav"])
    assert "index.md" in targets
    for target in targets:
        assert (DOCS / target).is_file(), f"nav entry {target} missing"


def test_relative_markdown_links_resolve():
    link = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(#[^)\s]*)?\)")
    checked = 0
    for page in DOCS.rglob("*.md"):
        for match in link.finditer(page.read_text()):
            href = match.group(1)
            if href.startswith(("http://", "https://", "mailto:")):
                continue
            target = (page.parent / href).resolve()
            assert target.exists(), f"{page.name}: broken link {href}"
            checked += 1
    assert checked >= 10  # the site is actually cross-linked


def test_site_documents_every_layer_and_subsystem():
    architecture = (DOCS / "architecture.md").read_text()
    for layer in ("repro.engine", "repro.core", "repro.skyline",
                  "repro.rtree", "repro.storage"):
        assert layer in architecture, f"architecture page misses {layer}"
    assert "mermaid" in architecture  # the layering diagram
    for subsystem, page in [
        ("dynamic", DOCS / "guides" / "dynamic-sessions.md"),
        ("parallel", DOCS / "guides" / "parallel.md"),
    ]:
        assert page.is_file(), f"{subsystem} guide missing"
        assert len(page.read_text()) > 1000


def test_docs_extra_and_ci_job_exist():
    setup = (REPO / "setup.py").read_text()
    assert "mkdocs" in setup and '"docs"' in setup
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "mkdocs build --strict" in workflow



PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
REPRO_CHAIN = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")
FROM_IMPORT = re.compile(
    r"^\s*from\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^\n]+)", re.M,
)


def snippet_references(page):
    """Every ``repro.<name>`` chain a page's Python blocks rely on."""
    for block in PYTHON_BLOCK.findall(page.read_text()):
        yield from REPRO_CHAIN.findall(block)
        for module, names in FROM_IMPORT.findall(block):
            names = re.sub(r"#[^\n]*", "", names).strip("()")
            for name in names.split(","):
                name = name.split(" as ")[0].strip()
                if name:
                    yield f"{module}.{name}"


def resolves(dotted):
    """Follow ``repro.a.b`` through attributes, importing submodules."""
    import importlib

    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for part in parts[1:]:
        if not hasattr(obj, part) and hasattr(obj, "__path__"):
            try:
                importlib.import_module(f"{obj.__name__}.{part}")
            except ImportError:
                return False
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_python_snippets_reference_only_existing_names():
    # Doc drift: every repro.<name> chain and every name imported from a
    # repro module in a Python code block must still exist.
    references = [
        (page, dotted)
        for page in [REPO / "README.md"] + sorted(DOCS.rglob("*.md"))
        for dotted in snippet_references(page)
    ]
    assert len(references) >= 40  # the snippets actually use the API
    missing = sorted(
        f"{page.relative_to(REPO)}: {dotted}"
        for page, dotted in set(references) if not resolves(dotted)
    )
    assert not missing, missing
