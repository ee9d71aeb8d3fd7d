"""unreachable-module: every package module must have a caller.

A module that only its package ``__init__`` imports (and tests use) is
dead weight: it is exported, documented and ported through every
kernel change, yet no request path, CLI or example runs it. This rule
reports each such module so it is deleted, given a caller, or
declared a test oracle.

A module ``M`` inside a package is **used** when some analyzed module
other than a package ``__init__`` imports ``M`` or a name defined in
``M``, or reads an attribute chain rooted at an imported project
module (``repro.verify_stable_matching``). Names re-exported through
``__init__`` files resolve to the module that defines them, by
following each package's import table. A package ``__init__`` that
only imports and re-exports a name does not use it; one that runs
code with the name does (``lint/rules/__init__.py`` passes its rule
classes to ``register_rule``).

Exempt: ``__main__`` modules (the ``python -m`` entry points), modules
whose top level applies a ``register_*`` decorator or call (importing
them is the point), and modules carrying a ``# lint: reference``
marker — oracles that tests compare other code against.

Uses are counted over the analyzed targets only, so the rule checks a
package only when its top-level ``__init__`` is analyzed (linting one
subtree such as ``src/repro/engine`` reports nothing), and its verdict
is meant for the default targets — ``src/repro``, ``examples`` and
``benchmarks`` — which hold every caller the library has.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..findings import Finding
from ..project import ModuleInfo, ProjectModel
from ..suppress import marked_reference
from .base import ProjectRule, attribute_chain


def _is_package_init(module: ModuleInfo) -> bool:
    return module.source.rel_path.endswith("__init__.py")


def _is_candidate(model: ProjectModel, module: ModuleInfo) -> bool:
    """Whether the rule judges ``module``: a plain package module whose
    package, up to the top, is analyzed, and that no exemption covers."""
    tree = module.source.tree
    assert tree is not None
    return (
        not _is_package_init(module)
        and not module.name.endswith(".__main__")
        and module.package in model.modules
        and module.package.split(".")[0] in model.modules
        and not _registers(tree)
        and not any(marked_reference(comment)
                    for comment in module.source.comments.values())
    )


def _references(module: ModuleInfo) -> Iterator[str]:
    """Absolute dotted names ``module`` uses, before re-export lookup.

    A plain module uses everything it imports; any module uses every
    name or attribute chain its code reads that is rooted at an
    imported name. Import statements and ``__all__`` strings hold no
    such reads, so a package ``__init__`` that only re-exports a name
    uses nothing.
    """
    tree = module.source.tree
    assert tree is not None
    if not _is_package_init(module):
        for _, dotted in module.raw_imports:
            yield dotted
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Name, ast.Attribute)):
            continue
        head, _, rest = attribute_chain(node).partition(".")
        target = module.imports.get(head)
        if target is not None:
            yield f"{target}.{rest}" if rest else target


def _owners(model: ProjectModel, dotted: str) -> Set[str]:
    """The model modules ``dotted`` names or passes through.

    ``repro.summarize`` passes through ``repro`` and ``repro.core``
    and ends at ``repro.core.analysis``, the module defining it.
    """
    found: Set[str] = set()
    seen: Set[str] = set()
    while dotted not in seen:
        seen.add(dotted)
        prefix = model.module_prefix(dotted)
        if prefix is None:
            break
        found.add(prefix)
        head, _, tail = dotted[len(prefix) + 1:].partition(".")
        module = model.modules[prefix]
        if not head or head in module.classes or head in module.functions:
            break
        target = module.imports.get(head)
        if target is None:
            break
        dotted = f"{target}.{tail}" if tail else target
    return found


def _registers(tree: ast.Module) -> bool:
    """Whether the module's top level applies a ``register_*`` hook."""
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
            hooks: List[ast.AST] = [
                d.func if isinstance(d, ast.Call) else d
                for d in statement.decorator_list
            ]
        else:
            hooks = [node.func for node in ast.walk(statement)
                     if isinstance(node, ast.Call)]
        if any(attribute_chain(hook).split(".")[-1].startswith("register_")
               for hook in hooks):
            return True
    return False


class UnreachableModuleRule(ProjectRule):
    """Report package modules that no analyzed code imports or reads."""

    name = "unreachable-module"
    description = (
        "a package module must be imported or read by some module other "
        "than a package __init__ (or be marked '# lint: reference')"
    )

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        used: Set[str] = set()
        for module in model.modules.values():
            for dotted in _references(module):
                used |= _owners(model, dotted) - {module.name}
        for name, module in sorted(model.modules.items()):
            if name in used or not _is_candidate(model, module):
                continue
            yield self.project_finding(
                module.source.rel_path, 1,
                f"module {name} is unreachable: nothing but package "
                f"__init__ re-exports refers to it; delete it, call it, "
                f"or mark a test oracle '# lint: reference'",
                symbol=name,
            )
