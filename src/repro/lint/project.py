"""The whole-program model behind project rules.

Per-file rules see one :class:`~repro.lint.source.SourceFile` at a
time, which is exactly the wrong granularity for the properties that
actually break production: a lock cycle spanning two modules, a
``time.time()`` call three imports away from the replay driver, a
dataclass field the wire codec silently drops. :class:`ProjectModel`
is built **once per lint run** from every parsed file and gives
:class:`~repro.lint.rules.base.ProjectRule` subclasses the
cross-module facts those checks need:

* the **module graph** — project-local imports (module-level and
  function-level), with relative imports resolved;
* a resolved, best-effort **call graph** — direct calls, ``self``
  method calls (following base classes declared in the model), and
  ``module.func`` calls through import aliases; anything the resolver
  cannot pin down is dropped, never guessed;
* per-function **lock summaries** — which locks a function acquires,
  which it acquires while already holding another (lexically or via a
  ``# lint: holds-lock=`` contract), and which calls it makes under a
  held lock;
* **class schemas** — dataclass/TypedDict fields in declaration order
  (or ``__init__`` parameters for plain classes), with their
  ``# wire:`` key aliases, plus the base-class lists that let rules
  walk the :class:`~repro.errors.ReproError` hierarchy;
* **wire markers** — which functions declared themselves encoders or
  decoders of which schema classes.

Everything here is derived from the AST plus the comment markers in
:mod:`repro.lint.suppress`; the model never imports the code it
analyzes.
"""

from __future__ import annotations

import ast
import builtins
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .source import SourceFile
from .suppress import (
    held_locks,
    marked_replay_root,
    wire_field_keys,
    wire_marker,
)

_AnyFunc = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Attribute/variable names treated as locks by naming convention,
#: even when their ``threading.Lock()`` assignment is out of view.
_LOCK_NAME_RE = re.compile(r"(?:^|_)(?:lock|cv|cond|condition|mutex|sem)$")

#: ``threading`` constructors whose assignment marks the target a lock.
_THREADING_LOCKS = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
}

#: Every builtin exception class name (``ValueError``, ``OSError``...).
BUILTIN_EXCEPTIONS = frozenset(
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
)


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/net/codec.py`` → ``repro.net.codec``;
    ``src/repro/net/__init__.py`` → ``repro.net``; a bare fixture file
    ``wire_schema_cases.py`` → ``wire_schema_cases``.
    """
    parts = rel_path[:-3].split("/") if rel_path.endswith(".py") \
        else rel_path.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    is_package = bool(parts) and parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FieldInfo:
    """One schema field of a wire-relevant class."""

    name: str
    line: int
    #: Keys this field may travel under on the wire (defaults to the
    #: field name; overridden by a ``# wire: a,b`` comment).
    wire_keys: Tuple[str, ...]


@dataclass
class CallSite:
    """One call expression, as written (unresolved)."""

    #: Dotted callee text (``self.flush``, ``codec.encode_request``).
    callee: str
    line: int
    #: Lock names held (lexically or by contract) at the call.
    held: Tuple[str, ...]


@dataclass
class ResolvedCall:
    """One call edge resolved to a project function key."""

    callee: str
    line: int
    held: Tuple[str, ...]


@dataclass
class RaiseSite:
    """One ``raise Name(...)`` statement (dotted name as written)."""

    name: str
    line: int


@dataclass
class LockNest:
    """Lock ``acquired`` taken while ``held`` was already held."""

    held: str
    acquired: str
    line: int


@dataclass
class FunctionInfo:
    """Summary of one module-level function or method."""

    module: str
    #: Repo-relative path of the defining file.
    path: str
    #: Qualified name within the module (``Cls.meth`` or ``func``).
    name: str
    line: int
    node: _AnyFunc
    class_name: str = ""
    #: ``{lock: first acquisition line}``.
    acquires: Dict[str, int] = field(default_factory=dict)
    nests: List[LockNest] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    raises: List[RaiseSite] = field(default_factory=list)

    @property
    def key(self) -> str:
        """Global identity: ``module:qualname``."""
        return f"{self.module}:{self.name}"


@dataclass
class ClassInfo:
    """Schema + hierarchy facts for one class definition."""

    module: str
    path: str
    name: str
    line: int
    #: Base classes as written (dotted names).
    bases: Tuple[str, ...]
    #: Declaration-ordered schema fields (dataclass/TypedDict
    #: annotations, or ``__init__`` parameters for plain classes).
    fields: Dict[str, FieldInfo] = field(default_factory=dict)
    #: Own methods (inherited ones live on the base's ClassInfo).
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    is_dataclass: bool = False

    @property
    def key(self) -> str:
        """Global identity: ``module:ClassName``."""
        return f"{self.module}:{self.name}"


@dataclass
class WireMarker:
    """One ``# lint: encodes=``/``decodes=`` declaration on a def."""

    function: FunctionInfo
    kind: str  # "encodes" | "decodes"
    types: Tuple[str, ...]
    extras: Tuple[str, ...]


@dataclass
class ModuleInfo:
    """One parsed module inside the project model."""

    name: str
    package: str
    source: SourceFile
    #: Local name → absolute dotted import target.
    imports: Dict[str, str] = field(default_factory=dict)
    #: Project modules this module imports (anywhere in the file).
    deps: Set[str] = field(default_factory=set)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Functions *and* methods, keyed by in-module qualname.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``__all__`` names → declaration line.
    exports: Dict[str, int] = field(default_factory=dict)
    #: Whether a ``# lint: replay-root`` marker is present.
    replay_root: bool = False
    #: Raw import records, resolved against the model during linking.
    raw_imports: List[Tuple[str, str]] = field(default_factory=list)


class _FunctionScanner(ast.NodeVisitor):
    """Fills one FunctionInfo: acquires, nests, calls, raises.

    Tracks the lexically-held lock stack (seeded with the def's
    ``holds-lock=`` contract); nested defs and lambdas are skipped —
    they execute later, in a context this function does not control.
    """

    def __init__(self, info: FunctionInfo, is_lock) -> None:
        self.info = info
        self.is_lock = is_lock
        self.held: List[str] = []

    def scan(self, node: _AnyFunc, entry_held: Iterable[str]) -> None:
        self.held = list(entry_held)
        for statement in node.body:
            self.visit(statement)

    @staticmethod
    def _lock_candidate(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Attribute):
            return expr.attr
        if isinstance(expr, ast.Name):
            return expr.id
        return None

    def _visit_with(self, node: Union[ast.With, ast.AsyncWith]) -> None:
        acquired: List[str] = []
        for item in node.items:
            name = self._lock_candidate(item.context_expr)
            if name is None or not self.is_lock(name):
                self.visit(item.context_expr)
                continue
            self.info.acquires.setdefault(name, node.lineno)
            for outer in self.held + acquired:
                if outer != name:
                    self.info.nests.append(
                        LockNest(outer, name, node.lineno)
                    )
            acquired.append(name)
        depth = len(self.held)
        self.held.extend(acquired)
        for statement in node.body:
            self.visit(statement)
        del self.held[depth:]

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted:
            self.info.calls.append(CallSite(
                dotted, node.lineno, tuple(sorted(set(self.held)))
            ))
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        target = node.exc
        if isinstance(target, ast.Call):
            target = target.func
        if target is not None:
            dotted = _dotted(target)
            if dotted:
                self.info.raises.append(RaiseSite(dotted, node.lineno))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _dotted(node: ast.AST) -> str:
    """Render an ``a.b.c`` name/attribute chain ('' otherwise)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _decorator_names(node: Union[ast.ClassDef, _AnyFunc]) -> Set[str]:
    names: Set[str] = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        dotted = _dotted(target)
        if dotted:
            names.add(dotted.split(".")[-1])
    return names


def _exported_names(tree: ast.Module) -> Dict[str, int]:
    """``{name: line}`` from ``__all__`` list/tuple assignments."""
    exported: Dict[str, int] = {}
    for node in tree.body:
        values: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in node.targets):
                values = [node.value]
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name) \
                    and node.target.id == "__all__":
                values = [node.value]
        for value in values:
            if isinstance(value, (ast.List, ast.Tuple)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) \
                            and isinstance(element.value, str):
                        exported[element.value] = element.lineno
    return exported


class ProjectModel:
    """Cross-module facts for one lint run. Build with :meth:`build`."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: Every function by global key.
        self.functions: Dict[str, FunctionInfo] = {}
        #: Resolved call edges per function key.
        self.call_graph: Dict[str, List[ResolvedCall]] = {}
        #: Attribute names known to be locks (assignment-detected).
        self.lock_names: Set[str] = set()
        self.wire_markers: List[WireMarker] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, sources: Sequence[SourceFile]) -> "ProjectModel":
        """Parse every source into one linked model."""
        model = cls()
        parsed = [s for s in sources if s.tree is not None]
        for source in parsed:
            model._collect_lock_names(source)
        for source in parsed:
            model._add_module(source)
        model._link_imports()
        model._link_calls()
        return model

    def is_lock(self, name: str) -> bool:
        """Whether a with-target name counts as a lock."""
        return name in self.lock_names or bool(_LOCK_NAME_RE.search(name))

    def _collect_lock_names(self, source: SourceFile) -> None:
        assert source.tree is not None
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Assign) or \
                    not isinstance(node.value, ast.Call):
                continue
            ctor = _dotted(node.value.func).split(".")[-1]
            if ctor not in _THREADING_LOCKS:
                continue
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    self.lock_names.add(target.attr)
                elif isinstance(target, ast.Name):
                    self.lock_names.add(target.id)

    def _add_module(self, source: SourceFile) -> None:
        assert source.tree is not None
        name = module_name_for(source.rel_path)
        is_package = source.rel_path.endswith("__init__.py")
        package = name if is_package else ".".join(name.split(".")[:-1])
        module = ModuleInfo(
            name=name, package=package, source=source,
            exports=_exported_names(source.tree),
            replay_root=any(
                marked_replay_root(c) for c in source.comments.values()
            ),
        )
        self._collect_imports(module, source.tree)
        for node in source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node, class_name="")
            elif isinstance(node, ast.ClassDef):
                self._add_class(module, node)
        self.modules[name] = module

    def _collect_imports(self, module: ModuleInfo, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    module.imports.setdefault(bound, target)
                    module.raw_imports.append(("module", alias.name))
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(module, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        module.raw_imports.append(("module", base))
                        continue
                    bound = alias.asname or alias.name
                    module.imports.setdefault(
                        bound, f"{base}.{alias.name}"
                    )
                    module.raw_imports.append(
                        ("symbol", f"{base}.{alias.name}")
                    )

    @staticmethod
    def _resolve_from(module: ModuleInfo,
                      node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        parts = module.package.split(".") if module.package else []
        drop = node.level - 1
        if drop > len(parts):
            return None
        base_parts = parts[:len(parts) - drop] if drop else parts
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts) if base_parts else None

    def _add_function(self, module: ModuleInfo, node: _AnyFunc,
                      class_name: str) -> None:
        qual = f"{class_name}.{node.name}" if class_name else node.name
        info = FunctionInfo(
            module=module.name, path=module.source.rel_path,
            name=qual, line=node.lineno, node=node,
            class_name=class_name,
        )
        header = range(
            node.lineno,
            (node.body[0].lineno if node.body else node.lineno) + 1,
        )
        contract = held_locks(module.source.comments, header)
        _FunctionScanner(info, self.is_lock).scan(node, contract)
        module.functions[qual] = info
        self.functions[info.key] = info
        for line in header:
            marker = wire_marker(module.source.comment_on(line))
            if marker is not None:
                kind, types, extras = marker
                self.wire_markers.append(
                    WireMarker(info, kind, types, extras)
                )

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        bases = tuple(d for d in (_dotted(b) for b in node.bases) if d)
        decorators = _decorator_names(node)
        base_tails = {b.split(".")[-1] for b in bases}
        is_schema = "dataclass" in decorators or \
            bool(base_tails & {"TypedDict", "NamedTuple"})
        info = ClassInfo(
            module=module.name, path=module.source.rel_path,
            name=node.name, line=node.lineno, bases=bases,
            is_dataclass="dataclass" in decorators,
        )
        for statement in node.body:
            if isinstance(statement,
                          (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, statement,
                                   class_name=node.name)
                info.methods[statement.name] = \
                    module.functions[f"{node.name}.{statement.name}"]
            elif is_schema and isinstance(statement, ast.AnnAssign) \
                    and isinstance(statement.target, ast.Name):
                annotation = _dotted(
                    statement.annotation.value
                    if isinstance(statement.annotation, ast.Subscript)
                    else statement.annotation
                )
                if annotation.split(".")[-1] == "ClassVar":
                    continue
                self._add_field(module, info, statement.target.id,
                                statement.lineno)
        if not is_schema:
            init = info.methods.get("__init__")
            if init is not None:
                args = init.node.args
                for arg in list(args.posonlyargs) + list(args.args) \
                        + list(args.kwonlyargs):
                    if arg.arg in ("self", "cls"):
                        continue
                    self._add_field(module, info, arg.arg, arg.lineno)
        module.classes[node.name] = info

    @staticmethod
    def _add_field(module: ModuleInfo, info: ClassInfo,
                   name: str, line: int) -> None:
        keys = wire_field_keys(module.source.comment_on(line))
        info.fields[name] = FieldInfo(
            name=name, line=line,
            wire_keys=keys if keys is not None else (name,),
        )

    def _link_imports(self) -> None:
        for module in self.modules.values():
            for kind, dotted in module.raw_imports:
                dep = self.module_prefix(dotted)
                if dep and dep != module.name:
                    module.deps.add(dep)

    def module_prefix(self, dotted: str) -> Optional[str]:
        """The longest model module that prefixes ``dotted``."""
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            candidate = ".".join(parts[:i])
            if candidate in self.modules:
                return candidate
        return None

    def _link_calls(self) -> None:
        for module in self.modules.values():
            for info in module.functions.values():
                resolved: List[ResolvedCall] = []
                for call in info.calls:
                    key = self._resolve_call(module, info, call.callee)
                    if key is not None and key != info.key:
                        resolved.append(
                            ResolvedCall(key, call.line, call.held)
                        )
                self.call_graph[info.key] = resolved

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def _resolve_call(self, module: ModuleInfo, caller: FunctionInfo,
                      dotted: str) -> Optional[str]:
        parts = dotted.split(".")
        if parts[0] == "self":
            if caller.class_name and len(parts) == 2:
                found = self.resolve_method(
                    module.name, caller.class_name, parts[1]
                )
                return found.key if found is not None else None
            return None
        resolved = self.resolve_symbol(module.name, dotted)
        if isinstance(resolved, FunctionInfo):
            return resolved.key
        if isinstance(resolved, ClassInfo):
            init = resolved.methods.get("__init__")
            return init.key if init is not None else None
        return None

    def resolve_symbol(
        self, module_name: str, dotted: str,
        _seen: Optional[Set[Tuple[str, str]]] = None,
    ) -> Optional[Union[FunctionInfo, ClassInfo, ModuleInfo]]:
        """Resolve a dotted name as seen from ``module_name``.

        Follows import aliases and re-export chains through the model;
        returns ``None`` for anything external or ambiguous.
        """
        if _seen is None:
            _seen = set()
        if (module_name, dotted) in _seen:
            return None
        _seen.add((module_name, dotted))
        module = self.modules.get(module_name)
        if module is None:
            return None
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        # Defined right here?
        local: Optional[Union[FunctionInfo, ClassInfo]] = None
        if head in module.classes:
            local = module.classes[head]
        elif head in module.functions:
            local = module.functions[head]
        if local is not None:
            if not rest:
                return local
            if isinstance(local, ClassInfo) and len(rest) == 1:
                return local.methods.get(rest[0])
            return None
        # Through an import alias?
        target = module.imports.get(head)
        if target is not None:
            return self._resolve_absolute(
                ".".join([target] + rest), _seen
            )
        return None

    def _resolve_absolute(
        self, dotted: str, _seen: Set[Tuple[str, str]],
    ) -> Optional[Union[FunctionInfo, ClassInfo, ModuleInfo]]:
        if dotted in self.modules:
            return self.modules[dotted]
        prefix = self.module_prefix(dotted)
        if prefix is None:
            return None
        rest = dotted[len(prefix) + 1:]
        return self.resolve_symbol(prefix, rest, _seen)

    def resolve_method(self, module_name: str, class_name: str,
                       method: str) -> Optional[FunctionInfo]:
        """Find ``method`` on a class or its model-visible bases."""
        queue: List[Tuple[str, str]] = [(module_name, class_name)]
        seen: Set[str] = set()
        while queue:
            mod_name, cls_name = queue.pop(0)
            resolved = self.resolve_symbol(mod_name, cls_name)
            if not isinstance(resolved, ClassInfo) or \
                    resolved.key in seen:
                continue
            seen.add(resolved.key)
            if method in resolved.methods:
                return resolved.methods[method]
            for base in resolved.bases:
                queue.append((resolved.module, base))
        return None

    def is_typed_error(self, cls: ClassInfo,
                       _seen: Optional[Set[str]] = None) -> bool:
        """Whether ``cls`` derives (by name) from ``ReproError``."""
        if _seen is None:
            _seen = set()
        if cls.key in _seen:
            return False
        _seen.add(cls.key)
        if cls.name == "ReproError":
            return True
        for base in cls.bases:
            if base.split(".")[-1] == "ReproError":
                return True
            resolved = self.resolve_symbol(cls.module, base)
            if isinstance(resolved, ClassInfo) and \
                    self.is_typed_error(resolved, _seen):
                return True
        return False

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reachable_modules(self, roots: Iterable[str]) -> Set[str]:
        """Model modules reachable from ``roots`` via imports."""
        seen: Set[str] = set()
        queue = [r for r in roots if r in self.modules]
        while queue:
            name = queue.pop()
            if name in seen:
                continue
            seen.add(name)
            queue.extend(self.modules[name].deps - seen)
        return seen

    def transitive_acquires(self) -> Dict[str, Dict[str, Tuple[str, int]]]:
        """Per function: every lock it may acquire, directly or via
        calls, with the (path, line) of one acquisition site."""
        acquired: Dict[str, Dict[str, Tuple[str, int]]] = {
            key: {
                lock: (info.path, line)
                for lock, line in info.acquires.items()
            }
            for key, info in self.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for key, calls in self.call_graph.items():
                mine = acquired[key]
                for call in calls:
                    for lock, site in acquired.get(call.callee,
                                                   {}).items():
                        if lock not in mine:
                            mine[lock] = site
                            changed = True
        return acquired

    def lock_graph(
        self,
    ) -> Dict[Tuple[str, str], List[Tuple[str, int, str]]]:
        """The interprocedural lock-acquisition digraph.

        Edge ``(a, b)`` means some code path acquires ``b`` while
        holding ``a`` — either lexically nested ``with`` blocks, or a
        call made under ``a`` into a function that (transitively)
        acquires ``b``. Each edge carries its ``(path, line, note)``
        sites. Self-edges (re-entrant re-acquisition) are excluded.
        """
        edges: Dict[Tuple[str, str], List[Tuple[str, int, str]]] = {}

        def add(a: str, b: str, path: str, line: int, note: str) -> None:
            if a != b:
                edges.setdefault((a, b), []).append((path, line, note))

        transitive = self.transitive_acquires()
        for key, info in self.functions.items():
            for nest in info.nests:
                add(nest.held, nest.acquired, info.path, nest.line,
                    f"nested acquisition in {info.name}")
            for call in self.call_graph.get(key, []):
                if not call.held:
                    continue
                callee = self.functions[call.callee]
                for lock, (opath, oline) in sorted(
                    transitive.get(call.callee, {}).items()
                ):
                    for held in call.held:
                        add(held, lock, info.path, call.line,
                            f"{info.name} calls {callee.name} "
                            f"(acquires '{lock}' at {opath})")
        for sites in edges.values():
            sites.sort(key=lambda s: (s[0], s[1]))
        return edges


LockEdges = Dict[Tuple[str, str], List[Tuple[str, int, str]]]


def derive_lock_order(edges: LockEdges) -> Tuple[str, ...]:
    """A canonical acquisition order derived from the lock graph.

    Greedy linear-arrangement heuristic (Eades–Lin–Smyth): repeatedly
    peel sinks to the back and sources to the front; when only cyclic
    structure remains, move the node with the largest (out − in) site
    weight to the front. For an acyclic graph this is a topological
    order — every observed nesting agrees with it. When cycles exist,
    the minority direction (by acquisition-site count) ends up as
    "back edges" against the returned order; ties break toward the
    lexicographically smaller lock so the result is deterministic.
    """
    weight: Dict[Tuple[str, str], int] = {
        pair: len(sites) for pair, sites in edges.items()
        if pair[0] != pair[1]
    }
    remaining: Set[str] = {n for pair in weight for n in pair}
    front: List[str] = []
    back: List[str] = []

    def out_w(node: str) -> int:
        return sum(w for (a, b), w in weight.items()
                   if a == node and b in remaining)

    def in_w(node: str) -> int:
        return sum(w for (a, b), w in weight.items()
                   if b == node and a in remaining)

    while remaining:
        sink = next(
            (n for n in sorted(remaining) if out_w(n) == 0), None
        )
        if sink is not None:
            remaining.remove(sink)
            back.append(sink)
            continue
        source = next(
            (n for n in sorted(remaining) if in_w(n) == 0), None
        )
        if source is not None:
            remaining.remove(source)
            front.append(source)
            continue
        best = max(sorted(remaining), key=lambda n: out_w(n) - in_w(n))
        remaining.remove(best)
        front.append(best)
    return tuple(front + list(reversed(back)))


def lock_sccs(edges: LockEdges) -> List[List[str]]:
    """Non-trivial strongly connected components of the lock graph.

    Returns each SCC of size ≥ 2 (a set of locks that can be acquired
    in a cycle) as a sorted list, components ordered by their smallest
    member. Tarjan's algorithm with deterministic adjacency order.
    """
    graph: Dict[str, List[str]] = {}
    for (a, b), _ in sorted(edges.items()):
        if a != b:
            graph.setdefault(a, []).append(b)
            graph.setdefault(b, [])
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    result: List[List[str]] = []

    def strongconnect(node: str) -> None:
        index[node] = lowlink[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for succ in graph[node]:
            if succ not in index:
                strongconnect(succ)
                lowlink[node] = min(lowlink[node], lowlink[succ])
            elif succ in on_stack:
                lowlink[node] = min(lowlink[node], index[succ])
        if lowlink[node] == index[node]:
            component: List[str] = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                result.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    result.sort(key=lambda c: c[0])
    return result
