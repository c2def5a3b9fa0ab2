"""AST-based import graph of the ``repro`` source tree.

Layer separation is a property of the *import graph*, so this module
builds that graph once, statically, and the lint rules
(:mod:`repro.analysis.rules`) check layering and acyclicity over its
edges; :meth:`ImportGraph.dependency_cone` traces transitive imports
in the spirit of OpenNVRAM's ``base/dependency_graph.py``.

Nothing is imported to build the graph: every ``*.py`` file under the
package root is parsed with :mod:`ast`, and ``import`` / ``from ...
import`` statements are resolved against the set of modules the tree
itself defines (external imports -- numpy, stdlib -- are dropped).
Imports are classified as *top-level* (module scope) or *deferred*
(inside a function or method body, or under an ``if TYPE_CHECKING:``
guard that never executes at runtime): deferred imports still count
toward dependency cones and layering -- a lazy or annotation-only
import is a real source dependency -- but not toward cycle detection,
because a deferred edge cannot deadlock module initialization.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Mapping


@dataclass(frozen=True)
class ImportEdge:
    """One resolved internal import statement."""

    target: str  #: imported module, e.g. ``"repro.sim.npu"``
    line: int  #: 1-based line of the import statement
    deferred: bool  #: inside a function body (lazy import)


@dataclass(frozen=True)
class ModuleInfo:
    """One module of the tree plus its resolved internal imports."""

    name: str  #: dotted module name (packages use their bare name)
    path: Path  #: source file (``__init__.py`` for packages)
    edges: tuple[ImportEdge, ...]

    def imports(self, include_deferred: bool = True) -> frozenset[str]:
        return frozenset(edge.target for edge in self.edges
                         if include_deferred or not edge.deferred)


class ImportGraph:
    """The internal import graph of one package tree."""

    def __init__(self, package: str,
                 modules: Mapping[str, ModuleInfo]) -> None:
        self.package = package
        self.modules = dict(modules)

    def __contains__(self, name: str) -> bool:
        return name in self.modules

    def module_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.modules))

    def edges(self, include_deferred: bool = True) -> dict[str, frozenset[str]]:
        """Adjacency: module -> set of internal modules it imports."""
        return {name: info.imports(include_deferred)
                for name, info in self.modules.items()}

    def _seeds(self, entry: str) -> list[str]:
        """The modules an entry names: itself, or a package's subtree."""
        if entry in self.modules:
            seeds = [entry]
        else:
            seeds = []
        prefix = entry + "."
        seeds.extend(name for name in self.modules
                     if name.startswith(prefix))
        if not seeds:
            raise KeyError(
                f"unknown module or package {entry!r} "
                f"(tree root: {self.package})")
        return seeds

    def dependency_cone(
        self, *entries: str, include_deferred: bool = True,
    ) -> frozenset[str]:
        """Every internal module reachable from the entry points.

        An entry may be a single module (``"repro.eval.lowering"``) or
        a package (``"repro.sim"``: the whole subtree seeds the walk).
        The cone includes the seeds themselves.  Deferred (in-function)
        imports are followed by default: a lazily imported module still
        feeds the numbers of whatever imported it.
        """
        stack: list[str] = []
        for entry in entries:
            stack.extend(self._seeds(entry))
        cone: set[str] = set()
        while stack:
            name = stack.pop()
            if name in cone:
                continue
            cone.add(name)
            stack.extend(self.modules[name].imports(include_deferred)
                         - cone)
        return frozenset(cone)

    def cycles(self) -> list[tuple[str, ...]]:
        """Import cycles among *top-level* imports, as sorted SCCs.

        Tarjan's strongly-connected components over the module-scope
        edges; only components with more than one module (or a
        self-loop) are returned.  Deferred imports are excluded: the
        repository breaks its intentional back-references (e.g. the
        registry importing its built-ins) by deferring them, and this
        rule is what keeps that discipline honest.
        """
        adjacency = self.edges(include_deferred=False)
        index_counter = [0]
        stack: list[str] = []
        lowlink: dict[str, int] = {}
        index: dict[str, int] = {}
        on_stack: set[str] = set()
        components: list[tuple[str, ...]] = []

        def strongconnect(node: str) -> None:
            index[node] = lowlink[node] = index_counter[0]
            index_counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for neighbor in adjacency[node]:
                if neighbor not in index:
                    strongconnect(neighbor)
                    lowlink[node] = min(lowlink[node], lowlink[neighbor])
                elif neighbor in on_stack:
                    lowlink[node] = min(lowlink[node], index[neighbor])
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if (len(component) > 1
                        or node in adjacency[node]):
                    components.append(tuple(sorted(component)))

        for name in sorted(adjacency):
            if name not in index:
                strongconnect(name)
        return sorted(components)


def _module_name(root: Path, package: str, path: Path) -> str:
    relative = path.relative_to(root).with_suffix("")
    parts = [package, *relative.parts]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _resolve(raw: str, known: set[str], package: str) -> str | None:
    """Map a dotted import target onto a module the tree defines.

    ``from repro.eval import request`` arrives as ``repro.eval.request``
    (handled by the caller); names that resolve to nothing internal
    (stdlib, numpy, a symbol rather than a submodule) fall back to the
    longest known prefix, or ``None`` for genuinely external imports.
    """
    if not (raw == package or raw.startswith(package + ".")):
        return None
    name = raw
    while name:
        if name in known:
            return name
        if "." not in name:
            return None
        name = name.rsplit(".", 1)[0]
    return None


def _iter_imports(
    tree: ast.Module, module: str, is_package: bool,
    known: set[str], package: str,
) -> Iterator[ImportEdge]:
    """Resolved internal import edges of one parsed module."""

    def _type_checking_guard(node: ast.AST) -> bool:
        if not isinstance(node, ast.If):
            return False
        test = node.test
        if isinstance(test, ast.Name):
            return test.id == "TYPE_CHECKING"
        return (isinstance(test, ast.Attribute)
                and test.attr == "TYPE_CHECKING")

    def walk(node: ast.AST, deferred: bool) -> Iterator[ImportEdge]:
        for child in ast.iter_child_nodes(node):
            child_deferred = deferred or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ) or _type_checking_guard(child)
            if isinstance(child, ast.Import):
                for alias in child.names:
                    target = _resolve(alias.name, known, package)
                    if target is not None and target != module:
                        yield ImportEdge(target, child.lineno, deferred)
            elif isinstance(child, ast.ImportFrom):
                base = child.module or ""
                if child.level:  # relative import
                    anchor = module if is_package else (
                        module.rsplit(".", 1)[0] if "." in module else "")
                    for _ in range(child.level - 1):
                        anchor = (anchor.rsplit(".", 1)[0]
                                  if "." in anchor else "")
                    base = f"{anchor}.{base}" if base else anchor
                for alias in child.names:
                    candidate = f"{base}.{alias.name}" if base else alias.name
                    target = _resolve(candidate, known, package)
                    if target is not None and target != module:
                        yield ImportEdge(target, child.lineno, deferred)
            else:
                yield from walk(child, child_deferred)

    yield from walk(tree, False)


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    import repro

    return Path(repro.__file__).parent  # type: ignore[arg-type]


def iter_source_files(root: Path) -> Iterable[Path]:
    return sorted(root.rglob("*.py"))


def build_graph(root: str | Path | None = None,
                package: str = "repro") -> ImportGraph:
    """Parse every module under ``root`` and resolve internal imports.

    ``root`` defaults to the installed ``repro`` package directory, so
    the graph always describes the code that would actually run.  Pass
    an explicit root to analyze a copy.
    """
    base = Path(root).expanduser() if root is not None else default_root()
    if not base.is_dir():
        raise FileNotFoundError(f"package root {base} is not a directory")
    paths = list(iter_source_files(base))
    names = {path: _module_name(base, package, path) for path in paths}
    known = set(names.values())
    modules: dict[str, ModuleInfo] = {}
    for path in paths:
        name = names[path]
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        edges = tuple(_iter_imports(
            tree, name, path.name == "__init__.py", known, package))
        modules[name] = ModuleInfo(name=name, path=path, edges=edges)
    return ImportGraph(package, modules)


@lru_cache(maxsize=1)
def repo_graph() -> ImportGraph:
    """The (cached) import graph of the installed source tree."""
    return build_graph()
