"""The package layer order of ``src/repro``, checked over every import.

Each package of :data:`ORDER` may import only from its own rank or a
lower one, and the packages of one rank may not import each other in a
cycle.  Every ``import`` statement counts, function-level ones
included; only a ``TYPE_CHECKING`` block is exempt, since it never runs.
The scenario table's ``"module:function"`` references are imports the
walk cannot see, so they are checked against the order separately.

Run alone with ``python -m pytest tests/test_layers.py -q``; a failure
lists each offending ``file:line`` with the two packages it joins.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Set, Tuple

import repro

SOURCE = os.path.dirname(os.path.abspath(repro.__file__))

#: The layers bottom-up.  ``__init__`` is the root package's lazy
#: surface and ``__main__`` the ``python -m repro`` hook.
ORDER = (
    ("_lazy", "__init__"),
    ("simkernel", "core", "analysis"),
    ("net",),
    ("objects",),
    ("runtime",),
    ("obs",),
    ("workload", "productioncell"),
    ("explore",),
    ("bench",),
    ("real",),
    ("conformance",),
    ("cli", "__main__"),
)

RANK = {package: rank for rank, packages in enumerate(ORDER)
        for package in packages}


def module_files() -> Dict[str, str]:
    """Dotted module name -> source path, for every module of ``repro``."""
    modules = {}
    root = os.path.dirname(SOURCE)
    for directory, _, files in os.walk(SOURCE):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            dotted = os.path.relpath(path, root)[:-3].replace(os.sep, ".")
            modules[dotted.removesuffix(".__init__")] = path
    return modules


def package_of(module: str) -> str:
    """The layer unit a dotted ``repro`` module belongs to."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "__init__"


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or \
        (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _import_nodes(node: ast.AST) -> Iterator[ast.stmt]:
    """Every import statement under ``node``, minus ``TYPE_CHECKING`` ones."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif isinstance(child, ast.If) and _is_type_checking(child.test):
            yield from _import_nodes(ast.Module(child.orelse, []))
        else:
            yield from _import_nodes(child)


def imports(modules: Dict[str, str]) -> List[Tuple[str, int, str, str]]:
    """``(path, line, importer, imported)`` for every ``repro`` import."""
    found = []
    for module, path in sorted(modules.items()):
        is_package = path.endswith("__init__.py")
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        for node in _import_nodes(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            else:
                base = node.module or ""
                if node.level:
                    anchor = module.split(".")
                    anchor = anchor[:len(anchor) - node.level + is_package]
                    base = ".".join(anchor + ([base] if base else []))
                # ``from pkg import name`` imports module ``pkg.name`` when
                # there is one, else a name defined by ``pkg``.
                targets = [f"{base}.{alias.name}"
                           if f"{base}.{alias.name}" in modules else base
                           for alias in node.names]
            found.extend((path, node.lineno, module, target)
                         for target in targets
                         if target == "repro" or target.startswith("repro."))
    return found


def upward_imports() -> List[str]:
    """Each import of a package ranked above the importer's."""
    return [f"{os.path.relpath(path, SOURCE)}:{line}: "
            f"{package_of(importer)} -> {package_of(imported)}"
            for path, line, importer, imported in imports(module_files())
            if RANK[package_of(imported)] > RANK[package_of(importer)]]


def package_cycles() -> List[List[str]]:
    """The strongly connected package groups larger than one package."""
    graph: Dict[str, Set[str]] = {package: set() for package in RANK}
    for _, _, importer, imported in imports(module_files()):
        graph[package_of(importer)].add(package_of(imported))
    # Tarjan's algorithm over the (small) package graph.
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    cycles: List[List[str]] = []

    def visit(package: str) -> None:
        index[package] = low[package] = len(index)
        stack.append(package)
        for target in graph[package]:
            if target not in index:
                visit(target)
                low[package] = min(low[package], low[target])
            elif target in stack:
                low[package] = min(low[package], index[target])
        if low[package] == index[package]:
            group = []
            while True:
                member = stack.pop()
                group.append(member)
                if member == package:
                    break
            if len(group) > 1:
                cycles.append(sorted(group))

    for package in sorted(graph):
        if package not in index:
            visit(package)
    return cycles


def test_every_package_has_a_rank():
    packages = {package_of(module) for module in module_files()}
    assert sorted(packages - set(RANK)) == []


def test_no_import_reaches_a_higher_layer():
    assert upward_imports() == []


def test_no_packages_import_each_other_in_a_cycle():
    assert package_cycles() == []


def test_scenario_references_stay_at_or_below_the_engine():
    # A runner or node builder given as ``"module:function"`` is imported
    # by the engine on first use: it must not reach above ``bench``.
    from repro.bench.engine import REGISTRY

    references = [reference for scenario in REGISTRY
                  for reference in (scenario.runner, scenario.build)
                  if isinstance(reference, str)]
    assert references
    above = [reference for reference in references
             if RANK[package_of(reference.split(":")[0])] > RANK["bench"]]
    assert above == []


def test_the_walk_sees_function_level_imports_and_skips_type_checking(
        tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from ..bench import engine\n"
        "def late():\n"
        "    from ..obs import spans\n"
        "    from .. import runtime\n")
    empty = tmp_path / "empty.py"
    empty.write_text("")
    found = imports({"repro.runtime.probe": str(probe),
                     "repro.obs.spans": str(empty)})
    assert [(line, target) for _, line, _, target in found] == \
        [(5, "repro.obs.spans"), (6, "repro")]
