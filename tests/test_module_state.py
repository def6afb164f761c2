"""Module-level state census: nothing a run can leave behind in a module.

A process-pool worker runs many grid points, shards or explorer chunks in
one process, so "pool == sequential" holds only while no run leaves state
in a module for the next one to see.  This gate reads every module of
``src/repro`` with ``ast`` and flags

* each module-level binding to a literal or constructed ``dict``,
  ``list``, ``set`` (comprehensions included), ``defaultdict``,
  ``deque``, ``Counter``, ``OrderedDict`` or ``itertools.count``, and
* each function decorated with ``@cache`` / ``@lru_cache``,

unless :data:`ALLOWED` names it with a one-line reason.  ``__all__`` and
other dunder names are declarations, not state.  A listed entry that is
gone fails too, so the list only ever names what is there.

Run alone with ``python -m pytest tests/test_module_state.py -q``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List

import repro

SOURCE = Path(repro.__file__).resolve().parent

#: Callables whose result is a mutable container or an iterator.
CONTAINERS = {"dict", "list", "set", "defaultdict", "deque", "Counter",
              "OrderedDict", "count"}
CACHES = {"cache", "lru_cache"}

#: ``module:name`` → why the state is safe to share between runs.
ALLOWED = {
    "bench/engine.py:FIGURE9_GRIDS": "read-only table of the paper's grids",
    "cli.py:KINDS": "read-only table of fault vocabularies",
    "cli.py:COMMANDS": "read-only subcommand table",
    "conformance.py:ALGORITHMS": "read-only table of algorithm aliases",
    "conformance.py:COVERAGE_EXEMPT": "read-only table of exempt scenarios",
    "core/baselines/__init__.py:PROTOCOL_MESSAGE_TYPES":
        "read-only table of message types per algorithm",
    "core/effects.py:handler_name": "pure function of the effect class",
    "core/registry.py:_SIMPLE_TYPES": "read-only table of parameter types",
    "core/state.py:_ORDER_KEY_CACHE":
        "memo of a pure function of the thread identifier",
    "net/message.py:_sequence":
        "known: numbers envelopes process-wide; ROADMAP item 22 makes it "
        "per network and deletes it",
    "obs/observation.py:_ACTION_COUNTERS":
        "read-only table of life-cycle counters",
    "productioncell/exceptions.py:MOVE_LOADED_TABLE_PRIMITIVES":
        "read-only list of the case study's primitive exceptions",
    "runtime/config.py:ALGORITHMS": "read-only table of coordinators",
    "runtime/events.py:CATEGORIES": "filled once at import, then read-only",
    "runtime/metrics.py:_COUNTED": "read-only table of counted kinds",
    "worlds.py:FIGURE9_BASELINE": "read-only table of the paper's baseline",
    "worlds.py:_nested_abort_definitions":
        "action definitions shared by every case; no run mutates them "
        "(tests/explore/test_case_overhead.py pins their versions)",
    "worlds.py:_concurrent_definition":
        "action definition shared by every case; no run mutates it "
        "(tests/explore/test_case_overhead.py pins its version)",
}


def _called_name(node: ast.AST) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_container(value: ast.AST) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    return isinstance(value, ast.Call) and _called_name(value) in CONTAINERS


def _module_statements(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Module-level statements, through ``if`` / ``try`` / ``with``."""
    for statement in body:
        yield statement
        if isinstance(statement, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_statements(getattr(statement, block, []))
            for handler in getattr(statement, "handlers", []):
                yield from _module_statements(handler.body)


def module_state(text: str) -> List[str]:
    """Names of the module-level state and cached functions in ``text``."""
    tree = ast.parse(text)
    found = []
    for statement in _module_statements(tree.body):
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign):
            targets, value = [statement.target], statement.value
        else:
            continue
        if value is not None and _is_container(value):
            found.extend(target.id for target in targets
                         if isinstance(target, ast.Name)
                         and not target.id.startswith("__"))
    found.extend(node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and any(_called_name(decorator) in CACHES
                         for decorator in node.decorator_list))
    return found


def census() -> List[str]:
    """``module:name`` for every piece of module state in ``src/repro``."""
    return sorted(f"{path.relative_to(SOURCE).as_posix()}:{name}"
                  for path in sorted(SOURCE.rglob("*.py"))
                  for name in module_state(path.read_text(encoding="utf-8")))


def test_every_module_state_is_allowed_with_a_reason():
    assert [entry for entry in census() if entry not in ALLOWED] == []


def test_every_allowed_entry_is_still_there():
    assert sorted(set(ALLOWED) - set(census())) == []


def test_a_new_counter_or_container_or_cache_is_flagged():
    source = ("import itertools\nfrom collections import deque\n"
              "from functools import lru_cache\n"
              "_ids = itertools.count()\n"
              "SEEN: dict = {}\n"
              "if True:\n    _queue = deque()\n"
              "__all__ = ['f']\n"
              "TABLE = ('a', 'b')\n"
              "@lru_cache(maxsize=None)\ndef f(x):\n    return x\n")
    assert module_state(source) == ["_ids", "SEEN", "_queue", "f"]
