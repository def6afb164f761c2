"""The lazy package surfaces export exactly what the eager imports did.

Every ``__all__`` name resolves, through attribute access, to the very
object its defining submodule holds, is listed by ``dir()``, and comes
out of ``from <package> import *``.  The registries that fill themselves
at import time (scenarios, traffic actions, exploration targets) hold
the same entries however little was imported first.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import repro

SOURCE = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Each re-exporting package and the size of its ``__all__`` (a dropped
#: re-export shrinks it).
PACKAGES = {"repro": 9, "repro.analysis": 12, "repro.bench": 34,
            "repro.core": 60, "repro.explore": 13, "repro.net": 15,
            "repro.objects": 17, "repro.obs": 19, "repro.real": 2,
            "repro.runtime": 15, "repro.workload": 24}

SCENARIOS = ["figure9", "figure12_tmmax", "figure12_tres", "large_n",
             "wide_graph", "graph_microbench", "explore", "remote_counter",
             "churn", "capacity", "mixed_traffic", "transactional",
             "production_cell", "scale"]


def submodules(package):
    """Every direct submodule of ``package``, imported."""
    return [importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if not info.name.startswith("__")]


@pytest.mark.parametrize("name", sorted(PACKAGES))
def test_every_exported_name_is_its_defining_object(name):
    package = importlib.import_module(name)
    assert len(set(package.__all__)) == PACKAGES[name]
    modules = submodules(package)
    listed = dir(package)
    for symbol in package.__all__:
        value = getattr(package, symbol)
        assert symbol in listed
        if symbol == "__version__" or \
                getattr(value, "__module__", None) == name:
            continue  # defined by the package itself
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"{name}.{symbol}"]
            continue
        holders = [module for module in modules if symbol in vars(module)]
        assert holders, f"{name}.{symbol} has no defining submodule"
        for module in holders:
            assert vars(module)[symbol] is value, (name, symbol, module)


@pytest.mark.parametrize("name", sorted(PACKAGES))
def test_star_import_yields_every_exported_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    package = importlib.import_module(name)
    for symbol in package.__all__:
        assert namespace[symbol] is getattr(package, symbol)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.core.nope


_PROBE = """
import json
{preload}
from repro.bench.engine import REGISTRY
from repro.explore.targets import TARGETS
from repro.workload.registry import ACTIONS
print(json.dumps({{
    "scenarios": [[s.name, list(s.grid), s.description, list(s.nodes),
                   [repr(p) for p in s.params], s.accepts_extra]
                  for s in REGISTRY],
    "actions": [[spec.name, repr(spec)] for spec in ACTIONS],
    "targets": sorted(TARGETS),
}}, default=repr))
"""


def registries(*preload: str):
    """The registries of a fresh interpreter that imported ``preload``."""
    source = _PROBE.format(preload="\n".join(
        f"import {module}" for module in preload))
    env = dict(os.environ, PYTHONPATH=SOURCE)
    return json.loads(subprocess.run(
        [sys.executable, "-c", source], env=env, check=True,
        capture_output=True, text=True).stdout)


def test_registries_do_not_depend_on_what_was_imported():
    fresh = registries()
    assert [row[0] for row in fresh["scenarios"]] == SCENARIOS
    assert [name for name, _ in fresh["actions"]] == [
        "Serve", "Ping", "Crunch", "Flaky", "Transfer"]
    assert fresh["targets"] == ["concurrent_raises", "nested_abort"]
    # Every deferred runner imported first: the same entries.
    assert registries("repro.explore.explorer",
                      "repro.productioncell.workload",
                      "repro.workload.sharding",
                      "repro.workload.transactional") == fresh
