"""What the end-to-end benchmark harness needs of the program, in tier-1.

``benchmarks/perf/`` is frozen (``BENCHMARK.json`` lists it under
``paths``) and its own tests run only in the perf job, so a change to a
function it calls — a renamed import, a removed keyword — would otherwise
show up first as a benchmark run that fails.  This module runs every
workload's smallest unit exactly as ``run.py --trace`` would, plus
``sharded_pool``'s process-pool unit and its cross-check, and resolves
every ``repro`` name and keyword the harness files spell out.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"
SEED = 2026


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perf_harness_workloads", PERF_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads().WORKLOADS


def _assert_clean(workload, params, rows):
    tally = workload.tally(params, rows)
    assert tally.attempted > 0
    assert tally.concluded + tally.dropped == tally.attempted, tally
    assert tally.violations == 0, tally


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_unit_runs_clean_under_trace_params(name):
    workload = WORKLOADS[name]
    params = workload.trace_params(
        workload.first_unit(workload.params(SEED, True)))
    _assert_clean(workload, params, workload.run(params))


def test_sharded_pool_unit_on_the_process_pool_verifies():
    workload = WORKLOADS["sharded_pool"]
    params = workload.first_unit(workload.params(SEED, True))
    assert params["workers"] == 2
    rows = workload.run(params)
    _assert_clean(workload, params, rows)
    assert workload.verify(params, rows) == []


def _repro_imports(tree):
    """``{local name: (module, attribute)}`` of every ``from repro… import``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module and node.module.split(".")[0] == "repro":
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return names


def _resolve(module_name, attribute):
    module = importlib.import_module(module_name)
    if hasattr(module, attribute):
        return getattr(module, attribute)
    # ``from repro import obs``: a submodule, not an attribute yet.
    return importlib.import_module(f"{module_name}.{attribute}")


HARNESS_FILES = sorted(PERF_DIR.rglob("*.py"))


@pytest.mark.parametrize("path", HARNESS_FILES,
                         ids=[p.relative_to(PERF_DIR).as_posix()
                              for p in HARNESS_FILES])
def test_every_repro_name_and_keyword_resolves(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = _repro_imports(tree)
    resolved = {local: _resolve(module, attribute)
                for local, (module, attribute) in imported.items()}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and
                isinstance(node.func, ast.Name) and
                node.func.id in resolved and callable(resolved[node.func.id])):
            continue
        if any(isinstance(arg, ast.Starred) for arg in node.args) or \
                any(keyword.arg is None for keyword in node.keywords):
            continue
        signature = inspect.signature(resolved[node.func.id])
        signature.bind_partial(*node.args,
                               **{k.arg: None for k in node.keywords})


def test_the_harness_files_are_found():
    imports = {path.name: _repro_imports(ast.parse(path.read_text(
        encoding="utf-8"))) for path in HARNESS_FILES}
    assert imports["workloads.py"] and imports["layers.py"]
