"""Cold-start import budget: what each entry point loads, as counts.

Every ``python -m repro`` command, every benchmark set-up and every
real-backend child (a fresh *spawn* interpreter per node) pays the import
of its entry point.  Packages re-export lazily (``repro._lazy``) and a
module imports at top level only what its own common path calls, so an
entry point loads the modules its run executes and nothing else.  This
gate pins that in ``sys.modules`` terms, which read the same on any host:

* no entry point loads the process-pool machinery (``multiprocessing``,
  ``concurrent.futures``, the sharded pool) —
  ``repro.runtime.system.parallel_map``, the one place that starts a
  pool, imports it only when it does;
* none loads the trace exporters or the production cell, which only
  their own runners use;
* the number of ``repro`` modules stays within :data:`BUDGET`;
* reading the scenario registry (names, grids) imports no runner: a
  scenario's runner reference is imported on first use.

Run alone with ``python -m pytest tests/test_import_budget.py -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

SOURCE = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: ``repro`` modules each entry point may load (measured count + 2).
BUDGET = {
    "repro": 4,
    "repro.cli": 5,
    "repro.runtime.system": 43,
    "repro.workload.scenarios": 53,
    "repro.bench.scenarios": 52,
    "repro.bench.engine": 54,
    "repro.explore.explorer": 54,
    "repro.explore.shrink": 22,
    "repro.real.host": 7,
}

#: Modules no entry point may load at import.
ABSENT = ("multiprocessing", "concurrent.futures", "repro.workload.sharding",
          "repro.obs.export", "repro.productioncell")

_PROBE = """
import json, sys
import {module}
{then}
print(json.dumps(sorted(sys.modules)))
"""


def loaded_modules(module: str, then: str = ""):
    """``sys.modules`` of a fresh interpreter after ``import module``.

    ``then`` is a statement run after the import.
    """
    env = dict(os.environ, PYTHONPATH=SOURCE)
    output = subprocess.run(
        [sys.executable, "-c", _PROBE.format(module=module, then=then)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(output)


@pytest.fixture(scope="module", params=sorted(BUDGET))
def entry_point(request):
    return request.param, loaded_modules(request.param)


def test_no_entry_point_loads_what_only_other_runners_use(entry_point):
    module, loaded = entry_point
    assert [name for name in ABSENT if name in loaded] == []


def test_repro_module_count_stays_within_budget(entry_point):
    module, loaded = entry_point
    ours = [name for name in loaded
            if name == "repro" or name.startswith("repro.")]
    assert len(ours) <= BUDGET[module], ours


def test_real_backend_child_skips_the_parent_hub():
    # A node process imports the host module only; asyncio is the
    # parent hub's, multiprocessing the parent launcher's.
    loaded = loaded_modules("repro.real.host")
    assert "asyncio" not in loaded
    assert "repro.real.backend" not in loaded


def test_the_runtime_loads_nothing_of_the_layers_it_feeds():
    # Observation adopts a system through the runtime's own ambient slot,
    # and the run metrics and event kinds are the runtime's: building a
    # system needs neither obs nor the analytic bounds.
    loaded = loaded_modules("repro.runtime.system")
    assert [name for name in loaded if name.startswith(
        ("repro.obs", "repro.analysis"))] == []


def test_oracle_checked_workloads_load_no_explorer():
    # The invariant monitor lives in the runtime: a workload judged by the
    # oracle catalogue pays nothing of the fault-space explorer.
    loaded = loaded_modules(
        "repro.workload.scenarios",
        "from repro.productioncell.workload import "
        "run_production_cell_point\n"
        "from repro.workload.sharding import run_scale_point\n"
        "from repro.workload.transactional import run_transactional_point\n"
        "repro.workload.scenarios.run_capacity_point(1.0, n_instances=5)\n"
        "run_transactional_point(1.0, n_instances=5)\n"
        "run_scale_point(n_instances=8, n_shards=2, offered_load=2.0)\n"
        "run_production_cell_point(seed=1, n_cycles=2)")
    assert [name for name in loaded if name == "repro.explore"
            or name.startswith("repro.explore.")] == []


def test_reading_a_trace_loads_no_scenario_engine(tmp_path):
    # ``python -m repro obs summarize`` imports only the trace reader.
    path = tmp_path / "events.jsonl"
    path.write_text('{"kind": "job.submitted", "t": 0.0}\n')
    loaded = loaded_modules(
        "repro.cli", "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    repro.cli.main(['obs', 'summarize', {str(path)!r}])")
    assert [name for name in ("repro.bench.engine",) + ABSENT
            if name in loaded] == ["repro.obs.export"]


def test_reading_the_scenario_registry_imports_no_runner():
    listed = loaded_modules(
        "repro.bench.engine", "from repro.bench.engine import REGISTRY\n"
        "REGISTRY.names()\n[scenario.grid for scenario in REGISTRY]")
    # The explore scenario's grid is literal: no plan is sampled.
    deferred = ("repro.workload.scenarios", "repro.workload.transactional",
                "repro.explore.explorer", "repro.explore.generator")
    assert [name for name in deferred + ABSENT if name in listed] == []
    # A runner's declared params resolve its reference.
    resolved = loaded_modules(
        "repro.bench.engine", "from repro.bench.engine import REGISTRY\n"
        "REGISTRY.get('capacity').params")
    assert "repro.workload.scenarios" in resolved
