"""Twice in one process: a run depends on its inputs, not on what ran before.

A pool worker runs many grid points, shards or explorer chunks in one
process, and a test session runs hundreds, so a run must be a pure
function of ``(world, plan, algorithm, tie seed)`` or of its grid point.
``tests/test_module_state.py`` reads the source for state a run could
leave behind; this gate runs the code.  It takes the cheapest point of
every conformance family and one storm-plan explorer case per world, runs
them all in this process twice over (so that each one runs both before
and after every other), then once more in a fresh interpreter in the
reverse order.  Each point's outcome must be equal all three times:

* a conformance point's canonical rows, and the record lines of every
  system it builds (observed under the explorer's ``CASE_PROFILE``, so
  kernel steps, message flow ids and lock transaction ids included);
* an explorer case's canonical-trace digest, verdict and statistics.

Run alone with ``python -m pytest tests/test_twice_in_one_process.py -q``;
``python tests/test_twice_in_one_process.py --reverse`` prints the
fresh-interpreter side as JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List

from repro import obs
from repro.bench.engine import run_scenario
from repro.conformance import CASES, canonical_rows, covered_scenarios
from repro.explore import run_case
from repro.explore.generator import STORM_KINDS, FaultPlanGenerator
from repro.explore.trace import CASE_PROFILE, trace_digest
from repro.worlds import WORLDS

ROOT = Path(__file__).resolve().parents[1]

#: Conformance family (scenario) -> ``(case, index)`` of its cheapest
#: grid point (a few ms each; ``scale`` is the dearest at ~0.2 s).
CHEAPEST = {
    "figure9": ("figure9_ours", 29),
    "large_n": ("large_n_r96", 0),
    "churn": ("churn_r96", 0),
    "wide_graph": ("wide_graph_r96", 0),
    "capacity": ("capacity_r96", 5),
    "mixed_traffic": ("mixed_traffic_ours", 2),
    "transactional": ("transactional_r96", 2),
    "production_cell": ("production_cell_cr", 1),
    "figure12_tmmax": ("figure12", 4),
    "figure12_tres": ("figure12", 6),
    "remote_counter": ("remote_counter", 5),
    "explore": ("explore_storm", 1),
    "scale": ("scale_small", 1),
}

#: The storm plan each world's explorer case runs (seed, index).
WORLD_PLAN = (2026, 3)


def _grid_point(scenario: str) -> Dict:
    case, index = CHEAPEST[scenario]
    [grid] = [grid for name, grid in CASES[case].runs if name == scenario]
    return dict(grid[index])


def points() -> List[str]:
    """Every point, forward order: the conformance families, then worlds."""
    return ([f"scenario:{name}" for name in CHEAPEST]
            + [f"world:{name}" for name in WORLDS.names()])


def outcome(point: str) -> str:
    """One point's outcome as canonical JSON text."""
    kind, name = point.split(":")
    if kind == "scenario":
        with obs.capture(CASE_PROFILE) as capture:
            rows = run_scenario(name, points=[_grid_point(name)])
        result = {"rows": canonical_rows(rows),
                  "traces": [trace_digest("\n".join(o.record_lines()))
                             for o in capture.observations]}
    else:
        world = WORLDS.get(name)
        seed, index = WORLD_PLAN
        plan = FaultPlanGenerator(seed, world.nodes,
                                  kinds=STORM_KINDS).sample(index)
        case = run_case(world, plan)
        result = {"digest": case.digest, "completed": case.completed,
                  "violations": [str(v) for v in case.violations],
                  "stats": case.stats, "error": case.error}
    return json.dumps(result, sort_keys=True)


def outcomes(order: Iterable[str]) -> Dict[str, str]:
    return {point: outcome(point) for point in order}


def test_every_conformance_family_has_a_point():
    assert sorted(CHEAPEST) == sorted(covered_scenarios())


def test_a_run_is_the_same_before_after_and_in_a_fresh_process():
    forward = points()
    first, second = outcomes(forward), outcomes(forward)
    fresh = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--reverse"],
        capture_output=True, text=True, check=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    reverse = json.loads(fresh.stdout)
    assert list(reverse) == forward[::-1]
    assert all(json.loads(first[point])["traces" if point.startswith(
        "scenario:") else "digest"] for point in forward)
    assert [p for p in forward if second[p] != first[p]] == []
    assert [p for p in forward if reverse[p] != first[p]] == []


if __name__ == "__main__":
    order = points()[::-1] if "--reverse" in sys.argv[1:] else points()
    print(json.dumps(outcomes(order)))
