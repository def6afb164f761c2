"""Golden-trace conformance: committed digests that pin scenario behaviour.

PRs 2-4 established byte-identical scenario rows as this repository's
correctness currency: every engine scenario is a pure function of its grid
point (all stochastic draws are seeded, all quantities are virtual-time),
so two runs of the same point — sequential or parallel, before or after a
refactor — must produce identical rows.  This module turns that currency
into an enforced gate:

* a **conformance case** names a scenario (or several) plus the exact grid
  to run, for one resolution algorithm — the paper's plus both baselines;
* :func:`run_case` executes the case sequentially and reduces it to a
  canonical JSON document; :func:`case_digest` hashes it;
* fixtures under ``tests/conformance/fixtures/`` commit the digest together
  with a small human-diffable summary snapshot;
* ``tests/conformance/`` re-runs every case on every push and fails when a
  digest moved, so a "performance" change that perturbs behaviour cannot
  land silently.

Canonicalisation strips the few wall-clock fields (``wall_seconds``) so the
digest covers only deterministic virtual-time content.  Everything else —
message counts, latency percentiles, per-link statistics, explorer trace
digests — is hashed bit-for-bit.

``python -m repro check`` runs the gate without pytest (CI uses both);
``--regenerate`` rewrites the fixtures, only when a behaviour change is
intended.  It also enforces two hygiene guards: no tracked ``__pycache__``
directories or ``*.pyc`` files (PR 3 removed 51 of them), and no
*ungated* scenario — every name in the scenario registry must appear in
a conformance case or carry an explicit :data:`COVERAGE_EXEMPT` entry
with a reason.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .bench.engine import GridPoint, REGISTRY, run_scenario

#: Bump when the canonical-document layout changes incompatibly (this
#: invalidates every fixture, so regenerate them in the same commit).
SCHEMA_VERSION = 1

#: Row keys excluded from canonical documents: wall-clock measurements and
#: executor identity are the only scenario outputs that legitimately differ
#: between runs (``scale`` rows carry wall-clock rates plus the worker
#: count/executor that produced them; the merged virtual-time content is
#: identical for any executor and stays in the digest).
VOLATILE_KEYS = frozenset({
    "wall_seconds",
    "instances_per_second",
    "submitted_per_second",
    "executor",
    "workers",
})

#: The resolution algorithms a conformance case can pin: the paper's new
#: algorithm and the two baselines it is compared against.
ALGORITHMS = {
    "ours": "ours",
    "cr": "campbell-randell",
    "r96": "romanovsky96",
}


@dataclass(frozen=True)
class ConformanceCase:
    """One golden case: named scenario runs pinned by a single digest."""

    name: str
    #: ``(scenario, grid)`` pairs executed sequentially, in order.
    runs: Tuple[Tuple[str, Tuple[GridPoint, ...]], ...]
    note: str = ""


def _with_algorithm(grid: Sequence[GridPoint], algorithm: str,
                    ) -> Tuple[GridPoint, ...]:
    """Copy ``grid`` with every point's ``algorithm`` overridden."""
    return tuple({**dict(point), "algorithm": algorithm} for point in grid)


def _build_cases() -> Dict[str, ConformanceCase]:
    """The full case catalogue (every gated scenario × three algorithms)."""
    from .bench.engine import (
        CAPACITY_GRID,
        CHURN_GRID,
        EXPLORE_SEED,
        LARGE_N_GRID,
        MIXED_TRAFFIC_GRID,
        PRODUCTION_CELL_GRID,
        REMOTE_COUNTER_GRID,
        TRANSACTIONAL_GRID,
        WIDE_GRAPH_GRID,
        _DEFAULT_FIGURE9_GRID,
    )
    from .explore.generator import STORM_KINDS

    cases: Dict[str, ConformanceCase] = {}

    def add(case: ConformanceCase) -> None:
        cases[case.name] = case

    #: Figure 9 at a conformance-sized iteration count: the sweep shape is
    #: identical to the default grid, only cheaper per point.
    figure9_grid = tuple({**dict(point), "iterations": 2}
                         for point in _DEFAULT_FIGURE9_GRID)
    per_algorithm = (
        ("figure9", figure9_grid,
         "Figure 9 sensitivity sweep (2 iterations per point)"),
        ("large_n", LARGE_N_GRID, "message-complexity sweep up to N=64"),
        ("churn", CHURN_GRID,
         "concurrent top-level actions sharing one network"),
        ("wide_graph", WIDE_GRAPH_GRID,
         "all-raise storms over the 794-node truncated graph"),
        ("capacity", CAPACITY_GRID,
         "offered-load sweep over the shared partition pool"),
        ("mixed_traffic", MIXED_TRAFFIC_GRID,
         "heterogeneous mix + delay noise, oracle-checked"),
        ("transactional", TRANSACTIONAL_GRID,
         "transactional CA workload: locks, aborts, deadlock recovery, "
         "no-lost-update oracle"),
        ("production_cell", PRODUCTION_CELL_GRID,
         "production cell under seeded open-loop traffic and fault "
         "schedules"),
    )
    for slug, algorithm in ALGORITHMS.items():
        for scenario, grid, note in per_algorithm:
            add(ConformanceCase(
                f"{scenario}_{slug}",
                ((scenario, _with_algorithm(grid, algorithm)),), note=note))

    #: Figure 12 runs ours and Campbell-Randell inside each row, so it is a
    #: single case rather than one per algorithm.
    add(ConformanceCase(
        "figure12",
        (("figure12_tmmax", tuple(REGISTRY.get("figure12_tmmax").grid)),
         ("figure12_tres", tuple(REGISTRY.get("figure12_tres").grid))),
        note="ours vs Campbell-Randell comparison, both halves"))

    #: The remote-counter application's all-local rows under all three
    #: algorithms in one case: the real backend runs the same node builder
    #: across processes, where only the oracles (not a digest) can gate it.
    add(ConformanceCase(
        "remote_counter",
        (("remote_counter", tuple(
            point for algorithm in ALGORITHMS.values()
            for point in _with_algorithm(REMOTE_COUNTER_GRID, algorithm))),),
        note="counter behind an RPC object host, ours + both baselines"))

    #: A 100-plan explorer sweep: each row's ``digest`` field is already a
    #: hash over the canonical kernel/network/coordinator traces of its 25
    #: plans, so this case pins the schedule- and byte-level behaviour of
    #: the kernel itself (the other cases pin row-level outputs).  The
    #: explorer's differential oracles run both baselines internally.
    add(ConformanceCase(
        "explore_100",
        (("explore", tuple(
            {"target": "nested_abort", "seed": EXPLORE_SEED,
             "start": start, "stop": start + 25}
            for start in range(0, 100, 25))),),
        note="100 seeded fault plans, canonical trace digests per chunk"))

    #: Twenty storm-vocabulary plans (crash/restore waves, drop and
    #: corrupt classes) through the same explorer sweep: pins the widened
    #: fault vocabulary's byte-level behaviour, including the
    #: liveness-oracle waiver for non-delivery-preserving plans.
    add(ConformanceCase(
        "explore_storm",
        (("explore", tuple(
            {"target": "nested_abort", "seed": EXPLORE_SEED,
             "start": start, "stop": start + 10, "kinds": STORM_KINDS}
            for start in (0, 10))),),
        note="20 seeded storm-vocabulary plans, canonical trace digests "
             "per chunk"))

    #: A small sharded-capacity case: 2 shards × 500 instances, run
    #: sequentially (the reference execution — process-pool runs are
    #: byte-identical, which tests/workload/test_sharding.py enforces).
    #: Pins the shard-plan derivation, the global-admission lease split
    #: and the merge semantics, so they cannot drift silently.
    add(ConformanceCase(
        "scale_small",
        (("scale", (
            {"n_instances": 1000, "n_shards": 2, "offered_load": 6.0,
             "pool_size": 8, "seed": 2026},
            {"n_instances": 1000, "n_shards": 2, "offered_load": 6.0,
             "pool_size": 8, "seed": 2026, "global_max_in_flight": 8},
        )),),
        note="sharded capacity: shard-plan determinism + merged telemetry"))
    return cases


#: The process-wide case catalogue.
CASES: Dict[str, ConformanceCase] = _build_cases()

#: Registered scenarios deliberately *not* pinned by a fixture.  Every
#: entry needs a reason: ``graph_microbench`` rows are wall-clock rate
#: measurements, so their content is volatile by design and a digest over
#: them would be meaningless.  Any other registered scenario without a
#: case is a gap — the coverage guard below fails on it.
COVERAGE_EXEMPT: Mapping[str, str] = {
    "graph_microbench": "rows are wall-clock rate measurements",
}


def case_names() -> List[str]:
    """Every case name, in catalogue (generation) order."""
    return list(CASES)


def covered_scenarios() -> Set[str]:
    """Every scenario name some conformance case runs."""
    return {scenario for case in CASES.values()
            for scenario, _grid in case.runs}


def uncovered_scenarios() -> List[str]:
    """Registered scenarios with neither a fixture case nor an exemption.

    The guard that keeps the plugin registry honest: registering a new
    scenario without either committing a conformance fixture for it or
    adding an explicit entry to :data:`COVERAGE_EXEMPT` is an error.
    """
    return sorted(set(REGISTRY.names())
                  - covered_scenarios() - set(COVERAGE_EXEMPT))


# ----------------------------------------------------------------------
# Canonicalisation and digests
# ----------------------------------------------------------------------
def canonical_rows(rows: Sequence[Mapping[str, object]],
                   ) -> List[Dict[str, object]]:
    """Rows reduced to their deterministic content (volatile keys dropped)."""
    return [{key: value for key, value in row.items()
             if key not in VOLATILE_KEYS} for row in rows]


def canonical_document(case: ConformanceCase,
                       results: Mapping[str, Sequence[Mapping[str, object]]],
                       ) -> str:
    """The canonical JSON text a case digest is computed over."""
    payload = {
        "schema": SCHEMA_VERSION,
        "case": case.name,
        "runs": {scenario: canonical_rows(rows)
                 for scenario, rows in results.items()},
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def case_digest(document: str) -> str:
    """SHA-256 of a canonical case document."""
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def _summarise(rows: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    """A small human-diffable summary of one scenario's rows.

    Sums the well-known numeric columns that exist; the summary is derived
    from the digested rows, so it can never disagree with the digest — it
    exists so a fixture diff shows *what* moved, not just that something
    did.
    """
    summary: Dict[str, object] = {"rows": len(rows)}
    for key in ("protocol_messages", "total_time", "resolution_messages",
                "signalling_messages", "completed", "dropped", "cases",
                "failures", "n_violations"):
        values = [row[key] for row in rows
                  if isinstance(row.get(key), (int, float))]
        if values:
            total = sum(values)
            summary[key] = round(total, 9) if isinstance(total, float) \
                else total
    return summary


def run_case(case: ConformanceCase) -> Dict[str, object]:
    """Execute ``case`` sequentially and build its fixture document."""
    results = {scenario: run_scenario(scenario, points=list(grid))
               for scenario, grid in case.runs}
    document = canonical_document(case, results)
    return {
        "schema": SCHEMA_VERSION,
        "case": case.name,
        "note": case.note,
        "digest": case_digest(document),
        "summary": {scenario: _summarise(rows)
                    for scenario, rows in results.items()},
    }


# ----------------------------------------------------------------------
# Fixture files
# ----------------------------------------------------------------------
def default_fixture_root() -> str:
    """``tests/conformance/fixtures`` under the repository root.

    Resolved relative to this file (``src/repro/conformance.py``), so the
    CLI works from any working directory inside a checkout.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(os.path.dirname(here)),
                        "tests", "conformance", "fixtures")


def fixture_path(name: str, root: Optional[str] = None) -> str:
    """The fixture file of case ``name``."""
    return os.path.join(root or default_fixture_root(), f"{name}.json")


def load_fixture(name: str, root: Optional[str] = None,
                 ) -> Optional[Dict[str, object]]:
    """The committed fixture of case ``name`` (None when absent)."""
    path = fixture_path(name, root)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_fixture(fixture: Dict[str, object],
                  root: Optional[str] = None) -> str:
    """Write ``fixture`` to its canonical path; returns the path."""
    directory = root or default_fixture_root()
    os.makedirs(directory, exist_ok=True)
    path = fixture_path(str(fixture["case"]), directory)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(fixture, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def regenerate(names: Optional[Sequence[str]] = None,
               root: Optional[str] = None) -> List[str]:
    """Run the named cases (all by default) and rewrite their fixtures."""
    paths = []
    for name in names or case_names():
        paths.append(write_fixture(run_case(CASES[name]), root))
    return paths


def check(names: Optional[Sequence[str]] = None,
          root: Optional[str] = None) -> List[str]:
    """Re-run the named cases and diff against the committed fixtures.

    Returns a list of human-readable mismatch descriptions (empty when
    everything conforms).
    """
    problems: List[str] = []
    for scenario in uncovered_scenarios():
        problems.append(
            f"scenario {scenario!r} is registered but has no conformance "
            f"case; add one (and commit its fixture) or list it in "
            f"COVERAGE_EXEMPT with a reason")
    for name in names or case_names():
        committed = load_fixture(name, root)
        if committed is None:
            problems.append(f"{name}: fixture missing "
                            f"(run --regenerate and commit it)")
            continue
        fresh = run_case(CASES[name])
        if committed.get("schema") != fresh["schema"]:
            problems.append(f"{name}: fixture schema "
                            f"{committed.get('schema')} != {fresh['schema']}")
        elif committed.get("digest") != fresh["digest"]:
            problems.append(
                f"{name}: digest mismatch — committed "
                f"{str(committed.get('digest'))[:12]}… vs fresh "
                f"{fresh['digest'][:12]}…; summary (fresh) "
                f"{json.dumps(fresh['summary'], sort_keys=True)}")
    return problems


# ----------------------------------------------------------------------
# Repository hygiene: no tracked bytecode
# ----------------------------------------------------------------------
def tracked_bytecode(repo_root: Optional[str] = None) -> Optional[List[str]]:
    """Tracked ``*.pyc`` files / ``__pycache__`` entries, per ``git ls-files``.

    Returns ``None`` when the repository state cannot be queried (no git
    binary, not a checkout) so callers can skip rather than fail falsely.
    """
    root = repo_root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        listing = subprocess.run(
            ["git", "ls-files"], cwd=root, capture_output=True,
            text=True, timeout=60, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return [line for line in listing.stdout.splitlines()
            if line.endswith(".pyc") or "__pycache__" in line.split("/")]


if __name__ == "__main__":  # the old entry point must not pass silently
    raise SystemExit("python -m repro.conformance is gone: "
                     "run python -m repro check")
