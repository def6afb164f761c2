"""Real-backend smoke matrix and the scenario registry listing.

What ``python -m repro.bench.baseline`` runs:

* the **real-backend smoke matrix** runs every real-capable scenario
  (the ones that declare ``nodes``) under every resolution algorithm on
  OS processes and writes ``BENCH_realbackend.json``; the CLI exits 1
  when any row has an oracle violation;
* :func:`registry_listing`, the registry view that ``--list`` here and
  ``python -m repro.conformance --list`` both print.

Usage::

    PYTHONPATH=src python -m repro.bench.baseline --list
    PYTHONPATH=src python -m repro.bench.baseline --wall-timeout 90 \
        --obs-dir real-obs --output BENCH_realbackend.json

Behaviour of the simulated scenarios is pinned by the conformance
fixtures (``python -m repro.conformance --check``); their speed is
measured by ``benchmarks/perf/`` (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import Dict, List, Optional, Sequence

from ..cli import add_logging_arguments, configure_logging
from .engine import REGISTRY, ScenarioConfig, run_scenario

#: Bump when the row layout changes incompatibly.
SCHEMA_VERSION = 1


def registry_listing() -> List[str]:
    """Every registered scenario and traffic action, one block per entry.

    Shared by ``python -m repro.bench.baseline --list`` and
    ``python -m repro.conformance --list`` so both CLIs show the same
    registry view: name, grid size, description, the declared
    parameters a grid point (or a field override) is validated against,
    and — for real-capable scenarios — the OS-process nodes.
    """
    from ..workload.registry import ACTIONS

    lines: List[str] = [f"Scenarios ({len(REGISTRY)}):"]
    for name in REGISTRY.names():
        scenario = REGISTRY.get(name)
        lines.append(f"  {name}  [{len(scenario.grid)} grid point(s)]")
        if scenario.description:
            lines.append(f"      {scenario.description}")
        lines.append(f"      params: {scenario.describe_params()}")
        if scenario.nodes:
            lines.append(f"      nodes: {', '.join(scenario.nodes)} "
                         f"(runs on the real backend)")
    lines.append("")
    lines.append(f"Traffic actions ({len(ACTIONS)}):")
    for name in ACTIONS.names():
        spec = ACTIONS.get(name)
        lines.append(f"  {name}  [{type(spec).__name__}: "
                     f"width={spec.width}, mean_service={spec.mean_service}, "
                     f"raise_probability={spec.raise_probability}, "
                     f"weight={spec.weight}]")
        lines.append(f"      params: {ACTIONS.describe_params(name)}")
    return lines


#: Real-backend smoke matrix: every real-capable scenario under every
#: resolution algorithm (figure9 is the paper's Experiment 1;
#: remote_counter adds external objects behind an RPC host).
REAL_BACKEND_ALGORITHMS = ("ours", "campbell-randell", "romanovsky96")


def collect_real_backend_baseline(
        scenarios: Optional[Sequence[str]] = None,
        algorithms: Sequence[str] = REAL_BACKEND_ALGORITHMS,
        time_scale: float = 0.02,
        wall_timeout: float = 120.0,
        iterations: int = 1,
        obs_dir: Optional[str] = None) -> Dict[str, object]:
    """Run the real-backend smoke matrix and return the document.

    Rows are oracle-gated (``n_violations`` must be zero), not
    digest-gated: wall-clock pacing makes the message interleavings of a
    real run non-reproducible, but the paper's invariants must hold on
    every one of them.
    """
    names = list(scenarios) if scenarios else sorted(
        scenario.name for scenario in REGISTRY if scenario.nodes)
    config = ScenarioConfig(backend="real", export_dir=obs_dir,
                            backend_options={"time_scale": time_scale,
                                             "wall_timeout": wall_timeout})
    rows: List[Dict[str, object]] = []
    for name in names:
        points = [{"algorithm": algorithm, "iterations": iterations}
                  for algorithm in algorithms]
        for row in run_scenario(name, points=points, config=config):
            rows.append({"scenario": name, **row})
    return {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "backend": "real",
        "time_scale": time_scale,
        "rows": rows,
        "oracle_violations": sum(row["n_violations"] for row in rows),
    }


def write_real_backend_baseline(path: str, **options) -> Dict[str, object]:
    """Collect the real-backend smoke document and write it to ``path``."""
    document = collect_real_backend_baseline(**options)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the real-backend smoke matrix and write its JSON.")
    parser.add_argument("--output", default="BENCH_realbackend.json",
                        help="output path (default: BENCH_realbackend.json)")
    parser.add_argument("--scenario", action="append", default=None,
                        help="restrict the matrix to this scenario "
                             "(repeatable)")
    parser.add_argument("--time-scale", type=float, default=0.02,
                        help="wall seconds per unit of virtual time "
                             "(default 0.02)")
    parser.add_argument("--wall-timeout", type=float, default=120.0,
                        help="hard wall-clock cap per run; children are "
                             "killed on expiry")
    parser.add_argument("--obs-dir", default=None,
                        help="write each run's bridged obs events as JSONL "
                             "into this directory (CI uploads them on "
                             "failure)")
    parser.add_argument("--list", action="store_true",
                        help="list every registered scenario and traffic "
                             "action (grid size, description, declared "
                             "params) and exit")
    add_logging_arguments(parser)
    arguments = parser.parse_args(argv)
    configure_logging(arguments)
    if arguments.list:
        for line in registry_listing():
            print(line)
        return 0
    document = write_real_backend_baseline(
        arguments.output, scenarios=arguments.scenario,
        time_scale=arguments.time_scale,
        wall_timeout=arguments.wall_timeout,
        obs_dir=arguments.obs_dir)
    violations = document["oracle_violations"]
    print(f"wrote {arguments.output}: {len(document['rows'])} real-backend "
          f"rows, {violations} oracle violations")
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
