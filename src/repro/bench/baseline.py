"""Benchmark baselines: ``BENCH_resolution.json`` / ``BENCH_workload.json`` /
``BENCH_kernel.json``.

Three baseline documents give later PRs a perf trajectory:

* **resolution** — the graph microbenchmark (compiled index build /
  statistics / ``resolve()`` loop, with a naive-scan reference) and the
  wide-graph all-raise storm scenario (simulated totals plus the real
  wall-clock of the run);
* **workload** — the capacity curve (offered-load sweep over the shared
  partition pool, with the saturation-knee verdict) and the mixed-traffic
  soak (heterogeneous mix + fault noise, with the invariant-oracle
  verdict).  All workload rows are deterministic virtual-time quantities,
  so the file diffs meaningfully between PRs.
* **kernel** — the kernel/runtime microbenchmarks (bare-kernel event
  throughput, network message delivery rate, end-to-end capacity
  instances per wall-clock second at three pool scales; see
  :mod:`repro.bench.kernelbench`).  These rows are wall-clock, so they
  vary by machine — compare runs from the same host (CI uploads one per
  push).
* **scale** — the sharded partition-pool capacity sweep
  (:mod:`repro.workload.sharding`): saturation-knee sweeps per shard
  count at 10^4 instances, a global-admission backpressure sweep, the
  10^5-instance scale-out comparison (single shard vs a 4+-shard
  deployment, sequential vs process-pool workers), and a 10^6-instance
  point.  Every row's simulated quantities are deterministic; only the
  ``wall_seconds`` / ``instances_per_second`` fields vary by host.

Usage::

    PYTHONPATH=src python -m repro.bench.baseline [--output PATH] [--parallel]
    PYTHONPATH=src python -m repro.bench.baseline --suite workload \
        --output BENCH_workload.json
    PYTHONPATH=src python -m repro.bench.baseline --suite kernel \
        --output BENCH_kernel.json
    PYTHONPATH=src python -m repro.bench.baseline --suite scale --small \
        --workers 2       # CI smoke: 10^4 instances, 2 shards

CI runs the sequential forms on every push and uploads the JSONs as
artifacts, so perf and capacity regressions are visible per PR.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import Dict, List, Optional, Sequence

from ..cli import add_logging_arguments, configure_logging
from ..workload.scenarios import saturation_knee
from .engine import REGISTRY, GridPoint, ScenarioConfig, run_scenario
from .kernelbench import collect_kernel_baseline

#: Bump when the row layout changes incompatibly.
SCHEMA_VERSION = 1

#: The scale suite's fixed parameters: one seed for every sweep, and one
#: per-shard pool size (capacity ``pool/width/service`` = 8 inst/s per
#: shard), so shard count is the only capacity axis in the document.
SCALE_SEED = 2026
SCALE_POOL_SIZE = 16


def _write_json(path: str, document: Dict[str, object]) -> Dict[str, object]:
    """Write ``document`` to ``path`` as indented, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


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


def collect_resolution_baseline(
        wide_points: Optional[Sequence[GridPoint]] = None,
        micro_points: Optional[Sequence[GridPoint]] = None,
        parallel: bool = False,
        max_workers: Optional[int] = None) -> Dict[str, object]:
    """Run both resolution benchmarks and return the baseline document."""
    return {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "wide_graph": run_scenario("wide_graph", points=wide_points,
                                   parallel=parallel,
                                   max_workers=max_workers),
        "graph_microbench": run_scenario("graph_microbench",
                                         points=micro_points,
                                         parallel=parallel,
                                         max_workers=max_workers),
    }


def write_resolution_baseline(path: str, **options) -> Dict[str, object]:
    """Collect the baseline and write it to ``path`` as indented JSON."""
    return _write_json(path, collect_resolution_baseline(**options))


def collect_workload_baseline(
        capacity_points: Optional[Sequence[GridPoint]] = None,
        mixed_points: Optional[Sequence[GridPoint]] = None,
        transactional_points: Optional[Sequence[GridPoint]] = None,
        cell_points: Optional[Sequence[GridPoint]] = None,
        parallel: bool = False,
        max_workers: Optional[int] = None) -> Dict[str, object]:
    """Run the workload benchmarks and return the baseline document.

    The document is fully deterministic (virtual-time only), so the
    committed ``BENCH_workload.json`` changes exactly when behaviour does.
    ``oracle_violations`` keeps its original meaning (mixed-traffic rows
    only); the transactional and production-cell sections carry their own
    violation totals.
    """
    rows = {name: run_scenario(name, points=points, parallel=parallel,
                               max_workers=max_workers)
            for name, points in (("capacity", capacity_points),
                                 ("mixed_traffic", mixed_points),
                                 ("transactional", transactional_points),
                                 ("production_cell", cell_points))}

    def violations(name: str) -> int:
        return sum(row["n_violations"] for row in rows[name])

    return {
        "schema": SCHEMA_VERSION,
        **rows,
        "saturation_knee": saturation_knee(rows["capacity"]),
        "oracle_violations": violations("mixed_traffic"),
        "transactional_violations": violations("transactional"),
        "production_cell_violations": violations("production_cell"),
    }


def write_workload_baseline(path: str, **options) -> Dict[str, object]:
    """Collect the workload baseline and write it to ``path`` as JSON."""
    return _write_json(path, collect_workload_baseline(**options))


def write_kernel_baseline(path: str) -> Dict[str, object]:
    """Collect the kernel microbenchmark baseline and write it to ``path``."""
    document = dict(collect_kernel_baseline())
    document["schema"] = SCHEMA_VERSION
    return _write_json(path, document)


def collect_scale_baseline(small: bool = False,
                           workers: int = 0) -> Dict[str, object]:
    """Run the sharded-capacity sweep and return the baseline document.

    ``small`` is the CI-smoke variant: 10^4 instances, at most 2 shards,
    no 10^6 point — same document shape, minutes → seconds.  ``workers``
    is the process-pool width used for the explicit parallel-comparison
    row (0 picks 2); the scale-out rows always run sequentially so their
    ``instances_per_second`` is a single-process measurement.

    Simulated quantities (completions, drops, knees, leases) are pure
    functions of ``(SCALE_SEED, plan)``; only the wall-clock fields
    (``wall_seconds``, ``instances_per_second``, ``submitted_per_second``)
    and ``executor``/``workers`` vary by host.
    """
    from ..workload.sharding import ShardedPool, run_scale_point

    pool = ShardedPool(pool_size=SCALE_POOL_SIZE, workers=0)

    # --- 10^4 tier: saturation-knee sweep per shard count --------------
    knee_instances = 10_000
    shard_counts = (1, 2) if small else (1, 2, 4)
    knee_loads = ((4.0, 8.0, 16.0, 24.0) if small
                  else (4.0, 8.0, 12.0, 16.0, 24.0, 32.0))
    knee_tier = {
        "n_instances": knee_instances,
        "loads": list(knee_loads),
        "configs": [
            {"n_shards": count,
             **pool.sweep(knee_loads, seed=SCALE_SEED,
                          n_instances=knee_instances, n_shards=count)}
            for count in shard_counts
        ],
    }

    # --- 10^4 tier: global admission budget below aggregate capacity ---
    # 2 shards hold up to 2 * pool/width = 16 instances in flight; a
    # global budget of 8 must show queueing and drops in the merged
    # admission counters, and the lease history shows the rebalancing.
    backpressure = {
        "n_instances": knee_instances,
        "n_shards": 2,
        "global_max_in_flight": 8,
        **pool.sweep((8.0, 16.0), seed=SCALE_SEED,
                     n_instances=knee_instances, n_shards=2,
                     global_max_in_flight=8),
    }

    # --- scale-out tier: one offered load sized for the widest
    # deployment (0.75 x its aggregate capacity), served by 1..N shards.
    # A single shard is deeply capacity-bound at this load, so its
    # served-instances rate (completed / wall_seconds) collapses; the
    # sharded deployments keep up.  Rows run sequentially (workers=0) so
    # the rates are single-process measurements, then the widest
    # deployment is re-run on a process pool for the parallel speedup
    # (deterministic fields are byte-identical between the two).
    throughput_instances = 10_000 if small else 100_000
    throughput_shards = (1, 2) if small else (1, 2, 4, 8, 16)
    widest = throughput_shards[-1]
    offered_load = 0.75 * widest * pool.capacity_per_shard
    rows = [run_scale_point(n_instances=throughput_instances,
                            n_shards=count, offered_load=offered_load,
                            pool_size=SCALE_POOL_SIZE, seed=SCALE_SEED,
                            workers=0)
            for count in throughput_shards]
    pool_workers = workers or 2
    parallel_row = run_scale_point(n_instances=throughput_instances,
                                   n_shards=widest,
                                   offered_load=offered_load,
                                   pool_size=SCALE_POOL_SIZE,
                                   seed=SCALE_SEED, workers=pool_workers)
    single_rate = rows[0]["instances_per_second"]
    widest_rate = rows[-1]["instances_per_second"]
    throughput_tier = {
        "n_instances": throughput_instances,
        "offered_load": offered_load,
        "rows": rows + [parallel_row],
        # Served-instances rate of the widest deployment over one shard
        # at the same offered load (the scale-out headline).
        "speedup_vs_single_shard": widest_rate / single_rate,
        "speedup_vs_single_shard_parallel":
            parallel_row["instances_per_second"] / single_rate,
        # Process pool over sequential for the same plan.
        "parallel_speedup":
            parallel_row["instances_per_second"] / widest_rate,
    }

    document: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "small": small,
        "seed": SCALE_SEED,
        "pool_size": SCALE_POOL_SIZE,
        "capacity_per_shard": pool.capacity_per_shard,
        "knee": knee_tier,
        "backpressure": backpressure,
        "throughput": throughput_tier,
    }
    if not small:
        # --- 10^6 tier: one million instances over the widest
        # deployment, run on the process pool (lean telemetry keeps the
        # per-shard memory flat; the merged row is still exact).
        document["million"] = run_scale_point(
            n_instances=1_000_000, n_shards=widest,
            offered_load=offered_load, pool_size=SCALE_POOL_SIZE,
            seed=SCALE_SEED, workers=pool_workers)
    return document


def write_scale_baseline(path: str, **options) -> Dict[str, object]:
    """Collect the scale baseline and write it to ``path`` as JSON."""
    return _write_json(path, collect_scale_baseline(**options))


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
    return _write_json(path, collect_real_backend_baseline(**options))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Write a benchmark baseline JSON.")
    parser.add_argument("--suite",
                        choices=("resolution", "workload", "kernel",
                                 "scale"),
                        default="resolution",
                        help="which baseline to collect "
                             "(default: resolution)")
    parser.add_argument("--output", default=None,
                        help="output path (default: BENCH_<suite>.json)")
    parser.add_argument("--parallel", action="store_true",
                        help="fan the grids out over a process pool")
    parser.add_argument("--workers", type=int, default=0,
                        help="process-pool width for --parallel sweeps "
                             "and the scale suite's parallel rows "
                             "(0 = suite default)")
    parser.add_argument("--small", action="store_true",
                        help="scale suite only: the CI-smoke variant "
                             "(10^4 instances, 2 shards, no 10^6 point)")
    parser.add_argument("--backend", choices=("sim", "real"), default="sim",
                        help="execution backend: 'real' ignores --suite and "
                             "runs the real-process smoke matrix (every "
                             "real-capable scenario x algorithm, "
                             "oracle-gated)")
    parser.add_argument("--scenario", action="append", default=None,
                        help="real backend only: restrict the matrix to "
                             "this scenario (repeatable)")
    parser.add_argument("--time-scale", type=float, default=0.02,
                        help="real backend only: wall seconds per unit of "
                             "virtual time (default 0.02)")
    parser.add_argument("--wall-timeout", type=float, default=120.0,
                        help="real backend only: hard wall-clock cap per "
                             "run; children are killed on expiry")
    parser.add_argument("--obs-dir", default=None,
                        help="real backend only: write each run's bridged "
                             "obs events as JSONL into this directory "
                             "(CI uploads them on failure)")
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
    if arguments.backend == "real":
        output = arguments.output or "BENCH_realbackend.json"
        document = write_real_backend_baseline(
            output, scenarios=arguments.scenario,
            time_scale=arguments.time_scale,
            wall_timeout=arguments.wall_timeout,
            obs_dir=arguments.obs_dir)
        rows = document["rows"]
        violations = document["oracle_violations"]
        print(f"wrote {output}: {len(rows)} real-backend rows, "
              f"{violations} oracle violations")
        return 1 if violations else 0
    output = arguments.output or f"BENCH_{arguments.suite}.json"
    max_workers = arguments.workers or None
    if arguments.suite == "kernel":
        document = write_kernel_baseline(output)
        events = document["event_throughput"]
        messages = document["message_delivery"]
        capacity = document["capacity"]
        overhead = document["obs_overhead"]
        print(f"wrote {output}: "
              f"{events['events_per_second']:,.0f} events/s, "
              f"{messages['messages_per_second']:,.0f} messages/s, "
              f"capacity "
              + ", ".join(f"{row['config']} "
                          f"{row['instances_per_second']:,.0f} inst/s"
                          for row in capacity)
              + f"; obs overhead disabled "
              f"{overhead['disabled_overhead']:+.2%} / enabled "
              f"{overhead['enabled_overhead']:+.2%}")
        return 0
    if arguments.suite == "scale":
        document = write_scale_baseline(output, small=arguments.small,
                                        workers=arguments.workers)
        throughput = document["throughput"]
        knees = [(config["n_shards"],
                  config["merged_knee"]["knee_offered_load"])
                 for config in document["knee"]["configs"]]
        backpressure = document["backpressure"]["rows"][-1]["admission"]
        print(f"wrote {output}: knees "
              + ", ".join(f"{count} shard(s) @ {knee}"
                          for count, knee in knees)
              + f"; backpressure queued={backpressure['queued']} "
              f"dropped={backpressure['dropped']}; "
              f"{throughput['n_instances']:,} instances "
              f"{throughput['speedup_vs_single_shard']:.2f}x vs single "
              f"shard ({throughput['speedup_vs_single_shard_parallel']:.2f}x "
              f"with workers)")
        return 0
    if arguments.suite == "workload":
        document = write_workload_baseline(output,
                                           parallel=arguments.parallel,
                                           max_workers=max_workers)
        knee = document["saturation_knee"]
        violations = (document["oracle_violations"]
                      + document["transactional_violations"]
                      + document["production_cell_violations"])
        print(f"wrote {output}: {len(document['capacity'])} capacity rows "
              f"(knee at offered load {knee['knee_offered_load']}), "
              f"{len(document['mixed_traffic'])} mixed-traffic rows, "
              f"{len(document['transactional'])} transactional rows, "
              f"{len(document['production_cell'])} production-cell rows, "
              f"{violations} oracle violations")
        return 0
    document = write_resolution_baseline(output, parallel=arguments.parallel,
                                         max_workers=max_workers)
    micro = document["graph_microbench"]
    wide = document["wide_graph"]
    print(f"wrote {output}: {len(micro)} microbench rows, "
          f"{len(wide)} wide-graph rows")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
