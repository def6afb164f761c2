"""Declarative scenario engine for parameter-sweep experiments.

The paper's experiments (Figures 9–13) are sweeps over many *independent*
simulated runs.  Instead of hand-rolled loops per figure, this module keeps
a registry mapping a scenario name to

* a **runner** — a function taking one grid point's parameters (as keyword
  arguments) and returning one row dictionary; its signature declares the
  parameters every grid point is checked against before anything runs, and
* a default **parameter grid** — the list of points the paper (or the new
  workload) sweeps.

:func:`run_scenario` executes a grid through
:func:`repro.runtime.system.parallel_map`: in this process, or on a
process pool when asked for ``workers > 1``.  Every run builds a fresh
:class:`~repro.runtime.system.DistributedCASystem` with its own network
and :class:`~repro.net.network.MessageStatistics`, and the simulation
itself is deterministic virtual time, so the two execution modes produce
byte-identical rows; results are always returned in grid order.
(The perf scenarios are the documented exception: ``graph_microbench``
rows are wall-clock throughout, and ``wide_graph`` rows carry one
wall-clock field, ``wall_seconds``.)

The built-in scenarios are one table at the end of this module; each
names its runner by ``"module:function"`` reference, imported on first
use, so importing the engine loads no workload code::

    REGISTRY.add(Scenario("capacity", "repro.workload.scenarios:"
                          "run_capacity_point", CAPACITY_GRID))

A plugin registers the function itself::

    @REGISTRY.register("my-workload", grid=[{"n": 2}, {"n": 4}])
    def my_workload(n):
        system = build_something(n)
        system.run_to_completion()
        return {"n": n, "total_time": system.now}

Runners must be module-level functions (picklable) for the process-pool
path; anything else runs in-process, with a logged warning.

This registry is the only scenario model: a scenario that can also run
across OS processes names its world (:data:`repro.worlds.WORLDS`), and
the real backend (:mod:`repro.real`, a layer above this one) resolves
names and validates parameters here, as a sim sweep does.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from functools import cached_property
from typing import (Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from .. import obs

from ..core.registry import (
    ParamError,
    ParamSpec,
    ParamValidationError,
    Registry,
    format_params,
    params_from_callable,
    resolve,
    validate_params,
)
from ..runtime.system import collector_paused, parallel_map
from ..worlds import EXPERIMENT1_ITERATIONS, WORLDS, World

logger = logging.getLogger(__name__)

#: One grid point: keyword arguments for a scenario runner.
GridPoint = Mapping[str, object]
#: One result row.
Row = Dict[str, object]


@dataclass(frozen=True)
class ScenarioConfig:
    """Cross-cutting run configuration for :func:`run_scenario`.

    ``obs`` switches the whole sweep to traced execution: every system the
    grid builds is adopted by one ambient :class:`repro.obs.Capture`, and
    the merged spans / metrics / flight dumps become available to the
    caller.  Tracing forces the sequential path (an ambient capture is
    process-local, and rows are byte-identical either way).  With
    ``export_dir`` set, the capture is exported after the sweep as
    ``<scenario>.trace.json`` (Chrome/Perfetto), ``<scenario>.events.jsonl``,
    ``<scenario>.metrics.json`` and ``<scenario>.prom``.
    """

    obs: Optional[obs.ObsConfig] = None
    export_dir: Optional[str] = None


@dataclass(frozen=True)
class Scenario:
    """A named, sweepable workload.

    ``runner`` (a function, or its ``"module:function"`` reference) runs
    one grid point; its signature declares :attr:`params`.  ``world``
    (a name in :data:`repro.worlds.WORLDS`) makes the scenario
    *real-capable*: a grid point, bound here, is also that world's
    parameters, and the real backend boots one OS process per node of
    the world, each building its own node.
    """

    name: str
    runner: Union[Callable[..., Row], str]
    grid: Tuple[GridPoint, ...]
    description: str = ""
    world: str = ""

    @cached_property
    def _resolved(self) -> Tuple[Callable[..., Row], Tuple[ParamSpec, ...],
                                 bool]:
        """The runner and its declared params; the default grid checked."""
        owner = f"scenario {self.name!r}"
        runner = resolve(owner, self.runner)
        params, accepts_extra = params_from_callable(runner)
        errors = [error for point in self.grid for error
                  in validate_params(owner, params, accepts_extra, point)]
        if errors:
            raise ParamValidationError(errors)
        return runner, params, accepts_extra

    @property
    def resolved_runner(self) -> Callable[..., Row]:
        """The runner function (a reference is imported on first use)."""
        return self._resolved[0]

    @property
    def params(self) -> Tuple[ParamSpec, ...]:
        """The parameters the runner's signature declares."""
        return self._resolved[1]

    @property
    def accepts_extra(self) -> bool:
        """True for a runner taking ``**options``: unknown keys pass."""
        return self._resolved[2]

    def validate_grid(self, grid: Sequence[GridPoint]) -> List[ParamError]:
        """Check every point of ``grid``; empty list means all valid."""
        _, params, accepts_extra = self._resolved
        return [error for point in grid for error in validate_params(
            f"scenario {self.name!r}", params, accepts_extra, point)]

    def bind_point(self, point: GridPoint) -> Dict[str, object]:
        """``point`` validated, then completed with the declared defaults."""
        errors = self.validate_grid((point,))
        if errors:
            raise ParamValidationError(errors)
        bound = {spec.name: spec.default for spec in self.params
                 if not spec.required}
        bound.update(point)
        return bound

    def real_world(self) -> World:
        """The world the scenario runs; ``KeyError`` unless it names one."""
        if not self.world:
            raise KeyError(f"scenario {self.name!r} is not real-capable: "
                           f"it names no world")
        return WORLDS.get(self.world)

    def describe_params(self) -> str:
        """One-line rendering of the declared params (``--list`` output)."""
        return format_params(self.params, self.accepts_extra)


class ScenarioRegistry(Registry[Scenario]):
    """Name → :class:`Scenario` mapping with a decorator-based API."""

    kind = "scenario"

    def register(self, name: str, grid: Sequence[GridPoint] = (),
                 description: str = ""):
        """Decorator: register the decorated runner under ``name``."""
        def decorate(runner: Callable[..., Row]) -> Callable[..., Row]:
            self.add(Scenario(
                name=name, runner=runner,
                grid=tuple(dict(point) for point in grid),
                description=description or (runner.__doc__ or "").strip()
                .split("\n")[0]))
            return runner
        return decorate

    def add(self, scenario: Scenario) -> Scenario:
        """Register ``scenario``; a bad default grid raises on resolution.

        A runner function resolves here, so a plugin's mistyped grid fails
        at registration, not mid-sweep; a reference resolves on first use.
        A world the catalogue does not hold is refused here too.
        """
        if scenario.world:
            WORLDS.get(scenario.world)
        if callable(scenario.runner):
            scenario.params  # resolving checks the default grid
        return super().add(scenario)


#: The process-wide default registry (the built-in scenarios are declared
#: in the table at the end of this module).
REGISTRY = ScenarioRegistry()


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenario(name: str, points: Optional[Sequence[GridPoint]] = None,
                 workers: int = 0,
                 registry: Optional[ScenarioRegistry] = None,
                 config: Optional[ScenarioConfig] = None) -> List[Row]:
    """Run ``name`` over ``points`` (its default grid when omitted).

    The grid runs through :func:`~repro.runtime.system.parallel_map`: on
    a process pool of up to ``workers`` workers when ``workers > 1``,
    otherwise (and on its logged fallback) in this process.  Each point
    runs a fresh, fully isolated system, so the rows are identical either
    way and always in grid order.  The cyclic collector is paused for the
    sweep: every point builds a short-lived system whose processes and
    events form cycles.

    ``config`` carries cross-cutting options; when ``config.obs`` is set
    the sweep runs traced, in this process (see :class:`ScenarioConfig`).
    """
    scenario = (registry or REGISTRY).get(name)
    grid: List[GridPoint] = [dict(point) for point in
                             (points if points is not None else scenario.grid)]
    if not grid:
        return []
    errors = scenario.validate_grid(grid)
    if errors:
        raise ParamValidationError(errors)
    runner = scenario.resolved_runner
    if config is None or config.obs is None:
        with collector_paused():
            return parallel_map(runner, grid, workers)[0]
    if workers > 1 and len(grid) > 1:
        logger.warning(
            "scenario %r: tracing is process-local; running the %d-point "
            "grid sequentially under one capture", name, len(grid))
    # The observation layer never schedules kernel events or draws from
    # the simulation's RNG streams, so traced rows equal untraced ones.
    with obs.capture(config.obs) as cap, collector_paused():
        rows = [runner(**point) for point in grid]
    if config.export_dir is not None:
        export_capture(cap, scenario.name, config.export_dir)
    return rows


def export_capture(cap: "obs.Capture", name: str, directory: str) -> List[str]:
    """Write a capture's trace/metrics artefacts; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    base = os.path.join(directory, name)
    paths = [base + ".trace.json", base + ".events.jsonl",
             base + ".metrics.json", base + ".prom"]
    with open(paths[0], "w", encoding="utf-8") as handle:
        json.dump(cap.chrome_trace(), handle, indent=1, sort_keys=True)
    cap.write_jsonl(paths[1])
    with open(paths[2], "w", encoding="utf-8") as handle:
        json.dump(cap.metrics_snapshot(), handle, indent=1, sort_keys=True)
    with open(paths[3], "w", encoding="utf-8") as handle:
        handle.write(cap.prometheus_text())
    logger.info("scenario %r: wrote trace artefacts to %s", name, directory)
    return paths


# ----------------------------------------------------------------------
# The built-in scenarios: their default grids, then one declaration table
# ----------------------------------------------------------------------
#: Parameter grids published in Figure 9 of the paper.
FIGURE9_GRIDS = {
    "t_msg": (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4,
              2.6, 2.8),
    "t_abort": (0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9, 2.1),
    "t_resolution": (0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9, 2.1, 2.3),
}


def figure9_grid(varying: str,
                 values: Optional[Sequence[float]] = None,
                 iterations: int = EXPERIMENT1_ITERATIONS,
                 algorithm: str = "ours") -> List[GridPoint]:
    """The Figure 9 grid varying one parameter at baseline for the others."""
    if varying not in FIGURE9_GRIDS:
        raise ValueError(f"unknown parameter {varying!r}")
    grid = list(values) if values is not None else list(FIGURE9_GRIDS[varying])
    return [{"varying": varying, "value": value, "iterations": iterations,
             "algorithm": algorithm} for value in grid]


_DEFAULT_FIGURE9_GRID = tuple(point for parameter in FIGURE9_GRIDS
                              for point in figure9_grid(parameter))

#: Parameter grids published in Figure 12.
FIGURE12_TMMAX_GRID = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4)
FIGURE12_TRES_GRID = (0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5)

#: The large-N grid: the paper stops at N = 6; this sweep extends the
#: message-complexity measurement up to 64 participants.
LARGE_N_GRID = tuple({"n_threads": n} for n in (4, 8, 16, 32, 64))

#: The wide-graph grid: all-raise storms over a truncated 12-primitive
#: graph (794 nodes) with a growing number of raising threads.
WIDE_GRAPH_GRID = tuple({"n_threads": n} for n in (4, 8, 12))

#: The graph-microbenchmark grid: growing graphs, fixed resolve loop.
#: (Rows carry wall-clock timings, so unlike the simulated-time scenarios
#: they are not byte-identical between runs or execution modes.)
GRAPH_MICROBENCH_GRID = tuple({"n_primitives": n, "max_level": 3}
                              for n in (8, 12, 16))

#: The explorer grid: a fixed-seed 200-plan budget over the nested-abort
#: target, split into chunks of 25 so the process-pool path has real
#: parallelism.  Every chunk is pure in ``(seed, start, stop)`` — the
#: generator samples plan ``i`` identically in any process — so parallel
#: and sequential sweeps return byte-identical rows (each row carries a
#: digest over the canonical traces of its cases).
EXPLORE_SEED = 2026
EXPLORE_CHUNK_SIZE = 25
EXPLORE_BUDGET = 200
EXPLORE_GRID = tuple(
    {"target": "nested_abort", "seed": EXPLORE_SEED,
     "start": start, "stop": start + EXPLORE_CHUNK_SIZE}
    for start in range(0, EXPLORE_BUDGET, EXPLORE_CHUNK_SIZE))

#: The remote-counter grid: an overdraft on every pass but the first, and
#: a quiet run whose limit is never reached.
REMOTE_COUNTER_GRID = ({"iterations": 3}, {"iterations": 2, "limit": 10})

#: The churn grid: an increasing number of unrelated concurrent actions
#: sharing one network.
CHURN_GRID = tuple({"n_groups": n} for n in (1, 2, 4, 8, 16))

#: The capacity grid: offered loads bracketing the default pool's nominal
#: service capacity (8 workers / width 2 / mean service 1.0 → 4 inst/s;
#: protocol and recovery overhead put the measured knee between 2 and 3).
CAPACITY_GRID = tuple({"offered_load": load}
                      for load in (0.5, 1.0, 2.0, 3.0, 4.0, 8.0))

#: The mixed-traffic grid: three seeds of the heterogeneous soak, each a
#: fresh arrival schedule, job profile set and delay-noise plan.
MIXED_TRAFFIC_GRID = tuple({"seed": seed} for seed in (2026, 2027, 2028))

#: The transactional grid: offered loads over the default pool and the
#: default shared-account set (strict 2PL serialises conflicting
#: instances, so the measured knee sits below the capacity sweep's).
TRANSACTIONAL_GRID = tuple({"offered_load": load}
                           for load in (1.0, 2.0, 4.0))

#: The production-cell grid: three seeds of the open-loop case study,
#: each a fresh fault schedule and blank-arrival trace.
PRODUCTION_CELL_GRID = tuple({"seed": seed} for seed in (2026, 2027, 2028))

#: The scale grid: a small sharded-capacity sweep (cheap enough for tests
#: and conformance; a larger point is one ``run_scale_point`` call, e.g.
#: ``run_scale_point(1_000_000, 16, 96.0, pool_size=16, workers=2)``).
#: ``pool_size`` is per shard, so aggregate capacity scales with
#: ``n_shards`` while the offered load and instance count stay
#: deployment totals.
SCALE_SEED = 2026
SCALE_GRID = (
    {"n_instances": 1000, "n_shards": 1, "offered_load": 6.0,
     "pool_size": 8, "seed": SCALE_SEED},
    {"n_instances": 1000, "n_shards": 2, "offered_load": 6.0,
     "pool_size": 8, "seed": SCALE_SEED},
    {"n_instances": 1000, "n_shards": 2, "offered_load": 6.0,
     "pool_size": 8, "seed": SCALE_SEED, "global_max_in_flight": 8},
)

for _scenario in (
    Scenario("figure9", "repro.bench.scenarios:figure9_point",
             _DEFAULT_FIGURE9_GRID,
             "Figure 9/10 sensitivity sweep (three threads, nested abort, "
             "20 iterations)", world="figure9"),
    Scenario("figure12_tmmax", "repro.bench.scenarios:figure12_tmmax_point",
             tuple({"t_msg": value} for value in FIGURE12_TMMAX_GRID),
             "Figure 12 left half: ours vs Campbell-Randell, varying Tmmax"),
    Scenario("figure12_tres", "repro.bench.scenarios:figure12_tres_point",
             tuple({"t_res": value} for value in FIGURE12_TRES_GRID),
             "Figure 12 right half: ours vs Campbell-Randell, varying Tres"),
    Scenario("large_n", "repro.bench.scenarios:large_n_point", LARGE_N_GRID,
             "Message-complexity sweep up to N=64 participants (single "
             "concurrent exception)"),
    Scenario("wide_graph", "repro.bench.scenarios:run_wide_graph",
             WIDE_GRAPH_GRID,
             "Resolution-heavy all-raise storms over a wide truncated "
             "exception graph"),
    Scenario("graph_microbench",
             "repro.bench.scenarios:run_graph_microbench",
             GRAPH_MICROBENCH_GRID,
             "Compiled exception-graph resolution microbenchmark "
             "(no runtime)"),
    Scenario("explore", "repro.explore.explorer:explore_chunk", EXPLORE_GRID,
             "Fault-space exploration sweep: seeded fault plans + schedule "
             "perturbation, checked against the invariant oracles"),
    Scenario("remote_counter",
             "repro.bench.scenarios:remote_counter_point",
             REMOTE_COUNTER_GRID,
             "Two workers increment a counter on a remote object host: "
             "every lock, read, write and commit crosses the RPC layer",
             world="remote_counter"),
    Scenario("churn", "repro.bench.scenarios:run_churn", CHURN_GRID,
             "Multi-action churn: many concurrent top-level CA actions "
             "sharing the network"),
    Scenario("capacity", "repro.workload.scenarios:run_capacity_point",
             CAPACITY_GRID,
             "Offered-load sweep over a shared partition pool: "
             "throughput/latency capacity curve"),
    Scenario("mixed_traffic", "repro.workload.scenarios:run_mixed_traffic",
             MIXED_TRAFFIC_GRID,
             "Heterogeneous action mix + fault-plan noise over one pool, "
             "checked by invariant oracles"),
    Scenario("transactional",
             "repro.workload.transactional:run_transactional_point",
             TRANSACTIONAL_GRID,
             "Transactional CA workload: atomic objects, strict 2PL locks "
             "and recovery under concurrent instances, with the "
             "no-lost-update / locks-released oracles"),
    Scenario("production_cell",
             "repro.productioncell.workload:run_production_cell_point",
             PRODUCTION_CELL_GRID,
             "Production-cell case study under open-loop traffic with seeded "
             "device faults, checked by the invariant oracles"),
    Scenario("scale", "repro.workload.sharding:run_scale_point", SCALE_GRID,
             "Sharded partition pools: capacity workload split across "
             "per-shard kernels with merged telemetry and global admission "
             "leases"),
):
    REGISTRY.add(_scenario)
