"""Declarative scenario engine for parameter-sweep experiments.

The paper's experiments (Figures 9–13) are sweeps over many *independent*
simulated runs.  Instead of hand-rolled loops per figure, this module keeps
a registry mapping a scenario name to

* a **runner** — a function taking one grid point's parameters (as keyword
  arguments) and returning one row dictionary, and
* a default **parameter grid** — the list of points the paper (or the new
  workload) sweeps.

:func:`run_scenario` executes a grid either sequentially or in parallel on
a :class:`concurrent.futures.ProcessPoolExecutor`.  Every run builds a
fresh :class:`~repro.runtime.system.DistributedCASystem` with its own
network and :class:`~repro.net.network.MessageStatistics`, and the
simulation itself is deterministic virtual time, so the two execution modes
produce byte-identical rows; results are always returned in grid order.
(The perf scenarios are the documented exception: ``graph_microbench``
rows are wall-clock throughout, and ``wide_graph`` rows carry one
wall-clock field, ``wall_seconds``.)

Registering a new workload::

    @REGISTRY.register("my-workload", grid=[{"n": 2}, {"n": 4}])
    def my_workload(n):
        system = build_something(n)
        system.run_to_completion()
        return {"n": n, "total_time": system.now}

Runners must be module-level functions (picklable) for the process-pool
path; anything else silently degrades to the sequential fallback.

This registry is the only scenario model: a scenario that can also run
across OS processes (``ScenarioConfig(backend="real")``) declares its
``nodes`` and a node builder next to its runner, and the real backend
resolves names and validates parameters here, as a sim sweep does.
"""

from __future__ import annotations

import gc
import json
import logging
import os
from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from .. import obs

from ..analysis.bounds import (
    messages_all_exceptions,
    messages_single_exception,
    theorem2_worst_case_messages,
)
from ..core.registry import (
    ParamError,
    ParamSpec,
    ParamValidationError,
    Registry,
    format_params,
    params_from_callable,
    validate_params,
)
from ..explore.generator import DEFAULT_KINDS, STORM_KINDS, FaultPlanGenerator
from ..explore.targets import get_target
from .scenarios import (
    EXPERIMENT1_ITERATIONS,
    BuiltNode,
    build_experiment1,
    build_remote_counter,
    observed_node,
    run_churn,
    run_complexity_scenario,
    run_experiment1,
    run_experiment2,
    run_graph_microbench,
    run_wide_graph,
)

logger = logging.getLogger(__name__)

#: One grid point: keyword arguments for a scenario runner.
GridPoint = Mapping[str, object]
#: One result row.
Row = Dict[str, object]
#: ``build(params, local, forward)``: the world of node ``local`` (wire
#: sends go to ``forward``), or of the whole system when ``local`` is None.
NodeBuilder = Callable[[Dict[str, object], Optional[str], object], BuiltNode]


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
    #: Execution backend: ``"sim"`` runs grid points on the deterministic
    #: sim kernel (the default, byte-identical path); ``"real"`` boots one
    #: OS process per scenario node and runs the same protocol code over
    #: localhost sockets with wall-clock pacing (see
    #: :mod:`repro.net.real`).  Real rows are oracle-gated, not
    #: digest-gated — they carry wall-clock fields and are not
    #: byte-identical between runs.
    backend: str = "sim"
    #: Keyword options for the real backend runner (``time_scale``,
    #: ``wall_timeout``, ``settle``); ignored on the sim backend.
    backend_options: Optional[Mapping[str, object]] = None


@dataclass(frozen=True)
class Scenario:
    """A named, sweepable workload.

    ``params`` holds the runner's declared parameters (derived from its
    signature when the scenario is added to a registry); ``accepts_extra``
    is true for runners taking ``**options``, whose unknown keys forward
    to a lower-level function and therefore pass validation.

    ``nodes`` and ``build`` make the scenario *real-capable*: the real
    backend boots one OS process per name in ``nodes`` and each calls
    ``build`` for its own node (see :data:`NodeBuilder`).
    """

    name: str
    runner: Callable[..., Row]
    grid: Tuple[GridPoint, ...]
    description: str = ""
    params: Optional[Tuple[ParamSpec, ...]] = None
    accepts_extra: bool = False
    nodes: Tuple[str, ...] = ()
    build: Optional[NodeBuilder] = None

    def validate_point(self, point: GridPoint) -> List[ParamError]:
        """Check one grid point against the runner's declared params."""
        if self.params is None:
            return []
        return validate_params(f"scenario {self.name!r}", self.params,
                               self.accepts_extra, point)

    def validate_grid(self, grid: Sequence[GridPoint]) -> List[ParamError]:
        """Check every point of ``grid``; empty list means all valid."""
        errors: List[ParamError] = []
        for point in grid:
            errors.extend(self.validate_point(point))
        return errors

    def bind_point(self, point: GridPoint) -> Dict[str, object]:
        """``point`` validated, then completed with the declared defaults."""
        errors = self.validate_point(point)
        if errors:
            raise ParamValidationError(errors)
        bound = {spec.name: spec.default for spec in self.params or ()
                 if not spec.required}
        bound.update(point)
        return bound

    def require_nodes(self) -> None:
        """Raise ``KeyError`` unless the scenario is real-capable."""
        if not self.nodes:
            raise KeyError(
                f"scenario {self.name!r} is not real-capable: it declares "
                f"no nodes and no node builder")

    def build_node(self, point: GridPoint, local: Optional[str] = None,
                   forward=None) -> BuiltNode:
        """Build node ``local`` (all-local when None) for grid ``point``."""
        self.require_nodes()
        return self.build(self.bind_point(point), local, forward)

    def describe_params(self) -> str:
        """One-line rendering of the declared params (``--list`` output)."""
        return format_params(self.params or (), self.accepts_extra)


class ScenarioRegistry(Registry[Scenario]):
    """Name → :class:`Scenario` mapping with a decorator-based API."""

    kind = "scenario"

    def register(self, name: str, grid: Sequence[GridPoint] = (),
                 description: str = "", nodes: Sequence[str] = (),
                 build: Optional[NodeBuilder] = None):
        """Decorator: register the decorated runner under ``name``."""
        def decorate(runner: Callable[..., Row]) -> Callable[..., Row]:
            self.add(Scenario(
                name=name, runner=runner,
                grid=tuple(dict(point) for point in grid),
                description=description or (runner.__doc__ or "").strip()
                .split("\n")[0],
                nodes=tuple(nodes), build=build))
            return runner
        return decorate

    def add(self, scenario: Scenario) -> Scenario:
        """Register ``scenario``, deriving and checking its declared params.

        The runner's signature becomes the scenario's parameter
        declaration (unless the caller supplied one), and the default
        grid is validated against it immediately — a plugin with a
        mistyped grid fails at registration, not mid-sweep.
        """
        if bool(scenario.nodes) != (scenario.build is not None):
            raise ValueError(f"scenario {scenario.name!r}: nodes and a node "
                             f"builder must be declared together")
        if scenario.params is None:
            params, accepts_extra = params_from_callable(scenario.runner)
            scenario = replace(scenario, params=params,
                               accepts_extra=accepts_extra)
        errors = scenario.validate_grid(scenario.grid)
        if errors:
            raise ParamValidationError(errors)
        return super().add(scenario)


#: The process-wide default registry (the paper's figures plus the new
#: workloads register themselves below).
REGISTRY = ScenarioRegistry()


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenario(name: str, points: Optional[Sequence[GridPoint]] = None,
                 parallel: bool = False, max_workers: Optional[int] = None,
                 registry: Optional[ScenarioRegistry] = None,
                 config: Optional[ScenarioConfig] = None) -> List[Row]:
    """Run ``name`` over ``points`` (its default grid when omitted).

    With ``parallel=True`` the grid points are distributed over a
    :class:`~concurrent.futures.ProcessPoolExecutor`; each point still runs
    a fresh, fully isolated system, so the rows are identical to the
    sequential path (which is also the automatic fallback when the runner
    cannot be shipped to worker processes or no pool can be created).
    Rows are always returned in grid order.

    ``config`` carries cross-cutting options; when ``config.obs`` is set
    the sweep runs traced (see :class:`ScenarioConfig`).
    """
    scenario = (registry or REGISTRY).get(name)
    grid: List[GridPoint] = [dict(point) for point in
                             (points if points is not None else scenario.grid)]
    if not grid:
        return []
    errors = scenario.validate_grid(grid)
    if errors:
        raise ParamValidationError(errors)
    if config is not None and config.backend != "sim":
        if config.backend != "real":
            raise ValueError(f"unknown backend {config.backend!r}; "
                             f"expected 'sim' or 'real'")
        return _run_real_backend(scenario, grid, config)
    if config is not None and config.obs is not None:
        if parallel and len(grid) > 1:
            logger.warning(
                "scenario %r: tracing is process-local; running the "
                "%d-point grid sequentially under one capture",
                name, len(grid))
        return _run_traced(scenario, grid, config)
    if parallel and len(grid) > 1:
        if not _shippable(scenario.runner):
            logger.warning(
                "scenario %r: runner is not picklable; running the %d-point "
                "grid sequentially instead of on a process pool",
                name, len(grid))
        else:
            rows = _run_pool(scenario, grid, max_workers)
            if rows is not None:
                return rows
            logger.warning(
                "scenario %r: process pool unavailable or broken; falling "
                "back to the sequential (byte-identical) path for the "
                "%d-point grid", name, len(grid))
    return _run_sequential(scenario, grid)


def _run_real_backend(scenario: Scenario, grid: Sequence[GridPoint],
                      config: ScenarioConfig) -> List[Row]:
    """Run grid points of a *real-capable* scenario across OS processes.

    Only scenarios declaring ``nodes`` can run here (the backend refuses
    the others).  The grid points are the ones a sim sweep takes; each row
    reports the merged oracle verdict, the ``(action, status)`` conclusion
    counts, and wall-clock cost.
    """
    from ..net.real.backend import RealBackend

    backend = RealBackend(**dict(config.backend_options or {}))
    rows: List[Row] = []
    for index, point in enumerate(grid):
        result = backend.run(scenario.name, **point)
        if config.export_dir is not None:
            # Bridged obs events, one JSONL per run — CI uploads these as
            # the post-mortem artifact when a real run fails its oracles.
            os.makedirs(config.export_dir, exist_ok=True)
            path = os.path.join(config.export_dir,
                                f"{scenario.name}-{index}.events.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                for node, record in sorted(result.records.items()):
                    for event in record.get("obs_events", ()):
                        handle.write(json.dumps(
                            {"node": node, **event}, sort_keys=True,
                            default=str) + "\n")
        rows.append(_backend_row(point, result))
    return rows


def _backend_row(point: GridPoint, result) -> Row:
    """One node-built run as a row: the same keys on both backends."""
    return {
        **point,
        "backend": result.backend,
        "n_violations": len(result.violations),
        "violations": [str(violation) for violation in result.violations],
        "outcomes": {f"{action}/{status}": count
                     for (action, status), count
                     in sorted(result.outcomes.items())},
        "crashed": list(result.crashed),
        "counters": [counter for _, record in sorted(result.records.items())
                     for counter in record["counters"]],
        "by_type": dict(sorted(result.stats["by_type"].items())),
        "wall_seconds": result.wall_time,
    }


def _run_sequential(scenario: Scenario, grid: Sequence[GridPoint]) -> List[Row]:
    """The in-process sweep (the byte-identical reference path)."""
    # Pause the cyclic collector for the sweep: every grid point builds a
    # short-lived system whose processes/events form reference cycles, and
    # letting generational GC trigger mid-run costs measurably more than
    # deferring the cleanup.  Collection resumes (and catches up on its
    # own schedule) as soon as the sweep returns; GC state never affects
    # simulated behaviour, so rows are identical either way.
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        return [scenario.runner(**point) for point in grid]
    finally:
        if was_enabled:
            gc.enable()


def _run_traced(scenario: Scenario, grid: Sequence[GridPoint],
                config: ScenarioConfig) -> List[Row]:
    """Sequential sweep under one ambient capture, with optional export.

    The observation layer never schedules kernel events or draws from the
    simulation's RNG streams, so traced rows are identical to untraced
    ones — the conformance suite pins this.
    """
    with obs.capture(config.obs) as cap:
        rows = _run_sequential(scenario, grid)
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


def _shippable(runner: Callable[..., Row]) -> bool:
    """True if ``runner`` can be pickled into a worker process."""
    import pickle

    try:
        pickle.dumps(runner)
        return True
    except Exception:
        return False


def _run_pool(scenario: Scenario, grid: Sequence[GridPoint],
              max_workers: Optional[int]) -> Optional[List[Row]]:
    """Run the grid on a process pool; ``None`` means "fall back"."""
    from concurrent.futures.process import (BrokenProcessPool,
                                            ProcessPoolExecutor)

    workers = max_workers or min(len(grid), 8)
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
    except OSError as error:
        # Restricted environments (no fork/semaphores): sequential fallback.
        logger.warning("scenario %r: cannot create a %d-worker process pool "
                       "(%s)", scenario.name, workers, error)
        return None
    try:
        with pool:
            futures = [pool.submit(_call_runner, scenario.runner, dict(point))
                       for point in grid]
            # A runner's own exception propagates to the caller here — only
            # a broken pool (workers killed at spawn) triggers the fallback.
            return [future.result() for future in futures]
    except BrokenProcessPool as error:
        logger.warning("scenario %r: process pool broke mid-sweep (%s)",
                       scenario.name, error)
        return None


def _call_runner(runner: Callable[..., Row], point: Dict[str, object]) -> Row:
    """Worker-side trampoline (module-level, hence picklable)."""
    return runner(**point)


# ----------------------------------------------------------------------
# The paper's figures as registered scenarios
# ----------------------------------------------------------------------
#: Baseline parameter values (the first row of each Figure 9 column).
FIGURE9_BASELINE = {"t_msg": 0.2, "t_abort": 0.1, "t_resolution": 0.3}

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


def _figure9_timing(varying: str, value: float) -> Dict[str, float]:
    """Experiment 1's three durations: ``varying`` swept, others baseline."""
    if varying not in FIGURE9_BASELINE:
        raise ValueError(f"unknown parameter {varying!r}")
    return {**FIGURE9_BASELINE, varying: value}


def figure9_node(params: Dict[str, object], local: Optional[str],
                 forward) -> BuiltNode:
    """Node builder of ``figure9``: Experiment 1, one process per thread."""
    return observed_node(build_experiment1(
        iterations=params["iterations"], algorithm=params["algorithm"],
        local=local, forward=forward,
        **_figure9_timing(params["varying"], params["value"])))


@REGISTRY.register("figure9", grid=_DEFAULT_FIGURE9_GRID,
                   description="Figure 9/10 sensitivity sweep "
                               "(three threads, nested abort, 20 iterations)",
                   nodes=("T1", "T2", "T3"), build=figure9_node)
def figure9_point(varying: str = "t_msg",
                  value: float = FIGURE9_BASELINE["t_msg"],
                  iterations: int = EXPERIMENT1_ITERATIONS,
                  algorithm: str = "ours") -> Row:
    """One Figure 9 grid point: sweep ``varying``, others at baseline."""
    result = run_experiment1(iterations=iterations, algorithm=algorithm,
                             **_figure9_timing(varying, value))
    return {
        varying: value,
        "total_time": result.total_time,
        "time_per_iteration": result.time_per_iteration,
        "protocol_messages": result.protocol_messages,
    }


#: Parameter grids published in Figure 12.
FIGURE12_TMMAX_GRID = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4)
FIGURE12_TRES_GRID = (0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5)
FIGURE12_FIXED_TRES = 0.3
FIGURE12_FIXED_TMMAX = 1.0


def _figure12_comparison(t_msg: float, t_resolution: float,
                         iterations: int) -> Dict[str, float]:
    """Both algorithms on one Figure 12 grid point (shared row columns)."""
    ours = run_experiment2(t_msg, t_resolution, algorithm="ours",
                           iterations=iterations)
    cr = run_experiment2(t_msg, t_resolution, algorithm="campbell-randell",
                         iterations=iterations)
    return {
        "time_ours": ours.total_time,
        "time_cr": cr.total_time,
        "messages_ours": ours.protocol_messages,
        "messages_cr": cr.protocol_messages,
        "resolution_calls_ours": ours.resolution_calls,
        "resolution_calls_cr": cr.resolution_calls,
    }


@REGISTRY.register("figure12_tmmax",
                   grid=tuple({"t_msg": value} for value in FIGURE12_TMMAX_GRID),
                   description="Figure 12 left half: ours vs Campbell-Randell,"
                               " varying Tmmax")
def figure12_tmmax_point(t_msg: float,
                         t_resolution: float = FIGURE12_FIXED_TRES,
                         iterations: int = 1) -> Row:
    """One Figure 12 point varying ``Tmmax`` at fixed ``Tres``."""
    row: Row = {"t_msg": t_msg}
    row.update(_figure12_comparison(t_msg, t_resolution, iterations))
    return row


@REGISTRY.register("figure12_tres",
                   grid=tuple({"t_res": value} for value in FIGURE12_TRES_GRID),
                   description="Figure 12 right half: ours vs Campbell-Randell,"
                               " varying Tres")
def figure12_tres_point(t_res: float, t_msg: float = FIGURE12_FIXED_TMMAX,
                        iterations: int = 1) -> Row:
    """One Figure 12 point varying ``Tres`` at fixed ``Tmmax``."""
    row: Row = {"t_res": t_res}
    row.update(_figure12_comparison(t_msg, t_res, iterations))
    return row


# ----------------------------------------------------------------------
# New workloads beyond the paper
# ----------------------------------------------------------------------
#: The large-N grid: the paper stops at N = 6; this sweep extends the
#: message-complexity measurement up to 64 participants.
LARGE_N_GRID = tuple({"n_threads": n} for n in (4, 8, 16, 32, 64))


@REGISTRY.register("large_n", grid=LARGE_N_GRID,
                   description="Message-complexity sweep up to N=64 "
                               "participants (single concurrent exception)")
def large_n_point(n_threads: int, n_exceptions: int = 1,
                  algorithm: str = "ours") -> Row:
    """One large-N point: measured counts against the analytic formulas."""
    outcome = run_complexity_scenario(n_threads, n_exceptions,
                                      algorithm=algorithm)
    return {
        "n_threads": n_threads,
        "n_exceptions": n_exceptions,
        "resolution_messages": outcome["resolution_messages"],
        "signalling_messages": outcome["signalling_messages"],
        "resolution_calls": outcome["resolution_calls"],
        "total_time": outcome["total_time"],
        "paper_single": messages_single_exception(n_threads),
        "paper_all": messages_all_exceptions(n_threads),
        "theorem2_bound": theorem2_worst_case_messages(n_threads, 1),
    }


#: The wide-graph grid: all-raise storms over a truncated 12-primitive
#: graph (794 nodes) with a growing number of raising threads.
WIDE_GRAPH_GRID = tuple({"n_threads": n} for n in (4, 8, 12))


REGISTRY.register("wide_graph", grid=WIDE_GRAPH_GRID,
                  description="Resolution-heavy all-raise storms over a "
                              "wide truncated exception graph")(run_wide_graph)


#: The graph-microbenchmark grid: growing graphs, fixed resolve loop.
#: (Rows carry wall-clock timings, so unlike the simulated-time scenarios
#: they are not byte-identical between runs or execution modes.)
GRAPH_MICROBENCH_GRID = (
    {"n_primitives": 8, "max_level": 3},
    {"n_primitives": 12, "max_level": 3},
    {"n_primitives": 16, "max_level": 3},
)


REGISTRY.register("graph_microbench", grid=GRAPH_MICROBENCH_GRID,
                  description="Compiled exception-graph resolution "
                              "microbenchmark (no runtime)")(
    run_graph_microbench)


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


@REGISTRY.register("explore", grid=EXPLORE_GRID,
                   description="Fault-space exploration sweep: seeded fault "
                               "plans + schedule perturbation, checked "
                               "against the invariant oracles")
def explore_point(target: str = "nested_abort", seed: int = 2026,
                  start: int = 0, stop: int = 25,
                  kinds: Sequence[str] = DEFAULT_KINDS,
                  max_directives: int = 3,
                  jitter_probability: float = 0.5,
                  algorithm: str = "ours",
                  baselines: Sequence[str] = ()) -> Row:
    """One explorer chunk (see repro.explore.explorer.explore_chunk)."""
    from ..explore.explorer import explore_chunk
    return explore_chunk(target=target, seed=seed, start=start, stop=stop,
                         kinds=kinds, max_directives=max_directives,
                         jitter_probability=jitter_probability,
                         algorithm=algorithm, baselines=baselines)


#: The corpus-search chunk grid: explicit storm-vocabulary plans (crash /
#: restore waves, drop and corrupt classes included), sampled at a fixed
#: seed.  Corpus search derives candidates centrally and only fans the
#: *execution* out, so its scenario takes the plans themselves; the
#: default grid pins the widened vocabulary's behaviour — including the
#: liveness-oracle waiver for non-delivery-preserving plans — under the
#: golden-trace conformance gate.
EXPLORE_CORPUS_CHUNK = 10


def _explore_corpus_grid() -> Tuple[Dict[str, object], ...]:
    generator = FaultPlanGenerator(
        EXPLORE_SEED, get_target("nested_abort").threads, kinds=STORM_KINDS)
    return tuple(
        {"target": "nested_abort", "start": start,
         "plans": [generator.sample(start + offset).to_dict()
                   for offset in range(EXPLORE_CORPUS_CHUNK)]}
        for start in range(0, 2 * EXPLORE_CORPUS_CHUNK,
                           EXPLORE_CORPUS_CHUNK))


@REGISTRY.register("explore_corpus", grid=_explore_corpus_grid(),
                   description="Corpus-search execution chunks: explicit "
                               "fault plans (full storm vocabulary), "
                               "canonical trace digests per plan")
def explore_corpus_point(target: str = "nested_abort",
                         plans: Sequence[Dict[str, Any]] = (),
                         start: int = 0, algorithm: str = "ours",
                         baselines: Sequence[str] = ()) -> Row:
    """One plan chunk (see repro.explore.corpus.run_plans_chunk)."""
    from ..explore.corpus import run_plans_chunk
    return run_plans_chunk(target=target, plans=plans, start=start,
                           algorithm=algorithm, baselines=baselines)


#: The remote-counter grid: an overdraft on every pass but the first, and
#: a quiet run whose limit is never reached.
REMOTE_COUNTER_GRID = ({"iterations": 3}, {"iterations": 2, "limit": 10})


@REGISTRY.register(
    "remote_counter", grid=REMOTE_COUNTER_GRID,
    description="Two workers increment a counter on a remote object host: "
                "every lock, read, write and commit crosses the RPC layer",
    nodes=("W1", "W2", "objhost"),
    build=lambda params, local, forward: build_remote_counter(
        local=local, forward=forward, **params))
def remote_counter_point(iterations: int = 3, limit: int = 1,
                         algorithm: str = "ours", t_msg: float = 0.1,
                         t_resolution: float = 0.2, t_abort: float = 0.1,
                         rpc_timeout: float = 60.0) -> Row:
    """One all-local run of the node builder, reported like a real run."""
    from ..net.real.scenarios import run_sim

    point = {"iterations": iterations, "limit": limit,
             "algorithm": algorithm, "t_msg": t_msg,
             "t_resolution": t_resolution, "t_abort": t_abort,
             "rpc_timeout": rpc_timeout}
    return _backend_row(point, run_sim("remote_counter", **point))


#: The churn grid: an increasing number of unrelated concurrent actions
#: sharing one network.
CHURN_GRID = tuple({"n_groups": n} for n in (1, 2, 4, 8, 16))


@REGISTRY.register("churn", grid=CHURN_GRID,
                   description="Multi-action churn: many concurrent top-level"
                               " CA actions sharing the network")
def churn_point(n_groups: int, iterations: int = 2, group_size: int = 3,
                t_msg: float = 0.05, t_resolution: float = 0.1,
                algorithm: str = "ours") -> Row:
    """One churn point: aggregate throughput of ``n_groups`` parallel actions."""
    return run_churn(n_groups, iterations=iterations, group_size=group_size,
                     t_msg=t_msg, t_resolution=t_resolution,
                     algorithm=algorithm)


#: The capacity grid: offered loads bracketing the default pool's nominal
#: service capacity (8 workers / width 2 / mean service 1.0 → 4 inst/s;
#: protocol and recovery overhead put the measured knee between 2 and 3).
CAPACITY_GRID = tuple({"offered_load": load}
                      for load in (0.5, 1.0, 2.0, 3.0, 4.0, 8.0))


@REGISTRY.register("capacity", grid=CAPACITY_GRID,
                   description="Offered-load sweep over a shared partition "
                               "pool: throughput/latency capacity curve")
def capacity_point(offered_load: float, **options) -> Row:
    """One capacity-curve point (see repro.workload.scenarios)."""
    from ..workload.scenarios import run_capacity_point
    return run_capacity_point(offered_load=offered_load, **options)


#: The mixed-traffic grid: three seeds of the heterogeneous soak, each a
#: fresh arrival schedule, job profile set and delay-noise plan.
MIXED_TRAFFIC_GRID = tuple({"seed": seed} for seed in (2026, 2027, 2028))


@REGISTRY.register("mixed_traffic", grid=MIXED_TRAFFIC_GRID,
                   description="Heterogeneous action mix + fault-plan noise "
                               "over one pool, checked by invariant oracles")
def mixed_traffic_point(seed: int, **options) -> Row:
    """One mixed-traffic soak run (see repro.workload.scenarios)."""
    from ..workload.scenarios import run_mixed_traffic
    return run_mixed_traffic(seed=seed, **options)


#: The transactional grid: offered loads over the default pool and the
#: default shared-account set (strict 2PL serialises conflicting
#: instances, so the measured knee sits below the capacity sweep's).
TRANSACTIONAL_GRID = tuple({"offered_load": load}
                           for load in (1.0, 2.0, 4.0))


@REGISTRY.register("transactional",
                   grid=TRANSACTIONAL_GRID,
                   description="Transactional CA workload: atomic objects, "
                               "strict 2PL locks and recovery under "
                               "concurrent instances, with the "
                               "no-lost-update / locks-released oracles")
def transactional_point(offered_load: float, **options) -> Row:
    """One transactional workload point (see repro.workload.transactional)."""
    from ..workload.transactional import run_transactional_point
    return run_transactional_point(offered_load=offered_load, **options)


#: The production-cell grid: three seeds of the open-loop case study,
#: each a fresh fault schedule and blank-arrival trace.
PRODUCTION_CELL_GRID = tuple({"seed": seed} for seed in (2026, 2027, 2028))


@REGISTRY.register("production_cell",
                   grid=PRODUCTION_CELL_GRID,
                   description="Production-cell case study under open-loop "
                               "traffic with seeded device faults, checked "
                               "by the invariant oracles")
def production_cell_point(seed: int, **options) -> Row:
    """One open-loop production-cell run (see repro.productioncell.workload)."""
    from ..productioncell.workload import run_production_cell_point
    return run_production_cell_point(seed=seed, **options)


#: The scale grid: a small sharded-capacity sweep (cheap enough for tests
#: and conformance; the committed ``BENCH_scale.json`` sweeps 10^4 → 10^6
#: through ``repro.bench.baseline --suite scale``).  ``pool_size`` is per
#: shard, so aggregate capacity scales with ``n_shards`` while the
#: offered load and instance count stay deployment totals.
SCALE_SEED = 2026
SCALE_GRID = (
    {"n_instances": 1000, "n_shards": 1, "offered_load": 6.0,
     "pool_size": 8, "seed": SCALE_SEED},
    {"n_instances": 1000, "n_shards": 2, "offered_load": 6.0,
     "pool_size": 8, "seed": SCALE_SEED},
    {"n_instances": 1000, "n_shards": 2, "offered_load": 6.0,
     "pool_size": 8, "seed": SCALE_SEED, "global_max_in_flight": 8},
)


@REGISTRY.register("scale", grid=SCALE_GRID,
                   description="Sharded partition pools: capacity workload "
                               "split across per-shard kernels with merged "
                               "telemetry and global admission leases")
def scale_point(n_instances: int, n_shards: int, offered_load: float,
                **options) -> Row:
    """One sharded capacity point (see repro.workload.sharding)."""
    from ..workload.sharding import run_scale_point
    return run_scale_point(n_instances=n_instances, n_shards=n_shards,
                           offered_load=offered_load, **options)
