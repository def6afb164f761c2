"""Reusable builders for the paper's experimental applications.

Two application systems are described in Section 5:

* **Experiment 1** (Figures 9 and 10): three threads take part in a CA
  action, two of them enter a further nested action, and the whole system is
  executed in a loop (20 times).  In the measured scenario one thread of the
  containing action raises an exception, the nested action has to be
  aborted, the abortion handler raises a second exception, and the resolving
  exception covering both is handled by all threads.  The three parameters
  ``Tmmax`` (message passing), ``Tabo`` (abortion) and ``Treso`` (resolution)
  are varied.

* **Experiment 2** (Figures 12 and 13): three threads enter a CA action and,
  after some computation, all of them raise *different* exceptions nearly at
  the same time, so resolution is always required.  The same application and
  the same resolution graph are run under the paper's algorithm and under
  the Campbell–Randell algorithm.

The builders below construct fully configured
:class:`~repro.runtime.system.DistributedCASystem` instances for those
scenarios (plus a generic N-thread scenario used by the message-complexity
benchmarks) and small runner functions returning the measured quantities;
Experiment 1's system and the shared scaffold come from
:mod:`repro.worlds`.  A scenario that names a world runs it all-local
here too (:func:`run_sim`), and :func:`assemble_result` judges its node
records the same way for the real backend (:mod:`repro.real`) that sits
above.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from .. import obs
from ..analysis.bounds import (
    messages_all_exceptions,
    messages_single_exception,
    theorem2_worst_case_messages,
)
from ..core.exception_graph import generate_full_graph, graph_statistics
from ..core.exceptions import internal
from ..net.network import MessageStatistics
from ..runtime.report import ActionStatus
from ..runtime.system import DistributedCASystem
from ..worlds import (EXPERIMENT1_ITERATIONS, FIGURE9_BASELINE,
                      NORMAL_COMPUTATION_TIME, BuiltNode, add_flat_raise,
                      build_experiment1, figure9_timing, new_system,
                      staggered_raises)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.oracles import OracleViolation, RunRecord

#: The parameter Figure 12 holds fixed while it varies the other.
FIGURE12_FIXED_TRES = 0.3
FIGURE12_FIXED_TMMAX = 1.0

#: Observation profile of node builds: spans only — events are plain
#: picklable dicts the real backend's children ship back to the hub.
_NODE_OBS = obs.ObsConfig(spans=True, metrics=False, flight_recorder=False)


@dataclass
class ExperimentResult:
    """Outcome of one experiment run."""

    total_time: float
    iterations: int
    protocol_messages: int
    resolution_calls: int
    reports: List = None

    @property
    def time_per_iteration(self) -> float:
        return self.total_time / max(1, self.iterations)


# ----------------------------------------------------------------------
# What every runner shares: a scenario's world, a finished run's totals
# ----------------------------------------------------------------------
def observed_node(scenario: str, point: Dict[str, Any],
                  local: Optional[str] = None, forward=None) -> BuiltNode:
    """The world of real-capable ``scenario`` at grid ``point``, observed:
    node ``local`` of a real-backend run (wire sends go to ``forward``),
    or the whole system when ``local`` is None.  The point is validated
    against the scenario's runner before anything is built.
    """
    from .engine import REGISTRY

    spec = REGISTRY.get(scenario)
    built = spec.real_world().build(**spec.bind_point(point), local=local,
                                    forward=forward)
    obs.observe_system(built.system, _NODE_OBS)
    return built


def run_totals(system: DistributedCASystem) -> Dict[str, object]:
    """The measured totals every result row of a finished run starts from."""
    return {
        "total_time": system.now,
        "protocol_messages": system.network.stats.protocol_messages(),
        "resolution_calls": sum(p.coordinator.resolution_calls
                                for p in system.partitions.values()),
    }


def _run_experiment(system: DistributedCASystem,
                    iterations: int) -> ExperimentResult:
    reports = system.run_to_completion()
    return ExperimentResult(iterations=iterations, reports=reports,
                            **run_totals(system))


# ----------------------------------------------------------------------
# Experiment 1: nested action aborted by an enclosing exception
# ----------------------------------------------------------------------
def run_experiment1(t_msg: float, t_abort: float, t_resolution: float,
                    iterations: int = EXPERIMENT1_ITERATIONS,
                    algorithm: str = "ours") -> ExperimentResult:
    """Run the Figure 9/10 scenario and return the measured totals."""
    return _run_experiment(
        build_experiment1(t_msg, t_abort, t_resolution, iterations,
                          algorithm), iterations)


def figure9_point(varying: str = "t_msg",
                  value: float = FIGURE9_BASELINE["t_msg"],
                  iterations: int = EXPERIMENT1_ITERATIONS,
                  algorithm: str = "ours") -> Dict[str, float]:
    """One Figure 9 grid point: sweep ``varying``, others at baseline."""
    result = run_experiment1(iterations=iterations, algorithm=algorithm,
                             **figure9_timing(varying, value))
    return {
        varying: value,
        "total_time": result.total_time,
        "time_per_iteration": result.time_per_iteration,
        "protocol_messages": result.protocol_messages,
    }


# ----------------------------------------------------------------------
# Experiment 2 and its family: a flat action whose threads raise at once
# ----------------------------------------------------------------------
def build_experiment2(t_msg: float, t_resolution: float,
                      algorithm: str = "ours",
                      iterations: int = 1,
                      n_threads: int = 3) -> DistributedCASystem:
    """Build the Figure 12/13 application system.

    ``n_threads`` threads enter one CA action, perform some computation and
    then all raise *different* exceptions nearly at the same time, forcing
    exception resolution on every iteration.
    """
    system = new_system(t_msg, algorithm, t_resolution)
    numbers = range(1, n_threads + 1)
    add_flat_raise(system, "Compare",
                   threads=[f"T{i}" for i in numbers],
                   roles=[f"r{i}" for i in numbers],
                   primitives=[internal(f"fault_{i}") for i in numbers],
                   raise_delays=staggered_raises(n_threads),
                   iterations=iterations)
    return system


def run_experiment2(t_msg: float, t_resolution: float,
                    algorithm: str = "ours",
                    iterations: int = 1,
                    n_threads: int = 3) -> ExperimentResult:
    """Run the Figure 12/13 scenario for one algorithm."""
    return _run_experiment(
        build_experiment2(t_msg, t_resolution, algorithm, iterations,
                          n_threads), iterations)


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


def figure12_tmmax_point(t_msg: float,
                         t_resolution: float = FIGURE12_FIXED_TRES,
                         iterations: int = 1) -> Dict[str, float]:
    """One Figure 12 point varying ``Tmmax`` at fixed ``Tres``."""
    return {"t_msg": t_msg,
            **_figure12_comparison(t_msg, t_resolution, iterations)}


def figure12_tres_point(t_res: float, t_msg: float = FIGURE12_FIXED_TMMAX,
                        iterations: int = 1) -> Dict[str, float]:
    """One Figure 12 point varying ``Tres`` at fixed ``Tmmax``."""
    return {"t_res": t_res,
            **_figure12_comparison(t_msg, t_res, iterations)}


# ----------------------------------------------------------------------
# Generic message-complexity scenario (Theorem 2 / Section 3.2.3)
# ----------------------------------------------------------------------
def run_complexity_scenario(n_threads: int, n_exceptions: int,
                            algorithm: str = "ours") -> Dict[str, int]:
    """Run an N-thread action where ``n_exceptions`` threads raise concurrently.

    Returns the per-type protocol-message counts and the total, which the
    complexity benchmarks compare against the analytic formulas.
    """
    if not 1 <= n_exceptions <= n_threads:
        raise ValueError("need 1 <= n_exceptions <= n_threads")
    system = new_system(0.01, algorithm)
    add_flat_raise(
        system, "Complexity",
        threads=[f"T{i:02d}" for i in range(1, n_threads + 1)],
        roles=[f"r{i}" for i in range(n_threads)],
        primitives=[internal(f"fault_{i}")
                    for i in range(1, n_exceptions + 1)],
        raise_delays=[0.5] * n_exceptions, idle_delay=5.0,
        handler_time=None, max_level=1)
    system.run_to_completion()

    stats = system.network.stats
    totals = run_totals(system)
    return {
        "by_type": dict(stats.by_type),
        "resolution_messages": stats.resolution_messages(),
        "signalling_messages": stats.count("ToBeSignalledMessage"),
        "resolution_calls": totals["resolution_calls"],
        "total_time": totals["total_time"],
    }


def large_n_point(n_threads: int, n_exceptions: int = 1,
                  algorithm: str = "ours") -> Dict[str, object]:
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


# ----------------------------------------------------------------------
# Multi-action churn: many concurrent top-level actions share the network
# ----------------------------------------------------------------------
def build_churn(n_groups: int, iterations: int = 1, group_size: int = 3,
                t_msg: float = 0.05, t_resolution: float = 0.1,
                algorithm: str = "ours") -> DistributedCASystem:
    """Build a system with ``n_groups`` independent concurrent CA actions.

    Each group has ``group_size`` dedicated threads running its own
    top-level action in a loop; in every iteration one thread of the group
    raises an exception that all group members recover from.  All groups
    share one simulated network, so the scenario measures how the runtime
    behaves when many unrelated actions generate protocol traffic at the
    same time (a workload the paper's three-thread experiments never
    exercise).
    """
    if n_groups < 1:
        raise ValueError("need at least one group")
    if group_size < 2:
        raise ValueError("churn groups need at least two threads")
    if iterations < 1:
        raise ValueError("need at least one iteration")
    system = new_system(t_msg, algorithm, t_resolution)
    members = range(1, group_size + 1)
    for group in range(n_groups):
        add_flat_raise(
            system, f"Churn{group:02d}",
            threads=[f"G{group:02d}T{i}" for i in members],
            roles=[f"w{i}" for i in members],
            primitives=[internal(f"churn_fault_{group:02d}")],
            raise_delays=[NORMAL_COMPUTATION_TIME + 0.001 * group],
            idle_delay=10.0 * NORMAL_COMPUTATION_TIME, iterations=iterations)
    return system


def build_wide_graph(n_threads: int = 8, n_primitives: int = 12,
                     max_level: int = 3, iterations: int = 2,
                     t_msg: float = 0.05, t_resolution: float = 0.05,
                     algorithm: str = "ours") -> DistributedCASystem:
    """Build the resolution-heavy wide-graph scenario.

    ``n_threads`` threads enter one CA action whose exception graph has
    ``n_primitives`` primitive exceptions and is truncated at ``max_level``
    (the paper's third simplification rule) — with the defaults that is a
    794-node graph.  Every iteration is an *all-raise storm*: each thread
    raises its own primitive nearly simultaneously, so the resolver performs
    a full set-cover resolution over the wide graph on every pass.  With
    more raised primitives than ``max_level + 1`` the storm resolves to the
    universal exception, exactly as the truncation rule prescribes.

    The scenario exists to exercise resolution itself (the compiled graph
    index) rather than the messaging pattern, which the ``large_n`` sweep
    already covers.
    """
    if n_threads < 2:
        raise ValueError("need at least two threads for a storm")
    if n_primitives < n_threads:
        raise ValueError("need at least one primitive per thread")
    system = new_system(t_msg, algorithm, t_resolution)
    numbers = range(1, n_threads + 1)
    add_flat_raise(
        system, "WideGraph",
        threads=[f"T{i}" for i in numbers], roles=[f"r{i}" for i in numbers],
        primitives=[internal(f"storm_{i:02d}") for i in range(n_primitives)],
        raise_delays=staggered_raises(n_threads), max_level=max_level,
        iterations=iterations)
    return system


def run_wide_graph(n_threads: int = 8, n_primitives: int = 12,
                   max_level: int = 3, iterations: int = 2,
                   t_msg: float = 0.05, t_resolution: float = 0.05,
                   algorithm: str = "ours") -> Dict[str, object]:
    """Run the wide-graph storm and return one (JSON-serializable) row."""
    system = build_wide_graph(n_threads, n_primitives, max_level, iterations,
                              t_msg, t_resolution, algorithm)
    graph = system.registry.get("WideGraph").graph
    stats = graph_statistics(graph)
    wall_start = time.perf_counter()
    reports = system.run_to_completion()
    wall_seconds = time.perf_counter() - wall_start
    recovered = sum(1 for per_thread in reports for report in per_thread
                    if report.status is ActionStatus.RECOVERED)
    return {
        "n_threads": n_threads,
        "n_primitives": n_primitives,
        "max_level": max_level,
        "iterations": iterations,
        "graph_nodes": stats["nodes"],
        "recovered": recovered,
        "wall_seconds": wall_seconds,
        **run_totals(system),
        "message_stats": system.network.stats.snapshot(),
    }


# ----------------------------------------------------------------------
# Remote counter: external atomic objects behind an RPC object host
# ----------------------------------------------------------------------
def remote_counter_point(iterations: int = 3, limit: int = 1,
                         algorithm: str = "ours", t_msg: float = 0.1,
                         t_resolution: float = 0.2, t_abort: float = 0.1,
                         rpc_timeout: float = 60.0) -> Dict[str, Any]:
    """One all-local run of ``remote_counter``, reported like a real run."""
    point = {"iterations": iterations, "limit": limit,
             "algorithm": algorithm, "t_msg": t_msg,
             "t_resolution": t_resolution, "t_abort": t_abort,
             "rpc_timeout": rpc_timeout}
    return run_sim("remote_counter", **point).row(point)


# ----------------------------------------------------------------------
# Judging a node-declared run, on either execution backend
# ----------------------------------------------------------------------
@dataclass
class RealRunResult:
    """Outcome of one scenario run, identical in shape on both backends."""

    scenario: str
    backend: str
    params: Dict[str, Any]
    #: Oracle violations over :attr:`record` ([] == run passed).
    violations: List[OracleViolation]
    #: (action, status) -> number of concluded participations.
    outcomes: Dict[Tuple[str, str], int]
    #: Merged message-statistics snapshot.
    stats: Dict[str, Any]
    #: The per-node final frames, ``{"record", "stats", "obs_events",
    #: ...}`` ("sim" is the single key on the sim backend).
    records: Dict[str, Dict[str, Any]]
    #: The nodes' oracle records merged in node order: what
    #: :attr:`violations` judged.
    record: RunRecord
    #: Nodes whose process died / connection dropped before finalizing.
    crashed: List[str] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def row(self, point: Dict[str, Any]) -> Dict[str, Any]:
        """The run as ``point``'s sweep row: the same keys on both backends."""
        return {
            **point,
            "backend": self.backend,
            "n_violations": len(self.violations),
            "violations": [str(violation) for violation in self.violations],
            "outcomes": {f"{action}/{status}": count
                         for (action, status), count
                         in sorted(self.outcomes.items())},
            "crashed": list(self.crashed),
            "counters": list(self.record.counters),
            "by_type": dict(sorted(self.stats["by_type"].items())),
            "wall_seconds": self.wall_time,
        }


def collect_record(built: BuiltNode,
                   local: Optional[str] = None) -> Dict[str, Any]:
    """One node's final frame: its oracle record plus what the hub merges
    beside it (message statistics, bridged obs events).

    Everything in it is plain picklable data; ``local`` filters the
    quiescence snapshots to the node's own partition (see
    :meth:`~repro.runtime.monitor.InvariantMonitor.record`).
    """
    system = built.system
    return {"record": built.monitor.record(local),
            "stats": system.network.stats.snapshot(),
            "obs_events": list(system.observation.events or [])}


def outcome_counts(frames: List[Dict[str, Any]]
                   ) -> Dict[Tuple[str, str], int]:
    """(action, status) conclusion counts from the bridged obs events."""
    counts: Counter = Counter()
    for frame in frames:
        for event in frame["obs_events"]:
            if event.get("kind") == "action.concluded":
                counts[(event.get("action"), event.get("status"))] += 1
    return dict(counts)


def assemble_result(scenario: str, backend: str,
                    records: Dict[str, Dict[str, Any]],
                    crashed: List[str], wall_time: float,
                    params: Optional[Dict[str, Any]] = None) -> RealRunResult:
    """Merge the nodes' final frames and judge them with the oracles."""
    from ..core import oracles

    frames = [frame for _, frame in sorted(records.items())]
    merged = oracles.RunRecord.merge(frame["record"] for frame in frames)
    stats = MessageStatistics()
    for frame in frames:
        stats.merge(frame["stats"])
    return RealRunResult(
        scenario=scenario, backend=backend, params=dict(params or {}),
        # A run with injected crashes is allowed to strand participations
        # (the paper's liveness guarantees assume delivery).
        violations=oracles.check(merged, require_liveness=not crashed),
        outcomes=outcome_counts(frames), stats=stats.snapshot(),
        records=records, record=merged, crashed=sorted(crashed),
        wall_time=wall_time)


def run_sim(name: str, **overrides: Any) -> RealRunResult:
    """Run a real-capable scenario all-local on the deterministic sim kernel.

    Returns the same :class:`RealRunResult` shape as
    :meth:`repro.real.RealBackend.run`, which is what the parity tests
    compare.
    """
    built = observed_node(name, overrides)
    built.system.kernel.run()
    return assemble_result(name, "sim", {"sim": collect_record(built)},
                           crashed=[], wall_time=0.0)


# ----------------------------------------------------------------------
# Graph microbenchmark: compiled resolution without any runtime
# ----------------------------------------------------------------------
def run_graph_microbench(n_primitives: int = 12, max_level: int = 3,
                         resolve_calls: int = 100, sample_size: int = 6,
                         naive_calls: int = 3, seed: int = 7
                         ) -> Dict[str, object]:
    """Time graph generation, statistics and a ``resolve()`` loop.

    Measures the compiled hot path (and, for perspective, a few calls of the
    naive reference scan) on a ``generate_full_graph`` instance.  Wall-clock
    fields vary run to run, which is why ``graph_microbench`` is the one
    scenario exempt from conformance digests.
    """
    rng = random.Random(seed)
    primitives = [internal(f"mb_{i:02d}") for i in range(n_primitives)]

    start = time.perf_counter()
    graph = generate_full_graph(primitives, max_level=max_level,
                                action_name="microbench")
    build_seconds = time.perf_counter() - start

    start = time.perf_counter()
    stats = graph_statistics(graph)
    stats_seconds = time.perf_counter() - start

    draws = [rng.sample(primitives, rng.randint(1, min(sample_size,
                                                       n_primitives)))
             for _ in range(resolve_calls)]
    start = time.perf_counter()
    for raised in draws:
        graph.resolve(raised)
    resolve_seconds = time.perf_counter() - start

    naive_seconds_per_call = None
    if naive_calls > 0:
        start = time.perf_counter()
        naive_results = [graph.resolve_naive(raised)
                         for raised in draws[:naive_calls]]
        naive_seconds_per_call = (time.perf_counter() - start) / naive_calls
        compiled_results = [graph.resolve(raised)
                            for raised in draws[:naive_calls]]
        if naive_results != compiled_results:
            raise RuntimeError(
                "compiled resolve() diverged from the naive reference: "
                f"{naive_results} != {compiled_results}")

    per_call = resolve_seconds / max(1, resolve_calls)
    return {
        "n_primitives": n_primitives,
        "max_level": max_level,
        "nodes": stats["nodes"],
        "build_seconds": build_seconds,
        "stats_seconds": stats_seconds,
        "resolve_calls": resolve_calls,
        "resolve_seconds": resolve_seconds,
        "resolve_us_per_call": per_call * 1e6,
        "naive_seconds_per_call": naive_seconds_per_call,
        "speedup_vs_naive": (naive_seconds_per_call / per_call
                             if naive_seconds_per_call is not None else None),
    }


def run_churn(n_groups: int, iterations: int = 2, group_size: int = 3,
              t_msg: float = 0.05, t_resolution: float = 0.1,
              algorithm: str = "ours") -> Dict[str, float]:
    """Run the churn scenario and return aggregate throughput figures."""
    system = build_churn(n_groups, iterations, group_size, t_msg,
                         t_resolution, algorithm)
    reports = system.run_to_completion()
    recovered = sum(1 for per_thread in reports for report in per_thread
                    if report.status is ActionStatus.RECOVERED)
    # Measured: an action instance counts as completed only when every one
    # of its participants recovered.  Programs are spawned group by group,
    # so reports[g*group_size:(g+1)*group_size] are one group's threads.
    completed = 0
    for group in range(n_groups):
        members = reports[group * group_size:(group + 1) * group_size]
        for iteration in range(iterations):
            if all(member[iteration].status is ActionStatus.RECOVERED
                   for member in members):
                completed += 1
    attempted = n_groups * iterations
    protocol_messages = system.network.stats.protocol_messages()
    return {
        "n_groups": n_groups,
        "actions_attempted": attempted,
        "actions_completed": completed,
        "participations_recovered": recovered,
        "total_time": system.now,
        "protocol_messages": protocol_messages,
        "messages_per_action": protocol_messages / attempted,
        "resolutions": system.metrics.resolutions,
    }
