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
benchmarks) and small runner functions returning the measured quantities.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from .. import obs
from ..core.action import CAActionDefinition, RoleDefinition
from ..core.exception_graph import (
    ExceptionGraph,
    generate_full_graph,
    graph_statistics,
)
from ..core.exceptions import internal
from ..core.handlers import HandlerMap, HandlerResult
from ..explore.targets import (
    HANDLER_TIME,
    NORMAL_COMPUTATION_TIME,
    add_flat_raise,
    delay_handler,
    install_action,
    staggered_raises,
)
from ..net.latency import ConstantLatency
from ..runtime.config import RuntimeConfig
from ..runtime.report import ActionStatus
from ..runtime.system import DistributedCASystem
from ..simkernel.kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover
    from ..explore.monitor import InvariantMonitor

#: Default loop count of experiment 1 ("executed in a loop (20 times)").
EXPERIMENT1_ITERATIONS = 20

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


@dataclass
class BuiltNode:
    """One node's (or the all-local sim run's) constructed world.

    What a scenario's node builder (``Scenario.build``) returns: the
    system (observed: its span events are on ``system.observation``) plus
    the monitor whose records the real backend merges across processes
    (see :mod:`repro.net.real`).
    """

    system: DistributedCASystem
    monitor: InvariantMonitor


# ----------------------------------------------------------------------
# The scaffold every builder shares
# ----------------------------------------------------------------------
def new_system(t_msg: float, algorithm: str = "ours",
               t_resolution: float = 0.0, t_abort: float = 0.0,
               local: Optional[str] = None, forward=None,
               **options) -> DistributedCASystem:
    """A system with constant message latency ``t_msg`` (the paper's Tmmax).

    All-local on the sim network by default (``options`` pass ``faults`` /
    ``kernel`` / ``keep_trace`` through).  With ``local`` set, this
    process is node ``local`` of a real-backend run: the network delivers
    locally only to that node and hands everything else to ``forward``.
    """
    config = RuntimeConfig(algorithm=algorithm, resolution_time=t_resolution,
                           abort_time=t_abort)
    latency = ConstantLatency(t_msg)
    if local is None:
        return DistributedCASystem(config, latency=latency, **options)
    from ..net.real.realnet import RealNetwork
    kernel = Kernel()
    return DistributedCASystem(
        config, kernel=kernel,
        network=RealNetwork(kernel, latency, local={local}, forward=forward))


def observed_node(system: DistributedCASystem) -> BuiltNode:
    """Attach the monitor and span observation a node's record comes from."""
    from ..explore.monitor import InvariantMonitor

    monitor = InvariantMonitor(system)
    obs.observe_system(system, _NODE_OBS)
    return BuiltNode(system, monitor)


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
def build_experiment1(t_msg: float, t_abort: float, t_resolution: float,
                      iterations: int = EXPERIMENT1_ITERATIONS,
                      algorithm: str = "ours",
                      local: Optional[str] = None,
                      forward=None) -> DistributedCASystem:
    """Build the Figure 9/10 application system.

    Threads ``T1``–``T3`` participate in the containing action ``Outer``;
    ``T2`` and ``T3`` additionally enter the nested action ``Inner``.  Each
    iteration: T1 raises ``outer_fault`` in ``Outer`` while T2/T3 are inside
    ``Inner``; the nested action is aborted; the abortion handlers signal
    ``abort_residue``; both exceptions are resolved into their covering
    exception, which every thread handles.

    ``local``/``forward`` build one node of a real-backend run (see
    :func:`new_system` and :func:`install_action`).
    """
    system = new_system(t_msg, algorithm, t_resolution, t_abort,
                        local=local, forward=forward)
    system.add_threads(["T1", "T2", "T3"])
    system.create_object("plant", {"state": "idle", "processed": 0})

    outer_fault = internal("outer_fault")
    abort_residue = internal("abort_residue")
    outer_graph = generate_full_graph([outer_fault, abort_residue],
                                      action_name="Outer")

    def resolving_handler(ctx):
        yield ctx.delay(HANDLER_TIME)
        ctx.write("plant", "state", "repaired")
        return HandlerResult.success()

    def abortion_handler(ctx):
        return HandlerResult.signal(abort_residue)

    def inner_role(ctx):
        # Long-running cooperative work, interrupted by the outer exception.
        yield ctx.delay(50.0 * NORMAL_COMPUTATION_TIME)
        return "inner-done"

    inner = CAActionDefinition(
        "Inner",
        [RoleDefinition(role, inner_role,
                        HandlerMap(abortion_handler=abortion_handler,
                                   default_handler=resolving_handler))
         for role in ("b1", "b2")],
        graph=ExceptionGraph("Inner"), parent="Outer")

    def raising_role(ctx):
        yield ctx.delay(NORMAL_COMPUTATION_TIME)
        ctx.raise_exception(outer_fault)

    def nesting_role(role_name):
        def body(ctx):
            yield ctx.delay(0.1)
            report = yield from ctx.perform_nested("Inner", role_name)
            return report
        return body

    outer = CAActionDefinition(
        "Outer",
        [RoleDefinition(role, body,
                        HandlerMap(default_handler=resolving_handler))
         for role, body in (("a1", raising_role),
                            ("a2", nesting_role("b1")),
                            ("a3", nesting_role("b2")))],
        internal_exceptions=[outer_fault, abort_residue], graph=outer_graph,
        external_objects=["plant"])

    system.define_action(inner)
    system.bind("Inner", {"b1": "T2", "b2": "T3"})
    install_action(system, outer, {"a1": "T1", "a2": "T2", "a3": "T3"},
                   iterations, local)
    return system


def run_experiment1(t_msg: float, t_abort: float, t_resolution: float,
                    iterations: int = EXPERIMENT1_ITERATIONS,
                    algorithm: str = "ours") -> ExperimentResult:
    """Run the Figure 9/10 scenario and return the measured totals."""
    return _run_experiment(
        build_experiment1(t_msg, t_abort, t_resolution, iterations,
                          algorithm), iterations)


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
def build_remote_counter(iterations: int = 3, limit: int = 1,
                         algorithm: str = "ours", t_msg: float = 0.1,
                         t_resolution: float = 0.2, t_abort: float = 0.1,
                         rpc_timeout: float = 60.0,
                         local: Optional[str] = None,
                         forward=None) -> BuiltNode:
    """Workers ``W1``/``W2`` increment a counter hosted on ``objhost``.

    Every object access crosses the RPC layer — locks, reads, writes,
    commit — in *both* backends, so the sim run exercises exactly the
    code path the real processes do.  ``W1`` reads the counter under an
    exclusive lock, writes ``value + 1``, and raises ``overdraft`` once
    the value it read reaches ``limit`` (deterministic from the
    authoritative host state); the resolved exception is handled by
    both workers and the action still commits.
    """
    from ..net.rpc import RpcEndpoint
    from ..objects.remote import ObjectHostService, install_remote_objects

    system = new_system(t_msg, algorithm, t_resolution, t_abort,
                        local=local, forward=forward)
    network = system.network
    system.add_threads(["W1", "W2"])

    hosts_object = local is None or local == "objhost"
    if hosts_object:
        # The endpoint keeps the service (its registered procedures) alive.
        system.create_object("acct", {"value": 0})
        ObjectHostService(RpcEndpoint(network.add_node("objhost"), network),
                          system.transactions)

    # drain=False: the partition dispatcher owns the inbox and routes RPC
    # payloads to the endpoint (see Dispatcher).
    endpoints = {worker: RpcEndpoint(network.node(worker), network,
                                     drain=False)
                 for worker in ("W1", "W2")
                 if local is None or local == worker}
    if endpoints:
        designated = endpoints[local if local in endpoints else "W1"]
        install_remote_objects(
            system, lambda _instance_key: designated, "objhost",
            timeout=rpc_timeout)

    overdraft = internal("overdraft")
    handled = delay_handler(0.1)

    def u1_body(ctx):
        txn = ctx.transaction
        yield txn.lock("acct")
        value = yield txn.read("acct", "value")
        txn.write("acct", "value", value + 1)
        yield ctx.delay(0.2)
        if value >= limit:
            ctx.raise_exception(overdraft)
        return value

    def u2_body(ctx):
        yield ctx.delay(0.4)
        return "ok"

    transfer = CAActionDefinition(
        "Transfer",
        [RoleDefinition("u1", u1_body, HandlerMap(default_handler=handled)),
         RoleDefinition("u2", u2_body, HandlerMap(default_handler=handled))],
        internal_exceptions=[overdraft],
        graph=generate_full_graph([overdraft], action_name="Transfer"),
        external_objects=["acct"])
    install_action(system, transfer, {"u1": "W1", "u2": "W2"}, iterations,
                   local)
    built = observed_node(system)
    if hosts_object:
        # The no-lost-update oracle runs where the authoritative copy is.
        built.monitor.track_counter("acct", "value")
    return built


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


def run_churn(n_groups: int, iterations: int = 1, group_size: int = 3,
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
