"""The catalogue of worlds, and the scaffold every application is built from.

A *world* is a named, deterministic application builder.  Given its own
parameters plus a fault plan, a schedule seed (``tie_seed``) and an
algorithm, it returns a :class:`BuiltNode`: the spawned system and its
invariant monitor, with no observation attached.  A world that a
real-capable scenario names also takes ``local`` and ``forward``, which
build one node of a real-backend run.  :data:`WORLDS` holds
``nested_abort``, ``concurrent_raises``, ``figure9`` (Experiment 1) and
``remote_counter``; the explorer (:mod:`repro.explore`) builds cases from
them, and a real-capable bench scenario names one, which the sim path
and the real backend (:mod:`repro.real`) build without learning which
runtime runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from .core.action import CAActionDefinition, RoleDefinition
from .core.exception_graph import ExceptionGraph, generate_full_graph
from .core.exceptions import ExceptionDescriptor, internal
from .core.handlers import HandlerMap, HandlerResult
from .core.registry import (ParamSpec, ParamValidationError, Registry,
                            params_from_callable, validate_params)
from .net.faults import FaultPlan
from .net.latency import ConstantLatency
from .runtime.config import RuntimeConfig
from .runtime.system import DistributedCASystem
from .simkernel.kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover
    from .runtime.monitor import InvariantMonitor

# ----------------------------------------------------------------------
# The scaffold every application is built from
# ----------------------------------------------------------------------
#: Amount of "normal computation" virtual time each role performs before the
#: exception scenario unfolds; a fixed constant shared by both experiments so
#: the measured totals are dominated by the swept parameters, as in the paper.
NORMAL_COMPUTATION_TIME = 1.0

#: Duration of the resolving-exception handlers (the paper's Δ).
HANDLER_TIME = 0.2


def delay_handler(duration: float):
    """A resolving handler that takes ``duration`` and succeeds."""
    def handler(ctx):
        yield ctx.delay(duration)
        return HandlerResult.success()
    return handler


def action_program(action: str, role: str, iterations: Optional[int] = None):
    """A thread program performing ``action`` as ``role``.

    Once, returning the report (``iterations=None``), or ``iterations``
    times in a loop, returning the list of reports.
    """
    def program(ctx):
        if iterations is None:
            return (yield from ctx.perform_action(action, role))
        reports = []
        for _ in range(iterations):
            report = yield from ctx.perform_action(action, role)
            reports.append(report)
        return reports
    return program


def install_action(system: DistributedCASystem,
                   definition: CAActionDefinition, binding: Dict[str, str],
                   iterations: Optional[int] = 1,
                   local: Optional[str] = None) -> None:
    """Define and bind a top-level action and spawn its threads' programs.

    Programs are spawned in ``binding`` order; a real-backend node builds
    the whole system but spawns only its ``local`` thread's program.
    """
    system.define_action(definition)
    system.bind(definition.name, binding)
    for role, thread in binding.items():
        if local is None or local == thread:
            system.spawn(thread,
                         action_program(definition.name, role, iterations))


def flat_raise_definition(action: str, roles: Sequence[str],
                          primitives: Sequence[ExceptionDescriptor],
                          raise_delays: Sequence[float],
                          idle_delay: float = 0.0,
                          handler_time: Optional[float] = HANDLER_TIME,
                          max_level: Optional[int] = None
                          ) -> CAActionDefinition:
    """The flat raise-storm action definition (the Experiment 2 shape).

    The first ``len(raise_delays)`` roles compute for ``raise_delays[i]``
    and then raise ``primitives[i]``; the remaining roles compute for
    ``idle_delay`` and finish normally.  The exception graph is the full
    graph over ``primitives`` (truncated at ``max_level``), and every role
    handles the resolved exception for ``handler_time`` (``None``: an
    instantaneous, non-generator handler).  The definition holds no
    per-system state, so any number of systems may share it.
    """
    graph = generate_full_graph(primitives, max_level=max_level,
                                action_name=action)
    if handler_time is None:
        def handler(ctx):
            return HandlerResult.success()
    else:
        handler = delay_handler(handler_time)

    def raising_role(delay, exception):
        def body(ctx):
            yield ctx.delay(delay)
            ctx.raise_exception(exception)
        return body

    def idle_role(ctx):
        yield ctx.delay(idle_delay)

    bodies = [raising_role(delay, exception)
              for delay, exception in zip(raise_delays, primitives)]
    bodies += [idle_role] * (len(roles) - len(bodies))
    return CAActionDefinition(
        action,
        [RoleDefinition(role, body, HandlerMap(default_handler=handler))
         for role, body in zip(roles, bodies)],
        internal_exceptions=list(primitives), graph=graph)


def add_flat_raise(system: DistributedCASystem, action: str,
                   threads: Sequence[str], roles: Sequence[str],
                   primitives: Sequence[ExceptionDescriptor],
                   raise_delays: Sequence[float], idle_delay: float = 0.0,
                   handler_time: Optional[float] = HANDLER_TIME,
                   max_level: Optional[int] = None,
                   iterations: Optional[int] = 1) -> None:
    """Add one flat raise-storm action to ``system``.

    ``threads[i]`` plays ``roles[i]``; the action is
    :func:`flat_raise_definition` over the remaining arguments.
    """
    system.add_threads(threads)
    definition = flat_raise_definition(
        action, roles, primitives, raise_delays, idle_delay=idle_delay,
        handler_time=handler_time, max_level=max_level)
    install_action(system, definition, dict(zip(roles, threads)), iterations)


def staggered_raises(count: int) -> List[float]:
    """Raise times one millisecond apart: "nearly at the same time"."""
    return [NORMAL_COMPUTATION_TIME + 0.001 * index for index in range(count)]


def new_system(t_msg: float, algorithm: str = "ours",
               t_resolution: float = 0.0, t_abort: float = 0.0,
               faults: Optional[FaultPlan] = None,
               tie_seed: Optional[int] = None, local: Optional[str] = None,
               forward=None) -> DistributedCASystem:
    """A system with constant message latency ``t_msg`` (the paper's Tmmax).

    All-local under ``faults`` and schedule seed ``tie_seed`` by default.
    With ``local`` set, this process is node ``local`` of a real-backend
    run: the network delivers locally only to that node and hands
    everything else to ``forward``, which no fault plan acts on.
    """
    if local is not None and faults is not None:
        raise ValueError("a real-backend node (local=...) takes no faults")
    config = RuntimeConfig(algorithm=algorithm, resolution_time=t_resolution,
                           abort_time=t_abort)
    latency = ConstantLatency(t_msg)
    kernel = Kernel(tie_seed=tie_seed)
    if local is None:
        return DistributedCASystem(config, latency=latency, faults=faults,
                                   kernel=kernel)
    from .net.realnet import RealNetwork
    return DistributedCASystem(
        config, kernel=kernel,
        network=RealNetwork(kernel, latency, local={local}, forward=forward))


# ----------------------------------------------------------------------
# The world contract and the catalogue
# ----------------------------------------------------------------------
@dataclass
class BuiltNode:
    """One node's (or the all-local run's) constructed world: the system
    and the monitor whose record the oracles judge."""

    system: DistributedCASystem
    monitor: InvariantMonitor


@dataclass(frozen=True)
class World:
    """A named application: its nodes and its builder, whose signature
    declares the parameters :meth:`build` checks."""

    name: str
    #: Every network node of the system: one OS process each on the real
    #: backend, the link endpoints of the explorer's fault plans.
    nodes: Tuple[str, ...]
    builder: Callable[..., BuiltNode]

    @cached_property
    def _declared(self) -> Tuple[Tuple[ParamSpec, ...], bool]:
        return params_from_callable(self.builder)

    def build(self, **params) -> BuiltNode:
        """The world under ``params``; a misspelt or mistyped one raises
        :class:`~repro.core.registry.ParamValidationError`."""
        declared, accepts_extra = self._declared
        errors = validate_params(f"world {self.name!r}", declared,
                                 accepts_extra, params)
        if errors:
            raise ParamValidationError(errors)
        return self.builder(**params)


#: The catalogue: every world, by name (declared at the end of the module).
WORLDS: Registry[World] = Registry()
WORLDS.kind = "world"


def _monitored(system: DistributedCASystem) -> BuiltNode:
    """``system`` with the invariant monitor its record comes from."""
    from .runtime.monitor import InvariantMonitor

    return BuiltNode(system, InvariantMonitor(system))


# ----------------------------------------------------------------------
# nested_abort: the abortion-window scenario
# ----------------------------------------------------------------------
OUTER_FAULT = internal("outer_fault")
ABORT_RESIDUE = internal("abort_residue")
INNER_FAULT = internal("inner_fault")


@cache
def _nested_abort_definitions() -> Tuple[CAActionDefinition,
                                         CAActionDefinition]:
    """``Inner`` and ``Outer``: built on first use, shared by every case."""
    outer_graph = generate_full_graph([OUTER_FAULT, ABORT_RESIDUE],
                                      action_name="Outer")
    inner_graph = generate_full_graph([INNER_FAULT], action_name="Inner")

    outer_handler = delay_handler(0.2)
    # Keeps the nested participants inside the (abort-interruptible)
    # handling phase when the outer exception arrives.
    slow_inner_handler = delay_handler(10.0)

    def signal_residue(ctx):
        return HandlerResult.signal(ABORT_RESIDUE)

    def inner_raiser(ctx):
        yield ctx.delay(1.0)
        ctx.raise_exception(INNER_FAULT)

    def inner_worker(ctx):
        yield ctx.delay(50.0)

    inner = CAActionDefinition(
        "Inner",
        [RoleDefinition("b2", inner_raiser,
                        HandlerMap(default_handler=slow_inner_handler)),
         RoleDefinition("b3", inner_worker,
                        HandlerMap(abortion_handler=signal_residue,
                                   default_handler=slow_inner_handler))],
        internal_exceptions=[INNER_FAULT], graph=inner_graph, parent="Outer")

    def outer_raiser(ctx):
        yield ctx.delay(2.0)
        ctx.raise_exception(OUTER_FAULT)

    def nesting_role(role):
        def body(ctx):
            yield ctx.delay(0.1)
            report = yield from ctx.perform_nested("Inner", role)
            return report
        return body

    outer = CAActionDefinition(
        "Outer",
        [RoleDefinition("a1", outer_raiser,
                        HandlerMap(default_handler=outer_handler)),
         RoleDefinition("a2", nesting_role("b2"),
                        HandlerMap(default_handler=outer_handler)),
         RoleDefinition("a3", nesting_role("b3"),
                        HandlerMap(default_handler=outer_handler))],
        internal_exceptions=[OUTER_FAULT, ABORT_RESIDUE], graph=outer_graph)
    return inner, outer


def nested_abort(algorithm: str = "ours", faults: Optional[FaultPlan] = None,
                 tie_seed: Optional[int] = None) -> BuiltNode:
    """Nested action aborted while its resolution is still in flight.

    ``T1``–``T3`` run ``Outer``; ``T2``/``T3`` enter the nested ``Inner``.
    ``T2`` raises in ``Inner`` at t=1 and (as the largest exceptional
    thread) resolves it; its handler is slow, so when ``T1`` raises in
    ``Outer`` at t=2 both nested participants abort ``Inner`` — ``T3``
    possibly while the Inner ``Commit`` is still travelling toward it.
    The abortion handler signals ``abort_residue``, and all three threads
    recover through the ``abort_residue&outer_fault`` cover.
    """
    system = new_system(0.1, algorithm, t_abort=3.0, faults=faults,
                        tie_seed=tie_seed)
    system.add_threads(["T1", "T2", "T3"])
    inner, outer = _nested_abort_definitions()
    system.define_action(inner)
    system.bind("Inner", {"b2": "T2", "b3": "T3"})
    install_action(system, outer, {"a1": "T1", "a2": "T2", "a3": "T3"},
                   iterations=None)
    return _monitored(system)


# ----------------------------------------------------------------------
# concurrent_raises: the Figure 12 shape
# ----------------------------------------------------------------------
@cache
def _concurrent_definition() -> CAActionDefinition:
    """``Concurrent``: built on first use, shared by every case."""
    return flat_raise_definition(
        "Concurrent", roles=["r1", "r2", "r3"],
        primitives=[internal(f"fault_{i}") for i in (1, 2, 3)],
        raise_delays=staggered_raises(3))


def concurrent_raises(algorithm: str = "ours",
                      faults: Optional[FaultPlan] = None,
                      tie_seed: Optional[int] = None) -> BuiltNode:
    """Three threads raise different exceptions nearly simultaneously.

    The paper's Experiment 2 application (one pass) built by the same
    flat-raise scaffold as the Figure 12 scenario.
    """
    system = new_system(0.1, algorithm, t_resolution=0.1, faults=faults,
                        tie_seed=tie_seed)
    system.add_threads(["T1", "T2", "T3"])
    install_action(system, _concurrent_definition(),
                   {"r1": "T1", "r2": "T2", "r3": "T3"}, iterations=None)
    return _monitored(system)


# ----------------------------------------------------------------------
# figure9: Experiment 1, a nested action aborted by an enclosing exception
# ----------------------------------------------------------------------
#: Default loop count of experiment 1 ("executed in a loop (20 times)").
EXPERIMENT1_ITERATIONS = 20

#: Baseline parameter values (the first row of each Figure 9 column).
FIGURE9_BASELINE = {"t_msg": 0.2, "t_abort": 0.1, "t_resolution": 0.3}


def figure9_timing(varying: str, value: float) -> Dict[str, float]:
    """Experiment 1's three durations: ``varying`` swept, others baseline."""
    if varying not in FIGURE9_BASELINE:
        raise ValueError(f"unknown parameter {varying!r}")
    return {**FIGURE9_BASELINE, varying: value}


def build_experiment1(t_msg: float, t_abort: float, t_resolution: float,
                      iterations: int = EXPERIMENT1_ITERATIONS,
                      algorithm: str = "ours",
                      faults: Optional[FaultPlan] = None,
                      tie_seed: Optional[int] = None,
                      local: Optional[str] = None, forward=None
                      ) -> DistributedCASystem:
    """Build the Figure 9/10 application system.

    Threads ``T1``–``T3`` participate in the containing action ``Outer``;
    ``T2`` and ``T3`` additionally enter the nested action ``Inner``.  Each
    iteration: T1 raises ``outer_fault`` in ``Outer`` while T2/T3 are inside
    ``Inner``; the nested action is aborted; the abortion handlers signal
    ``abort_residue``; both exceptions are resolved into their covering
    exception, which every thread handles.

    Unlike ``nested_abort``, ``Inner`` has no raiser and ``Outer`` raises
    at t=1 and carries the ``plant`` object.
    """
    system = new_system(t_msg, algorithm, t_resolution, t_abort, faults,
                        tie_seed, local, forward)
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


def figure9(varying: str = "t_msg", value: float = FIGURE9_BASELINE["t_msg"],
            iterations: int = EXPERIMENT1_ITERATIONS, algorithm: str = "ours",
            faults: Optional[FaultPlan] = None, tie_seed: Optional[int] = None,
            local: Optional[str] = None, forward=None) -> BuiltNode:
    """Experiment 1 at one Figure 9 point: sweep ``varying``, others at
    baseline (see :func:`build_experiment1`)."""
    return _monitored(build_experiment1(
        iterations=iterations, algorithm=algorithm, faults=faults,
        tie_seed=tie_seed, local=local, forward=forward,
        **figure9_timing(varying, value)))


# ----------------------------------------------------------------------
# remote_counter: external atomic objects behind an RPC object host
# ----------------------------------------------------------------------
def remote_counter(iterations: int = 3, limit: int = 1,
                   algorithm: str = "ours", t_msg: float = 0.1,
                   t_resolution: float = 0.2, t_abort: float = 0.1,
                   rpc_timeout: float = 60.0,
                   faults: Optional[FaultPlan] = None,
                   tie_seed: Optional[int] = None,
                   local: Optional[str] = None, forward=None) -> BuiltNode:
    """Workers ``W1``/``W2`` increment a counter hosted on ``objhost``.

    Every object access crosses the RPC layer — locks, reads, writes,
    commit — in *both* backends, so the sim run exercises exactly the
    code path the real processes do.  ``W1`` reads the counter under an
    exclusive lock, writes ``value + 1``, and raises ``overdraft`` once
    the value it read reaches ``limit`` (deterministic from the
    authoritative host state); the resolved exception is handled by
    both workers and the action still commits.  An RPC timeout on the lock
    or read raises ``host_unreachable`` instead, which undoes the action.
    """
    from .net.rpc import RpcEndpoint, RpcTimeoutError
    from .objects.remote import ObjectHostService, install_remote_objects

    system = new_system(t_msg, algorithm, t_resolution, t_abort, faults,
                        tie_seed, local, forward)
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
    # No role handles ``host_unreachable``: the model's default handler
    # aborts the action (µ), which rolls its transaction back on the host.
    unreachable = internal("host_unreachable")
    settle = delay_handler(0.1)

    def u1_body(ctx):
        txn = ctx.transaction
        try:
            yield txn.lock("acct")
            value = yield txn.read("acct", "value")
        except RpcTimeoutError:
            ctx.raise_exception(unreachable)
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
        [RoleDefinition(role, body, HandlerMap({overdraft: settle}))
         for role, body in (("u1", u1_body), ("u2", u2_body))],
        internal_exceptions=[overdraft, unreachable],
        graph=generate_full_graph([overdraft, unreachable],
                                  action_name="Transfer"),
        external_objects=["acct"])
    install_action(system, transfer, {"u1": "W1", "u2": "W2"}, iterations,
                   local)
    built = _monitored(system)
    if hosts_object:
        # The no-lost-update oracle runs where the authoritative copy is.
        built.monitor.track_counter("acct", "value")
    return built


for _world in (
    World("nested_abort", ("T1", "T2", "T3"), nested_abort),
    World("concurrent_raises", ("T1", "T2", "T3"), concurrent_raises),
    World("figure9", ("T1", "T2", "T3"), figure9),
    World("remote_counter", ("W1", "W2", "objhost"), remote_counter),
):
    WORLDS.add(_world)
