"""The scenario systems the fault-space explorer runs plans against.

A target is a deterministic builder: given a fault plan and a schedule
seed it produces a fully-spawned
:class:`~repro.runtime.system.DistributedCASystem`.  All randomness lives
in the plan, so ``(target, plan)`` fixes the run exactly.  A target's
action definitions (role bodies, handlers, exception graphs) are static,
so each is built once per process and shared by every case; a build makes
only the case's system, threads, bindings and programs.

Two targets ship by default:

* ``nested_abort`` — the nested-action-with-abortion-window shape in which
  the lost-Commit race of PR 2 lived: T2 raises and resolves inside the
  nested action while T1's outer exception forces T2/T3 to abort it, so
  any protocol message delayed into the abortion window stresses the
  abort/resolution interleaving;
* ``concurrent_raises`` — three threads raise different exceptions nearly
  simultaneously (the Figure 12 shape), the classic workload for the
  resolution algorithm itself and the natural one for differential
  comparison against the baseline algorithms.

The scaffold both targets are assembled from lives here too;
:mod:`repro.bench.scenarios` builds the paper's applications from the same
pieces, and a fault-space sweep never has to load the bench package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.action import CAActionDefinition, RoleDefinition
from ..core.exception_graph import generate_full_graph
from ..core.exceptions import ExceptionDescriptor, internal
from ..core.handlers import HandlerMap, HandlerResult
from ..net.faults import FaultPlan
from ..net.latency import ConstantLatency
from ..runtime.config import RuntimeConfig
from ..runtime.system import DistributedCASystem
from ..simkernel.kernel import Kernel

@dataclass(frozen=True)
class ExplorationTarget:
    """A named, explorable scenario."""

    name: str
    #: ``build(faults, tie_seed=None, algorithm="ours")`` -> spawned system.
    build: Callable[..., DistributedCASystem]
    threads: Tuple[str, ...]
    description: str = ""


# ----------------------------------------------------------------------
# The scaffold the targets (and repro.bench's applications) are built from
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


def _target_system(faults: FaultPlan, tie_seed: Optional[int],
                   algorithm: str, **charges: float) -> DistributedCASystem:
    """A 0.1-latency system under ``faults`` and schedule seed ``tie_seed``."""
    return DistributedCASystem(RuntimeConfig(algorithm=algorithm, **charges),
                               latency=ConstantLatency(0.1), faults=faults,
                               kernel=Kernel(tie_seed=tie_seed))


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


def build_nested_abort(faults: FaultPlan, tie_seed: Optional[int] = None,
                       algorithm: str = "ours") -> DistributedCASystem:
    """Nested action aborted while its resolution is still in flight.

    ``T1``–``T3`` run ``Outer``; ``T2``/``T3`` enter the nested ``Inner``.
    ``T2`` raises in ``Inner`` at t=1 and (as the largest exceptional
    thread) resolves it; its handler is slow, so when ``T1`` raises in
    ``Outer`` at t=2 both nested participants abort ``Inner`` — ``T3``
    possibly while the Inner ``Commit`` is still travelling toward it.
    The abortion handler signals ``abort_residue``, and all three threads
    recover through the ``abort_residue&outer_fault`` cover.
    """
    system = _target_system(faults, tie_seed, algorithm, abort_time=3.0)
    system.add_threads(["T1", "T2", "T3"])
    inner, outer = _nested_abort_definitions()
    system.define_action(inner)
    system.bind("Inner", {"b2": "T2", "b3": "T3"})
    install_action(system, outer, {"a1": "T1", "a2": "T2", "a3": "T3"},
                   iterations=None)
    return system


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


def build_concurrent_raises(faults: FaultPlan, tie_seed: Optional[int] = None,
                            algorithm: str = "ours") -> DistributedCASystem:
    """Three threads raise different exceptions nearly simultaneously.

    The paper's Experiment 2 application (one pass) built by the same
    flat-raise scaffold as the Figure 12 scenario.
    """
    system = _target_system(faults, tie_seed, algorithm, resolution_time=0.1)
    system.add_threads(["T1", "T2", "T3"])
    install_action(system, _concurrent_definition(),
                   {"r1": "T1", "r2": "T2", "r3": "T3"}, iterations=None)
    return system


#: The default target registry.
TARGETS: Dict[str, ExplorationTarget] = {
    target.name: target for target in (
        ExplorationTarget(
            "nested_abort", build_nested_abort, ("T1", "T2", "T3"),
            "nested action aborted while its resolution is in flight"),
        ExplorationTarget(
            "concurrent_raises", build_concurrent_raises, ("T1", "T2", "T3"),
            "three threads raise different exceptions simultaneously"),
    )
}


def get_target(name_or_target) -> ExplorationTarget:
    """Resolve a target given by name or already-constructed object."""
    if isinstance(name_or_target, ExplorationTarget):
        return name_or_target
    try:
        return TARGETS[name_or_target]
    except KeyError:
        raise KeyError(f"unknown exploration target {name_or_target!r}; "
                       f"registered: {sorted(TARGETS)}") from None
