"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest

from repro.core import (
    ActionContext,
    CAActionDefinition,
    ExceptionGraph,
    HandlerMap,
    HandlerResult,
    RoleDefinition,
    internal,
)
from repro.core.effects import HandleResolved, SendTo
from repro.core.exception_graph import generate_full_graph
from repro.core.resolution import CoordinatorBase, ResolutionCoordinator
from repro.core.exceptions import NO_EXCEPTION
from repro.net import ConstantLatency
from repro.obs import events as kinds
from repro.runtime import DistributedCASystem, RuntimeConfig
from repro.runtime.report import ActionStatus
from repro.simkernel import Kernel


# ----------------------------------------------------------------------
# Pure-coordinator driver: runs the protocol state machines without any
# kernel or network, delivering messages FIFO per link.
# ----------------------------------------------------------------------
class ProtocolDriver:
    """Synchronously delivers coordinator messages between threads."""

    def __init__(self, coordinators: Dict[str, CoordinatorBase]) -> None:
        self.coordinators = coordinators
        self.inflight: List[Tuple[str, object]] = []
        self.handled: Dict[str, object] = {}
        self.message_count = 0
        self.effects_log: List[Tuple[str, object]] = []

    def execute(self, sender: str, effects) -> None:
        for effect in effects:
            self.effects_log.append((sender, effect))
            if isinstance(effect, SendTo):
                for recipient in effect.recipients:
                    self.inflight.append((recipient, effect.message))
                    self.message_count += 1
            elif isinstance(effect, HandleResolved):
                self.handled[sender] = effect.exception

    def deliver_all(self) -> None:
        while self.inflight:
            recipient, message = self.inflight.pop(0)
            self.execute(recipient,
                         self.coordinators[recipient].receive(message))

    def enter_all(self, context_factory) -> None:
        for name, coordinator in self.coordinators.items():
            self.execute(name, coordinator.enter_action(context_factory()))

    def raise_in(self, thread: str, exception) -> None:
        self.execute(thread, self.coordinators[thread].raise_exception(exception))


@pytest.fixture
def protocol_driver_factory():
    """Factory producing a ProtocolDriver over fresh ResolutionCoordinators."""
    def factory(thread_names, coordinator_class=ResolutionCoordinator):
        coordinators = {name: coordinator_class(name) for name in thread_names}
        return ProtocolDriver(coordinators)
    return factory


# ----------------------------------------------------------------------
# Small runtime-system builders
# ----------------------------------------------------------------------
def make_simple_system(n_threads: int = 2, latency: float = 0.05,
                       algorithm: str = "ours",
                       resolution_time: float = 0.0,
                       abort_time: float = 0.0) -> DistributedCASystem:
    """A system with ``n_threads`` threads and no actions defined yet."""
    system = DistributedCASystem(
        RuntimeConfig(algorithm=algorithm, resolution_time=resolution_time,
                      abort_time=abort_time),
        latency=ConstantLatency(latency))
    system.add_threads([f"T{i}" for i in range(1, n_threads + 1)])
    return system


@pytest.fixture
def simple_system():
    return make_simple_system()


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def three_thread_context():
    """An ActionContext for threads T1..T3 with a one-exception graph."""
    fault = internal("fault")
    graph = generate_full_graph([fault])
    return ActionContext("A", ("T1", "T2", "T3"), graph), fault


def run_single_action(system: DistributedCASystem,
                      definition: CAActionDefinition,
                      binding: Dict[str, str]):
    """Define, bind and run one action with one program per thread."""
    system.define_action(definition)
    system.bind(definition.name, binding)

    def make_program(role):
        def program(ctx):
            report = yield from ctx.perform_action(definition.name, role)
            return report
        return program

    for role, thread in binding.items():
        system.spawn(thread, make_program(role))
    return system.run_to_completion()


# ----------------------------------------------------------------------
# Feeding a life-cycle subscriber directly (what ``system.emit`` does)
# ----------------------------------------------------------------------
def feed(subscriber, kind: str, thread: str, action: str, now: float,
         exception: Optional[str] = None, instance: str = "i",
         **data) -> None:
    """Deliver one life-cycle notification to ``subscriber``."""
    if exception is not None:
        data["exception"] = internal(exception)
    if kind == kinds.ACTION_RESOLVED:
        data.setdefault("resolver", thread)
    subscriber(kind, now, thread, action, instance, data)


def feed_outcome(subscriber, action: str, status: str,
                 signalled: Optional[str] = None, started_at: float = 0.0,
                 finished_at: float = 0.0, thread: str = "T1") -> None:
    """One participation: ``entered`` at its start, ``concluded`` at its end."""
    feed(subscriber, kinds.ACTION_ENTERED, thread, action, started_at)
    feed(subscriber, kinds.ACTION_CONCLUDED, thread, action, finished_at,
         status=ActionStatus(status), resolved=None,
         signalled=internal(signalled) if signalled else NO_EXCEPTION)
