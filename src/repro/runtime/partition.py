"""The partition executive: per-thread runtime for distributed CA actions.

Each participating thread runs on its own node (its own Ada 95 *partition*
in the paper's prototype, Figure 8).  :class:`Partition` is the composition
root of the per-node runtime; the actual behaviour lives in three layered
subsystems:

* :class:`~repro.runtime.dispatcher.Dispatcher` — drains the node's cyclic
  receive buffer and routes protocol messages to the resolution and
  signalling coordinators;
* :class:`~repro.runtime.effects.PartitionEffectInterpreter` — executes the
  effects those coordinators emit (sending messages, informing external
  objects, charging resolution time, interrupting the role's normal
  computation — the ATC analogue — and aborting nested actions);
* :class:`~repro.runtime.lifecycle.ActionLifecycle` — the action life-cycle
  run by the thread itself: entry synchronisation, the primary attempt,
  waiting for resolution, handler invocation, the signalling phase,
  transaction commit/abort and the synchronous exit protocol.

The partition itself only owns the shared per-thread state (status, frame
stack, pending abort) and wires the subsystems together.
"""

from __future__ import annotations

from typing import Any, List, Optional, TYPE_CHECKING

from ..core.messages import ApplicationMessage
from ..core.resolution import CoordinatorBase
from ..simkernel.process import Process
from .context import ProgramContext
from .dispatcher import Dispatcher
from .effects import PartitionEffectInterpreter
from .frames import ActionFrame, FrameStack, PendingAbort
from .lifecycle import ActionLifecycle, call_user

if TYPE_CHECKING:  # pragma: no cover
    from .system import DistributedCASystem

__all__ = ["ActionFrame", "Partition", "PendingAbort"]


class Partition:
    """The per-thread (per-node) runtime executive."""

    #: Thread statuses during which an exception notification may interrupt
    #: the thread's current activity (the ATC analogue).
    INTERRUPTIBLE = ("primary", "waiting_entry", "waiting_exit")
    #: Statuses additionally interruptible when a nested-action abort is
    #: required (an enclosing exception stops resolution and handlers too).
    ABORT_INTERRUPTIBLE = INTERRUPTIBLE + ("awaiting_resolution", "handling")

    def __init__(self, system: "DistributedCASystem", name: str) -> None:
        self.system = system
        self.name = name
        self.kernel = system.kernel
        self.config = system.config
        self.node = system.network.add_node(
            name, buffer_capacity=system.config.buffer_capacity)
        self.node.services["partition"] = self
        self.coordinator: CoordinatorBase = system.config.make_coordinator(name)
        if not system.network.keep_trace:
            # Same policy, same ring size as the network's envelope trace:
            # a debugging aid must not grow a long capacity run's memory.
            self.coordinator.bound_trace(system.network.TRACE_CAPACITY)

        #: Shared per-thread state, mutated by all three subsystems.
        self.status = "idle"
        self.thread_process: Optional[Process] = None
        self.pending_abort: Optional[PendingAbort] = None
        self.interrupt_requested = False
        self.frames = FrameStack()
        self.log: List[str] = []

        #: The layered subsystems (see the module docstring).
        self.interpreter = PartitionEffectInterpreter(self)
        self.dispatcher = Dispatcher(self)
        self.lifecycle = ActionLifecycle(self)

        self._dispatcher_process = self.kernel.process(
            self.dispatcher.loop(), name=f"dispatch:{name}")

    # ------------------------------------------------------------------
    # Program execution entry point
    # ------------------------------------------------------------------
    def run_program(self, program) -> Process:
        """Start ``program`` (a generator function taking a ProgramContext)."""
        if self.thread_process is not None:
            raise RuntimeError(f"{self.name} already runs a program")
        self.thread_process = self.kernel.process(
            self._program_wrapper(program), name=f"thread:{self.name}")
        return self.thread_process

    def _program_wrapper(self, program):
        context = ProgramContext(self)
        result = yield from call_user(program, context)
        self.status = "idle"
        return result

    # ------------------------------------------------------------------
    # Delegation to the subsystems
    # ------------------------------------------------------------------
    def execute_action(self, action: str, role: str,
                       instance: Optional[str] = None):
        """Perform a top-level action (generator, used via ``yield from``).

        ``instance`` optionally names the action instance explicitly (the
        workload driver allocates one key per dispatched job so that every
        participant of the instance — wherever it runs in the pool — agrees
        on the same key without counting local occurrences).
        """
        return self.lifecycle.execute_action(action, role, instance=instance)

    def execute_nested(self, parent_frame: ActionFrame, action: str, role: str):
        """Perform a nested action from within ``parent_frame``."""
        return self.lifecycle.execute_nested(parent_frame, action, role)

    def find_frame(self, action: str) -> Optional[ActionFrame]:
        """The innermost frame executing ``action`` (by name or instance key)."""
        return self.frames.find(action)

    # ------------------------------------------------------------------
    # Application messaging used by RoleContext
    # ------------------------------------------------------------------
    def send_application_message(self, frame: ActionFrame, role: str,
                                 tag: str, body: Any) -> None:
        binding = self.system.binding(frame.action, frame.instance_key)
        if role not in binding:
            raise ValueError(f"action {frame.action} has no role {role!r}")
        destination = binding[role]
        self.system.network.send(self.name, destination, ApplicationMessage(
            action=frame.instance_key, sender=self.name, recipient=destination,
            tag=tag, body=body))

    def receive_application_message(self, frame: ActionFrame, tag: str):
        return self.dispatcher.mailbox(frame.instance_key, tag).get()

    def __repr__(self) -> str:
        return f"<Partition {self.name} status={self.status}>"
