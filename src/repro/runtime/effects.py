"""Effect interpretation for the partition executive.

:class:`PartitionEffectInterpreter` is the runtime's concrete
:class:`~repro.core.effects.EffectInterpreter`: it executes the effects the
coordination state machines emit against the simulated substrate — sending
messages over the network, converting :class:`ChargeTime` into kernel
timeouts, delivering resolution/signalling outcomes into action frames and
interrupting the role's normal computation (the ATC analogue).

Interrupt-style effects (``InterruptRole``, ``AbortNested``) are deferred to
the end of the current effect batch: interrupting the thread mid-batch
would race the remaining effects of the same coordinator step.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

from ..core import effects as fx
from ..core.exceptions import ActionAborted, ExceptionDescriptor
from ..core.signalling import PerformUndo, SignalOutcome
from ..objects.transaction import TransactionStatus
from . import events as kinds
from .frames import PendingAbort

if TYPE_CHECKING:  # pragma: no cover
    from .partition import Partition

#: A deferred interrupt request: (action, reason, for_abort).
_Interrupt = Tuple[str, Optional[ExceptionDescriptor], bool]


class PartitionEffectInterpreter(fx.EffectInterpreter):
    """Executes coordinator effects on behalf of one partition."""

    def __init__(self, partition: "Partition") -> None:
        super().__init__()
        self.partition = partition

    # ------------------------------------------------------------------
    # Batch handling: interrupts are applied once the batch completed
    # ------------------------------------------------------------------
    def begin_batch(self) -> List[_Interrupt]:
        return []

    def finish_batch(self, batch: List[_Interrupt]) -> None:
        for action, reason, for_abort in batch:
            self._request_interrupt(action, reason, for_abort)

    # ------------------------------------------------------------------
    # Per-effect handlers
    # ------------------------------------------------------------------
    def on_send_to(self, effect: fx.SendTo) -> None:
        partition = self.partition
        send = partition.system.network.send
        source = partition.name
        message = effect.message
        for recipient in effect.recipients:
            send(source, recipient, message)

    def on_charge_time(self, effect: fx.ChargeTime):
        partition = self.partition
        duration = partition.config.charge_duration(effect.kind, effect.count)
        if duration > 0:
            return self._sleep(duration)
        return None

    def _sleep(self, duration: float):
        yield self.partition.kernel.timeout(duration)

    def on_inform_objects(self, effect: fx.InformObjects) -> None:
        frame = self.partition.find_frame(effect.action)
        if frame is None:
            return
        key = effect.exception.name
        if key in frame.informed:
            return
        frame.informed.add(key)
        frame.transaction.notify_exception(key)
        if not frame.exception_mode:
            frame.exception_mode = True

    def on_interrupt_role(self, effect: fx.InterruptRole) -> None:
        self.batch.append((effect.action, effect.reason, False))

    def on_abort_nested(self, effect: fx.AbortNested) -> None:
        self.partition.pending_abort = PendingAbort(
            effect.actions, effect.resume_action, effect.cause)
        self.batch.append((effect.resume_action, effect.cause, True))

    def on_handle_resolved(self, effect: fx.HandleResolved) -> None:
        partition = self.partition
        frame = partition.find_frame(effect.action)
        if frame is None:
            partition.log.append(f"resolution for unknown frame {effect.action}")
            return
        frame.exception_mode = True
        frame.resolved = effect.exception
        # Emitted per *delivery*, not per conclusion, so a duplicated or
        # divergent Commit shows up in the agreement oracle even when the
        # life-cycle only consumes one resolution (the run metrics count
        # the resolver's own delivery only).
        partition.system.emit(kinds.ACTION_RESOLVED, partition.name,
                              frame.action, frame.instance_key,
                              exception=effect.exception,
                              resolver=effect.resolver)
        if frame.resolution_event is not None and \
                not frame.resolution_event.triggered:
            frame.resolution_event.succeed(effect.exception)

    def on_signal_outcome(self, effect: SignalOutcome) -> None:
        frame = self.partition.find_frame(effect.action)
        if frame is None:
            return
        if frame.signal_event is not None and not frame.signal_event.triggered:
            frame.signal_event.succeed(effect.exception)
        else:
            frame.signal_event = None

    def on_perform_undo(self, effect: PerformUndo):
        frame = self.partition.find_frame(effect.action)
        if frame is None:
            return None
        status = frame.transaction.abort()
        successful = status is TransactionStatus.ABORTED
        if frame.signal_coordinator is not None:
            return self.interpret(
                frame.signal_coordinator.undo_completed(successful))
        return None

    def on_unknown(self, effect: fx.Effect) -> None:  # pragma: no cover
        self.partition.log.append(f"unknown effect {effect!r}")

    # ------------------------------------------------------------------
    # Thread interruption (the ATC analogue)
    # ------------------------------------------------------------------
    def _request_interrupt(self, action: str,
                           reason: Optional[ExceptionDescriptor],
                           for_abort: bool) -> None:
        partition = self.partition
        frame = partition.find_frame(action)
        if frame is not None:
            frame.exception_mode = True
        partition.system.emit(
            kinds.ACTION_SUSPENDED, partition.name, action,
            frame.instance_key if frame is not None else None)
        process = partition.thread_process
        if process is None or not process.is_alive:
            return
        if partition.kernel.active_process is process:
            # The thread itself is executing these effects; it will notice
            # exception_mode / pending_abort without needing an interrupt.
            return
        allowed = (partition.ABORT_INTERRUPTIBLE if for_abort or
                   partition.pending_abort is not None
                   else partition.INTERRUPTIBLE)
        if partition.status not in allowed:
            return
        if partition.interrupt_requested:
            return
        partition.interrupt_requested = True
        process.interrupt(ActionAborted(action, reason) if for_abort
                          else reason)
