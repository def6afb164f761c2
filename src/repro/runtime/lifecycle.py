"""The action life-cycle run by a participating thread.

:class:`ActionLifecycle` drives one thread's participation in a CA action
from entry to exit: entry synchronisation, the primary attempt, waiting for
exception resolution, handler invocation, the signalling phase, transaction
commit/abort and the synchronous exit protocol.  It is purely the
*thread-side* of the runtime; message routing lives in
:mod:`~repro.runtime.dispatcher` and effect execution in
:mod:`~repro.runtime.effects`.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, TYPE_CHECKING

from ..core.action import CAActionDefinition
from ..core.exceptions import (
    ExceptionDescriptor,
    FAILURE,
    NO_EXCEPTION,
    RaisedException,
    UNDO,
)
from ..core.handlers import HandlerResult, HandlerStatus, is_generator_handler
from ..core.handlers import normalise_result
from ..core.messages import EnterActionMessage, ExitReadyMessage
from ..core.signalling import SignalCoordinator
from ..core.state import ActionContext, min_thread
from ..objects.transaction import TransactionStatus
from ..obs import events as kinds
from ..simkernel.events import Interrupt
from .context import RoleContext
from .frames import AbortedByEnclosing, ActionFrame
from .report import ActionReport, ActionStatus

if TYPE_CHECKING:  # pragma: no cover
    from .partition import Partition


def call_user(function, context):
    """Run a user callable that may or may not be a generator function."""
    if function is None:
        return None
    if is_generator_handler(function):
        result = yield from function(context)
        return result
    return function(context)


class ActionLifecycle:
    """Executes action instances on behalf of one partition's thread."""

    def __init__(self, partition: "Partition") -> None:
        self.partition = partition

    # ------------------------------------------------------------------
    # Entry points (called from the contexts via the partition)
    # ------------------------------------------------------------------
    def execute_action(self, action: str, role: str,
                       instance: Optional[str] = None):
        """Perform a top-level action (returns the life-cycle generator).

        Returned (not delegated with ``yield from``) so the caller drives
        :meth:`_run_action` directly — one less generator frame on every
        resumption of the executing thread.
        """
        return self._run_action(action, role, parent_frame=None,
                                instance=instance)

    def execute_nested(self, parent_frame: ActionFrame, action: str, role: str):
        """Perform a nested action from within ``parent_frame``."""
        report = yield from self._run_action(action, role,
                                             parent_frame=parent_frame)
        if report.status is ActionStatus.ABORTED_BY_ENCLOSING:
            raise AbortedByEnclosing(report)
        if report.signalled != NO_EXCEPTION:
            # Signalled exceptions become internal exceptions of the
            # enclosing action, "as if concurrently raised" there.
            raise RaisedException(report.signalled,
                                  {"from_nested": report.action})
        return report

    # ------------------------------------------------------------------
    # The life-cycle proper
    # ------------------------------------------------------------------
    def _run_action(self, action: str, role: str,
                    parent_frame: Optional[ActionFrame],
                    instance: Optional[str] = None):
        partition = self.partition
        system = partition.system
        definition = system.registry.get(action)
        if instance:
            # An externally allocated instance key (the workload driver's
            # dispatch): every participant receives the same key with its
            # job, so no local occurrence counting is needed — or possible,
            # since different pool members serve different subsets of the
            # action's instances.
            occurrence, instance_key = 0, instance
        else:
            occurrence, instance_key = partition.frames.next_instance_key(
                action, parent_frame)
        binding, participants = system.resolved_binding(action, instance_key)
        if role not in binding:
            raise ValueError(f"role {role!r} of {action!r} is not bound")
        if binding[role] != partition.name:
            raise ValueError(
                f"role {role!r} of {action!r} is bound to {binding[role]!r}, "
                f"not to {partition.name!r}")

        # --- entry synchronisation -----------------------------------
        yield from self._entry_barrier(action, instance_key, role, participants)

        context = ActionContext(
            action, participants, definition.graph,
            parent=parent_frame.action if parent_frame else None,
            instance=instance_key)
        transaction = system.transaction_for(instance_key, definition)
        frame = ActionFrame(
            action=action, role=role, occurrence=occurrence,
            instance_key=instance_key, definition=definition, context=context,
            transaction=transaction, parent=parent_frame,
            started_at=partition.kernel.now,
            resolution_event=partition.kernel.event(),
        )
        partition.frames.push(frame)
        system.emit(kinds.ACTION_ENTERED, partition.name, action, instance_key)
        try:
            effects = partition.coordinator.enter_action(context)
            if effects:
                waiting = partition.interpreter.interpret(effects)
                if waiting is not None:
                    yield from waiting

            # --- the action body, inlined ------------------------------
            # (formerly a separate _run_action_body generator; inlining
            # removes one delegation frame from every resumption of the
            # executing thread — barriers, resolution waits, handlers and
            # service delays all resume through here).  Early "return
            # report" exits became assignments guarded by ``report is
            # None`` so the try/finally around the whole body is kept.
            role_definition = definition.role(frame.role)
            role_context = RoleContext(partition, frame)
            result: Any = None
            report: Optional[ActionReport] = None

            # --- primary attempt --------------------------------------
            if not frame.exception_mode:
                partition.status = "primary"
                try:
                    body = role_definition.body
                    if body is not None:
                        # call_user, inlined: skip the wrapper generator
                        # on the per-instance hot path.
                        if is_generator_handler(body):
                            result = yield from body(role_context)
                        else:
                            result = body(role_context)
                except RaisedException as raised:
                    waiting = self._local_raise(frame, raised.descriptor)
                    if waiting is not None:
                        yield from waiting
                except AbortedByEnclosing:
                    frame.exception_mode = True
                except Interrupt:
                    partition.interrupt_requested = False
                    frame.exception_mode = True
                finally:
                    if partition.status == "primary":
                        partition.status = "idle"

            # --- abortion demanded by the enclosing action ------------
            if partition.pending_abort is not None and \
                    partition.pending_abort.covers(frame.action):
                report = yield from self._run_abortion(frame, role_definition,
                                                       role_context)

            # --- no exception anywhere: synchronous exit --------------
            elif not frame.exception_mode:
                exited = yield from self._exit_barrier(frame)
                if exited and not frame.exception_mode:
                    self._commit_if_designated(frame)
                    partition.coordinator.leave_action(frame.action,
                                                       success=True)
                    report = ActionReport(frame.action, frame.role,
                                          partition.name,
                                          ActionStatus.SUCCESS, result=result,
                                          started_at=frame.started_at)

            # --- exception path: resolution, handler, signalling ------
            if report is None:
                resolved = yield from self._await_resolution(frame)
                if partition.pending_abort is not None and \
                        partition.pending_abort.covers(frame.action):
                    report = yield from self._run_abortion(
                        frame, role_definition, role_context)
                else:
                    handler_result = yield from self._run_handler(
                        frame, role_definition, role_context, resolved)
                    if partition.pending_abort is not None and \
                            partition.pending_abort.covers(frame.action):
                        # An enclosing exception interrupted the handler
                        # ("handling" is abort-interruptible): the nested
                        # action must abort instead of entering the
                        # signalling phase, where peers that aborted would
                        # never send the proposals it waits on.
                        report = yield from self._run_abortion(
                            frame, role_definition, role_context)
                    else:
                        decided = yield from self._run_signalling(
                            frame, handler_result)
                        if decided is None:
                            report = yield from self._run_abortion(
                                frame, role_definition, role_context)
                        else:
                            report = self._conclude(frame, resolved, decided,
                                                    result)
        finally:
            partition.frames.remove(frame)
        report.finished_at = partition.kernel.now
        system.emit(kinds.ACTION_CONCLUDED, partition.name, action,
                    instance_key, status=report.status,
                    resolved=report.resolved, signalled=report.signalled)
        return report

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _entry_barrier(self, action: str, instance_key: str, role: str,
                       participants: Tuple[str, ...]):
        partition = self.partition
        dispatcher = partition.dispatcher
        others = tuple(p for p in participants if p != partition.name)
        message = EnterActionMessage(action, partition.name, role, instance_key)
        for other in others:
            partition.system.network.send(partition.name, other, message)
        if not others:
            return
        key = instance_key
        needed = set(others)
        if dispatcher.entry_complete(key, needed):
            return
        event = dispatcher.register_entry_wait(key, needed)
        partition.status = "waiting_entry"
        try:
            yield event
        except Interrupt:
            partition.interrupt_requested = False
            # An exception in the enclosing action reached us before the
            # nested action assembled; unwind to the enclosing frame.  The
            # allocated instance will never be entered here — retire it so
            # peer messages stamped for it are not retained forever.
            partition.coordinator.abandon_instance(instance_key)
            raise AbortedByEnclosing(ActionReport(
                action, role, partition.name,
                ActionStatus.ABORTED_BY_ENCLOSING))
        finally:
            dispatcher.clear_entry_wait(key)
            if partition.status == "waiting_entry":
                partition.status = "idle"

    def _exit_barrier(self, frame: ActionFrame):
        """Synchronous exit protocol; returns True if the barrier completed."""
        partition = self.partition
        dispatcher = partition.dispatcher
        others = frame.context.others(partition.name)
        message = ExitReadyMessage(frame.action, partition.name, "success",
                                   frame.instance_key)
        for other in others:
            partition.system.network.send(partition.name, other, message)
        if not others:
            return True
        key = frame.instance_key
        needed = set(others)
        if dispatcher.exit_complete(key, needed):
            return True
        event = dispatcher.register_exit_wait(key, needed)
        partition.status = "waiting_exit"
        try:
            yield event
            return True
        except Interrupt:
            partition.interrupt_requested = False
            frame.exception_mode = True
            return False
        finally:
            dispatcher.clear_exit_wait(key)
            if partition.status == "waiting_exit":
                partition.status = "idle"

    def _local_raise(self, frame: ActionFrame,
                     exception: ExceptionDescriptor):
        """Feed a locally raised exception to the coordinator.

        Not a generator: returns what :meth:`EffectInterpreter.interpret`
        returns (``None``, or the generator that finishes the effects).
        """
        partition = self.partition
        frame.exception_mode = True
        partition.system.emit(kinds.ACTION_RAISED, partition.name,
                              frame.action, frame.instance_key,
                              exception=exception)
        effects = partition.coordinator.raise_exception(exception)
        return partition.interpreter.interpret(effects)

    def _await_resolution(self, frame: ActionFrame) -> Any:
        partition = self.partition
        partition.status = "awaiting_resolution"
        try:
            while frame.resolved is None:
                if frame.resolution_event is None or \
                        frame.resolution_event.triggered:
                    frame.resolution_event = partition.kernel.event()
                    if frame.resolved is not None:
                        break
                try:
                    yield frame.resolution_event
                except Interrupt:
                    partition.interrupt_requested = False
                    if partition.pending_abort is not None and \
                            partition.pending_abort.covers(frame.action):
                        return frame.resolved
                    # Stale interrupt: keep waiting for the resolution.
                    frame.resolution_event = partition.kernel.event()
        finally:
            if partition.status == "awaiting_resolution":
                partition.status = "idle"
        return frame.resolved

    def _run_handler(self, frame: ActionFrame, role_definition,
                     role_context, resolved: ExceptionDescriptor):
        partition = self.partition
        partition.status = "handling"
        partition.system.emit(kinds.ACTION_HANDLING, partition.name,
                              frame.action, frame.instance_key,
                              exception=resolved)
        handler = role_definition.handlers.lookup(resolved)
        try:
            if handler is None:
                value = None
            elif is_generator_handler(handler):
                value = yield from handler(role_context)
            else:
                value = handler(role_context)
            handler_result = normalise_result(value)
        except RaisedException as raised:
            # A handler raising a declared interface exception means SIGNAL;
            # anything else is a handler failure (ƒ).
            descriptor = raised.descriptor
            if frame.definition.declares_interface(descriptor):
                handler_result = HandlerResult.signal(descriptor)
            else:
                handler_result = HandlerResult.failed(
                    f"handler raised undeclared {descriptor.name}")
        except Interrupt:
            partition.interrupt_requested = False
            handler_result = HandlerResult.failed("handler interrupted")
        finally:
            if partition.status == "handling":
                partition.status = "idle"
        return handler_result

    def _run_abortion(self, frame: ActionFrame, role_definition, role_context):
        """Abort this frame because an enclosing action raised an exception."""
        partition = self.partition
        assert partition.pending_abort is not None
        partition.status = "aborting"
        partition.system.emit(kinds.ACTION_ABORTING, partition.name,
                              frame.action, frame.instance_key)
        if partition.config.abort_time > 0:
            yield partition.kernel.timeout(partition.config.abort_time)

        abortion_handler = role_definition.handlers.abortion_handler
        signalled: Optional[ExceptionDescriptor] = None
        if abortion_handler is not None:
            try:
                value = yield from call_user(abortion_handler, role_context)
                outcome = normalise_result(value)
                if outcome.status in (HandlerStatus.SIGNAL, HandlerStatus.FAILED):
                    signalled = outcome.exception
            except RaisedException as raised:
                signalled = raised.descriptor
            except Interrupt:
                partition.interrupt_requested = False

        # Roll back the aborted action's effects on external objects.
        if frame.transaction.status is TransactionStatus.ACTIVE:
            frame.transaction.abort()

        is_outermost = frame.action == partition.pending_abort.outermost
        if is_outermost:
            resume = partition.pending_abort.resume_action
            partition.pending_abort = None
            partition.system.emit(
                kinds.ACTION_ABORTION_COMPLETED, partition.name, frame.action,
                frame.instance_key, resume_action=resume, signalled=signalled)
            # Only the exception of the outermost aborted action's handler is
            # allowed to be raised in the containing action.
            effects = partition.coordinator.abortion_completed(resume, signalled)
            waiting = partition.interpreter.interpret(effects)
            if waiting is not None:
                yield from waiting
        partition.status = "idle"
        return ActionReport(frame.action, frame.role, partition.name,
                            ActionStatus.ABORTED_BY_ENCLOSING,
                            started_at=frame.started_at)

    def _run_signalling(self, frame: ActionFrame,
                        handler_result: HandlerResult) -> Any:
        partition = self.partition
        partition.status = "signalling"
        proposal = self._proposal_from(handler_result)
        frame.signal_event = partition.kernel.event()
        frame.signal_coordinator = SignalCoordinator(partition.name,
                                                     frame.context)
        # Replay signalling messages that arrived before this phase started
        # (instance-stamped ones park under the instance key, legacy ones
        # under the action name).
        pending = partition.dispatcher.take_pending_signals(
            frame.instance_key, frame.action)
        interpret = partition.interpreter.interpret
        try:
            waiting = interpret(frame.signal_coordinator.propose(proposal))
            if waiting is not None:
                yield from waiting
            for message in pending:
                waiting = interpret(frame.signal_coordinator.receive(message))
                if waiting is not None:
                    yield from waiting
            if frame.signal_coordinator.decided is None:
                decided = yield frame.signal_event
            else:
                decided = frame.signal_coordinator.decided
        except Interrupt:
            # An enclosing exception reached the thread after its handler
            # finished ("signalling" is abort-interruptible).  Peers that
            # already aborted will never propose, so give the phase up:
            # ``None`` tells the caller to abort the frame instead.
            partition.interrupt_requested = False
            decided = None
        finally:
            partition.status = "idle"
        return decided

    @staticmethod
    def _proposal_from(handler_result: HandlerResult) -> ExceptionDescriptor:
        if handler_result.status is HandlerStatus.SUCCESS:
            return NO_EXCEPTION
        if handler_result.status is HandlerStatus.SIGNAL:
            return handler_result.exception or FAILURE
        if handler_result.status is HandlerStatus.ABORT:
            return UNDO
        return FAILURE

    def _conclude(self, frame: ActionFrame, resolved: ExceptionDescriptor,
                  decided: ExceptionDescriptor, result: Any) -> ActionReport:
        partition = self.partition
        if decided == NO_EXCEPTION:
            self._commit_if_designated(frame)
            status = ActionStatus.RECOVERED
        elif decided == UNDO:
            self._ensure_rolled_back(frame)
            status = ActionStatus.UNDONE
        elif decided == FAILURE:
            self._ensure_rolled_back(frame)
            status = ActionStatus.FAILED
        else:
            # A "plain" interface exception: the handlers repaired what they
            # could; deliver the (possibly partial) results.
            self._commit_if_designated(frame)
            status = ActionStatus.SIGNALLED
        if decided != NO_EXCEPTION:
            partition.system.emit(kinds.ACTION_SIGNALLED, partition.name,
                                  frame.action, frame.instance_key,
                                  exception=decided)
        partition.coordinator.leave_action(frame.action,
                                           success=(decided == NO_EXCEPTION))
        return ActionReport(frame.action, frame.role, partition.name, status,
                            signalled=decided, resolved=resolved,
                            result=result, started_at=frame.started_at)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _commit_if_designated(self, frame: ActionFrame) -> None:
        if frame.transaction.status is not TransactionStatus.ACTIVE:
            return
        designated = min_thread(frame.context.participants)
        if self.partition.name == designated:
            frame.transaction.commit()

    def _ensure_rolled_back(self, frame: ActionFrame) -> None:
        if frame.transaction.status is TransactionStatus.ACTIVE:
            frame.transaction.abort()
