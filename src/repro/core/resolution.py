"""The distributed algorithm for coordinated exception handling and resolution.

This module implements the algorithm of Section 3.3.2 as a per-thread,
message-driven state machine (:class:`ResolutionCoordinator`).  Inputs are
the local events of the algorithm's loop (entering/leaving an action,
raising an exception, receiving a protocol message, completing an abortion);
outputs are :mod:`effects <repro.core.effects>` the runtime executes.

Summary of the algorithm for thread ``Ti`` (states N = normal,
X = exceptional, S = suspended):

* raising ``Ei`` in the active action ``A``: record ``<A, Ti, Ei>`` in
  ``LEi``, broadcast ``Exception(A, Ti, Ei)``, inform external objects;
* receiving ``Exception``/``Suspended`` for ``A*``:

  - if ``A*`` equals the active action: record it; if still normal,
    suspend and broadcast ``Suspended``;
  - if ``A*`` strictly contains the active action: abort every nested
    action up to ``A*``; if the abortion handler signalled ``Eab``, become
    exceptional and broadcast ``Exception(A*, Ti, Eab)``, otherwise suspend
    and broadcast ``Suspended``;
  - if ``A*`` is not on the stack yet: retain the message until the thread
    enters ``A*``;

* when ``Ti`` knows the status (exception or S) of every participant of the
  active action and has the largest identifier among the exceptional
  threads, it resolves the recorded exceptions through the action's
  exception graph, broadcasts ``Commit(A, E)``, empties ``LEi`` and handles
  ``E``;
* receiving ``Commit(A*, E)`` with ``A*`` the active action: empty ``LEi``
  and handle ``E``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from . import effects as fx
from .exceptions import ExceptionDescriptor, RaisedRecord
from .messages import (
    CommitMessage,
    ExceptionMessage,
    ProtocolMessage,
    SuspendedMessage,
)
from .state import (
    ActionContext,
    ContextStack,
    LocalExceptionList,
    ThreadState,
    max_thread,
)


class ProtocolError(RuntimeError):
    """Raised on misuse of the coordinator API (not on remote behaviour)."""


class CoordinatorBase:
    """State shared by the paper's algorithm and the baseline algorithms.

    Subclasses customise how exceptions are propagated and who resolves;
    the bookkeeping of contexts, retained messages and abortions is common
    (the paper's experimental comparison also keeps "the rest of the CA
    action support unchanged").
    """

    def __init__(self, thread_id: str) -> None:
        self.thread_id = thread_id
        self.state = ThreadState.NORMAL
        self.le = LocalExceptionList()
        self.sa = ContextStack()
        #: Messages for actions this thread has not entered yet.
        self.retained: List[ProtocolMessage] = []
        #: Instance keys of action instances this thread has finished
        #: (left or aborted).  A message stamped with one of these is
        #: *stale* — the explorer showed that retaining it either leaks it
        #: forever or replays it into a later instance of the same action
        #: name.  (Grows with the number of instances of a run; a
        #: long-lived deployment would prune it, the simulation need not.)
        self.finished_instances: Set[str] = set()
        #: Action the thread is currently aborting towards (None if not).
        self.pending_abort_target: Optional[str] = None
        #: Resolving exception currently being handled, per action.
        self.handling: Dict[str, ExceptionDescriptor] = {}
        #: Count of local invocations of the resolution procedure.
        self.resolution_calls = 0

    # ------------------------------------------------------------------
    # Context management (common to all algorithms)
    # ------------------------------------------------------------------
    def enter_action(self, context: ActionContext) -> List[fx.Effect]:
        """The thread enters ``context.action``: push it and consume retained
        messages that were waiting for this action."""
        if self.thread_id not in context.participants:
            raise ProtocolError(
                f"{self.thread_id} is not a participant of {context.action}")
        self.sa.push(context)
        self.state = ThreadState.NORMAL
        return self._replay_retained(context)

    def leave_action(self, action: str, success: bool) -> List[fx.Effect]:
        """The thread leaves ``action`` (after the synchronous exit protocol)."""
        top = self.sa.top()
        if top is None or top.action != action:
            raise ProtocolError(
                f"{self.thread_id} cannot leave {action}: active action is "
                f"{top.action if top else None}")
        self.sa.pop()
        if top.instance:
            self.finished_instances.add(top.instance)
        self.le.remove_other_actions(self.active_action_name() or "")
        self.handling.pop(action, None)
        self._drop_retained(action, top.instance)
        self._clear_action_state(action)
        self.state = ThreadState.NORMAL if success else ThreadState.EXCEPTIONAL
        return []

    def abandon_instance(self, instance: str) -> None:
        """The runtime gave up an action attempt before entering it.

        A nested entry barrier interrupted by an enclosing exception leaves
        an allocated instance key that no thread-side ``enter_action`` will
        ever follow; peer messages already stamped for it must not wait for
        an entry that cannot happen (the explorer found them parked
        forever).  Mark the instance finished and drop anything retained
        for it.
        """
        if not instance:
            return
        self.finished_instances.add(instance)
        self.retained = [m for m in self.retained
                         if getattr(m, "instance", "") != instance]

    def _clear_action_state(self, action: str) -> None:
        """Hook: drop any per-action protocol state when the action is left.

        The base algorithm keeps everything it needs in ``handling``/``le``;
        the baseline algorithms override this to clear their extra per-action
        round state, so a later instance of the same action starts fresh.
        """

    def active_context(self) -> Optional[ActionContext]:
        """The context of the currently active (innermost entered) action."""
        return self.sa.top()

    def active_action_name(self) -> Optional[str]:
        context = self.sa.top()
        return context.action if context else None

    # ------------------------------------------------------------------
    # Inputs that subclasses implement
    # ------------------------------------------------------------------
    def raise_exception(self, exception: ExceptionDescriptor) -> List[fx.Effect]:
        raise NotImplementedError

    def receive(self, message: ProtocolMessage) -> List[fx.Effect]:
        raise NotImplementedError

    def abortion_completed(self, action: str,
                           raised: Optional[ExceptionDescriptor]) -> List[fx.Effect]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _drop_retained(self, action: str, instance: str = "") -> None:
        """Discard retained messages for an action instance that has ended.

        Called when ``action`` is left or aborted: any message still parked
        for it belongs to the finished instance and must not leak into a
        later instance of the same action name.  Messages stamped for a
        *different* instance of the same name (parked for a future
        occurrence the sender already entered) survive; unstamped messages
        are treated as belonging to the ending instance, as before
        instance tracking existed.
        """
        def ends_with(message: ProtocolMessage) -> bool:
            if getattr(message, "action", None) != action:
                return False
            stamp = getattr(message, "instance", "")
            return not stamp or not instance or stamp == instance

        self.retained = [m for m in self.retained if not ends_with(m)]

    def _replay_retained(self, context: ActionContext) -> List[fx.Effect]:
        """Re-deliver messages parked for ``context`` (now the active action).

        Messages stamped with the instance key of an already-finished
        instance are dropped as stale; messages stamped for a *different*
        (not-yet-finished) instance of the same action name stay parked.
        Unstamped messages replay by action name, as always.
        """
        pending: List[ProtocolMessage] = []
        parked: List[ProtocolMessage] = []
        for message in self.retained:
            if getattr(message, "action", None) != context.action:
                parked.append(message)
                continue
            staleness = self._message_staleness(message, context)
            if staleness == "other":
                parked.append(message)
            elif staleness == "current":
                pending.append(message)
        self.retained = parked
        effects: List[fx.Effect] = []
        for message in pending:
            effects.extend(self.receive(message))
        return effects

    def _message_staleness(self, message: ProtocolMessage,
                           context: Optional[ActionContext] = None) -> str:
        """Classify a message against the instance bookkeeping.

        Returns ``"stale"`` (belongs to a finished instance), ``"other"``
        (stamped for a different, not-yet-finished instance — e.g. a later
        occurrence the sender already entered) or ``"current"`` (unstamped,
        or matching ``context``).
        """
        instance = getattr(message, "instance", "")
        if not instance:
            return "current"
        if instance in self.finished_instances:
            return "stale"
        if context is not None and context.instance and \
                instance != context.instance:
            return "other"
        return "current"

    def _guard_round_message(self, message) -> bool:
        """Instance hygiene for algorithm-specific round messages.

        Returns ``False`` when the message belongs to the current instance
        and should be processed, ``True`` when it was set aside here.  A
        message stamped for a finished instance is dropped; one stamped
        for a different, not-yet-finished occurrence of an action this
        thread is currently in is retained
        (``_replay_retained`` feeds retained messages back through
        :meth:`receive` when that occurrence is entered).  The baselines'
        extra rounds (CR forward/resolved/confirm, R96 agreement/confirm)
        share this rule so their instance handling cannot diverge.
        """
        if self._message_staleness(message) == "stale":
            return True
        target = self.sa.find(message.action)
        if target is not None and \
                self._message_staleness(message, target) == "other":
            self.retained.append(message)
            return True
        return False

    def _record(self, action: str, thread: str,
                exception: Optional[ExceptionDescriptor],
                instance: str = "") -> RaisedRecord:
        record = RaisedRecord(action=action, thread=thread, exception=exception,
                              instance=instance)
        self.le.add(record)
        return record

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.thread_id} state={self.state.value} "
                f"active={self.active_action_name()}>")


class ResolutionCoordinator(CoordinatorBase):
    """The paper's new algorithm (Section 3.3.2).

    Exactly one thread — the one with the largest identifier among the
    exceptional (state X) threads — performs resolution and sends the
    ``Commit`` message, which is what gives the algorithm its
    ``n_max × (N² − 1)`` worst-case message complexity (Theorem 2).
    """

    # ------------------------------------------------------------------
    # Local exception
    # ------------------------------------------------------------------
    def raise_exception(self, exception: ExceptionDescriptor) -> List[fx.Effect]:
        """The role running on this thread raised ``exception`` locally."""
        context = self.active_context()
        if context is None:
            raise ProtocolError(
                f"{self.thread_id} raised {exception} outside any action")
        action = context.action
        self.state = ThreadState.EXCEPTIONAL
        self._record(action, self.thread_id, exception,
                     instance=context.instance)

        effects: List[fx.Effect] = [
            fx.SendTo(context.others(self.thread_id),
                   ExceptionMessage(action, self.thread_id, exception,
                                    instance=context.instance)),
            fx.InformObjects(action, exception),
        ]
        effects.extend(self._check_resolution())
        return effects

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def receive(self, message: ProtocolMessage) -> List[fx.Effect]:
        """Process one incoming protocol message."""
        if isinstance(message, (ExceptionMessage, SuspendedMessage)):
            return self._receive_exception_or_suspended(message)
        if isinstance(message, CommitMessage):
            return self._receive_commit(message)
        raise ProtocolError(f"unexpected message {message!r}")

    def _receive_exception_or_suspended(self, message) -> List[fx.Effect]:
        target_action = message.action
        context = self.sa.top()
        # One stack walk and one classification per message: a finished
        # instance reads "stale" whatever context it is compared against.
        target_context = self.sa.find(target_action)
        staleness = self._message_staleness(message, target_context)

        if staleness == "stale":
            # The instance this message belongs to has already ended here;
            # retaining it would leak it (or poison a later instance).
            return []

        if target_context is None:
            # "retain the Exception or Suspended message till Ti enters A*"
            self.retained.append(message)
            return []

        if staleness == "other":
            # Stamped for a different occurrence of this action name that
            # has not ended here (e.g. the sender already re-entered it):
            # park it for that instance.
            self.retained.append(message)
            return []

        exception = (message.exception
                     if isinstance(message, ExceptionMessage) else None)
        record = self._record(target_action, message.thread, exception,
                              instance=getattr(message, "instance", ""))
        effects: List[fx.Effect] = []
        if exception is not None:
            # "exception information ⇒ uninformed external objects"
            effects.append(fx.InformObjects(target_action, exception))

        if target_action != context.action:
            # A* strictly contains the active action: abort nested actions.
            effects.extend(self._begin_abort(target_action, record, exception))
            return effects

        # A* equals the active action.
        if self.state is ThreadState.NORMAL:
            self.state = ThreadState.SUSPENDED
            self._record(target_action, self.thread_id, None,
                         instance=target_context.instance)
            effects.append(fx.InterruptRole(target_action,
                                         exception if exception is not None
                                         else ExceptionDescriptor("suspended-peer")))
            effects.append(fx.SendTo(
                target_context.others(self.thread_id),
                SuspendedMessage(target_action, self.thread_id,
                                 instance=target_context.instance)))
        effects.extend(self._check_resolution())
        return effects

    def _receive_commit(self, message: CommitMessage) -> List[fx.Effect]:
        context = self.active_context()
        if self._message_staleness(message) == "stale":
            return []
        if context is None or not self.sa.contains(message.action):
            # The action was never entered or has already ended on this
            # thread; a Commit for it is stale and safe to drop.
            return []
        if self._message_staleness(message,
                                   self.sa.find(message.action)) == "other":
            # A Commit stamped for a different, not-yet-finished occurrence
            # of this action name: park it for that instance.
            self.retained.append(message)
            return []
        if context.action != message.action:
            # The action is on the stack but not active — e.g. the Commit
            # arrived while this thread is still aborting nested actions
            # toward it.  Dropping it would strand the thread suspended
            # forever (the resolver commits exactly once), so retain it,
            # like Exception/Suspended messages, and replay it when the
            # action becomes active again (see abortion_completed).
            self.retained.append(message)
            return []
        if self.pending_abort_target is not None:
            # The Commit is for the active action, but that action is being
            # aborted by an enclosing exception: the resolution it announces
            # is for a dying instance.  It must not clear LEi — the list
            # holds the enclosing action's records ("remove all elements
            # except <A*, Tj, Ej>"), and wiping them would lose the very
            # exception the abortion is resolving.
            return []
        self.le.clear()
        self.handling[message.action] = message.exception
        return [fx.HandleResolved(message.action, message.exception,
                               resolver=message.resolver)]

    # ------------------------------------------------------------------
    # Abortion of nested actions
    # ------------------------------------------------------------------
    def _begin_abort(self, target_action: str, record: RaisedRecord,
                     cause: Optional[ExceptionDescriptor]) -> List[fx.Effect]:
        if self.pending_abort_target is not None:
            # Already aborting; if the new target is even higher, extend it.
            if self.sa.contains(target_action) and \
                    self._is_strictly_higher(target_action,
                                             self.pending_abort_target):
                self.pending_abort_target = target_action
            return []

        nested = self.sa.actions_between_top_and(target_action)
        self.pending_abort_target = target_action
        # "remove all elements except <A*, Tj, Ej> in LEi"
        self.le.keep_only(record)
        return [
            fx.InterruptRole(self.active_action_name() or target_action,
                          cause if cause is not None
                          else ExceptionDescriptor("enclosing-exception")),
            fx.AbortNested(tuple(nested), resume_action=target_action, cause=cause),
        ]

    def abortion_completed(self, action: str,
                           raised: Optional[ExceptionDescriptor]) -> List[fx.Effect]:
        """The runtime finished aborting nested actions down to ``action``.

        ``raised`` is ``Eab``, the exception signalled by the abortion
        handler of the outermost aborted action (or None if the handlers
        completed silently).
        """
        if self.pending_abort_target is None:
            raise ProtocolError(
                f"{self.thread_id}: abortion_completed with no abort pending")
        target = self.pending_abort_target

        # Pop the aborted contexts so that ``target`` becomes the active one.
        for popped in self.sa.pop_until(target):
            self.handling.pop(popped.action, None)
            self._drop_retained(popped.action, popped.instance)
            self._clear_action_state(popped.action)
            if popped.instance:
                self.finished_instances.add(popped.instance)
        context = self.sa.top()
        effects: List[fx.Effect] = []

        if target != action and self.sa.contains(target):
            # The abort target was extended while the runtime was aborting;
            # keep aborting the remaining chain.
            remaining = self.sa.actions_between_top_and(target)
            effects.append(fx.AbortNested(tuple(remaining), resume_action=target,
                                       cause=raised))
            return effects

        self.pending_abort_target = None
        if raised is not None:
            self.state = ThreadState.EXCEPTIONAL
            self._record(target, self.thread_id, raised,
                         instance=context.instance)
            effects.append(fx.SendTo(context.others(self.thread_id),
                                  ExceptionMessage(target, self.thread_id,
                                                   raised,
                                                   instance=context.instance)))
            effects.append(fx.InformObjects(target, raised))
        else:
            self.state = ThreadState.SUSPENDED
            self._record(target, self.thread_id, None,
                         instance=context.instance)
            effects.append(fx.SendTo(context.others(self.thread_id),
                                  SuspendedMessage(target, self.thread_id,
                                                   instance=context.instance)))
        # ``target`` is the active action again: replay messages retained
        # for it — in particular a Commit that arrived mid-abortion, which
        # would otherwise be lost and leave this thread suspended forever.
        effects.extend(self._replay_retained(context))
        effects.extend(self._check_resolution())
        return effects

    def _is_strictly_higher(self, candidate: str, reference: str) -> bool:
        """True if ``candidate`` encloses ``reference`` on this thread's stack."""
        names = self.sa.as_names()
        if candidate not in names or reference not in names:
            return False
        return names.index(candidate) < names.index(reference)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _check_resolution(self) -> List[fx.Effect]:
        """The algorithm's resolution guard, evaluated after each transition."""
        context = self.active_context()
        if context is None or self.pending_abort_target is not None:
            return []
        action = context.action
        if action in self.handling:
            return []
        if self.state is not ThreadState.EXCEPTIONAL:
            # Only a thread in state X can be the resolver.
            return []

        # The guard counts only reports of the *instance* this thread is in:
        # under overlapping instances of one action name (the workload
        # driver's shared partition pool) a late report of a previous
        # instance must never complete the current instance's census.
        if not self.le.all_reported(action, context.instance,
                                    context.participant_set):
            return []
        exceptional = self.le.exceptional_threads(action, context.instance)
        # "Largest identifier" is the paper's numeric ordering: with ids
        # T1…T64 the resolver must be T64, not the lexicographic max T9.
        if not exceptional or max_thread(exceptional) != self.thread_id:
            return []

        raised = self.le.exceptions_for(action, context.instance)
        self.resolution_calls += 1
        resolved = context.resolve(raised)
        self.le.clear()
        self.handling[action] = resolved
        return [
            fx.ChargeTime("resolution", 1),
            fx.SendTo(context.others(self.thread_id),
                   CommitMessage(action, self.thread_id, resolved,
                                 instance=context.instance)),
            fx.HandleResolved(action, resolved, resolver=self.thread_id),
        ]
