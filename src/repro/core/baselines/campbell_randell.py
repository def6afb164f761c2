"""Model of the Campbell & Randell (1986) resolution algorithm.

Used as the comparison baseline of Section 5.3.  The paper characterises it
by two costs that dominate its behaviour:

* message complexity ``O(n_max × N³)`` — exception information diffuses by
  *every* participant re-distributing what it has learned, instead of a
  single originator broadcast plus a single Commit;
* the resolution procedure is invoked ``N × (N−1) × (N−2)`` times in total
  (every thread resolves repeatedly as its view of the concurrently raised
  exceptions grows), against exactly once in the new algorithm.

This implementation keeps the rest of the CA-action support identical (it
subclasses the shared coordinator base and reuses the nesting/abortion
machinery), mirroring the paper's methodology: "We modelled the CR algorithm
by updating our algorithm and kept the rest of the CA action support
unchanged."

Protocol shape implemented here:

1. a thread raising ``Ei`` broadcasts ``Exception`` (as in the new
   algorithm) and informs external objects;
2. every thread that learns of an exception it had not seen before
   *re-distributes* it to all other participants
   (:class:`CRForwardMessage`), and — if it was still normal — suspends and
   broadcasts ``Suspended``;
3. every time a thread's set of known exceptions grows beyond one, it
   re-runs the resolution procedure locally (charging ``Treso`` each time);
4. once a thread knows the status of every participant it broadcasts its
   resolved exception (:class:`CRResolvedMessage`) and, after seeing the
   resolved exception of every exceptional participant, starts handling the
   cover of all of them (no ``Commit`` message, no designated resolver).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from .. import effects as fx
from ..exceptions import ExceptionDescriptor
from ..messages import (
    CommitMessage,
    ExceptionMessage,
    ProtocolMessage,
    SuspendedMessage,
)
from ..resolution import ResolutionCoordinator
from ..state import ThreadState


@dataclass(frozen=True)
class CRForwardMessage(ProtocolMessage):
    """Re-distribution of a learned exception to the other participants.

    ``instance`` stamps the action instance, like the new algorithm's
    messages: under overlapping instances of one action name a forward
    delayed past the end of its instance must not enter a later
    instance's exception census.
    """

    action: str
    forwarder: str
    origin: str
    exception: ExceptionDescriptor
    instance: str = ""


@dataclass(frozen=True)
class CRResolvedMessage(ProtocolMessage):
    """A participant announces the resolving exception it computed."""

    action: str
    thread: str
    exception: ExceptionDescriptor
    instance: str = ""


@dataclass(frozen=True)
class CRConfirmMessage(ProtocolMessage):
    """Final agreement round: a participant confirms the common resolution.

    The CR scheme has no designated resolver, so before any thread may start
    its handler the group must agree that everybody computed the same root
    of the exception tree; this confirmation exchange is the extra round
    that makes the scheme's critical path one message hop longer than the
    new algorithm's single ``Commit``.
    """

    action: str
    thread: str
    exception: ExceptionDescriptor
    instance: str = ""


class CampbellRandellCoordinator(ResolutionCoordinator):
    """Baseline coordinator following the Campbell–Randell scheme."""

    def __init__(self, thread_id: str) -> None:
        super().__init__(thread_id)
        #: Exceptions already re-distributed, to avoid forwarding loops.
        self._forwarded: Set[tuple] = set()
        #: Resolved announcements received, per action.
        self._announced: Dict[str, Dict[str, ExceptionDescriptor]] = {}
        #: Whether this thread has announced its own resolution, per action.
        self._own_announced: Dict[str, ExceptionDescriptor] = {}
        #: Confirmation round bookkeeping, per action.
        self._confirms: Dict[str, Set[str]] = {}
        self._own_confirmed: Dict[str, ExceptionDescriptor] = {}

    def _clear_action_state(self, action: str) -> None:
        self._announced.pop(action, None)
        self._own_announced.pop(action, None)
        self._confirms.pop(action, None)
        self._own_confirmed.pop(action, None)
        self._forwarded = {key for key in self._forwarded if key[0] != action}

    # ------------------------------------------------------------------
    def receive(self, message: ProtocolMessage) -> List[fx.Effect]:
        if isinstance(message, (CRForwardMessage, CRResolvedMessage,
                                CRConfirmMessage)):
            misdirected = self._guard_round_message(message, kind="CR")
            if misdirected is not None:
                return misdirected
        if isinstance(message, CRForwardMessage):
            return self._receive_forward(message)
        if isinstance(message, CRResolvedMessage):
            return self._receive_resolved(message)
        if isinstance(message, CRConfirmMessage):
            return self._receive_confirm(message)
        if isinstance(message, CommitMessage):
            # The CR scheme has no Commit; tolerate and ignore.
            return [fx.LogEvent(f"{self.thread_id} ignored Commit (CR mode)")]
        return super().receive(message)

    # ------------------------------------------------------------------
    def _receive_exception_or_suspended(self, message) -> List[fx.Effect]:
        known_before = set(self.le.exceptions_for(message.action))
        effects = super()._receive_exception_or_suspended(message)
        effects.extend(self._maybe_forward(message, known_before))
        return effects

    def _maybe_forward(self, message, known_before) -> List[fx.Effect]:
        if not isinstance(message, ExceptionMessage):
            return []
        context = self.active_context()
        if context is None or context.action != message.action:
            return []
        key = (message.action, message.thread, message.exception)
        if key in self._forwarded or message.exception in known_before:
            return []
        self._forwarded.add(key)
        effects: List[fx.Effect] = [
            fx.SendTo(context.others(self.thread_id),
                   CRForwardMessage(message.action, self.thread_id,
                                    message.thread, message.exception,
                                    instance=context.instance)),
        ]
        effects.extend(self._charge_incremental_resolution(message.action))
        return effects

    def _receive_forward(self, message: CRForwardMessage) -> List[fx.Effect]:
        context = self.active_context()
        if context is None or not self.sa.contains(message.action):
            self.retained.append(message)
            return [fx.LogEvent(f"{self.thread_id} retained CR forward")]
        known_before = set(self.le.exceptions_for(message.action))
        self._record(message.action, message.origin, message.exception,
                     instance=getattr(message, "instance", ""))
        effects: List[fx.Effect] = []
        if self.state is ThreadState.NORMAL and context.action == message.action:
            self.state = ThreadState.SUSPENDED
            self._record(message.action, self.thread_id, None,
                         instance=context.instance)
            effects.append(fx.InterruptRole(message.action, message.exception))
            effects.append(fx.SendTo(context.others(self.thread_id),
                                  SuspendedMessage(message.action,
                                                   self.thread_id,
                                                   instance=context.instance)))
        if message.exception not in known_before:
            effects.extend(self._charge_incremental_resolution(message.action))
        effects.extend(self._check_resolution())
        return effects

    def _charge_incremental_resolution(self, action: str) -> List[fx.Effect]:
        """Each new exception beyond the first triggers a local re-resolution."""
        known = self.le.exceptions_for(action)
        if len(known) < 2:
            return []
        context = self.sa.find(action)
        if context is None:
            return []
        self.resolution_calls += 1
        context.resolve(known)
        return [fx.ChargeTime("resolution", 1)]

    # ------------------------------------------------------------------
    def _check_resolution(self) -> List[fx.Effect]:
        """Every thread resolves once it knows everyone's status (no resolver)."""
        context = self.active_context()
        if context is None or self.pending_abort_target is not None:
            return []
        action = context.action
        if action in self.handling or action in self._own_announced:
            return []
        if self.state not in (ThreadState.EXCEPTIONAL, ThreadState.SUSPENDED):
            return []
        if not self.le.all_reported(action, context.instance,
                                    context.participant_set):
            return []
        raised = self.le.exceptions_for(action, context.instance)
        if not raised:
            return []
        self.resolution_calls += 1
        resolved = context.resolve(raised)
        self._own_announced[action] = resolved
        self._trace(f"CR resolve -> {resolved.name} in {action}")
        effects: List[fx.Effect] = [
            fx.ChargeTime("resolution", 1),
            fx.SendTo(context.others(self.thread_id),
                   CRResolvedMessage(action, self.thread_id, resolved,
                                     instance=context.instance)),
        ]
        effects.extend(self._maybe_handle(action))
        return effects

    def _receive_resolved(self, message: CRResolvedMessage) -> List[fx.Effect]:
        self._announced.setdefault(message.action, {})[message.thread] = \
            message.exception
        return self._maybe_confirm(message.action)

    def _maybe_confirm(self, action: str) -> List[fx.Effect]:
        """Once every announcement is in, run the final agreement round."""
        context = self.sa.find(action)
        if context is None or action in self._own_confirmed:
            return []
        if action not in self._own_announced:
            return []
        announced = dict(self._announced.get(action, {}))
        announced[self.thread_id] = self._own_announced[action]
        if announced.keys() != context.participant_set:
            return []
        # Agreement value: the cover of every announced resolution (they
        # normally coincide; the cover makes disagreement safe).
        final = context.resolve(set(announced.values()))
        self._own_confirmed[action] = final
        self._confirms.setdefault(action, set()).add(self.thread_id)
        self._trace(f"CR confirm {final.name} in {action}")
        effects: List[fx.Effect] = [
            fx.SendTo(context.others(self.thread_id),
                   CRConfirmMessage(action, self.thread_id, final,
                                    instance=context.instance)),
        ]
        effects.extend(self._maybe_handle(action))
        return effects

    def _receive_confirm(self, message: CRConfirmMessage) -> List[fx.Effect]:
        self._confirms.setdefault(message.action, set()).add(message.thread)
        return self._maybe_handle(message.action)

    def _maybe_handle(self, action: str) -> List[fx.Effect]:
        context = self.sa.find(action)
        if context is None or action in self.handling:
            return []
        if action not in self._own_confirmed:
            return []
        if self._confirms.get(action) != context.participant_set:
            return []
        final = self._own_confirmed[action]
        self.le.clear()
        self.handling[action] = final
        self._trace(f"CR handle {final.name} in {action}")
        return [fx.HandleResolved(action, final, resolver=self.thread_id)]
