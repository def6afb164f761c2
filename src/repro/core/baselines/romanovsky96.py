"""Model of the authors' earlier algorithm (Romanovsky, Xu & Randell 1996).

The paper positions its new algorithm against its predecessor from ICDCS'96,
which "could use ``n_max × 3N × (N−1)`` messages": instead of a single
resolver and a single ``Commit``, *every* thread gathers the full picture,
resolves locally, and the group runs an extra all-to-all agreement round
before handling.

Protocol shape implemented here (per nesting level):

1. every thread broadcasts its exception or suspension, as in the new
   algorithm — up to ``N(N−1)`` messages;
2. once a thread knows everyone's status it resolves locally (each thread
   charges ``Treso`` once) and broadcasts the result in an
   :class:`AgreementMessage` — another ``N(N−1)`` messages;
3. once a thread has everyone's resolution it broadcasts a confirmation
   (:class:`ConfirmMessage`) and starts handling after receiving all
   confirmations — the third ``N(N−1)`` messages.

The nesting/abortion machinery is inherited unchanged from the shared base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from .. import effects as fx
from ..exceptions import ExceptionDescriptor
from ..messages import CommitMessage, ProtocolMessage
from ..resolution import ResolutionCoordinator
from ..state import ThreadState


@dataclass(frozen=True)
class AgreementMessage(ProtocolMessage):
    """Round-2 message: the resolution this thread computed locally.

    ``instance`` stamps the action instance, like the base algorithm's
    messages: under overlapping instances of one action name (the workload
    driver's pool) a delayed agreement must not leak into a later
    instance's round state.
    """

    action: str
    thread: str
    exception: ExceptionDescriptor
    instance: str = ""


@dataclass(frozen=True)
class ConfirmMessage(ProtocolMessage):
    """Round-3 message: this thread confirms the agreed resolving exception."""

    action: str
    thread: str
    exception: ExceptionDescriptor
    instance: str = ""


class Romanovsky96Coordinator(ResolutionCoordinator):
    """Baseline coordinator following the 1996 three-round scheme."""

    def __init__(self, thread_id: str) -> None:
        super().__init__(thread_id)
        self._agreements: Dict[str, Dict[str, ExceptionDescriptor]] = {}
        self._confirms: Dict[str, Set[str]] = {}
        self._own_agreement: Dict[str, ExceptionDescriptor] = {}
        self._own_confirmed: Dict[str, ExceptionDescriptor] = {}

    def _clear_action_state(self, action: str) -> None:
        self._agreements.pop(action, None)
        self._confirms.pop(action, None)
        self._own_agreement.pop(action, None)
        self._own_confirmed.pop(action, None)

    # ------------------------------------------------------------------
    def receive(self, message: ProtocolMessage) -> List[fx.Effect]:
        if isinstance(message, (AgreementMessage, ConfirmMessage)):
            misdirected = self._guard_round_message(message, kind="R96")
            if misdirected is not None:
                return misdirected
        if isinstance(message, AgreementMessage):
            return self._receive_agreement(message)
        if isinstance(message, ConfirmMessage):
            return self._receive_confirm(message)
        if isinstance(message, CommitMessage):
            return [fx.LogEvent(f"{self.thread_id} ignored Commit (R96 mode)")]
        return super().receive(message)

    # ------------------------------------------------------------------
    def _check_resolution(self) -> List[fx.Effect]:
        """Round 2 trigger: resolve locally and broadcast the agreement."""
        context = self.active_context()
        if context is None or self.pending_abort_target is not None:
            return []
        action = context.action
        if action in self.handling or action in self._own_agreement:
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
        self._own_agreement[action] = resolved
        self._trace(f"R96 agree {resolved.name} in {action}")
        effects: List[fx.Effect] = [
            fx.ChargeTime("resolution", 1),
            fx.SendTo(context.others(self.thread_id),
                   AgreementMessage(action, self.thread_id, resolved,
                                    instance=context.instance)),
        ]
        effects.extend(self._maybe_confirm(action))
        return effects

    def _receive_agreement(self, message: AgreementMessage) -> List[fx.Effect]:
        self._agreements.setdefault(message.action, {})[message.thread] = \
            message.exception
        return self._maybe_confirm(message.action)

    def _maybe_confirm(self, action: str) -> List[fx.Effect]:
        """Round 3 trigger: all agreements known -> broadcast confirmation."""
        context = self.sa.find(action)
        if context is None or action in self._own_confirmed:
            return []
        if action not in self._own_agreement:
            return []
        agreements = dict(self._agreements.get(action, {}))
        agreements[self.thread_id] = self._own_agreement[action]
        if agreements.keys() != context.participant_set:
            return []
        final = context.resolve(set(agreements.values()))
        self._own_confirmed[action] = final
        self._confirms.setdefault(action, set()).add(self.thread_id)
        self._trace(f"R96 confirm {final.name} in {action}")
        effects: List[fx.Effect] = [
            fx.SendTo(context.others(self.thread_id),
                   ConfirmMessage(action, self.thread_id, final,
                                  instance=context.instance)),
        ]
        effects.extend(self._maybe_handle(action))
        return effects

    def _receive_confirm(self, message: ConfirmMessage) -> List[fx.Effect]:
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
        self._trace(f"R96 handle {final.name} in {action}")
        return [fx.HandleResolved(action, final, resolver=self.thread_id)]
