"""The distributed exception-signalling algorithm (Section 3.4).

After the participating threads of a nested action have handled the
resolving exception, each may need to signal an interface exception ε to the
enclosing action.  Different roles may signal different exceptions, but two
special cases require coordination:

* if any role signals the failure exception ``ƒ``, every role must signal
  ``ƒ``;
* roles may only signal the undo exception ``µ`` if *all* of them signal
  ``µ`` — which requires every role to first execute its undo operations,
  and if any undo fails the whole group falls back to ``ƒ``.

The algorithm uses ``toBeSignalled(Ti, ε)`` messages, ``N(N−1)`` of them in
the simple case and ``2N(N−1)`` in the worst case (a second round after the
undo operations).  Lost or corrupted messages can be treated as ``ƒ``, which
is how the algorithm extends to node/link crashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .effects import Effect, SendTo
from .exceptions import (
    ExceptionDescriptor,
    ExceptionKind,
    FAILURE,
    NO_EXCEPTION,
    UNDO,
)
from .messages import ToBeSignalledMessage
from .state import ActionContext


@dataclass(frozen=True)
class SignalOutcome(Effect):
    """Final decision: this thread signals ``exception`` to the enclosing action.

    ``exception`` may be :data:`~repro.core.exceptions.NO_EXCEPTION` (φ),
    meaning the thread signals nothing and the action completes normally
    from its point of view.
    """

    action: str
    exception: ExceptionDescriptor


@dataclass(frozen=True)
class PerformUndo(Effect):
    """The thread must execute its undo operations, then call
    :meth:`SignalCoordinator.undo_completed` with the result."""

    action: str


class SignalProtocolError(RuntimeError):
    """Raised on misuse of the signalling coordinator API."""


class SignalCoordinator:
    """Per-thread state machine of the signalling algorithm.

    Life-cycle: construct with the thread id and the action context, call
    :meth:`propose` with the exception the local role wants to signal, feed
    every incoming :class:`ToBeSignalledMessage` to :meth:`receive`, and —
    if a :class:`PerformUndo` effect is returned — call
    :meth:`undo_completed` after the undo operations finish.  Exactly one
    :class:`SignalOutcome` effect is eventually produced.
    """

    def __init__(self, thread_id: str, context: ActionContext) -> None:
        self.thread_id = thread_id
        self.context = context
        self.round_number = 1
        self.undo_round_entered = False
        self.decided: Optional[ExceptionDescriptor] = None
        #: listSignal_i — proposals received this round, keyed by thread.
        self.proposals: Dict[str, ExceptionDescriptor] = {}
        #: Round-2 proposals that arrived while this thread was in round 1.
        self._early: Dict[str, ExceptionDescriptor] = {}
        self._own_proposal: Optional[ExceptionDescriptor] = None
        self.messages_sent = 0

    # ------------------------------------------------------------------
    def propose(self, exception: Optional[ExceptionDescriptor]) -> List[Effect]:
        """Announce the exception this thread intends to signal.

        ``None`` is interpreted as φ (nothing to signal).
        """
        if self.decided is not None:
            raise SignalProtocolError(f"{self.thread_id} has already decided")
        if self._own_proposal is not None and not self.undo_round_entered:
            raise SignalProtocolError(
                f"{self.thread_id} already proposed in round {self.round_number}")
        proposal = exception if exception is not None else NO_EXCEPTION
        self._own_proposal = proposal
        self.proposals[self.thread_id] = proposal

        others = self.context.others(self.thread_id)
        self.messages_sent += len(others)
        effects: List[Effect] = [
            SendTo(others, ToBeSignalledMessage(self.context.action,
                                                self.thread_id, proposal,
                                                self.round_number,
                                                instance=self.context.instance)),
        ]
        effects.extend(self._maybe_decide())
        return effects

    def receive(self, message: ToBeSignalledMessage) -> List[Effect]:
        """Process a ``toBeSignalled`` message from a peer."""
        if message.action != self.context.action:
            return []
        if message.instance and self.context.instance and \
                message.instance != self.context.instance:
            # A proposal from a different instance of the same action name
            # (e.g. delayed past the end of its own instance) must not be
            # counted into this instance's agreement.
            return []
        if message.round_number != self.round_number:
            # A round-2 message can only arrive after this thread also moved
            # to round 2 (FIFO + the round is entered by everyone before any
            # round-2 proposal is sent); an old round-1 duplicate is ignored.
            if message.round_number < self.round_number:
                return []
            # Early round-2 message: remember it for when we enter round 2.
            self._early.setdefault(message.thread, message.exception)
            return []
        self.proposals[message.thread] = message.exception
        return self._maybe_decide()

    def peer_failed(self, thread: str) -> List[Effect]:
        """Record a crashed/unreachable peer as proposing ƒ.

        "The corrupted message or lost message can be simply treated as a
        failure exception and ƒ is then recorded in listSignal_i."
        """
        self.proposals[thread] = FAILURE
        return self._maybe_decide()

    def undo_completed(self, successful: bool) -> List[Effect]:
        """Report the result of this thread's undo operations (round 2).

        A successful undo re-proposes µ; a failed undo proposes ƒ, which
        forces every thread to signal ƒ.
        """
        if not self.undo_round_entered:
            raise SignalProtocolError(
                f"{self.thread_id}: undo_completed outside the undo round")
        return self.propose(UNDO if successful else FAILURE)

    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        """True once every participant's proposal for this round is known."""
        return self.proposals.keys() == self.context.participant_set

    def _maybe_decide(self) -> List[Effect]:
        if self.decided is not None or not self.complete:
            return []
        values = [self.proposals[t] for t in self.context.participants]
        kinds = {value.kind for value in values}

        if ExceptionKind.FAILURE in kinds:
            # Case 3: ƒ anywhere forces ƒ everywhere.
            return self._decide(FAILURE)

        if ExceptionKind.UNDO in kinds:
            # Case 2: µ proposed but no ƒ.
            if self.undo_round_entered:
                return self._decide(UNDO)
            return self._enter_undo_round()

        # Case 1: no µ and no ƒ — every thread signals its own exception.
        return self._decide(self._own_proposal or NO_EXCEPTION)

    def _decide(self, exception: ExceptionDescriptor) -> List[Effect]:
        self.decided = exception
        return [SignalOutcome(self.context.action, exception)]

    def _enter_undo_round(self) -> List[Effect]:
        self.undo_round_entered = True
        self.round_number = 2
        self._own_proposal = None
        self.proposals, self._early = self._early, {}
        return [PerformUndo(self.context.action)]
