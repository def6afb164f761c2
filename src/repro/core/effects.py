"""Effects emitted by the coordination state machines.

The resolution and signalling algorithms are implemented as *pure* state
machines: they never touch the network or the clock themselves.  Every call
into a coordinator returns a list of :class:`Effect` objects describing what
the surrounding runtime must now do — send messages, abort nested actions,
invoke a handler, inform external objects.  This keeps the algorithms
unit-testable without a simulator and lets the same implementation run on
any transport.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Type

from .exceptions import ExceptionDescriptor
from .messages import ProtocolMessage


@dataclass(frozen=True, slots=True)
class Effect:
    """Base class for all effects (marker type)."""


@dataclass(frozen=True, slots=True)
class SendTo(Effect):
    """Send ``message`` to every thread named in ``recipients``."""

    recipients: Tuple[str, ...]
    message: ProtocolMessage

    def __post_init__(self) -> None:
        object.__setattr__(self, "recipients", tuple(self.recipients))


@dataclass(frozen=True, slots=True)
class InformObjects(Effect):
    """Inform the external objects used within ``action`` of ``exception``."""

    action: str
    exception: ExceptionDescriptor


@dataclass(frozen=True, slots=True)
class AbortNested(Effect):
    """Abort the nested actions in ``actions`` (innermost first).

    After the abortion handlers have run, the runtime must call
    ``coordinator.abortion_completed(resume_action, raised)`` where
    ``raised`` is the exception signalled by the abortion handler of the
    outermost aborted action, or ``None``.
    """

    actions: Tuple[str, ...]
    resume_action: str
    cause: Optional[ExceptionDescriptor] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))


@dataclass(frozen=True, slots=True)
class HandleResolved(Effect):
    """Invoke this thread's handler for the resolving exception."""

    action: str
    exception: ExceptionDescriptor
    resolver: str


@dataclass(frozen=True, slots=True)
class InterruptRole(Effect):
    """Interrupt the role's normal computation (ATC analogue).

    Emitted when a thread moves from state N to S or X because of an
    exception raised elsewhere — the runtime must stop the role's primary
    attempt at the next interruption point.
    """

    action: str
    reason: ExceptionDescriptor


@dataclass(frozen=True, slots=True)
class ChargeTime(Effect):
    """Ask the runtime to let virtual time pass before the next effect.

    ``kind`` names a configured duration (``"resolution"`` maps to the
    experiment parameter ``Treso``); ``count`` multiplies it.  The pure
    state machines cannot know the configured durations, so they emit this
    effect and the runtime converts it into a timeout.
    """

    kind: str
    count: int = 1


_CAMEL_BOUNDARY = re.compile(r"(?<!^)(?=[A-Z])")


@cache
def handler_name(effect_type: Type[Effect]) -> str:
    """The interpreter method name handling ``effect_type``.

    ``SendTo`` dispatches to ``on_send_to``, ``ChargeTime`` to
    ``on_charge_time`` and so on.  Memoised per effect type: every new
    interpreter binds the same names.
    """
    return "on_" + _CAMEL_BOUNDARY.sub("_", effect_type.__name__).lower()


class EffectInterpreter:
    """Interface between the pure coordinators and a concrete runtime.

    The coordination state machines only *describe* what must happen, as
    lists of :class:`Effect` objects.  An interpreter turns those
    descriptions into actions on a particular substrate (the simulated
    partition runtime, a test probe, a future real transport).

    Subclasses implement one ``on_<effect>`` method per effect type they
    support (see :func:`handler_name` for the naming rule).  A handler
    returns ``None`` when its work is done, or a generator when it has to
    wait on simulation events (this is how :class:`ChargeTime` becomes a
    timeout); a generator function is the usual way to write the latter.
    Effects without a matching handler are routed to :meth:`on_unknown`.

    Almost no batch ever waits, so :meth:`interpret` runs a batch as plain
    calls and only hands back a generator from the point where a handler
    actually returned one; :meth:`execute` is the same loop behind a
    generator for callers that always ``yield from``.

    Some effects must not take hold until the whole batch has been
    interpreted — interrupting the running thread mid-batch would race the
    remaining effects.  Handlers can defer such work onto :attr:`batch`;
    :meth:`begin_batch`/:meth:`finish_batch` bracket every batch, and a
    batch abandoned by an exception is discarded unfinished.

    Each batch is owned by the call that began it: several batches may be
    suspended concurrently (e.g. a thread and its dispatcher both waiting
    on a :class:`ChargeTime` timeout) and recursive calls nest freely.
    :attr:`batch` is therefore only valid during the *synchronous* part of
    a handler — a generator handler must not touch it after its first
    ``yield``.
    """

    def __init__(self) -> None:
        self._handlers: Dict[Type[Effect], Any] = {}
        self._active_batch: Any = None

    # -- batch hooks ----------------------------------------------------
    def begin_batch(self) -> Any:
        """Create the per-batch deferred-work state (``None`` by default)."""
        return None

    def finish_batch(self, batch: Any) -> None:
        """Apply deferred work once a batch completed normally."""

    @property
    def batch(self) -> Any:
        """The batch of the handler currently being dispatched."""
        return self._active_batch

    # -- dispatch -------------------------------------------------------
    def interpret(self, effects: Sequence[Effect]) -> Optional[Iterator[Any]]:
        """Interpret ``effects`` in order, synchronously as far as possible.

        Returns ``None`` when the whole batch ran (and finished) without
        waiting.  Otherwise returns a generator the caller must drive with
        ``yield from``: it waits out the handler that suspended, then
        interprets the rest of the batch.
        """
        return self._interpret(effects, 0, self.begin_batch())

    def execute(self, effects: Sequence[Effect]) -> Iterator[Any]:
        """Interpret ``effects`` in order (generator; may yield events)."""
        waiting = self.interpret(effects)
        if waiting is not None:
            yield from waiting

    def _interpret(self, effects: Sequence[Effect], index: int,
                   batch: Any) -> Optional[Iterator[Any]]:
        handlers = self._handlers
        count = len(effects)
        while index < count:
            effect = effects[index]
            index += 1
            try:
                handler = handlers[type(effect)]
            except KeyError:
                handler = self._bind_handler(type(effect))
            if handler is None:
                self.on_unknown(effect)
                continue
            # Re-point the active batch before every dispatch: another
            # batch (suspended, or nested in a handler) may have run since
            # the previous effect of this one.
            self._active_batch = batch
            result = handler(effect)
            if result is not None and inspect.isgenerator(result):
                return self._resume(result, effects, index, batch)
        self.finish_batch(batch)
        return None

    def _resume(self, waiting: Iterator[Any], effects: Sequence[Effect],
                index: int, batch: Any) -> Iterator[Any]:
        """Wait out one suspended handler, then interpret from ``index`` on."""
        yield from waiting
        rest = self._interpret(effects, index, batch)
        if rest is not None:
            yield from rest

    def on_unknown(self, effect: Effect) -> None:
        """Called for effects without an ``on_<effect>`` handler."""
        raise NotImplementedError(
            f"{type(self).__name__} does not handle {type(effect).__name__}")

    def _bind_handler(self, effect_type: Type[Effect]):
        """Look up (once per effect type) the ``on_<effect>`` method."""
        handler = getattr(self, handler_name(effect_type), None)
        self._handlers[effect_type] = handler
        return handler


def sends(effects: Sequence[Effect]) -> List[SendTo]:
    """Filter helper: the SendTo effects in ``effects`` (used by tests)."""
    return [effect for effect in effects if isinstance(effect, SendTo)]


def count_messages(effects: Sequence[Effect]) -> int:
    """Total number of point-to-point messages implied by ``effects``."""
    return sum(len(effect.recipients) for effect in sends(effects))
