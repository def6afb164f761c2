"""Exception vocabulary of the CA-action model.

The paper's model (Section 3.1) distinguishes:

* **internal exceptions** ``e = {e1, e2, ...}`` — declared with the CA
  action, raised and handled inside it;
* **interface (signalled) exceptions** ``ε = {ε1, ε2, ...}`` — declared in
  the action's interface and signalled to the enclosing action when internal
  handling is not fully successful;
* two **special interface exceptions**: the *undo* exception ``µ`` (the
  action aborted and all its effects were undone) and the *failure*
  exception ``ƒ`` (the action aborted but its effects may not have been
  undone completely);
* the **universal exception** at the root of every exception graph; raising
  it "usually leads to the signalling of an undo or failure exception to the
  enclosing action";
* an **abortion exception** raised inside a nested action when its
  enclosing action needs to abort it.

Exceptions are modelled as *descriptors* (named, hashable values used in
declarations, graphs and protocol messages) rather than Python exception
classes, because they travel across simulated nodes in messages;
:class:`RaisedException` wraps a descriptor when one needs to be thrown
through Python control flow inside a role body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional


class ExceptionKind(Enum):
    """Classification of exception descriptors."""

    INTERNAL = "internal"        # member of the action's set e
    INTERFACE = "interface"      # member of the action's set ε
    UNIVERSAL = "universal"      # root of an exception graph
    UNDO = "undo"                # the special exception µ
    FAILURE = "failure"          # the special exception ƒ
    ABORTION = "abortion"        # raised to abort a nested action
    NONE = "none"                # the φ placeholder ("signals nothing")


@dataclass(frozen=True)
class ExceptionDescriptor:
    """A named exception in the CA-action model.

    Descriptors compare and hash by ``name`` and ``kind`` only, so the same
    logical exception created independently on two nodes is equal — exactly
    what the distributed protocols need.
    """

    name: str
    kind: ExceptionKind = ExceptionKind.INTERNAL
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("exception name must be non-empty")
        # Descriptors key every graph map, cover set and handler table, so
        # the hash is taken once instead of per lookup.
        object.__setattr__(self, "_hash", hash((self.name, self.kind)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExceptionDescriptor):
            return NotImplemented
        return self.name == other.name and self.kind == other.kind

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ rather than copying __dict__: string
        # hashes are salted per interpreter, so a pickled ``_hash`` would be
        # wrong in a pool worker or a real-backend child process.
        return (type(self), (self.name, self.kind, self.description))

    @property
    def is_special(self) -> bool:
        """True for µ, ƒ, the universal exception and the φ placeholder."""
        return self.kind in (ExceptionKind.UNDO, ExceptionKind.FAILURE,
                             ExceptionKind.UNIVERSAL, ExceptionKind.NONE)

    def __repr__(self) -> str:
        return f"Exception({self.name!r}, {self.kind.value})"

    def __str__(self) -> str:
        return self.name


def internal(name: str, description: str = "") -> ExceptionDescriptor:
    """Create an internal exception descriptor."""
    return ExceptionDescriptor(name, ExceptionKind.INTERNAL, description)


def interface(name: str, description: str = "") -> ExceptionDescriptor:
    """Create an interface (signalled) exception descriptor."""
    return ExceptionDescriptor(name, ExceptionKind.INTERFACE, description)


#: The undo exception µ: the action aborted and all effects were undone.
UNDO = ExceptionDescriptor("mu", ExceptionKind.UNDO,
                           "action aborted, all effects undone")

#: The failure exception ƒ: the action aborted, undo may be incomplete.
FAILURE = ExceptionDescriptor("failure", ExceptionKind.FAILURE,
                              "action aborted, effects possibly not undone")

#: The universal exception at the root of every exception graph.
UNIVERSAL = ExceptionDescriptor("universal", ExceptionKind.UNIVERSAL,
                                "covers every exception of the action")

#: The abortion exception, raised within a nested action to abort it.
ABORTION = ExceptionDescriptor("abortion", ExceptionKind.ABORTION,
                               "enclosing action aborts this nested action")

#: The φ placeholder recorded when a role has nothing to signal.
NO_EXCEPTION = ExceptionDescriptor("phi", ExceptionKind.NONE,
                                   "role signals no exception")


class RaisedException(Exception):
    """Python-level carrier used to raise a descriptor inside a role body.

    Role code raises ``RaisedException(descriptor)`` (or calls the runtime's
    ``raise_exception``); the runtime catches it and feeds the descriptor
    into the coordination protocol.
    """

    def __init__(self, descriptor: ExceptionDescriptor,
                 detail: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(descriptor.name)
        self.descriptor = descriptor
        self.detail = dict(detail or {})

    def __repr__(self) -> str:
        return f"RaisedException({self.descriptor!r})"


class ActionAborted(Exception):
    """Raised inside a role when its enclosing action aborts the nested one."""

    def __init__(self, action_name: str,
                 cause: Optional[ExceptionDescriptor] = None) -> None:
        super().__init__(action_name)
        self.action_name = action_name
        self.cause = cause


class ActionFailure(Exception):
    """Raised to the caller when an outermost action signals ƒ (or µ)."""

    def __init__(self, action_name: str, signalled: ExceptionDescriptor) -> None:
        super().__init__(f"{action_name} signalled {signalled.name}")
        self.action_name = action_name
        self.signalled = signalled


@dataclass(frozen=True)
class RaisedRecord:
    """An entry of the local exception list ``LEi``.

    Records either an exception raised by ``thread`` within ``action`` or
    (when ``exception`` is None) the fact that ``thread`` has suspended its
    normal computation.  ``instance`` carries the key of the particular
    action *instance* the record belongs to (empty when the recording
    coordinator predates instance tracking), so that the resolution guard
    of a thread serving many overlapping instances of one action name can
    count only the reports of the instance it is actually in.
    """

    action: str
    thread: str
    exception: Optional[ExceptionDescriptor] = None
    instance: str = ""

    @property
    def is_suspension(self) -> bool:
        """True when this entry records a suspended thread, not an exception."""
        return self.exception is None

    def __repr__(self) -> str:
        what = "S" if self.is_suspension else self.exception.name
        return f"<LE {self.action}:{self.thread}={what}>"
