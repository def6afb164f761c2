"""CA-action and role definitions.

A CA action "provides a mechanism for performing a group of operations on a
collection of, local or external atomic, objects.  These operations are
performed cooperatively by one or more roles executing in parallel within
the CA action.  The interface to a CA action specifies the objects that are
to be manipulated by the CA action and the roles that are to manipulate
these objects."  (Section 3.1.)

This module holds the *static* definitions — what a designer writes: roles,
declared internal exceptions ``e``, interface exceptions ``ε``, the
exception graph, the external objects, and nesting.  The dynamic behaviour
(threads entering, exceptions propagating) lives in :mod:`repro.runtime`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set)

from .exception_graph import ExceptionGraph
from .exceptions import (
    ABORTION,
    ExceptionDescriptor,
    ExceptionKind,
    FAILURE,
    UNDO,
)
from .handlers import HandlerMap


class ActionDefinitionError(ValueError):
    """Raised when an action definition violates the model's constraints."""


@dataclass
class RoleDefinition:
    """One role of a CA action.

    Attributes
    ----------
    name:
        Role name, unique within the action.
    body:
        The role's primary-attempt code: a generator function taking the
        runtime role context.  ``None`` is allowed for definitions used only
        by the pure protocol tests.
    handlers:
        The role's :class:`HandlerMap` for the action's internal exceptions.
    """

    name: str
    body: Optional[Callable] = None
    handlers: HandlerMap = field(default_factory=HandlerMap)


class CAActionDefinition:
    """Static definition of a CA action.

    Parameters
    ----------
    name:
        Unique action name.
    roles:
        The role definitions; exactly one thread per role performs the
        action.
    internal_exceptions:
        The set ``e`` of exceptions that can be raised within the action.
        The abortion exception is always included implicitly.
    interface_exceptions:
        The set ``ε`` of exceptions that can be signalled to the enclosing
        action.  ``µ`` and ``ƒ`` are always included implicitly.
    graph:
        The action's exception graph.  If omitted, a flat graph (every
        internal exception directly below the universal exception) is built.
    external_objects:
        Names of the external atomic objects the action manipulates.
    parent:
        Name of the direct-enclosing action, for statically declared
        nesting.  The model requires ``ε_nested ⊆ e_enclosing``; this is
        checked by :meth:`validate_nesting`.
    """

    def __init__(self, name: str,
                 roles: Sequence[RoleDefinition],
                 internal_exceptions: Iterable[ExceptionDescriptor] = (),
                 interface_exceptions: Iterable[ExceptionDescriptor] = (),
                 graph: Optional[ExceptionGraph] = None,
                 external_objects: Iterable[str] = (),
                 parent: Optional[str] = None) -> None:
        if not name:
            raise ActionDefinitionError("action name must be non-empty")
        if not roles:
            raise ActionDefinitionError(f"action {name!r} needs at least one role")
        role_names = [role.name for role in roles]
        if len(set(role_names)) != len(role_names):
            raise ActionDefinitionError(f"action {name!r} has duplicate role names")

        self.name = name
        self.roles: Dict[str, RoleDefinition] = {role.name: role for role in roles}
        self.internal_exceptions: Set[ExceptionDescriptor] = set(internal_exceptions)
        self.internal_exceptions.add(ABORTION)
        self.interface_exceptions: Set[ExceptionDescriptor] = set(interface_exceptions)
        self.interface_exceptions.update({UNDO, FAILURE})
        self.external_objects: List[str] = list(external_objects)
        self.parent = parent

        if graph is None:
            graph = ExceptionGraph(name)
            for exception in sorted(self.internal_exceptions, key=lambda e: e.name):
                graph.add_exception(exception)
        self.graph = graph
        # Every internal exception must be resolvable, i.e. present in the
        # graph (the algorithm looks each raised exception up in the graph).
        for exception in self.internal_exceptions:
            if exception not in self.graph:
                self.graph.add_exception(exception)
        self.graph.validate()

    # ------------------------------------------------------------------
    @property
    def role_names(self) -> List[str]:
        """Role names in sorted order (the ordering used for thread IDs)."""
        return sorted(self.roles)

    def role(self, name: str) -> RoleDefinition:
        """Look up a role by name."""
        try:
            return self.roles[name]
        except KeyError:
            raise ActionDefinitionError(
                f"action {self.name!r} has no role {name!r}") from None

    def declares_internal(self, exception: ExceptionDescriptor) -> bool:
        """True if ``exception`` is in the action's internal set ``e``."""
        return exception in self.internal_exceptions

    def declares_interface(self, exception: ExceptionDescriptor) -> bool:
        """True if ``exception`` may be signalled from this action."""
        return exception in self.interface_exceptions

    def validate_nesting(self, enclosing: "CAActionDefinition") -> None:
        """Check ``ε_nested ⊆ e_enclosing`` (fully recursive definitions).

        µ and ƒ are exempt: the enclosing action is always required to be
        able to handle them (they are part of the model itself, not of any
        one action's declaration).
        """
        if self.parent is not None and self.parent != enclosing.name:
            raise ActionDefinitionError(
                f"action {self.name!r} declares parent {self.parent!r}, "
                f"not {enclosing.name!r}")
        missing = {
            exception for exception in self.interface_exceptions
            if exception not in (UNDO, FAILURE)
            and not enclosing.declares_internal(exception)
        }
        if missing:
            raise ActionDefinitionError(
                f"interface exceptions {sorted(e.name for e in missing)} of "
                f"{self.name!r} are not internal exceptions of {enclosing.name!r}")

    def __repr__(self) -> str:
        return (f"<CAAction {self.name} roles={self.role_names} "
                f"e={len(self.internal_exceptions)} "
                f"eps={len(self.interface_exceptions)}>")


class ActionRegistry:
    """A collection of action definitions with nesting validation.

    The registry is what a "program" is, statically: the set of CA actions
    it may execute, with their nesting relationships.  The runtime reads
    definitions from here when threads enter actions.
    """

    def __init__(self) -> None:
        self._actions: Dict[str, CAActionDefinition] = {}

    def register(self, definition: CAActionDefinition) -> CAActionDefinition:
        """Add a definition; validates nesting against its parent if known."""
        if definition.name in self._actions:
            raise ActionDefinitionError(
                f"action {definition.name!r} already registered")
        if definition.parent is not None and definition.parent in self._actions:
            definition.validate_nesting(self._actions[definition.parent])
        self._actions[definition.name] = definition
        return definition

    def get(self, name: str) -> CAActionDefinition:
        """Look up a definition by action name."""
        try:
            return self._actions[name]
        except KeyError:
            raise ActionDefinitionError(f"unknown action {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._actions

    def __len__(self) -> int:
        return len(self._actions)

    def __iter__(self) -> Iterator[str]:
        """The registered action names, in registration order."""
        return iter(self._actions)

    def children_of(self, name: str) -> List[CAActionDefinition]:
        """All registered actions that declare ``name`` as their parent."""
        return [definition for definition in self._actions.values()
                if definition.parent == name]

    def nesting_depth(self, name: str) -> int:
        """Number of ancestors of ``name`` (0 for a top-level action)."""
        depth = 0
        current = self.get(name)
        while current.parent is not None:
            current = self.get(current.parent)
            depth += 1
        return depth

    def max_nesting(self) -> int:
        """``n_max``: the maximum nesting depth over all registered actions."""
        if not self._actions:
            return 0
        return max(self.nesting_depth(name) for name in self._actions)
