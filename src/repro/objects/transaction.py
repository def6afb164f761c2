"""Transactions over external atomic objects.

A CA action "starts a transaction" on the external objects it declares when
the first role enters and "commits" it when the action exits with success
(Figure 1 of the paper).  If the action is aborted, the transaction must be
rolled back; if rollback fails for any object the action signals ``ƒ``
instead of ``µ``.

The :class:`TransactionManager` implements that outcome logic; it is used by
the CA-action runtime but can also be driven directly (see the unit tests).
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import (AbstractSet, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

from ..simkernel.kernel import Kernel
from .atomic_object import AtomicObject, IntegrityError, UndoFailure
from .locks import LockManager, LockMode


class TransactionStatus(Enum):
    """Life-cycle states of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"            # rolled back completely (µ is safe)
    FAILED_UNDO = "failed_undo"    # rollback incomplete (must signal ƒ)


class TransactionError(RuntimeError):
    """Raised for protocol misuse (e.g. writing in a finished transaction)."""


#: The ``objects`` / ``failed_objects`` of a transaction that touched
#: none / whose undo failed nowhere: shared, so a finished transaction
#: that never touched an object costs no set or list of its own.
_NO_OBJECTS: FrozenSet[str] = frozenset()
_NO_FAILURES: Tuple[str, ...] = ()


class Transaction:
    """Handle for a group of accesses to external atomic objects.

    :attr:`TransactionManager.finished` keeps every finished transaction
    (the oracles read it), so the record is a ``__slots__`` object and
    ``objects`` / ``failed_objects`` become a ``set`` / ``list`` only on
    first touch.
    """

    __slots__ = ("manager", "transaction_id", "action_name", "status",
                 "objects", "failed_objects")

    def __init__(self, manager: "TransactionManager", transaction_id: str,
                 action_name: str) -> None:
        self.manager = manager
        self.transaction_id = transaction_id
        self.action_name = action_name
        self.status = TransactionStatus.ACTIVE
        self.objects: AbstractSet[str] = _NO_OBJECTS
        self.failed_objects: Sequence[str] = _NO_FAILURES

    # ------------------------------------------------------------------
    def read(self, object_name: str, key: str):
        """Transactionally read a field of an external object."""
        self._ensure_active()
        obj = self.manager.object(object_name)
        self._touch(object_name)
        return obj.read(self.transaction_id, key, now=self.manager.now)

    def write(self, object_name: str, key: str, value) -> None:
        """Transactionally write a field of an external object."""
        self._ensure_active()
        obj = self.manager.object(object_name)
        self._touch(object_name)
        obj.write(self.transaction_id, key, value, now=self.manager.now)

    def repair(self, object_name: str, repair_function) -> None:
        """Forward-recover one object's state (used by exception handlers)."""
        self._ensure_active()
        obj = self.manager.object(object_name)
        self._touch(object_name)
        obj.repair(self.transaction_id, repair_function)

    def lock(self, object_name: str, mode: LockMode = LockMode.EXCLUSIVE):
        """Acquire a lock on an object; returns the grant event."""
        self._ensure_active()
        self._touch(object_name)
        return self.manager.locks.acquire(object_name, self.transaction_id, mode)

    def notify_exception(self, exception_name: str) -> None:
        """Inform every touched object of an exception (algorithm step)."""
        for object_name in sorted(self.objects):
            self.manager.object(object_name).notify_exception(
                self.transaction_id, self.action_name, exception_name,
                now=self.manager.now)

    # ------------------------------------------------------------------
    def commit(self) -> None:
        """Commit all touched objects; raises IntegrityError on violation."""
        self._ensure_active()
        try:
            for object_name in sorted(self.objects):
                self.manager.object(object_name).commit(self.transaction_id)
        except IntegrityError:
            self.status = TransactionStatus.ACTIVE
            raise
        self.status = TransactionStatus.COMMITTED
        self.manager.locks.release_all(self.transaction_id)
        self.manager._finished(self)

    def abort(self) -> TransactionStatus:
        """Roll back all touched objects.

        Returns :data:`TransactionStatus.ABORTED` when every object undid
        its changes, and :data:`TransactionStatus.FAILED_UNDO` when at least
        one undo failed — the caller must then signal ``ƒ`` rather than
        ``µ``.
        """
        if self.status is not TransactionStatus.ACTIVE:
            return self.status
        failed: List[str] = []
        for object_name in sorted(self.objects):
            try:
                self.manager.object(object_name).undo(self.transaction_id)
            except UndoFailure:
                failed.append(object_name)
        if failed:
            self.failed_objects = failed
        self.status = (TransactionStatus.FAILED_UNDO if failed
                       else TransactionStatus.ABORTED)
        self.manager.locks.release_all(self.transaction_id)
        self.manager._finished(self)
        return self.status

    # ------------------------------------------------------------------
    def _touch(self, object_name: str) -> None:
        if self.objects is _NO_OBJECTS:
            self.objects = {object_name}
        else:
            self.objects.add(object_name)  # type: ignore[attr-defined]

    def _ensure_active(self) -> None:
        if self.status is not TransactionStatus.ACTIVE:
            raise TransactionError(
                f"transaction {self.transaction_id} is {self.status.value}")

    def __repr__(self) -> str:
        return (f"<Transaction {self.transaction_id} action={self.action_name} "
                f"{self.status.value} objects={sorted(self.objects)}>")


class TransactionManager:
    """Registry of atomic objects plus transaction factory.

    A single manager is shared by all nodes in the simulated system; this is
    a simplification (a real system would distribute it), but the paper's
    algorithms never rely on the transaction system being distributed — only
    on its outcome (committed / undone / undo-failed).
    """

    def __init__(self, kernel: Optional[Kernel] = None) -> None:
        self.kernel = kernel
        self.locks = LockManager(kernel) if kernel is not None else None
        self._objects: Dict[str, AtomicObject] = {}
        self.active: Dict[str, Transaction] = {}
        self.finished: List[Transaction] = []
        #: Transaction ids count per manager, so a run's ids (and the
        #: lock events that carry them) do not depend on what ran before.
        self._next_id = itertools.count(1).__next__

    @property
    def now(self) -> float:
        return self.kernel.now if self.kernel is not None else 0.0

    # ------------------------------------------------------------------
    def register(self, obj: AtomicObject) -> AtomicObject:
        """Add an atomic object to the registry."""
        if obj.name in self._objects:
            raise ValueError(f"object {obj.name!r} already registered")
        self._objects[obj.name] = obj
        return obj

    def create_object(self, name: str, initial_state=None,
                      invariant=None) -> AtomicObject:
        """Create and register an atomic object in one step."""
        return self.register(AtomicObject(name, initial_state, invariant))

    def object(self, name: str) -> AtomicObject:
        """Look up a registered object."""
        try:
            return self._objects[name]
        except KeyError:
            raise KeyError(f"no atomic object named {name!r}") from None

    def objects(self) -> Iterable[AtomicObject]:
        """Iterate over all registered objects."""
        return self._objects.values()

    # ------------------------------------------------------------------
    def begin(self, action_name: str) -> Transaction:
        """Start a new transaction on behalf of ``action_name``."""
        transaction_id = f"txn-{self._next_id()}"
        transaction = Transaction(self, transaction_id, action_name)
        self.active[transaction_id] = transaction
        return transaction

    def _finished(self, transaction: Transaction) -> None:
        self.active.pop(transaction.transaction_id, None)
        self.finished.append(transaction)

    def __repr__(self) -> str:
        return (f"<TransactionManager objects={len(self._objects)} "
                f"active={len(self.active)}>")
