"""External atomic objects and their transactional machinery.

CA actions manipulate two kinds of objects: *local* objects private to the
action, and *external* objects shared with the rest of the system.  External
objects must preserve the ACID properties; this package implements them with
versioned state, strict two-phase locking, per-transaction working copies,
undo (backward recovery) and repair (forward recovery).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "atomic_object": [
        "AtomicObject", "ExceptionNotification", "IntegrityError",
        "OperationRecord", "UndoFailure",
    ],
    "locks": ["DeadlockError", "LockManager", "LockMode"],
    "recovery": [
        "RecoveryKind", "RecoveryOutcome", "RecoveryPlan", "RecoveryStep",
        "outcome_to_interface_exception",
    ],
    "transaction": [
        "Transaction", "TransactionError", "TransactionManager",
        "TransactionStatus",
    ],
})
