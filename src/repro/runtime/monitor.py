"""Invariant monitoring: the life-cycle seam feeding the oracle catalogue.

The :class:`InvariantMonitor` subscribes to the life-cycle seam of a
:class:`~repro.runtime.system.DistributedCASystem` (see
``DistributedCASystem.subscribe``) and records every resolution delivery,
every entry and every action conclusion.  :meth:`record` reads those,
plus the threads' quiescence snapshots and the transactional state, into
a :class:`~repro.core.oracles.RunRecord`, and :meth:`check` judges it
with :func:`repro.core.oracles.check` — whose ``require_liveness`` flag
the explorer derives from ``ExplorationPlan.preserves_delivery`` (a plan
that *drops* a protocol message is allowed to strand a participation —
the paper says so explicitly).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from ..core import oracles
from ..core.oracles import OracleViolation, RunRecord, ThreadQuiescence
from ..objects.transaction import TransactionStatus
from . import events as kinds
from .system import DistributedCASystem


class InvariantMonitor:
    """Collects one run's life-cycle records and evaluates the oracles."""

    def __init__(self, system: DistributedCASystem) -> None:
        self.system = system
        #: (action, instance) -> [(thread, resolved exception name)], one
        #: entry per *delivered* resolution (duplicates included).
        self.resolutions: Dict[Tuple[str, str], List[Tuple[str, str]]] = \
            defaultdict(list)
        #: (action, instance, thread) -> number of conclusions observed.
        self.outcomes: Dict[Tuple[str, str, str], int] = defaultdict(int)
        #: Tracked transactional counters: (object name, key) -> initial
        #: committed value (see :meth:`track_counter`).
        self._counters: Dict[Tuple[str, str], Any] = {}
        system.subscribe(self._on_event)

    # ------------------------------------------------------------------
    def _on_event(self, kind: str, now: float, thread: str, action: str,
                  instance: str, data: Dict[str, Any]) -> None:
        if kind == kinds.ACTION_RESOLVED:
            self.resolutions[(action, instance)].append(
                (thread, data["exception"].name))
        elif kind == kinds.ACTION_ENTERED:
            # Seed the outcome counter at zero so a participation that is
            # entered but never concluded is visible to the oracle as a
            # lost conclusion, not silently absent.
            self.outcomes.setdefault((action, instance, thread), 0)
        elif kind == kinds.ACTION_CONCLUDED:
            self.outcomes[(action, instance, thread)] += 1

    # ------------------------------------------------------------------
    def quiescence(self) -> List[ThreadQuiescence]:
        """Snapshot every thread's explorer-visible state at quiescence."""
        snapshots: List[ThreadQuiescence] = []
        for name in sorted(self.system.partitions):
            partition = self.system.partitions[name]
            process = partition.thread_process
            finished = process is not None and process.triggered
            coordinator = partition.coordinator
            snapshots.append(ThreadQuiescence(
                thread=name,
                program_finished=finished,
                status=partition.status,
                coordinator_state=coordinator.state,
                pending_abort=partition.pending_abort is not None,
                pending_abort_target=coordinator.pending_abort_target,
                retained_messages=len(coordinator.retained),
                stack_depth=len(coordinator.sa),
            ))
        return snapshots

    # ------------------------------------------------------------------
    # Transactional oracles (external atomic objects)
    # ------------------------------------------------------------------
    def track_counter(self, object_name: str, key: str = "value") -> None:
        """Track a counter field for the no-lost-update oracle.

        Call after creating the object and before the run: the current
        committed value becomes the baseline, and :meth:`check` requires
        the final committed value to equal it plus one per *committed*
        transaction that wrote the field (the transactional workload's
        read-increment-write contract under exclusive locks).
        """
        obj = self.system.transactions.object(object_name)
        self._counters[(object_name, key)] = obj.committed_value(key)

    def counter_records(self) -> List[Dict[str, Any]]:
        """The tracked counters as plain oracle records (see oracles)."""
        manager = self.system.transactions
        committed = {t.transaction_id for t in manager.finished
                     if t.status is TransactionStatus.COMMITTED}
        records: List[Dict[str, Any]] = []
        for (object_name, key), initial in sorted(self._counters.items()):
            obj = manager.object(object_name)
            writers = {record.transaction_id for record in obj.operations
                       if record.operation == "write" and record.key == key
                       and record.transaction_id in committed}
            records.append({
                "object": object_name, "key": key, "initial": initial,
                "final": obj.committed_value(key),
                "committed_writers": len(writers),
            })
        return records

    # ------------------------------------------------------------------
    def record(self, local: Optional[str] = None) -> RunRecord:
        """The run as a :class:`~repro.core.oracles.RunRecord`.

        The resolution and outcome containers are the monitor's own, not
        copies.  ``local`` keeps only that thread's quiescence snapshot
        (a real-backend node's stub partitions never run and would read
        as stranded).
        """
        quiescence = self.quiescence()
        if local is not None:
            quiescence = [snap for snap in quiescence if snap.thread == local]
        manager = self.system.transactions
        locks = manager.locks
        return RunRecord(
            resolutions=self.resolutions, outcomes=self.outcomes,
            quiescence=quiescence, counters=self.counter_records(),
            locks_held=locks.all_holders() if locks is not None else {},
            locks_waiting=locks.all_waiters() if locks is not None else {},
            finished_txns=[t.transaction_id for t in manager.finished])

    def check(self, require_liveness: bool = True) -> List[OracleViolation]:
        """Evaluate the oracle catalogue over the collected records."""
        return oracles.check(self.record(), require_liveness)
