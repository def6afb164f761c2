"""Invariant monitoring: the life-cycle seam feeding the oracle catalogue.

The :class:`InvariantMonitor` subscribes to the life-cycle seam of a
:class:`~repro.runtime.system.DistributedCASystem` (see
``DistributedCASystem.subscribe``) and records every entry, every
resolution delivery and every action conclusion.  After the run,
:meth:`check` evaluates the oracle predicates of :mod:`repro.core.oracles`:

* ``agreement`` and the duplicate-conclusion half of
  ``exactly_one_outcome`` are checked unconditionally — they are pure
  safety properties;
* the missing-conclusion half of ``exactly_one_outcome`` and the
  ``no_stranded_thread`` / ``abortion_atomic`` oracles are
  liveness-flavoured and only meaningful when the plan stayed within the
  paper's delivery assumptions (a plan that *drops* a protocol message is
  allowed to strand a participation — the paper says so explicitly), so
  :meth:`check` takes a ``require_liveness`` flag the explorer derives
  from ``ExplorationPlan.preserves_delivery``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Tuple

from ..core import oracles
from ..core.oracles import OracleViolation, ThreadQuiescence
from ..objects.transaction import TransactionStatus
from ..obs import events as kinds
from ..runtime.system import DistributedCASystem


class InvariantMonitor:
    """Collects life-cycle records for one run and evaluates the oracles."""

    def __init__(self, system: DistributedCASystem) -> None:
        self.system = system
        #: (action, instance) -> [(thread, resolved exception name)], one
        #: entry per *delivered* resolution (duplicates included).
        self.resolutions: Dict[Tuple[str, str], List[Tuple[str, str]]] = \
            defaultdict(list)
        #: (action, instance, thread) -> number of conclusions observed.
        self.outcomes: Dict[Tuple[str, str, str], int] = defaultdict(int)
        #: "instance/thread" -> resolved exception name (for differential
        #: comparison across algorithms).
        self.resolved_map: Dict[str, str] = {}
        #: Tracked transactional counters: (object name, key) -> initial
        #: committed value (see :meth:`track_counter`).
        self._counters: Dict[Tuple[str, str], Any] = {}
        system.subscribe(self._on_event)

    # ------------------------------------------------------------------
    def _on_event(self, kind: str, now: float, thread: str, action: str,
                  instance: str, data: Dict[str, Any]) -> None:
        if kind == kinds.ACTION_RESOLVED:
            name = data["exception"].name
            self.resolutions[(action, instance)].append((thread, name))
            self.resolved_map[f"{instance}/{thread}"] = name
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

    def _transactional_violations(self) -> List[OracleViolation]:
        violations: List[OracleViolation] = []
        if self._counters:
            violations.extend(
                oracles.check_no_lost_updates(self.counter_records()))
        locks = self.system.transactions.locks
        if locks is not None:
            held = locks.all_holders()
            waiting = locks.all_waiters()
            if held or waiting:
                finished = [t.transaction_id
                            for t in self.system.transactions.finished]
                violations.extend(oracles.check_locks_released(
                    held, waiting, finished))
        return violations

    def check(self, require_liveness: bool = True) -> List[OracleViolation]:
        """Evaluate the oracle catalogue over the collected records."""
        violations: List[OracleViolation] = []
        violations.extend(oracles.check_agreement(self.resolutions))
        violations.extend(oracles.check_exactly_one_outcome(
            self.outcomes, require_completion=require_liveness))
        if require_liveness:
            snapshots = self.quiescence()
            violations.extend(oracles.check_no_stranded_thread(snapshots))
            violations.extend(oracles.check_abortion_atomic(snapshots))
        violations.extend(self._transactional_violations())
        return violations
