"""Correctness oracles over protocol state: the paper's claims as predicates.

The paper argues three properties of the combined resolution + signalling
algorithms (Sections 3.3–3.4):

* **agreement** — every participant of an action instance that handles a
  resolving exception handles the *same* one (the resolver commits exactly
  once, Commit is what everyone else obeys);
* **exactly-one outcome** — each participating thread concludes each action
  instance exactly once (no duplicated or lost conclusions);
* **no stranded thread** — under the stated assumptions (dependable FIFO
  communication), no thread is left suspended forever: at quiescence every
  thread is idle, has no pending abortion and retains no undelivered
  protocol messages.

This module states those properties as pure predicates over plain data,
the one record they read (:class:`RunRecord`, filled by
:class:`~repro.runtime.monitor.InvariantMonitor`; real-backend node
records fold with :meth:`RunRecord.merge`) and the one catalogue over it,
:func:`check`, which judges every kind of run.

Every predicate returns a list of :class:`OracleViolation` (empty means the
property holds; empty input holds), so callers can aggregate across
predicates and runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from .state import ThreadState

#: Invariant names, as reported in violations (the catalogue).
AGREEMENT = "agreement"
EXACTLY_ONE_OUTCOME = "exactly_one_outcome"
NO_STRANDED_THREAD = "no_stranded_thread"
ABORTION_ATOMIC = "abortion_atomic"
DIFFERENTIAL_AGREEMENT = "differential_agreement"
NO_CRASH = "no_crash"
NO_LOST_UPDATE = "no_lost_update"
LOCKS_RELEASED = "locks_released"

INVARIANTS = (AGREEMENT, EXACTLY_ONE_OUTCOME, NO_STRANDED_THREAD,
              ABORTION_ATOMIC, DIFFERENTIAL_AGREEMENT, NO_CRASH,
              NO_LOST_UPDATE, LOCKS_RELEASED)


@dataclass(frozen=True)
class OracleViolation:
    """One observed violation of one invariant."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


def check_agreement(resolutions: Mapping[Tuple[str, str], Sequence[Tuple[str, str]]]
                    ) -> List[OracleViolation]:
    """All participants of one instance resolved to the same exception.

    ``resolutions`` maps ``(action, instance_key)`` to the list of
    ``(thread, resolved_exception_name)`` pairs observed for that instance —
    one entry per resolution *delivery*, so a duplicated Commit shows up
    as the same thread appearing twice and is flagged even when the
    duplicate announces the same exception (the resolver commits exactly
    once per instance).  Threads that never resolved (e.g. the instance
    was aborted before its resolution reached them) are simply absent;
    agreement is required among those that did.
    """
    violations: List[OracleViolation] = []
    for (action, instance), seen in sorted(resolutions.items()):
        names = sorted({name for _, name in seen})
        if len(names) > 1:
            by_thread = ", ".join(f"{thread}:{name}"
                                  for thread, name in sorted(seen))
            violations.append(OracleViolation(
                AGREEMENT,
                f"{action} instance {instance} resolved divergently "
                f"({by_thread})"))
        threads = [thread for thread, _ in seen]
        for thread in sorted(set(threads)):
            count = threads.count(thread)
            if count > 1:
                violations.append(OracleViolation(
                    AGREEMENT,
                    f"{action} instance {instance} delivered {count} "
                    f"resolutions to {thread}"))
    return violations


def check_exactly_one_outcome(outcomes: Mapping[Tuple[str, str, str], int],
                              require_completion: bool = True
                              ) -> List[OracleViolation]:
    """Each (instance, thread) participation concluded exactly once.

    ``outcomes`` maps ``(action, instance_key, thread)`` to the number of
    conclusions observed for that participation (zero for participations
    that were entered but never concluded).  More than one conclusion is
    a safety violation unconditionally; a *missing* conclusion is the
    liveness half — under assumption-violating fault plans a participation
    may legitimately never conclude, so callers waive it by passing
    ``require_completion=False``.
    """
    violations: List[OracleViolation] = []
    for (action, instance, thread), count in sorted(outcomes.items()):
        if count > 1 or (count == 0 and require_completion):
            violations.append(OracleViolation(
                EXACTLY_ONE_OUTCOME,
                f"{thread} concluded {action} instance {instance} "
                f"{count} times"))
    return violations


@dataclass(frozen=True)
class ThreadQuiescence:
    """The explorer-visible state of one thread at quiescence."""

    thread: str
    program_finished: bool
    status: str
    coordinator_state: ThreadState
    pending_abort: bool
    pending_abort_target: Any
    retained_messages: int
    stack_depth: int


def check_no_stranded_thread(threads: Iterable[ThreadQuiescence]
                             ) -> List[OracleViolation]:
    """No thread is left suspended/waiting once the simulation went quiet."""
    violations: List[OracleViolation] = []
    for snap in threads:
        problems: List[str] = []
        if not snap.program_finished:
            problems.append("program never finished")
        if snap.status != "idle":
            problems.append(f"status={snap.status!r}")
        if snap.coordinator_state is ThreadState.SUSPENDED:
            problems.append("coordinator suspended")
        if snap.stack_depth:
            problems.append(f"{snap.stack_depth} contexts still on SA")
        if snap.retained_messages:
            problems.append(f"{snap.retained_messages} retained messages")
        if problems:
            violations.append(OracleViolation(
                NO_STRANDED_THREAD,
                f"{snap.thread} stranded at quiescence: "
                + "; ".join(problems)))
    return violations


def check_abortion_atomic(threads: Iterable[ThreadQuiescence]
                          ) -> List[OracleViolation]:
    """Nested abortion ran to completion wherever it started."""
    violations: List[OracleViolation] = []
    for snap in threads:
        if snap.pending_abort or snap.pending_abort_target is not None:
            target = snap.pending_abort_target
            violations.append(OracleViolation(
                ABORTION_ATOMIC,
                f"{snap.thread} still mid-abortion at quiescence "
                f"(target={target!r})"))
    return violations


def check_no_lost_updates(counters: Iterable[Mapping[str, Any]]
                          ) -> List[OracleViolation]:
    """Tracked counters reflect every committed increment exactly once.

    The transactional workload's contract: each committed transaction
    that wrote a tracked counter field incremented it by exactly one
    (read under an exclusive lock, write value+1).  ``counters`` holds one
    record per tracked field::

        {"object": name, "key": field, "initial": v0, "final": v1,
         "committed_writers": n}

    where ``committed_writers`` counts the distinct *committed*
    transactions that wrote the field.  A final value below
    ``initial + committed_writers`` means a committed write was built on
    a stale read (the classic lost update); a value above it means an
    aborted transaction's write leaked into the committed state.
    """
    violations: List[OracleViolation] = []
    for record in counters:
        expected = record["initial"] + record["committed_writers"]
        if record["final"] != expected:
            violations.append(OracleViolation(
                NO_LOST_UPDATE,
                f"{record['object']}.{record['key']} ended at "
                f"{record['final']} but {record['committed_writers']} "
                f"committed writers over initial {record['initial']} "
                f"require {expected}"))
    return violations


def check_locks_released(held: Mapping[str, Sequence[Tuple[str, str]]],
                         waiting: Mapping[str, Sequence[str]],
                         finished: Iterable[str]) -> List[OracleViolation]:
    """No finished transaction still holds or awaits a lock at quiescence.

    Strict two-phase locking releases everything at commit/abort time —
    including after an *abort* (the recovery path must not leak locks).
    ``held`` and ``waiting`` are the lock manager's plain-data views
    (:meth:`~repro.objects.locks.LockManager.all_holders` /
    :meth:`~repro.objects.locks.LockManager.all_waiters`); ``finished``
    is the set of committed/aborted transaction ids.  At quiescence every
    transaction is finished, so any surviving grant or queued request is
    a leak.
    """
    finished_ids = set(finished)
    violations: List[OracleViolation] = []
    for object_name, grants in sorted(held.items()):
        for transaction_id, mode in grants:
            if transaction_id in finished_ids:
                violations.append(OracleViolation(
                    LOCKS_RELEASED,
                    f"finished transaction {transaction_id} still holds a "
                    f"{mode} lock on {object_name}"))
    for object_name, queue in sorted(waiting.items()):
        for transaction_id in queue:
            if transaction_id in finished_ids:
                violations.append(OracleViolation(
                    LOCKS_RELEASED,
                    f"finished transaction {transaction_id} still queued "
                    f"for a lock on {object_name}"))
    return violations


def check_differential_agreement(reference: Mapping[str, str],
                                 candidate: Mapping[str, str],
                                 reference_name: str,
                                 candidate_name: str) -> List[OracleViolation]:
    """Two algorithms resolved the same instances to the same exceptions.

    Both arguments map ``"action#instance/thread"`` keys to resolved
    exception names.  The baselines implement the *same specification* with
    different message patterns, so on an identical deterministic workload
    they must agree on what each instance resolved to.
    """
    violations: List[OracleViolation] = []
    for key in sorted(set(reference) | set(candidate)):
        ours = reference.get(key)
        theirs = candidate.get(key)
        if ours != theirs:
            violations.append(OracleViolation(
                DIFFERENTIAL_AGREEMENT,
                f"{key}: {reference_name} resolved {ours!r} but "
                f"{candidate_name} resolved {theirs!r}"))
    return violations


# ----------------------------------------------------------------------
# The run record and the catalogue over it
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """One run's (or one node's) oracle inputs, as plain picklable data:
    the arguments of the predicates above, one field each."""

    resolutions: Dict[Tuple[str, str], List[Tuple[str, str]]] = \
        field(default_factory=dict)
    outcomes: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    quiescence: List[ThreadQuiescence] = field(default_factory=list)
    counters: List[Mapping[str, Any]] = field(default_factory=list)
    locks_held: Dict[str, List[Tuple[str, str]]] = field(default_factory=dict)
    locks_waiting: Dict[str, List[str]] = field(default_factory=dict)
    finished_txns: List[str] = field(default_factory=list)

    @classmethod
    def merge(cls, records: Iterable["RunRecord"]) -> "RunRecord":
        """Fold node records into one: lists and keyed lists concatenate
        in the order given (node order), ``outcomes`` sum."""
        merged = cls()
        for record in records:
            for name in ("resolutions", "locks_held", "locks_waiting"):
                into = getattr(merged, name)
                for key, entries in getattr(record, name).items():
                    into.setdefault(key, []).extend(entries)
            for key, count in record.outcomes.items():
                merged.outcomes[key] = merged.outcomes.get(key, 0) + count
            for name in ("quiescence", "counters", "finished_txns"):
                getattr(merged, name).extend(getattr(record, name))
        return merged


def check(record: RunRecord,
          require_liveness: bool = True) -> List[OracleViolation]:
    """The oracle catalogue: every predicate over ``record``, once each.

    ``require_liveness=False`` waives the liveness half — missing
    conclusions, ``no_stranded_thread`` and ``abortion_atomic`` — which a
    run outside the paper's delivery assumptions (a dropped message, a
    crashed node) may legitimately break; the safety oracles always run.
    """
    violations = check_agreement(record.resolutions)
    violations.extend(check_exactly_one_outcome(
        record.outcomes, require_completion=require_liveness))
    if require_liveness:
        violations.extend(check_no_stranded_thread(record.quiescence))
        violations.extend(check_abortion_atomic(record.quiescence))
    violations.extend(check_no_lost_updates(record.counters))
    violations.extend(check_locks_released(
        record.locks_held, record.locks_waiting, record.finished_txns))
    return violations


def resolved_names(resolutions: Mapping[Tuple[str, str],
                                        Sequence[Tuple[str, str]]]
                   ) -> Dict[str, str]:
    """``"instance/thread" -> resolved name``, the last delivery winning
    (what :func:`check_differential_agreement` compares)."""
    return {f"{instance}/{thread}": name
            for (_, instance), seen in resolutions.items()
            for thread, name in seen}
