"""The indexed ``LocalExceptionList`` against the list it replaced.

``ListLE`` below is the previous implementation, kept here as the reference:
a plain list scanned (and rebuilt) on every operation.  The indexed version
must answer every query identically — order included — under any sequence
of operations, with stamped and unstamped instances mixed.
"""

import random
from typing import List, Optional, Set

import pytest

from repro.core import LocalExceptionList, RaisedRecord, internal
from repro.core.exceptions import ExceptionDescriptor


class ListLE:
    """Reference semantics: LEi as the literal list of the paper."""

    def __init__(self) -> None:
        self._records: List[RaisedRecord] = []

    def add(self, record: RaisedRecord) -> None:
        self._records = [r for r in self._records
                         if not (r.action == record.action
                                 and r.thread == record.thread)]
        self._records.append(record)

    def remove_other_actions(self, action: str) -> None:
        self._records = [r for r in self._records if r.action == action]

    def keep_only(self, record: RaisedRecord) -> None:
        self._records = [record]

    def clear(self) -> None:
        self._records = []

    def records_for(self, action: str,
                    instance: Optional[str] = None) -> List[RaisedRecord]:
        return [r for r in self._records
                if r.action == action
                and (not instance or not r.instance or r.instance == instance)]

    def threads_reported(self, action: str,
                         instance: Optional[str] = None) -> Set[str]:
        return {r.thread for r in self.records_for(action, instance)}

    def exceptions_for(self, action: str, instance: Optional[str] = None
                       ) -> List[ExceptionDescriptor]:
        return [r.exception for r in self.records_for(action, instance)
                if r.exception is not None]

    def exceptional_threads(self, action: str,
                            instance: Optional[str] = None) -> Set[str]:
        return {r.thread for r in self.records_for(action, instance)
                if r.exception is not None}

    def __len__(self) -> int:
        return len(self._records)


ACTIONS = ("A", "B", "C")
THREADS = tuple(f"T{i}" for i in range(1, 7))
INSTANCES = ("", "A#1", "A#2", "B#1")
EXCEPTIONS = (None, internal("e1"), internal("e2"), internal("e3"))
QUERIES = ("records_for", "threads_reported", "exceptional_threads",
           "exceptions_for")


def random_record(rng: random.Random) -> RaisedRecord:
    return RaisedRecord(rng.choice(ACTIONS), rng.choice(THREADS),
                        rng.choice(EXCEPTIONS), rng.choice(INSTANCES))


def assert_same_answers(indexed: LocalExceptionList, reference: ListLE,
                        step: str) -> None:
    assert len(indexed) == len(reference), step
    for action in ACTIONS:
        for instance in (None,) + INSTANCES:
            for query in QUERIES:
                assert getattr(indexed, query)(action, instance) == \
                    getattr(reference, query)(action, instance), \
                    f"{query}({action!r}, {instance!r}) after {step}"
            reported = reference.threads_reported(action, instance)
            assert indexed.reported_count(action, instance) == len(reported)
            for participants in (reported, reported | {"T9"},
                                 set(THREADS[:len(reported)])):
                assert indexed.all_reported(
                    action, instance, frozenset(participants)) == \
                    (reported == participants)


@pytest.mark.parametrize("seed", range(12))
def test_random_operation_sequences_match_the_list(seed):
    rng = random.Random(seed)
    indexed, reference = LocalExceptionList(), ListLE()
    added: List[RaisedRecord] = []
    for number in range(150):
        roll = rng.random()
        if roll < 0.70 or not added:
            record = random_record(rng)
            added.append(record)
            step = f"#{number} add {record!r}/{record.instance!r}"
            indexed.add(record)
            reference.add(record)
        elif roll < 0.80:
            # keep_only is called with a record that is in the list (the
            # algorithm's <A*, Tj, Ej>) — but must not depend on it.
            record = rng.choice(added)
            step = f"#{number} keep_only {record!r}"
            indexed.keep_only(record)
            reference.keep_only(record)
        elif roll < 0.92:
            action = rng.choice(ACTIONS + ("",))
            step = f"#{number} remove_other_actions {action!r}"
            indexed.remove_other_actions(action)
            reference.remove_other_actions(action)
        else:
            step = f"#{number} clear"
            indexed.clear()
            reference.clear()
        assert_same_answers(indexed, reference, step)


def test_replacing_a_record_moves_it_to_the_end_and_restamps_it():
    e1, e2 = internal("e1"), internal("e2")
    le = LocalExceptionList()
    le.add(RaisedRecord("A", "T1", e1, "A#1"))
    le.add(RaisedRecord("A", "T2", e2, "A#1"))
    le.add(RaisedRecord("A", "T1", e1, "A#2"))      # T1 re-reports, new stamp
    assert le.exceptions_for("A") == [e2, e1]
    assert le.threads_reported("A", "A#1") == {"T2"}
    assert le.reported_count("A", "A#1") == 1
    assert le.reported_count("A", "A#2") == 1
    assert [r.thread for r in le] == ["T2", "T1"]
