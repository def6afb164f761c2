"""The one oracle catalogue: ``oracles.check`` over a ``RunRecord``.

One minimal record per invariant, each reporting exactly that invariant,
plus the liveness waiver, the node-record merge and the guard that keeps
the catalogue in one place.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.core import oracles
from repro.core.oracles import RunRecord, ThreadQuiescence
from repro.core.state import ThreadState


def _quiet(thread="T1", **overrides):
    base = dict(thread=thread, program_finished=True, status="idle",
                coordinator_state=ThreadState.NORMAL, pending_abort=False,
                pending_abort_target=None, retained_messages=0,
                stack_depth=0)
    base.update(overrides)
    return ThreadQuiescence(**base)


def _counter(final, committed_writers, initial=0):
    return {"object": "acct", "key": "value", "initial": initial,
            "final": final, "committed_writers": committed_writers}


#: name -> (record, invariant it reports, waived by require_liveness=False)
CASES = {
    "divergent_resolution": (
        RunRecord(resolutions={("A", "A#1"): [("T1", "x"), ("T2", "y")]}),
        oracles.AGREEMENT, False),
    "duplicate_conclusion": (
        RunRecord(outcomes={("A", "A#1", "T1"): 2}),
        oracles.EXACTLY_ONE_OUTCOME, False),
    "missing_conclusion": (
        RunRecord(outcomes={("A", "A#1", "T1"): 0}),
        oracles.EXACTLY_ONE_OUTCOME, True),
    "stranded_thread": (
        RunRecord(quiescence=[_quiet(status="waiting")]),
        oracles.NO_STRANDED_THREAD, True),
    "mid_abortion": (
        RunRecord(quiescence=[_quiet(pending_abort=True)]),
        oracles.ABORTION_ATOMIC, True),
    "lost_update": (
        RunRecord(counters=[_counter(final=1, committed_writers=2)]),
        oracles.NO_LOST_UPDATE, False),
    "held_lock_no_waiter": (
        RunRecord(locks_held={"acct": [("tx1", "exclusive")]},
                  finished_txns=["tx1"]),
        oracles.LOCKS_RELEASED, False),
    "queued_lock": (
        RunRecord(locks_waiting={"acct": ["tx1"]}, finished_txns=["tx1"]),
        oracles.LOCKS_RELEASED, False),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_record_reports_exactly_its_invariant(name):
    record, invariant, _ = CASES[name]
    assert [v.invariant for v in oracles.check(record)] == [invariant]


@pytest.mark.parametrize("name", sorted(CASES))
def test_waiving_liveness_drops_exactly_the_liveness_half(name):
    record, invariant, waived = CASES[name]
    expected = [] if waived else [invariant]
    assert [v.invariant
            for v in oracles.check(record, require_liveness=False)] == expected


def test_a_clean_record_reports_nothing():
    assert oracles.check(RunRecord()) == []
    clean = RunRecord(
        resolutions={("A", "A#1"): [("T1", "x"), ("T2", "x")]},
        outcomes={("A", "A#1", "T1"): 1, ("A", "A#1", "T2"): 1},
        quiescence=[_quiet("T1"), _quiet("T2")],
        counters=[_counter(final=2, committed_writers=2)],
        locks_held={"acct": [("tx9", "shared")]},
        locks_waiting={"acct": ["tx8"]}, finished_txns=["tx1", "tx2"])
    assert oracles.check(clean) == []


def test_merged_node_records_judge_like_the_single_record():
    # Each node alone is clean: the divergent resolution and the
    # duplicated conclusion only exist across the two of them.
    node_a = RunRecord(
        resolutions={("A", "A#1"): [("T1", "x")]},
        outcomes={("A", "A#1", "T1"): 1},
        quiescence=[_quiet("T1")],
        counters=[_counter(final=1, committed_writers=2)],
        locks_held={"acct": [("tx1", "exclusive")]})
    node_b = RunRecord(
        resolutions={("A", "A#1"): [("T2", "y")]},
        outcomes={("A", "A#1", "T1"): 1, ("A", "A#1", "T2"): 0},
        quiescence=[_quiet("T2", status="waiting")],
        finished_txns=["tx1"])
    single = RunRecord(
        resolutions={("A", "A#1"): [("T1", "x"), ("T2", "y")]},
        outcomes={("A", "A#1", "T1"): 2, ("A", "A#1", "T2"): 0},
        quiescence=[_quiet("T1"), _quiet("T2", status="waiting")],
        counters=[_counter(final=1, committed_writers=2)],
        locks_held={"acct": [("tx1", "exclusive")]}, finished_txns=["tx1"])
    merged = RunRecord.merge([node_a, node_b])
    assert merged == single
    for require_liveness in (True, False):
        assert oracles.check(merged, require_liveness) == \
            oracles.check(single, require_liveness)
    assert {v.invariant for v in oracles.check(merged)} == {
        oracles.AGREEMENT, oracles.EXACTLY_ONE_OUTCOME,
        oracles.NO_STRANDED_THREAD, oracles.NO_LOST_UPDATE,
        oracles.LOCKS_RELEASED}


def test_resolved_names_keeps_the_last_delivery_per_thread():
    resolutions = {("A", "A#1"): [("T1", "x"), ("T2", "x"), ("T1", "y")],
                   ("B", "B#1"): [("T1", "z")]}
    assert oracles.resolved_names(resolutions) == {
        "A#1/T1": "y", "A#1/T2": "x", "B#1/T1": "z"}


#: The predicates only the catalogue calls.
CATALOGUE = {"check_agreement", "check_exactly_one_outcome",
             "check_no_stranded_thread", "check_abortion_atomic",
             "check_no_lost_updates", "check_locks_released"}


def test_only_the_catalogue_calls_the_predicates():
    source = Path(repro.__file__).parent
    callers = []
    for path in sorted(source.rglob("*.py")):
        if path == source / "core" / "oracles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in CATALOGUE:
                callers.append(f"{path.relative_to(source)}:{node.lineno}")
    assert callers == []
