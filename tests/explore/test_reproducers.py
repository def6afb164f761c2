"""Failing sweep plans become one pytest reproducer per root cause.

``shrink_to_reproducers`` is what ``python -m repro explore run`` writes
to ``--reproducers``.  Uses the lost-Commit bug from ``bugbench.py``,
whose one-directive plan is the cheapest deterministic failure.
"""

from __future__ import annotations

import pytest

from bugbench import BUGS, lost_commit_bug  # noqa: F401 (a fixture)
from repro.explore import ExplorationPlan, run_case
from repro.explore.shrink import shrink_to_reproducers
from repro.net.faults import FaultDirective

#: Delays the Inner ``Commit`` into T3's abortion window.
LATE_COMMIT = FaultDirective("delay_type", source="T2", destination="T3",
                             type_name="CommitMessage", extra=3.0)
LOST_COMMIT = next(bug for bug in BUGS if bug.name == "lost_commit")
#: A delay that plays no part in the failure.
BYSTANDER = FaultDirective("delay_link", source="T1", destination="T2",
                           extra=0.5)


def test_a_clean_sweep_has_no_reproducers():
    assert shrink_to_reproducers("nested_abort", []) == []


def test_plans_that_shrink_alike_keep_one_reproducer(lost_commit_bug):
    noisy = ExplorationPlan(directives=(BYSTANDER, LATE_COMMIT))
    bare = ExplorationPlan(directives=(LATE_COMMIT,))
    records = shrink_to_reproducers("nested_abort", [noisy, bare])
    assert len(records) == 1
    (record,) = records
    # The first plan to reach a reduced plan is the one kept.
    assert record["plan"] == noisy.to_dict()
    assert len(record["reduced"]["directives"]) == 1


def test_the_reproducer_fails_on_its_own(lost_commit_bug):
    (record,) = shrink_to_reproducers(
        "nested_abort", [ExplorationPlan(directives=(BYSTANDER, LATE_COMMIT))])
    reduced = ExplorationPlan.from_dict(record["reduced"])
    result = run_case("nested_abort", reduced)
    assert [str(v) for v in result.violations] == record["violations"]
    namespace = {}
    exec(record["source"], namespace)
    assert namespace["PLAN"] == reduced
    assert record["flight"]["events"]


def test_the_reproducer_passes_once_the_bug_is_fixed():
    with pytest.MonkeyPatch.context() as monkeypatch:
        LOST_COMMIT.patch(monkeypatch)
        (record,) = shrink_to_reproducers(
            "nested_abort", [ExplorationPlan(directives=(LATE_COMMIT,))])
    reduced = ExplorationPlan.from_dict(record["reduced"])
    assert run_case("nested_abort", reduced).violations == []
