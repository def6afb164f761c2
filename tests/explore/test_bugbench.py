"""The random explorer against the known-bug bench (``bugbench.py``).

Also the regression for the abort-during-signalling strand: an enclosing
abort that reaches a thread just after its nested handler finished must
still abort the nested action.  Random sampling cannot reach that window
(its delays stay below 5 time units), so the plans are written out here.
"""

import pytest

from bugbench import (BUGS, SEEDS, KnownBug, runs_to_first_failure,
                      summarise)
from repro.explore import ExplorationPlan, Explorer, run_case
from repro.net.faults import FaultDirective

BY_NAME = {bug.name: bug for bug in BUGS}

#: T1's outer ExceptionMessage reaches the peer just as its 10 s Inner
#: handler has finished, i.e. while it is already signalling.
SIGNALLING_WINDOW = [(source, extra) for source in ("T2", "T3")
                     for extra in (9.29, 9.3, 9.34, 9.38)]


def late_outer_exception(source: str, extra: float) -> ExplorationPlan:
    return ExplorationPlan(directives=(
        FaultDirective("delay_link", source=source, destination="T1",
                       extra=extra),))


class TestAbortDuringSignalling:
    @pytest.mark.parametrize("source, extra", SIGNALLING_WINDOW)
    def test_the_late_abort_still_concludes_every_participant(
            self, source, extra):
        result = run_case("nested_abort", late_outer_exception(source, extra))
        assert result.violations == []
        assert result.completed

    def test_the_bench_patch_brings_the_strand_back(self, monkeypatch):
        BY_NAME["abort_during_signalling"].patch(monkeypatch)
        result = run_case("nested_abort", late_outer_exception("T2", 9.3))
        assert not result.completed
        assert result.error is None
        assert "exactly_one_outcome" in {
            violation.invariant for violation in result.violations}


class TestBenchArithmetic:
    """The bench's numbers are the evidence for its verdicts."""

    def test_a_miss_counts_as_never_found(self):
        # Median over (1, never, 3) is 3: a miss is not dropped, which
        # would flatter an explorer that misses often.
        assert summarise([1, None, 3]) == \
            "median     3  misses  1/3  worst 3"

    def test_a_bug_missed_on_most_seeds_has_no_median(self):
        assert summarise([None, None, 5]) == \
            "median  miss  misses  2/3  worst 5"
        assert summarise([None, None]) == \
            "median  miss  misses  2/2  worst -"

    def test_the_fixed_protocol_is_never_found(self):
        # With no patch and the default algorithm there is nothing to
        # find: a bench entry that fires on correct code measures noise.
        assert runs_to_first_failure(KnownBug("none", "no bug"), seed=0,
                                     budget=10) is None

    def test_runs_are_counted_from_one(self, monkeypatch):
        bug = BY_NAME["lost_commit"]
        runs = runs_to_first_failure(bug, seed=0)
        assert runs is not None
        bug.patch(monkeypatch)
        report = Explorer(target="nested_abort", seed=0, budget=runs).run()
        assert [case.index for case in report.failures] == [runs - 1]


@pytest.mark.explore
@pytest.mark.parametrize("name", ["lost_commit", "early_report_drop",
                                  "cr_stranding"])
def test_the_random_explorer_finds_the_bug_on_every_seed(name):
    bug = BY_NAME[name]
    misses = [seed for seed in SEEDS
              if runs_to_first_failure(bug, seed) is None]
    assert misses == [], f"{name}: no failure in 200 runs on seeds {misses}"
