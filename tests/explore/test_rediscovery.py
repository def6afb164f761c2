"""Acceptance: the explorer rediscovers the lost-Commit race mechanically.

PR 2 fixed a deadlock that was found by *hand-crafting* one fault plan
(delay the Inner ``Commit`` into T3's abortion window).  These tests
locally revert the fix — restoring the pre-PR2 ``_receive_commit``
behaviour — and show that a fixed-seed explorer budget rediscovers the
deadlock through the ``no_stranded_thread`` oracle alone, and that the
shrinker reduces the failing plan to a single-directive reproducer.  With
the fix in place, the same budget passes clean
(``test_explore_budget.py`` sweeps the full budget; the shrunk plan is
re-checked here).
"""

import pytest

from bugbench import lost_commit_bug  # noqa: F401 (a fixture)
from repro.core.oracles import EXACTLY_ONE_OUTCOME, NO_STRANDED_THREAD
from repro.explore import Explorer, run_case, shrink_plan, to_pytest_source

#: Fixed seed and budget of the acceptance criterion (≤ 500 plans).
SEED = 2026
BUDGET = 500


class TestRediscovery:
    def test_budget_rediscovers_the_deadlock(self, lost_commit_bug):
        explorer = Explorer(target="nested_abort", seed=SEED, budget=BUDGET,
                            stop_on_first_failure=True)
        report = explorer.run()
        assert report.failures, \
            f"no failure found in {BUDGET} plans of seed {SEED}"
        first = report.failures[0]
        # Found through the no-stranded-thread oracle, as a true deadlock
        # (programs never finished), well inside the budget.
        assert first.index < BUDGET
        assert not first.completed
        invariants = {v.invariant for v in first.violations}
        # The deadlock surfaces through the no-stranded-thread oracle (and,
        # since the stranded participations were entered but never
        # concluded, the lost-conclusion half of exactly-one-outcome too).
        assert NO_STRANDED_THREAD in invariants
        assert invariants <= {NO_STRANDED_THREAD, EXACTLY_ONE_OUTCOME}
        assert any("program never finished" in v.detail
                   for v in first.violations)

    def test_shrinker_reduces_to_one_directive(self, lost_commit_bug):
        explorer = Explorer(target="nested_abort", seed=SEED, budget=BUDGET,
                            stop_on_first_failure=True)
        report = explorer.run()
        first = report.failures[0]
        result = shrink_plan(first.plan, explorer.predicate())
        # Truly minimal: one directive, no schedule perturbation left.
        assert len(result.reduced) == 1
        assert result.reduced.tie_seed is None
        assert result.violations, "the reduced plan must still fail"
        # The reproducer is self-contained: rebuild it from its dict form
        # and it still triggers the deadlock.
        from repro.explore import ExplorationPlan
        rebuilt = ExplorationPlan.from_dict(result.reduced.to_dict())
        assert run_case("nested_abort", rebuilt).violations

    def test_emitted_pytest_regression_is_executable(self, lost_commit_bug,
                                                     tmp_path):
        explorer = Explorer(target="nested_abort", seed=SEED, budget=BUDGET,
                            stop_on_first_failure=True)
        first = explorer.run().failures[0]
        result = shrink_plan(first.plan, explorer.predicate())
        source = to_pytest_source("nested_abort", result.reduced,
                                  result.violations)
        # The generated module compiles and, executed under the reverted
        # fix, its test fails (it is a regression for the bug).
        module = {}
        exec(compile(source, "generated_regression.py", "exec"), module)
        with pytest.raises(AssertionError, match="invariant violations"):
            module["test_explored_fault_plan"]()

    def test_shrunk_plan_passes_with_the_fix_in_place(self):
        # Run the canonical hand-shrunk reproducer (delay the Inner Commit
        # into the abortion window) against the fixed coordinator: clean.
        from repro.explore import ExplorationPlan
        from repro.net.faults import FaultDirective
        plan = ExplorationPlan(directives=(
            FaultDirective("delay_type", source="T2", destination="T3",
                           type_name="CommitMessage", extra=3.0),))
        result = run_case("nested_abort", plan)
        assert result.violations == []
        assert result.completed


class TestShrinkerMechanics:
    def test_refuses_to_shrink_a_passing_plan(self):
        from repro.explore import ExplorationPlan
        with pytest.raises(ValueError, match="does not fail"):
            shrink_plan(ExplorationPlan(), lambda plan: [])

    def test_removes_noise_directives(self):
        from repro.explore import ExplorationPlan
        from repro.net.faults import FaultDirective
        culprit = FaultDirective("delay_type", source="T2", destination="T3",
                                 type_name="CommitMessage", extra=3.0)
        noise = FaultDirective("delay_link", source="T1", destination="T3",
                               extra=0.4)

        def predicate(plan):
            # Fails iff the culprit is present.
            return (["fail"] if culprit in plan.directives else [])

        plan = ExplorationPlan(directives=(noise, culprit, noise), tie_seed=8)
        result = shrink_plan(plan, predicate)
        assert result.reduced.tie_seed is None
        assert [d.kind for d in result.reduced.directives] == ["delay_type"]
        assert result.removed_directives == 2

    def test_halves_delay_magnitudes_while_failing(self):
        from repro.explore import ExplorationPlan
        from repro.net.faults import FaultDirective
        directive = FaultDirective("delay_link", source="A", destination="B",
                                   extra=8.0)

        def predicate(plan):
            return (["fail"] if plan.directives
                    and plan.directives[0].extra >= 2.0 else [])

        result = shrink_plan(ExplorationPlan(directives=(directive,)),
                             predicate)
        assert result.reduced.directives[0].extra == 2.0

    def test_normalises_a_required_tie_seed_to_the_smallest(self):
        from repro.explore import ExplorationPlan
        from repro.net.faults import FaultDirective
        directive = FaultDirective("delay_link", source="A", destination="B",
                                   extra=1.0)

        def predicate(plan):
            # Any schedule perturbation reproduces; none at all does not.
            return (["fail"] if plan.directives
                    and plan.tie_seed is not None else [])

        plan = ExplorationPlan(directives=(directive,), tie_seed=536549379)
        result = shrink_plan(plan, predicate)
        assert result.reduced.tie_seed == 0

    def test_simplifies_per_nth_delay_to_per_type(self):
        from repro.explore import ExplorationPlan
        from repro.net.faults import FaultDirective

        def delays_commit(directive):
            on_link = (directive.source, directive.destination) == ("T2", "T3")
            return on_link and (
                (directive.kind == "delay_nth" and directive.n == 3)
                or (directive.kind == "delay_type"
                    and directive.type_name == "CommitMessage"))

        def predicate(plan):
            # Fails iff the Commit on T2->T3 is delayed — by ordinal or
            # by type; the per-type form is the one worth keeping.
            return (["fail"] if any(delays_commit(d) for d in plan.directives)
                    else [])

        plan = ExplorationPlan(directives=(
            FaultDirective("delay_nth", source="T2", destination="T3",
                           n=3, extra=3.0),))
        result = shrink_plan(plan, predicate)
        reduced = result.reduced.directives[0]
        assert reduced.kind == "delay_type"
        assert reduced.type_name == "CommitMessage"

    def test_simplifies_timed_crash_to_immediate(self):
        from repro.explore import ExplorationPlan
        from repro.net.faults import FaultDirective

        def predicate(plan):
            return (["fail"] if any(d.kind == "crash" and d.node == "T1"
                                    for d in plan.directives) else [])

        plan = ExplorationPlan(directives=(
            FaultDirective("crash", node="T1", at_time=2.5),))
        result = shrink_plan(plan, predicate)
        assert result.reduced.directives[0].at_time is None
