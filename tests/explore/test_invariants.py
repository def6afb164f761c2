"""The oracle catalogue and the invariant monitor."""

import pytest

from repro.core import oracles
from repro.core.oracles import ThreadQuiescence
from repro.core.state import ThreadState
from repro.explore import ExplorationPlan, run_case
from repro.explore.targets import get_target
from repro.net.faults import FaultDirective
from repro.runtime.monitor import InvariantMonitor


def _quiet(thread="T1", **overrides):
    base = dict(thread=thread, program_finished=True, status="idle",
                coordinator_state=ThreadState.NORMAL, pending_abort=False,
                pending_abort_target=None, retained_messages=0,
                stack_depth=0)
    base.update(overrides)
    return ThreadQuiescence(**base)


class TestOraclePredicates:
    def test_agreement_holds_on_identical_resolutions(self):
        resolutions = {("A", "A#1"): [("T1", "e"), ("T2", "e"), ("T3", "e")]}
        assert oracles.check_agreement(resolutions) == []

    def test_agreement_flags_divergence(self):
        resolutions = {("A", "A#1"): [("T1", "e1"), ("T2", "e2")]}
        violations = oracles.check_agreement(resolutions)
        assert len(violations) == 1
        assert violations[0].invariant == oracles.AGREEMENT
        assert "T1:e1" in violations[0].detail

    def test_agreement_flags_duplicate_identical_deliveries(self):
        # The resolver commits exactly once per instance: two deliveries
        # to one thread are a protocol violation even when they announce
        # the same exception.
        resolutions = {("A", "A#1"): [("T1", "e"), ("T1", "e"), ("T2", "e")]}
        violations = oracles.check_agreement(resolutions)
        assert len(violations) == 1
        assert "2 resolutions to T1" in violations[0].detail

    def test_exactly_one_outcome(self):
        assert oracles.check_exactly_one_outcome(
            {("A", "A#1", "T1"): 1}) == []
        violations = oracles.check_exactly_one_outcome(
            {("A", "A#1", "T1"): 2})
        assert violations[0].invariant == oracles.EXACTLY_ONE_OUTCOME

    def test_lost_conclusion_is_a_liveness_violation(self):
        # Entered but never concluded: flagged when completion is owed,
        # waived for assumption-violating plans.
        lost = {("A", "A#1", "T1"): 0}
        violations = oracles.check_exactly_one_outcome(lost)
        assert "0 times" in violations[0].detail
        assert oracles.check_exactly_one_outcome(
            lost, require_completion=False) == []
        # Duplicates stay violations even when completion is waived.
        assert oracles.check_exactly_one_outcome(
            {("A", "A#1", "T1"): 2}, require_completion=False)

    def test_no_stranded_thread(self):
        assert oracles.check_no_stranded_thread([_quiet()]) == []
        stranded = _quiet(program_finished=False,
                          status="awaiting_resolution", stack_depth=1)
        violations = oracles.check_no_stranded_thread([stranded])
        assert violations[0].invariant == oracles.NO_STRANDED_THREAD
        assert "program never finished" in violations[0].detail

    def test_retained_message_counts_as_stranded(self):
        violations = oracles.check_no_stranded_thread(
            [_quiet(retained_messages=1)])
        assert "retained" in violations[0].detail

    def test_abortion_atomic(self):
        assert oracles.check_abortion_atomic([_quiet()]) == []
        violations = oracles.check_abortion_atomic(
            [_quiet(pending_abort_target="Outer")])
        assert violations[0].invariant == oracles.ABORTION_ATOMIC

    def test_differential_agreement(self):
        ours = {"A#1/T1": "e"}
        assert oracles.check_differential_agreement(
            ours, {"A#1/T1": "e"}, "ours", "cr") == []
        violations = oracles.check_differential_agreement(
            ours, {"A#1/T1": "other"}, "ours", "cr")
        assert violations[0].invariant == oracles.DIFFERENTIAL_AGREEMENT
        missing = oracles.check_differential_agreement(ours, {}, "ours", "cr")
        assert len(missing) == 1


class TestInvariantMonitor:
    def test_clean_run_upholds_every_invariant(self):
        system = get_target("nested_abort").build(
            ExplorationPlan().make_fault_plan())
        monitor = InvariantMonitor(system)
        system.run()
        assert monitor.check(require_liveness=True) == []
        # The monitor actually saw the run: Outer resolved on all threads.
        assert any(action == "Outer"
                   for action, _ in monitor.resolutions)
        assert all(count == 1 for count in monitor.outcomes.values())

    def test_monitor_sees_agreed_resolution_per_instance(self):
        system = get_target("concurrent_raises").build(
            ExplorationPlan().make_fault_plan())
        monitor = InvariantMonitor(system)
        system.run()
        [(key, seen)] = list(monitor.resolutions.items())
        assert key[0] == "Concurrent"
        assert {thread for thread, _ in seen} == {"T1", "T2", "T3"}
        assert len({name for _, name in seen}) == 1


class TestRunCaseConditioning:
    def test_crash_plan_is_not_held_to_liveness(self):
        # Crashing T3 outright strands the protocol — the paper says the
        # resolution algorithm does not tolerate crashes — so the oracle
        # catalogue must not call that a violation.
        plan = ExplorationPlan(directives=(
            FaultDirective("crash", node="T3"),))
        result = run_case("concurrent_raises", plan)
        assert not plan.preserves_delivery
        assert result.violations == []
        assert not result.completed

    def test_delivery_preserving_plan_is_held_to_liveness(self):
        plan = ExplorationPlan(directives=(
            FaultDirective("delay_link", source="T1", destination="T2",
                           extra=2.0),))
        assert plan.preserves_delivery
        result = run_case("concurrent_raises", plan)
        assert result.violations == []
        assert result.completed

    def test_differential_baselines_agree_on_clean_plan(self):
        result = run_case("concurrent_raises", ExplorationPlan(),
                          baselines=("campbell-randell", "romanovsky96"))
        assert result.violations == []


class TestLocksReleasedOracle:
    def test_a_finished_transaction_holding_an_unwanted_lock_is_flagged(self):
        """A leaked grant that nobody waits for is still a leak."""
        from tests.conftest import make_simple_system

        system = make_simple_system()
        system.create_object("acct", {"value": 0})
        monitor = InvariantMonitor(system)
        manager = system.transactions
        transaction = manager.begin("A")
        transaction.lock("acct")
        manager._finished(transaction)      # finished without release_all
        assert manager.locks.all_holders() and not manager.locks.all_waiters()
        violations = monitor.check(require_liveness=False)
        assert [v.invariant for v in violations] == [oracles.LOCKS_RELEASED]
        assert transaction.transaction_id in violations[0].detail
