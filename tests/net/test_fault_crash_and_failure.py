"""Crash faults and the signalling layer's degradation to ƒ.

Direct coverage for ``FaultPlan.crash_node`` / ``restore_node`` /
``is_crashed`` and the new per-type / per-nth delay hooks, plus the
paper's Section 3.4 extension: "the corrupted message or lost message can
be simply treated as a failure exception" — exercised end-to-end through
the runtime dispatcher and at the signal-coordinator level for crashed
(silent) peers.
"""

import pytest

from repro.core.exceptions import FAILURE, NO_EXCEPTION, internal
from repro.core.signalling import SignalCoordinator, SignalOutcome
from repro.core.state import ActionContext
from repro.core.exception_graph import generate_full_graph
from repro.net.faults import FaultPlan
from repro.net.message import Envelope
from repro.runtime.report import ActionStatus
from repro.worlds import WORLDS


class TestCrashFaults:
    def test_unconditional_crash_is_immediate(self):
        plan = FaultPlan()
        plan.crash_node("B")
        assert plan.is_crashed("B", 0.0)
        assert plan.is_crashed("B", 1000.0)
        assert not plan.is_crashed("A", 0.0)

    def test_timed_crash_boundary_is_inclusive(self):
        plan = FaultPlan()
        plan.crash_node("B", at_time=2.0)
        assert not plan.is_crashed("B", 1.999)
        assert plan.is_crashed("B", 2.0)
        assert plan.is_crashed("B", 2.001)

    def test_restore_clears_both_crash_forms(self):
        plan = FaultPlan()
        plan.crash_node("A")
        plan.crash_node("B", at_time=1.0)
        plan.restore_node("A")
        plan.restore_node("B")
        assert not plan.is_crashed("A", 5.0)
        assert not plan.is_crashed("B", 5.0)

    def test_crashed_source_blocks_sending(self):
        plan = FaultPlan()
        plan.crash_node("A", at_time=1.0)
        before = plan.apply(Envelope("A", "B", "m", send_time=0.5), 0.5)
        assert before == (True, 0.0)
        blocked = plan.apply(Envelope("A", "B", "m", send_time=1.5), 1.5)
        assert blocked == (False, 0.0)
        assert plan.stats.blocked_by_crash == 1

    def test_crashed_destination_blocks_delivery(self):
        plan = FaultPlan()
        plan.crash_node("B")
        assert plan.apply(Envelope("A", "B", "m"), 0.0) == (False, 0.0)
        assert plan.apply(Envelope("B", "A", "m"), 0.0) == (False, 0.0)
        assert plan.stats.blocked_by_crash == 2

    def test_restore_reopens_the_link(self):
        plan = FaultPlan()
        plan.crash_node("B")
        plan.apply(Envelope("A", "B", "m"), 0.0)
        plan.restore_node("B")
        assert plan.apply(Envelope("A", "B", "m"), 1.0) == (True, 0.0)


class TestNewDelayKinds:
    def test_type_delay_only_hits_matching_payloads(self):
        plan = FaultPlan()
        plan.delay_message_type("A", "B", "str", 2.0)
        assert plan.apply(Envelope("A", "B", "text"), 0.0) == (True, 2.0)
        assert plan.apply(Envelope("A", "B", 42), 0.0) == (True, 0.0)
        assert plan.apply(Envelope("B", "A", "text"), 0.0) == (True, 0.0)

    def test_nth_delay_hits_exactly_the_nth_message(self):
        plan = FaultPlan()
        plan.delay_nth_message("A", "B", 2, 1.5)
        assert plan.apply(Envelope("A", "B", "m1"), 0.0) == (True, 0.0)
        assert plan.apply(Envelope("A", "B", "m2"), 0.0) == (True, 1.5)
        assert plan.apply(Envelope("A", "B", "m3"), 0.0) == (True, 0.0)

    def test_delays_compose_and_count_once(self):
        plan = FaultPlan()
        plan.add_link_delay("A", "B", 1.0)
        plan.delay_message_type("A", "B", "str", 2.0)
        plan.delay_nth_message("A", "B", 1, 4.0)
        assert plan.apply(Envelope("A", "B", "text"), 0.0) == (True, 7.0)
        assert plan.stats.delayed == 1

    def test_validation(self):
        plan = FaultPlan()
        with pytest.raises(ValueError):
            plan.delay_message_type("A", "B", "", 1.0)
        with pytest.raises(ValueError):
            plan.delay_message_type("A", "B", "X", -1.0)
        with pytest.raises(ValueError):
            plan.delay_nth_message("A", "B", 0, 1.0)


class TestSignallingDegradesToFailure:
    def _coordinator(self, thread="T1"):
        graph = generate_full_graph([internal("e")], action_name="A")
        context = ActionContext("A", ("T1", "T2", "T3"), graph)
        return SignalCoordinator(thread, context)

    def test_crashed_peer_silence_becomes_failure(self):
        coordinator = self._coordinator()
        coordinator.propose(NO_EXCEPTION)
        coordinator.peer_failed("T2")
        effects = coordinator.peer_failed("T3")
        outcomes = [e for e in effects if isinstance(e, SignalOutcome)]
        assert coordinator.decided == FAILURE
        assert outcomes and outcomes[0].exception == FAILURE

    def test_single_crashed_peer_forces_failure_for_all(self):
        from repro.core.messages import ToBeSignalledMessage
        coordinator = self._coordinator()
        coordinator.propose(internal("eps"))
        coordinator.receive(ToBeSignalledMessage("A", "T2", internal("eps")))
        coordinator.peer_failed("T3")
        assert coordinator.decided == FAILURE

    def test_corrupted_signalling_message_forces_failure_end_to_end(self):
        # Corrupt every message: the resolution messages are delivered
        # as-is (Assumption 1 is their fault model), but each corrupted
        # toBeSignalled proposal is recorded as ƒ — so every thread
        # signals ƒ and every participation ends FAILED.
        faults = FaultPlan(corrupt_probability=1.0)
        system = WORLDS.get("concurrent_raises").build(faults=faults).system
        reports = system.run_to_completion()
        assert [r.status for r in reports] == [ActionStatus.FAILED] * 3
        assert all(r.signalled == FAILURE for r in reports)
        assert faults.stats.corrupted > 0
