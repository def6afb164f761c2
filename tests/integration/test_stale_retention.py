"""Regression tests for stale protocol-message retention.

Both bugs below were found mechanically by the fault-space explorer
(``repro.explore``) sweeping seeded delay plans over the nested-abort
target, and shrunk to the single-directive reproducers used here:

* a delayed ``Exception``/``Suspended`` message arriving *after* its
  action instance ended used to be retained forever ("till Ti enters
  A*" — but this instance will never be entered again), leaking the
  message and, in looping workloads, poisoning the next instance of the
  same action name;
* a delayed ``EnterAction`` message could make a thread abandon a nested
  entry attempt (the enclosing exception interrupts the entry barrier),
  leaving peer messages stamped for the never-entered instance parked
  forever.

The fix stamps the resolution messages with their action *instance* key
and retires finished/abandoned instances, so stale messages are dropped
on arrival (or at replay) instead of retained.
"""

from repro.core.resolution import ResolutionCoordinator
from repro.core.state import ActionContext
from repro.core.messages import ExceptionMessage, SuspendedMessage
from repro.core.exception_graph import generate_full_graph
from repro.core.exceptions import internal
from repro.explore import ExplorationPlan, run_case
from repro.explore.targets import get_target
from repro.net.faults import FaultDirective


def _plan(*directives):
    return ExplorationPlan(directives=tuple(directives))


class TestExplorerFoundRetentionLeaks:
    def test_exception_delayed_past_abortion_is_dropped_not_retained(self):
        # Shrunk reproducer: the 2nd message on T2->T3 (the Inner
        # Exception) arrives after T3 already aborted Inner.
        plan = _plan(FaultDirective("delay_nth", source="T2",
                                    destination="T3", n=2, extra=2.209))
        result = run_case("nested_abort", plan)
        assert result.violations == []
        assert result.completed

    def test_suspended_delayed_past_instance_end_is_dropped(self):
        plan = _plan(FaultDirective("delay_type", source="T3",
                                    destination="T2",
                                    type_name="SuspendedMessage", extra=3.733))
        result = run_case("nested_abort", plan)
        assert result.violations == []

    def test_abandoned_entry_retires_the_instance(self):
        # The delayed EnterAction(Inner) makes T3 abandon the Inner entry
        # barrier when the outer exception arrives; the Inner Exception
        # stamped for that instance must not wait for an entry that can
        # never happen.
        plan = _plan(FaultDirective("delay_nth", source="T2",
                                    destination="T3", n=2, extra=2.209),
                     FaultDirective("delay_nth", source="T3",
                                    destination="T1", n=2, extra=3.179))
        system = get_target("nested_abort").build(plan.make_fault_plan())
        system.run()
        for partition in system.partitions.values():
            assert partition.coordinator.retained == []
            assert partition.thread_process.triggered


class TestCoordinatorInstanceTracking:
    def _coordinator_in(self, instance):
        graph = generate_full_graph([internal("e")], action_name="A")
        coordinator = ResolutionCoordinator("T1")
        context = ActionContext("A", ("T1", "T2"), graph, instance=instance)
        coordinator.enter_action(context)
        return coordinator, context

    def test_message_for_finished_instance_is_dropped(self):
        coordinator, _ = self._coordinator_in("A#1")
        coordinator.leave_action("A", success=True)
        effects = coordinator.receive(ExceptionMessage(
            "A", "T2", internal("e"), instance="A#1"))
        # Dropped: neither retained nor recorded, and nothing to do.
        assert effects == []
        assert coordinator.retained == []
        assert len(coordinator.le) == 0

    def test_leave_action_preserves_future_instance_messages(self):
        # A message parked for a future occurrence (the peer already
        # re-entered A as A#2) must survive this thread leaving A#1 —
        # name-based dropping used to destroy it.
        coordinator, _ = self._coordinator_in("A#1")
        early = SuspendedMessage("A", "T2", instance="A#2")
        coordinator.receive(early)
        assert coordinator.retained == [early]
        coordinator.leave_action("A", success=True)
        assert coordinator.retained == [early]
        graph = generate_full_graph([internal("e")], action_name="A")
        coordinator.enter_action(ActionContext("A", ("T1", "T2"), graph,
                                               instance="A#2"))
        assert coordinator.retained == []
        assert "T2" in coordinator.le.threads_reported("A")

    def test_message_for_future_instance_is_parked_then_replayed(self):
        coordinator, _ = self._coordinator_in("A#1")
        coordinator.leave_action("A", success=True)
        # T2 already re-entered as instance A#2 and suspended there.
        early = SuspendedMessage("A", "T2", instance="A#2")
        coordinator.receive(early)
        assert coordinator.retained == [early]
        graph = generate_full_graph([internal("e")], action_name="A")
        coordinator.enter_action(ActionContext("A", ("T1", "T2"), graph,
                                               instance="A#2"))
        assert coordinator.retained == []
        # The replayed Suspended is recorded for the new instance (and the
        # receiving thread duly suspends itself in response).
        assert "T2" in coordinator.le.threads_reported("A")

    def test_unstamped_messages_keep_legacy_behaviour(self):
        coordinator = ResolutionCoordinator("T1")
        message = ExceptionMessage("A", "T2", internal("e"))
        coordinator.receive(message)
        assert coordinator.retained == [message]

    def test_abandon_instance_drops_parked_messages(self):
        coordinator = ResolutionCoordinator("T1")
        message = ExceptionMessage("A", "T2", internal("e"), instance="A#1")
        coordinator.receive(message)
        assert coordinator.retained == [message]
        coordinator.abandon_instance("A#1")
        assert coordinator.retained == []
        # Later arrivals for the abandoned instance are dropped too.
        coordinator.receive(ExceptionMessage("A", "T2", internal("e"),
                                             instance="A#1"))
        assert coordinator.retained == []
