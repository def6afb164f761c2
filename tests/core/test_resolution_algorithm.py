"""Tests of the coordinated exception handling and resolution algorithm.

These tests drive the pure :class:`ResolutionCoordinator` state machines
directly (no kernel, no network) through the ``ProtocolDriver`` helper,
checking the behaviours the paper specifies in Section 3.3: states, message
counts, resolver selection, nested-action abortion, retained messages, and
the correctness properties behind Lemmas 2–3.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import messages_all_exceptions, messages_single_exception
from repro.core import (
    ActionContext,
    CommitMessage,
    ExceptionGraph,
    ExceptionMessage,
    ProtocolError,
    ResolutionCoordinator,
    SuspendedMessage,
    ThreadState,
    internal,
)
from repro.core.effects import AbortNested, HandleResolved, InterruptRole, SendTo
from repro.core.exception_graph import generate_full_graph

from tests.conftest import ProtocolDriver

E1, E2, E3 = internal("e1"), internal("e2"), internal("e3")


def make_driver(threads=("T1", "T2", "T3"), primitives=(E1, E2, E3),
                action="A"):
    graph = generate_full_graph(list(primitives), action_name=action)
    driver = ProtocolDriver({t: ResolutionCoordinator(t) for t in threads})
    driver.enter_all(lambda: ActionContext(action, tuple(threads), graph))
    return driver


class TestSingleException:
    def test_all_threads_handle_the_raised_exception(self):
        driver = make_driver()
        driver.raise_in("T1", E1)
        driver.deliver_all()
        assert driver.handled == {"T1": E1, "T2": E1, "T3": E1}

    def test_message_count_matches_paper(self):
        driver = make_driver()
        driver.raise_in("T2", E2)
        driver.deliver_all()
        assert driver.message_count == messages_single_exception(3)

    def test_states_after_handling(self):
        driver = make_driver()
        driver.raise_in("T1", E1)
        driver.deliver_all()
        assert driver.coordinators["T1"].state is ThreadState.EXCEPTIONAL
        assert driver.coordinators["T2"].state is ThreadState.SUSPENDED
        assert driver.coordinators["T3"].state is ThreadState.SUSPENDED

    def test_raiser_records_itself_in_le(self):
        driver = make_driver()
        driver.raise_in("T1", E1)
        raiser = driver.coordinators["T1"]
        # Before the peers answer, the raiser's own exception sits in LE.
        assert raiser.le.exceptional_threads("A") == {"T1"}
        assert raiser.le.exceptions_for("A") == [E1]
        driver.deliver_all()
        # After resolution LE is emptied; the handling map remembers E.
        assert raiser.handling["A"] == E1
        assert len(raiser.le) == 0

    def test_only_one_resolution_call_in_total(self):
        driver = make_driver()
        driver.raise_in("T1", E1)
        driver.deliver_all()
        total = sum(c.resolution_calls for c in driver.coordinators.values())
        assert total == 1

    def test_raise_outside_action_rejected(self):
        coordinator = ResolutionCoordinator("T1")
        with pytest.raises(ProtocolError):
            coordinator.raise_exception(E1)

    def test_two_thread_action(self):
        driver = make_driver(threads=("T1", "T2"), primitives=(E1,))
        driver.raise_in("T1", E1)
        driver.deliver_all()
        assert driver.handled == {"T1": E1, "T2": E1}
        assert driver.message_count == messages_single_exception(2)


class TestConcurrentExceptions:
    def test_concurrent_exceptions_resolve_to_cover(self):
        driver = make_driver()
        driver.raise_in("T1", E1)
        driver.raise_in("T2", E2)
        driver.deliver_all()
        assert set(driver.handled) == {"T1", "T2", "T3"}
        assert all(e.name == "e1&e2" for e in driver.handled.values())

    def test_all_raise_all_handle_same_cover(self):
        driver = make_driver()
        for thread, exception in zip(("T1", "T2", "T3"), (E1, E2, E3)):
            driver.raise_in(thread, exception)
        driver.deliver_all()
        assert all(e.name == "e1&e2&e3" for e in driver.handled.values())

    def test_message_count_independent_of_exception_count(self):
        counts = []
        for raisers in (1, 2, 3):
            driver = make_driver()
            for index in range(raisers):
                driver.raise_in(f"T{index + 1}", [E1, E2, E3][index])
            driver.deliver_all()
            counts.append(driver.message_count)
        assert counts[0] == counts[1] == counts[2] == messages_all_exceptions(3)

    def test_resolver_is_largest_exceptional_thread(self):
        driver = make_driver()
        driver.raise_in("T1", E1)
        driver.raise_in("T2", E2)
        driver.deliver_all()
        commits = [effect for _sender, effect in driver.effects_log
                   if isinstance(effect, SendTo)
                   and isinstance(effect.message, CommitMessage)]
        assert len(commits) == 1
        assert commits[0].message.resolver == "T2"

    def test_suspended_thread_never_resolves(self):
        driver = make_driver()
        driver.raise_in("T1", E1)
        driver.deliver_all()
        assert driver.coordinators["T3"].resolution_calls == 0
        assert driver.coordinators["T2"].resolution_calls == 0

    def test_same_exception_raised_by_two_threads(self):
        driver = make_driver()
        driver.raise_in("T1", E1)
        driver.raise_in("T3", E1)
        driver.deliver_all()
        assert all(e == E1 for e in driver.handled.values())

    @given(raisers=st.sets(st.sampled_from(["T1", "T2", "T3"]), min_size=1),
           seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_property_everyone_handles_a_common_cover(self, raisers, seed):
        driver = make_driver()
        mapping = {"T1": E1, "T2": E2, "T3": E3}
        for thread in sorted(raisers):
            driver.raise_in(thread, mapping[thread])
        driver.deliver_all()
        assert set(driver.handled) == {"T1", "T2", "T3"}
        handled = set(driver.handled.values())
        assert len(handled) == 1, "all threads must handle the same exception"
        graph = driver.coordinators["T1"].sa.find("A") or \
            driver.coordinators["T1"].active_context()
        resolved = handled.pop()
        for thread in raisers:
            context = driver.coordinators[thread].handling
            assert context["A"] == resolved


class TestRetainedMessages:
    def test_message_for_unentered_action_is_retained(self):
        graph = generate_full_graph([E1])
        coordinator = ResolutionCoordinator("T2")
        effects = coordinator.receive(ExceptionMessage("A", "T1", E1))
        assert coordinator.retained
        assert not any(isinstance(e, SendTo) for e in effects)

    def test_retained_message_processed_on_entry(self):
        graph = generate_full_graph([E1])
        coordinator = ResolutionCoordinator("T2")
        coordinator.receive(ExceptionMessage("A", "T1", E1))
        effects = coordinator.enter_action(
            ActionContext("A", ("T1", "T2"), graph))
        assert coordinator.state is ThreadState.SUSPENDED
        assert any(isinstance(e, SendTo)
                   and isinstance(e.message, SuspendedMessage)
                   for e in effects)

    def test_commit_for_other_action_ignored(self):
        graph = generate_full_graph([E1])
        coordinator = ResolutionCoordinator("T2")
        coordinator.enter_action(ActionContext("A", ("T1", "T2"), graph))
        effects = coordinator.receive(CommitMessage("B", "T1", E1))
        assert not any(isinstance(e, HandleResolved) for e in effects)


class TestNestedAbortion:
    def build_nested(self):
        """T1 only in Outer; T2, T3 in Outer and Inner."""
        outer_graph = generate_full_graph([E1, E2], action_name="Outer")
        inner_graph = ExceptionGraph("Inner")
        coordinators = {t: ResolutionCoordinator(t) for t in ("T1", "T2", "T3")}
        driver = ProtocolDriver(coordinators)
        outer = lambda: ActionContext("Outer", ("T1", "T2", "T3"), outer_graph)
        inner = lambda: ActionContext("Inner", ("T2", "T3"), inner_graph,
                                      parent="Outer")
        for thread in ("T1", "T2", "T3"):
            driver.execute(thread, coordinators[thread].enter_action(outer()))
        for thread in ("T2", "T3"):
            driver.execute(thread, coordinators[thread].enter_action(inner()))
        return driver

    def test_enclosing_exception_triggers_abort_effect(self):
        driver = self.build_nested()
        driver.raise_in("T1", E1)
        # Deliver only the Exception messages to T2/T3.
        aborts = []
        while driver.inflight:
            recipient, message = driver.inflight.pop(0)
            effects = driver.coordinators[recipient].receive(message)
            aborts.extend(e for e in effects if isinstance(e, AbortNested))
            driver.execute(recipient, [e for e in effects
                                       if not isinstance(e, AbortNested)])
        assert len(aborts) == 2
        assert all(effect.actions == ("Inner",) for effect in aborts)
        assert all(effect.resume_action == "Outer" for effect in aborts)

    def test_interrupt_names_the_nested_action_the_role_is_in(self):
        """A's exception reaches a thread inside B (nested in A): the role
        to interrupt is B's, the one the thread is running, not A's."""
        coordinator = ResolutionCoordinator("T2")
        coordinator.enter_action(ActionContext(
            "A", ("T1", "T2"), generate_full_graph([E1], action_name="A")))
        coordinator.enter_action(ActionContext(
            "B", ("T2",), ExceptionGraph("B"), parent="A"))
        effects = coordinator.receive(ExceptionMessage("A", "T1", E1))
        [interrupt] = [e for e in effects if isinstance(e, InterruptRole)]
        assert interrupt.action == "B"
        [abort] = [e for e in effects if isinstance(e, AbortNested)]
        assert abort.actions == ("B",) and abort.resume_action == "A"

    def test_abortion_completed_with_exception_broadcasts_it(self):
        driver = self.build_nested()
        driver.raise_in("T1", E1)
        driver.deliver_all()          # T2, T3 record the abort request
        for thread in ("T2", "T3"):
            effects = driver.coordinators[thread].abortion_completed("Outer", E2)
            driver.execute(thread, effects)
        driver.deliver_all()
        assert set(driver.handled) == {"T1", "T2", "T3"}
        assert all(e.name == "e1&e2" for e in driver.handled.values())

    def test_abortion_completed_without_exception_suspends(self):
        driver = self.build_nested()
        driver.raise_in("T1", E1)
        driver.deliver_all()
        for thread in ("T2", "T3"):
            driver.execute(thread, driver.coordinators[thread]
                           .abortion_completed("Outer", None))
        driver.deliver_all()
        assert all(e == E1 for e in driver.handled.values())
        assert driver.coordinators["T2"].state is ThreadState.SUSPENDED

    def test_abortion_pops_nested_context(self):
        driver = self.build_nested()
        driver.raise_in("T1", E1)
        driver.deliver_all()
        driver.coordinators["T2"].abortion_completed("Outer", None)
        assert driver.coordinators["T2"].active_action_name() == "Outer"

    def test_abortion_completed_without_pending_abort_rejected(self):
        driver = self.build_nested()
        with pytest.raises(ProtocolError):
            driver.coordinators["T2"].abortion_completed("Outer", None)

    def test_exception_in_nested_action_stays_nested(self):
        driver = self.build_nested()
        driver.raise_in("T2", E1)          # raised within Inner
        driver.deliver_all()
        # T1 is not an Inner participant, so it never handles anything.
        assert "T1" not in driver.handled
        assert set(driver.handled) == {"T2", "T3"}


class TestDelayedCommit:
    """The lost-Commit abortion race (the latency-window bug).

    A ``Commit`` that reaches a thread while it is still aborting nested
    actions toward the commit's action used to be discarded; the resolver
    commits exactly once, so the thread stayed suspended forever.  The
    coordinator now retains such a Commit (like Exception/Suspended
    messages) and replays it from ``abortion_completed``.
    """

    def build_aborting_t2(self):
        """T2 with stack [Outer, Inner], aborting Inner toward Outer."""
        outer_graph = generate_full_graph([E1, E2], action_name="Outer")
        inner_graph = generate_full_graph([E3], action_name="Inner")
        coordinator = ResolutionCoordinator("T2")
        coordinator.enter_action(
            ActionContext("Outer", ("T1", "T2", "T3"), outer_graph))
        coordinator.enter_action(
            ActionContext("Inner", ("T2", "T3"), inner_graph, parent="Outer"))
        effects = coordinator.receive(ExceptionMessage("Outer", "T1", E1))
        assert any(isinstance(e, AbortNested) for e in effects)
        assert coordinator.pending_abort_target == "Outer"
        return coordinator

    def test_commit_during_abortion_is_retained_not_dropped(self):
        coordinator = self.build_aborting_t2()
        commit = CommitMessage("Outer", "T3", E1)
        effects = coordinator.receive(commit)
        assert commit in coordinator.retained
        assert "Outer" not in coordinator.handling
        assert not any(isinstance(e, HandleResolved) for e in effects)

    def test_retained_commit_replayed_from_abortion_completed(self):
        coordinator = self.build_aborting_t2()
        commit = CommitMessage("Outer", "T3", E1)
        coordinator.receive(commit)
        effects = coordinator.abortion_completed("Outer", None)
        handled = [e for e in effects if isinstance(e, HandleResolved)]
        assert handled and handled[0].exception == E1
        assert coordinator.handling["Outer"] == E1
        assert not coordinator.retained

    def test_without_commit_abortion_leaves_thread_suspended(self):
        # The deadlock shape the fix prevents: no Commit ever arrives again,
        # so after the abortion the thread is suspended with nothing to do.
        coordinator = self.build_aborting_t2()
        effects = coordinator.abortion_completed("Outer", None)
        assert coordinator.state is ThreadState.SUSPENDED
        assert not any(isinstance(e, HandleResolved) for e in effects)

    def test_commit_for_aborting_active_action_does_not_wipe_le(self):
        # Variant of the race: the Commit is for the *nested* action that is
        # itself being aborted.  It is stale (the instance is dying) and must
        # not clear LEi, which holds the enclosing action's record.
        outer_graph = generate_full_graph([E1, E2], action_name="Outer")
        inner_graph = generate_full_graph([E3], action_name="Inner")
        coordinator = ResolutionCoordinator("T2")
        coordinator.enter_action(
            ActionContext("Outer", ("T1", "T2", "T3"), outer_graph))
        coordinator.enter_action(
            ActionContext("Inner", ("T2", "T3"), inner_graph, parent="Outer"))
        coordinator.receive(ExceptionMessage("Inner", "T3", E3))
        coordinator.receive(ExceptionMessage("Outer", "T1", E1))
        assert coordinator.pending_abort_target == "Outer"
        effects = coordinator.receive(CommitMessage("Inner", "T3", E3))
        assert "Inner" not in coordinator.handling
        assert not any(isinstance(e, HandleResolved) for e in effects)
        records = coordinator.le.records_for("Outer")
        assert [r.exception for r in records] == [E1]

    def test_retained_commit_dropped_when_action_left(self):
        # A Commit retained for an action must not leak into a later
        # instance of the same action name once the instance has ended.
        coordinator = self.build_aborting_t2()
        coordinator.receive(CommitMessage("Outer", "T3", E1))
        coordinator.abortion_completed("Outer", None)
        assert not coordinator.retained
        coordinator.receive(CommitMessage("Outer", "T3", E2))  # handled now
        coordinator.leave_action("Outer", success=True)
        assert not coordinator.retained


class TestResolverElectionNaturalOrder:
    def test_resolver_is_numeric_max_at_n_ge_10(self):
        # With ids T1..T12 the "largest identifier" is T12; lexicographic
        # ordering would elect T9 and the real T12 would also consider
        # itself resolver on some interleavings (split-brain commits).
        threads = tuple(f"T{i}" for i in range(1, 13))
        driver = make_driver(threads=threads)
        driver.raise_in("T9", E1)
        driver.raise_in("T12", E2)
        driver.deliver_all()
        commits = [effect for _sender, effect in driver.effects_log
                   if isinstance(effect, SendTo)
                   and isinstance(effect.message, CommitMessage)]
        assert len(commits) == 1
        assert commits[0].message.resolver == "T12"
        assert set(driver.handled) == set(threads)
        assert all(e.name == "e1&e2" for e in driver.handled.values())

    def test_single_raiser_at_large_n(self):
        threads = tuple(f"T{i}" for i in range(1, 17))
        driver = make_driver(threads=threads)
        driver.raise_in("T16", E1)
        driver.deliver_all()
        assert driver.coordinators["T16"].resolution_calls == 1
        assert all(e == E1 for e in driver.handled.values())


class TestLifecycle:
    def test_leave_action_resets_state(self):
        graph = generate_full_graph([E1])
        coordinator = ResolutionCoordinator("T1")
        coordinator.enter_action(ActionContext("A", ("T1",), graph))
        coordinator.raise_exception(E1)
        coordinator.leave_action("A", success=False)
        assert coordinator.state is ThreadState.EXCEPTIONAL
        assert coordinator.active_action_name() is None
        assert "A" not in coordinator.handling

    def test_leave_wrong_action_rejected(self):
        graph = generate_full_graph([E1])
        coordinator = ResolutionCoordinator("T1")
        coordinator.enter_action(ActionContext("A", ("T1",), graph))
        with pytest.raises(ProtocolError):
            coordinator.leave_action("B", success=True)

    def test_enter_requires_membership(self):
        graph = generate_full_graph([E1])
        coordinator = ResolutionCoordinator("T9")
        with pytest.raises(ProtocolError):
            coordinator.enter_action(ActionContext("A", ("T1", "T2"), graph))

    def test_single_participant_resolves_immediately(self):
        graph = generate_full_graph([E1])
        coordinator = ResolutionCoordinator("T1")
        coordinator.enter_action(ActionContext("A", ("T1",), graph))
        effects = coordinator.raise_exception(E1)
        assert any(isinstance(e, HandleResolved) and e.exception == E1
                   for e in effects)

    def test_repeated_instances_of_same_action(self):
        graph = generate_full_graph([E1])
        threads = ("T1", "T2")
        driver = ProtocolDriver({t: ResolutionCoordinator(t) for t in threads})
        for round_number in range(3):
            driver.handled.clear()
            driver.enter_all(lambda: ActionContext("A", threads, graph))
            driver.raise_in("T1", E1)
            driver.deliver_all()
            assert driver.handled == {"T1": E1, "T2": E1}
            for thread in threads:
                driver.coordinators[thread].leave_action("A", success=True)
