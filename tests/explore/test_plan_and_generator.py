"""Fault directives, exploration plans and the seeded generator."""

import json
from dataclasses import asdict

import pytest

from repro.explore import ExplorationPlan, FaultPlanGenerator
from repro.explore.generator import DEFAULT_KINDS, DEFAULT_MESSAGE_TYPES
from repro.net.faults import DIRECTIVE_KINDS, FaultDirective, FaultPlan
from repro.net.message import Envelope


class TestFaultDirective:
    def test_round_trips_through_dict(self):
        directive = FaultDirective("delay_type", source="T2", destination="T3",
                                   type_name="CommitMessage", extra=3.0)
        data = directive.to_dict()
        assert json.loads(json.dumps(data)) == data  # JSON-serializable
        assert FaultDirective.from_dict(data) == directive

    def test_dict_omits_defaults(self):
        directive = FaultDirective("crash", node="T1")
        assert directive.to_dict() == {"kind": "crash", "node": "T1"}

    @pytest.mark.parametrize("kind", DIRECTIVE_KINDS)
    def test_dict_equals_the_asdict_form(self, kind):
        directive = FaultDirective(kind, source="A", destination="B", n=2,
                                   extra=0.5, type_name="X", node="C",
                                   at_time=1.5)
        blank = FaultDirective(kind)
        expected = {key: value for key, value in asdict(directive).items()
                    if key == "kind" or value != getattr(blank, key)}
        assert list(directive.to_dict().items()) == list(expected.items())
        assert FaultDirective.from_dict(directive.to_dict()) == directive
        partial = FaultDirective(kind, destination="B", at_time=0.0)
        assert list(partial.to_dict().items()) == [
            ("kind", kind), ("destination", "B"), ("at_time", 0.0)]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown directive kind"):
            FaultDirective("meteor_strike")

    def test_delivery_preserving_classification(self):
        assert FaultDirective("delay_link", source="A", destination="B",
                              extra=1.0).preserves_delivery
        assert not FaultDirective("drop_nth", source="A", destination="B",
                                  n=1).preserves_delivery
        assert not FaultDirective("crash", node="A").preserves_delivery

    def test_every_kind_has_a_description(self):
        for kind in DIRECTIVE_KINDS:
            directive = FaultDirective(kind, source="A", destination="B",
                                       n=1, extra=0.5, type_name="X",
                                       node="A")
            assert directive.describe()


class TestFaultPlanSerialization:
    def test_plan_records_and_round_trips_directives(self):
        plan = FaultPlan()
        plan.drop_nth_message("A", "B", 2)
        plan.delay_message_type("B", "A", "CommitMessage", 1.5)
        plan.delay_nth_message("A", "B", 3, 0.5)
        plan.crash_node("C", at_time=4.0)
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt.directives == plan.directives
        assert rebuilt.to_dict() == plan.to_dict()

    def test_rebuilt_plan_behaves_identically(self):
        plan = FaultPlan()
        plan.drop_nth_message("A", "B", 1)
        plan.delay_nth_message("A", "B", 2, 2.0)
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        for candidate in (plan, rebuilt):
            first = Envelope("A", "B", "m1")
            second = Envelope("A", "B", "m2")
            assert candidate.apply(first, 0.0) == (False, 0.0)
            assert candidate.apply(second, 0.0) == (True, 2.0)

    def test_preserves_delivery(self):
        delays = FaultPlan()
        delays.add_link_delay("A", "B", 1.0)
        assert delays.preserves_delivery()
        drops = FaultPlan()
        drops.drop_nth_message("A", "B", 1)
        assert not drops.preserves_delivery()
        assert not FaultPlan(drop_probability=0.5).preserves_delivery()

    def test_restore_node_keeps_crash_history_and_round_trips(self):
        plan = FaultPlan()
        plan.crash_node("A")
        plan.restore_node("A")
        assert [d.kind for d in plan.directives] == ["crash", "restore"]
        assert not plan.is_crashed("A", 10.0)
        # The crash happened: the plan must not classify as
        # delivery-preserving, and the rebuilt plan must behave the same.
        assert not plan.preserves_delivery()
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt.directives == plan.directives
        assert not rebuilt.is_crashed("A", 10.0)

    def test_timed_restore_models_an_outage_window(self):
        """Crash at t1 + restore at t2 > t1 means down exactly on [t1, t2)."""
        plan = FaultPlan()
        plan.crash_node("A", at_time=2.0)
        plan.restore_node("A", at_time=5.0)
        assert not plan.is_crashed("A", 1.0)
        assert plan.is_crashed("A", 2.0)
        assert plan.is_crashed("A", 4.9)
        assert not plan.is_crashed("A", 5.0)
        assert not plan.is_crashed("A", 10.0)
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        for now, expected in ((1.0, False), (3.0, True), (6.0, False)):
            assert rebuilt.is_crashed("A", now) is expected
        # A timed restore also revives an immediately-crashed node.
        wave = FaultPlan()
        wave.crash_node("B")
        wave.restore_node("B", at_time=3.0)
        assert wave.is_crashed("B", 0.0)
        assert not wave.is_crashed("B", 3.0)
        assert not wave.preserves_delivery()


class TestExplorationPlan:
    def test_round_trips_with_tie_seed(self):
        plan = ExplorationPlan(
            directives=(FaultDirective("delay_link", source="A",
                                       destination="B", extra=1.0),),
            tie_seed=99)
        rebuilt = ExplorationPlan.from_dict(
            json.loads(json.dumps(plan.to_dict())))
        assert rebuilt == plan
        assert rebuilt.key() == plan.key()

    def test_shrinking_helpers(self):
        a = FaultDirective("delay_link", source="A", destination="B", extra=1.0)
        b = FaultDirective("drop_nth", source="B", destination="A", n=1)
        plan = ExplorationPlan(directives=(a, b), tie_seed=5)
        assert plan.without_directive(0).directives == (b,)
        assert plan.without_tie_seed().tie_seed is None
        assert not plan.preserves_delivery
        assert plan.without_directive(1).preserves_delivery

    def test_make_fault_plan_applies_directives(self):
        plan = ExplorationPlan(directives=(
            FaultDirective("delay_type", source="A", destination="B",
                           type_name="str", extra=2.0),))
        faults = plan.make_fault_plan()
        assert faults.apply(Envelope("A", "B", "payload"), 0.0) == (True, 2.0)


class TestFaultPlanGenerator:
    def test_pure_in_seed_and_index(self):
        threads = ("T1", "T2", "T3")
        one = FaultPlanGenerator(7, threads)
        two = FaultPlanGenerator(7, threads)
        assert [one.sample(i) for i in range(20)] == \
            [two.sample(i) for i in range(20)]
        # Sampling out of order changes nothing.
        assert one.sample(3) == two.sample(3)

    def test_different_seeds_differ(self):
        threads = ("T1", "T2", "T3")
        a = [FaultPlanGenerator(1, threads).sample(i) for i in range(10)]
        b = [FaultPlanGenerator(2, threads).sample(i) for i in range(10)]
        assert a != b

    def test_default_kinds_preserve_delivery(self):
        generator = FaultPlanGenerator(3, ("T1", "T2"))
        for index in range(50):
            assert generator.sample(index).preserves_delivery

    def test_full_vocabulary_reaches_every_samplable_kind(self):
        from repro.explore.generator import SAMPLABLE_KINDS
        generator = FaultPlanGenerator(11, ("T1", "T2", "T3"),
                                       kinds=SAMPLABLE_KINDS,
                                       max_directives=3)
        seen = {directive.kind
                for index in range(200)
                for directive in generator.sample(index).directives}
        # Crash/restore waves add paired restore directives on top of the
        # samplable kinds.
        assert seen == set(SAMPLABLE_KINDS) | {"restore"}

    def test_restore_is_not_samplable(self):
        with pytest.raises(ValueError, match="unknown directive kinds"):
            FaultPlanGenerator(0, ("T1", "T2"), kinds=("restore",))

    def test_crash_restore_waves_are_well_formed(self):
        """Every sampled restore follows its node's crash, strictly later."""
        generator = FaultPlanGenerator(7, ("T1", "T2", "T3"),
                                       kinds=("crash",), max_directives=2)
        waves = 0
        for index in range(100):
            plan = generator.sample(index)
            for position, directive in enumerate(plan.directives):
                if directive.kind != "restore":
                    continue
                waves += 1
                crash = plan.directives[position - 1]
                assert crash.kind == "crash"
                assert crash.node == directive.node
                assert directive.at_time is not None
                assert directive.at_time > (crash.at_time or 0.0)
        assert waves > 0

    def test_restore_probability_zero_disables_waves(self):
        generator = FaultPlanGenerator(7, ("T1", "T2"), kinds=("crash",),
                                       restore_probability=0.0)
        for index in range(50):
            assert all(d.kind == "crash"
                       for d in generator.sample(index).directives)

    def test_sampled_fields_stay_in_bounds(self):
        generator = FaultPlanGenerator(5, ("T1", "T2"), kinds=DEFAULT_KINDS,
                                       max_directives=2,
                                       delay_range=(0.5, 1.5), max_nth=4)
        for index in range(100):
            plan = generator.sample(index)
            assert 1 <= len(plan.directives) <= 2
            for directive in plan.directives:
                assert directive.source != directive.destination
                assert {directive.source, directive.destination} <= {"T1", "T2"}
                if directive.extra:
                    assert 0.5 <= directive.extra <= 1.5
                if directive.n:
                    assert 1 <= directive.n <= 4
                if directive.kind == "delay_type":
                    assert directive.type_name in DEFAULT_MESSAGE_TYPES

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two threads"):
            FaultPlanGenerator(0, ("T1",))
        with pytest.raises(ValueError, match="unknown directive kinds"):
            FaultPlanGenerator(0, ("T1", "T2"), kinds=("nope",))
        with pytest.raises(ValueError, match="max_directives"):
            FaultPlanGenerator(0, ("T1", "T2"), max_directives=0)
        with pytest.raises(ValueError, match="jitter_probability"):
            FaultPlanGenerator(0, ("T1", "T2"), jitter_probability=1.5)
