"""What an explored case does not pay for again.

A target's action definitions are built once per process and shared by
every case (sharing is safe only while a run never mutates them, so the
graph versions are pinned here), and the cyclic collector is paused for
each case and left exactly as the case found it.
"""

import gc
from dataclasses import replace

import pytest

import repro.explore.targets as targets
from repro.bench.engine import _run_sequential
from repro.core import oracles
from repro.explore import ExplorationPlan, run_case
from repro.explore.targets import get_target
from repro.net.faults import FaultDirective, FaultPlan

#: The actions each target registers.
ACTIONS = {"nested_abort": ("Inner", "Outer"),
           "concurrent_raises": ("Concurrent",)}

#: Delays the first T1 -> T2 message: delivery-preserving, so the
#: liveness oracles and the differential comparison all run.
DELAYED = ExplorationPlan(
    directives=(FaultDirective("delay_nth", source="T1", destination="T2",
                               n=1, extra=0.7),),
    tie_seed=3)


def registered(target):
    system = get_target(target).build(FaultPlan())
    return [system.registry.get(name) for name in ACTIONS[target]]


@pytest.fixture
def collector_on():
    """Run the test with the collector enabled, and restore it after."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


class TestSharedDefinitions:
    @pytest.mark.parametrize("target", sorted(ACTIONS))
    def test_two_builds_register_the_same_definitions(self, target):
        first, second = registered(target), registered(target)
        assert all(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize("algorithm",
                             ["ours", "campbell-randell", "romanovsky96"])
    @pytest.mark.parametrize("target", sorted(ACTIONS))
    def test_a_case_leaves_every_graph_unchanged(self, target, algorithm):
        before = registered(target)
        versions = [definition.graph.version for definition in before]
        run_case(target, DELAYED, algorithm=algorithm)
        after = registered(target)
        assert all(a is b for a, b in zip(before, after))
        assert [definition.graph.version for definition in after] == versions

    @pytest.mark.parametrize("target", sorted(ACTIONS))
    def test_later_cases_build_no_graph(self, target, monkeypatch):
        calls = []
        original = targets.generate_full_graph

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(targets, "generate_full_graph", counting)
        run_case(target, DELAYED)
        calls.clear()
        for tie_seed in range(10):
            run_case(target, replace(DELAYED, tie_seed=tie_seed))
        assert calls == []


class TestCollectorPause:
    def test_a_passing_case_restores_the_collector(self, collector_on):
        assert not run_case("nested_abort", DELAYED).violations
        assert gc.isenabled()

    def test_a_crashing_case_restores_the_collector(self, collector_on):
        def crash():
            raise RuntimeError("boom")

        def build(faults, **options):
            system = get_target("nested_abort").build(faults, **options)
            system.run = crash
            return system

        target = replace(get_target("nested_abort"), build=build)
        result = run_case(target, DELAYED)
        assert [v.invariant for v in result.violations] == [oracles.NO_CRASH]
        assert result.error == "RuntimeError: boom"
        assert gc.isenabled()

    def test_a_paused_collector_stays_paused(self, collector_on):
        gc.disable()
        run_case("nested_abort", DELAYED)
        assert not gc.isenabled()

    def test_a_case_inside_a_sweep_keeps_the_sweeps_pause(
            self, collector_on):
        seen = []

        def runner(tie_seed):
            run_case("concurrent_raises", replace(DELAYED, tie_seed=tie_seed))
            seen.append(gc.isenabled())
            return {}

        class Sweep:
            resolved_runner = staticmethod(runner)

        _run_sequential(Sweep(), [{"tie_seed": 1}, {"tie_seed": 2}])
        assert seen == [False, False]
        assert gc.isenabled()

    def test_the_build_runs_with_the_collector_paused(self, collector_on):
        seen = []

        def build(faults, **options):
            seen.append(gc.isenabled())
            return get_target("concurrent_raises").build(faults, **options)

        run_case(replace(get_target("concurrent_raises"), build=build),
                 DELAYED)
        assert seen == [False]
