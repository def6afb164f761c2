"""Robustness and property tests across the whole stack.

These tests stress the less-travelled paths: arbitrary exception timings,
exception storms with many threads, per-link asymmetric latency, and
deterministic repeatability of entire runs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CAActionDefinition,
    HandlerMap,
    HandlerResult,
    RoleDefinition,
    internal,
)
from repro.core.exception_graph import generate_full_graph
from repro.net import ConstantLatency, PerLinkLatency
from repro.runtime import ActionStatus, DistributedCASystem, RuntimeConfig

from tests.conftest import run_single_action


def build_raise_scenario(n_threads, raise_delays, latency=None,
                         algorithm="ours", resolution_time=0.05):
    """N threads; thread i raises fault_i after raise_delays[i] (None = never)."""
    system = DistributedCASystem(
        RuntimeConfig(algorithm=algorithm, resolution_time=resolution_time),
        latency=latency or ConstantLatency(0.1))
    threads = [f"T{i}" for i in range(1, n_threads + 1)]
    system.add_threads(threads)
    primitives = [internal(f"fault_{i}") for i in range(n_threads)]
    graph = generate_full_graph(primitives, max_level=1, action_name="Storm")

    def handler(ctx):
        return HandlerResult.success()

    def make_role(index):
        delay = raise_delays[index]

        def body(ctx):
            if delay is None:
                yield ctx.delay(5.0)
            else:
                yield ctx.delay(delay)
                ctx.raise_exception(primitives[index])
        return body

    roles = [RoleDefinition(f"r{i}", make_role(i),
                            HandlerMap(default_handler=handler))
             for i in range(n_threads)]
    action = CAActionDefinition("Storm", roles,
                                internal_exceptions=primitives, graph=graph)
    binding = {f"r{i}": threads[i] for i in range(n_threads)}
    return system, action, binding


class TestExceptionStorms:
    @given(delays=st.lists(
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=2.0)),
        min_size=2, max_size=5).filter(lambda d: any(x is not None for x in d)))
    @settings(max_examples=25, deadline=None)
    def test_property_any_raise_pattern_terminates_consistently(self, delays):
        system, action, binding = build_raise_scenario(len(delays), delays)
        reports = run_single_action(system, action, binding)
        # Every thread finishes, recovers, and handles the same resolution.
        assert len(reports) == len(delays)
        assert all(report.status is ActionStatus.RECOVERED
                   for report in reports)
        resolved = {report.resolved for report in reports}
        assert len(resolved) == 1

    def test_simultaneous_raises_with_identical_timestamps(self):
        delays = [0.5] * 4
        system, action, binding = build_raise_scenario(4, delays)
        reports = run_single_action(system, action, binding)
        assert all(report.status is ActionStatus.RECOVERED
                   for report in reports)
        assert system.metrics.resolutions == 1

    def test_eight_thread_storm(self):
        delays = [0.1 * (i + 1) for i in range(8)]
        system, action, binding = build_raise_scenario(8, delays)
        reports = run_single_action(system, action, binding)
        assert all(report.status is ActionStatus.RECOVERED
                   for report in reports)
        # Theorem 2 bound for a single level: N² − 1.
        assert system.network.stats.resolution_messages() <= 8 * 8 - 1

    @pytest.mark.parametrize("algorithm",
                             ["ours", "campbell-randell", "romanovsky96"])
    def test_storm_under_each_algorithm(self, algorithm):
        delays = [0.2, 0.4, None, 0.6]
        system, action, binding = build_raise_scenario(4, delays,
                                                       algorithm=algorithm)
        reports = run_single_action(system, action, binding)
        assert all(report.status is ActionStatus.RECOVERED
                   for report in reports)


class TestAsymmetricLatency:
    def test_per_link_latency_does_not_break_coordination(self):
        latency = PerLinkLatency(default=0.05)
        latency.set_link("T1", "T3", 1.5)
        latency.set_link("T3", "T1", 1.5)
        system, action, binding = build_raise_scenario(
            3, [0.3, None, 0.5], latency=latency)
        reports = run_single_action(system, action, binding)
        assert all(report.status is ActionStatus.RECOVERED
                   for report in reports)
        resolved = {report.resolved.name for report in reports}
        assert len(resolved) == 1


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            system, action, binding = build_raise_scenario(
                3, [0.3, 0.7, None])
            run_single_action(system, action, binding)
            return (system.now,
                    system.network.stats.sent,
                    system.metrics.counters(),
                    system.metrics.action_outcomes)

        assert run_once() == run_once()

    def test_experiment_harness_is_deterministic(self):
        from repro.bench import run_experiment2
        first = run_experiment2(1.3, 0.4)
        second = run_experiment2(1.3, 0.4)
        assert first.total_time == second.total_time
        assert first.protocol_messages == second.protocol_messages
