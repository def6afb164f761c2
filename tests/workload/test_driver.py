"""Tests for the workload driver: overlap, per-instance keying, determinism."""

import gc

import pytest

from repro.runtime.monitor import InvariantMonitor
from repro.net.latency import ConstantLatency
from repro.runtime.config import RuntimeConfig
from repro.runtime.system import DistributedCASystem, SystemConfigurationError
from repro.workload import (
    AdmissionController,
    OpenLoopPoisson,
    TraceReplay,
    TrafficActionSpec,
    WorkloadDriver,
)
from tests.conftest import record_jobs


def build_system(pool_size=8, latency=0.02, resolution_time=0.05,
                 algorithm="ours"):
    system = DistributedCASystem(
        RuntimeConfig(algorithm=algorithm, resolution_time=resolution_time),
        latency=ConstantLatency(latency))
    system.add_threads([f"W{i:02d}" for i in range(1, pool_size + 1)])
    return system


def build_driver(system=None, seed=42, **admission):
    system = system or build_system()
    admission.setdefault("queue_capacity", 64)
    driver = WorkloadDriver(system, seed=seed,
                            admission=AdmissionController(**admission))
    return driver


class TestOverlap:
    def test_same_action_instances_overlap(self):
        """Instances of ONE action definition run concurrently on the pool."""
        driver = build_driver()
        driver.add_action(TrafficActionSpec("Serve", width=2,
                                            mean_service=1.0))
        jobs = record_jobs(driver)
        report = driver.run(OpenLoopPoisson(rate=4.0, count=40))
        assert report.jobs == 40
        assert report.completed == 40
        assert report.max_concurrency > 1
        # Cross-check from the job timeline: at least one pair of completed
        # jobs of the same action has overlapping [dispatch, completion).
        intervals = [(job.dispatched_at, job.completed_at)
                     for job in jobs if job.outcome == "completed"]
        overlapping = any(
            a_start < b_end and b_start < a_end
            for i, (a_start, a_end) in enumerate(intervals)
            for (b_start, b_end) in intervals[i + 1:])
        assert overlapping

    def test_instances_get_disjoint_worker_sets_while_overlapping(self):
        driver = build_driver()
        driver.add_action(TrafficActionSpec("Serve", width=2,
                                            mean_service=1.0))
        jobs = record_jobs(driver)
        driver.run(OpenLoopPoisson(rate=4.0, count=30))
        assert len(jobs) == 30
        in_flight = []
        events = []
        for job in jobs:
            # Completions sort before dispatches at equal timestamps: a
            # conclusion frees its workers for a same-instant dispatch.
            events.append((job.dispatched_at, 1, job))
            events.append((job.completed_at, 0, job))
        active = {}
        for _, kind, job in sorted(events, key=lambda e: (e[0], e[1])):
            if kind == 1:
                for worker in job.workers:
                    assert worker not in active, \
                        f"{worker} double-booked by {active[worker]} and {job}"
                    active[worker] = job.instance
                in_flight.append(len({v for v in active.values()}))
            else:
                for worker in job.workers:
                    active.pop(worker, None)
        assert max(in_flight) > 1

    def test_faulty_instances_recover_per_instance(self):
        """Concurrent always-raising instances each resolve independently."""
        system = build_system()
        monitor = InvariantMonitor(system)
        driver = build_driver(system)
        driver.add_action(TrafficActionSpec("Flaky", width=2,
                                            mean_service=0.5,
                                            raise_probability=1.0))
        report = driver.run(OpenLoopPoisson(rate=4.0, count=30))
        assert report.max_concurrency > 1
        assert report.outcome_counts == {"recovered": 60}
        assert monitor.check(require_liveness=True) == []
        # One resolution delivery per participant per instance, agreed.
        assert len(monitor.resolutions) == 30
        for deliveries in monitor.resolutions.values():
            assert len(deliveries) == 2
            assert len({name for _, name in deliveries}) == 1


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self):
        rows = []
        for _ in range(2):
            driver = build_driver(max_in_flight=3, queue_capacity=8)
            driver.add_action(TrafficActionSpec("Serve", width=2,
                                                mean_service=1.0,
                                                raise_probability=0.3))
            rows.append(driver.run(OpenLoopPoisson(rate=3.0,
                                                   count=50)).to_row())
        assert rows[0] == rows[1]

    def test_job_profiles_pure_in_seed_and_index(self):
        spec = TrafficActionSpec("Serve", width=3, mean_service=1.0,
                                 raise_probability=0.5)
        from repro.simkernel.rng import SeededStreams
        profiles_a = [spec.draw_profile(SeededStreams(9), i)
                      for i in range(10)]
        profiles_b = [spec.draw_profile(SeededStreams(9), i)
                      for i in reversed(range(10))]
        assert profiles_a == list(reversed(profiles_b))


class TestAdmissionIntegration:
    def test_drop_policy_under_overload(self):
        driver = build_driver(max_in_flight=1, queue_capacity=1)
        driver.add_action(TrafficActionSpec("Serve", width=2,
                                            mean_service=2.0))
        jobs = record_jobs(driver)
        report = driver.run(OpenLoopPoisson(rate=10.0, count=40))
        assert report.dropped > 0
        assert report.completed + report.dropped == 40
        assert report.max_concurrency == 1
        assert len(jobs) == 40
        for job in jobs:
            assert job.completion.triggered
            assert job.completion.value == job.outcome

    def test_retry_policy_eventually_serves_or_drops(self):
        driver = build_driver(max_in_flight=1, queue_capacity=0,
                              policy="retry", retry_delay=0.5, max_retries=5)
        driver.add_action(TrafficActionSpec("Serve", width=2,
                                            mean_service=0.3))
        report = driver.run(OpenLoopPoisson(rate=5.0, count=30))
        assert report.admission["retried"] > 0
        assert report.completed + report.dropped == 30

    def test_max_in_flight_caps_observed_concurrency(self):
        driver = build_driver(max_in_flight=2, queue_capacity=64)
        driver.add_action(TrafficActionSpec("Serve", width=2,
                                            mean_service=1.0))
        report = driver.run(OpenLoopPoisson(rate=8.0, count=40))
        assert report.max_concurrency == 2


class TestLifecycleHygiene:
    def test_instance_scopes_released_after_completion(self):
        system = build_system()
        driver = build_driver(system)
        driver.add_action(TrafficActionSpec("Serve", width=2,
                                            mean_service=0.5))
        driver.run(OpenLoopPoisson(rate=4.0, count=20))
        assert system._instance_bindings == {}
        assert system._instance_transactions == {}

    def test_instance_lookup_pruned_after_each_job(self):
        driver = build_driver()
        driver.add_action(TrafficActionSpec("Serve", width=2,
                                            mean_service=0.5))
        driver.run(OpenLoopPoisson(rate=4.0, count=20))
        assert driver._by_instance == {}

    def test_a_settled_instance_leaves_nothing_behind(self):
        """No Job, ActionOutcome, Envelope or per-transaction dict survives.

        The cyclic collector is off during the run, so whatever is freed
        is freed by reference counting; object counts, not byte sizes,
        so the check holds on every interpreter version.
        """
        from repro.net.message import Envelope
        from repro.runtime.metrics import ActionOutcome
        from repro.workload.driver import Job

        system = build_system()
        driver = WorkloadDriver(system, seed=5)     # default queue: drops
        driver.add_action(TrafficActionSpec("Serve", width=2,
                                            mean_service=1.0,
                                            raise_probability=0.3))
        enabled = gc.isenabled()
        gc.collect()            # earlier tests' cyclic garbage
        gc.disable()
        try:
            report = driver.run(OpenLoopPoisson(rate=4.0, count=300))
            alive = [type(obj) for obj in gc.get_objects()
                     if isinstance(obj, (Job, ActionOutcome, Envelope))]
        finally:
            if enabled:
                gc.enable()
        assert report.jobs == 300
        assert report.completed > 0 and report.dropped > 0
        assert system.metrics.resolutions > 0
        assert alive == []
        assert system.metrics.action_outcomes == []
        finished = system.transactions.finished
        assert len(finished) == report.completed   # one per instance
        assert not hasattr(finished[0], "__dict__")

    def test_mid_run_report_counts_open_intervals(self):
        """mean_concurrency includes the time since the last state change."""
        driver = build_driver()
        driver.add_action(TrafficActionSpec("Serve", width=2,
                                            mean_service=50.0))
        job = driver.submit("Serve")        # dispatched at t=0, long-running
        driver.kernel.run(until=10.0)
        report = driver.report()
        assert job.outcome == "pending"
        assert report.mean_concurrency == pytest.approx(1.0)

    def test_dispatcher_bookkeeping_released_per_instance(self):
        """No O(jobs) growth of barrier/mailbox/signal state per worker."""
        system = build_system()
        driver = build_driver(system)
        driver.add_action(TrafficActionSpec("Serve", width=2,
                                            mean_service=0.5,
                                            raise_probability=0.5))
        driver.run(OpenLoopPoisson(rate=4.0, count=30))
        for partition in system.partitions.values():
            dispatcher = partition.dispatcher
            assert dispatcher._entry_seen == {}
            assert dispatcher._exit_seen == {}
            assert dispatcher._app_mailboxes == {}
            assert dict(dispatcher._pending_signals) == {}

    def test_workers_finish_and_quiescence_is_clean(self):
        system = build_system()
        monitor = InvariantMonitor(system)
        driver = build_driver(system)
        driver.add_action(TrafficActionSpec("Serve", width=2,
                                            mean_service=0.5,
                                            raise_probability=0.5))
        driver.run(OpenLoopPoisson(rate=3.0, count=30))
        assert monitor.check(require_liveness=True) == []
        for partition in system.partitions.values():
            assert partition.thread_process.triggered
            assert partition.status == "idle"
            assert len(partition.coordinator.sa) == 0
            assert partition.coordinator.retained == []

    def test_mixed_width_actions_share_one_pool(self):
        driver = build_driver()
        driver.add_action(TrafficActionSpec("Narrow", width=2,
                                            mean_service=0.5, weight=2.0))
        driver.add_action(TrafficActionSpec("Wide", width=5,
                                            mean_service=1.0))
        jobs = record_jobs(driver)
        report = driver.run(OpenLoopPoisson(rate=3.0, count=40))
        assert report.completed == 40
        actions = {job.action for job in jobs}
        assert actions == {"Narrow", "Wide"}

    def test_trace_pinning_and_per_action_histograms(self):
        driver = build_driver()
        driver.add_action(TrafficActionSpec("A", width=2, mean_service=0.5))
        driver.add_action(TrafficActionSpec("B", width=2, mean_service=0.5))
        report = driver.run(TraceReplay([(0.0, "A"), (0.1, "B"),
                                         (0.2, "A")]))
        assert report.latency_by_action["A"]["count"] == 2
        assert report.latency_by_action["B"]["count"] == 1


class TestConfigurationErrors:
    def test_empty_pool_rejected(self):
        system = DistributedCASystem(RuntimeConfig())
        with pytest.raises(SystemConfigurationError):
            WorkloadDriver(system)

    def test_unknown_pool_name_rejected(self):
        system = build_system(pool_size=2)
        with pytest.raises(SystemConfigurationError):
            WorkloadDriver(system, pool=["W01", "nope"])

    def test_action_wider_than_pool_rejected(self):
        driver = build_driver(build_system(pool_size=2))
        with pytest.raises(SystemConfigurationError):
            driver.add_action(TrafficActionSpec("Huge", width=3))

    def test_instance_binding_validated_like_bind(self):
        system = build_system(pool_size=4)
        driver = build_driver(system)
        driver.add_action(TrafficActionSpec("Serve", width=2))
        with pytest.raises(SystemConfigurationError):
            system.bind_instance("Serve@000000", "Serve", {"r1": "W01"})
        with pytest.raises(SystemConfigurationError):
            system.bind_instance("Serve@000000", "Serve",
                                 {"r1": "W01", "r2": "nope"})
        with pytest.raises(SystemConfigurationError):
            system.bind_instance("", "Serve", {"r1": "W01", "r2": "W02"})


class TestExplicitInstanceRuntime:
    """The runtime-level API the driver builds on, used directly."""

    def test_two_instances_of_one_action_on_disjoint_threads(self):
        from repro.core.action import CAActionDefinition, RoleDefinition
        from repro.core.exception_graph import ExceptionGraph
        from repro.core.handlers import HandlerMap

        system = build_system(pool_size=4, latency=0.05)

        def body(ctx):
            yield ctx.delay(1.0)
            return ctx.instance

        definition = CAActionDefinition(
            "Twin",
            [RoleDefinition("r1", body, HandlerMap()),
             RoleDefinition("r2", body, HandlerMap())],
            graph=ExceptionGraph("Twin"))
        system.define_action(definition)
        system.bind_instance("Twin@a", "Twin", {"r1": "W01", "r2": "W02"})
        system.bind_instance("Twin@b", "Twin", {"r1": "W03", "r2": "W04"})

        def program(role, instance):
            def run(ctx):
                report = yield from ctx.perform_action("Twin", role,
                                                       instance=instance)
                return report
            return run

        system.spawn("W01", program("r1", "Twin@a"))
        system.spawn("W02", program("r2", "Twin@a"))
        system.spawn("W03", program("r1", "Twin@b"))
        system.spawn("W04", program("r2", "Twin@b"))
        reports = system.run_to_completion()
        assert [r.status.value for r in reports] == ["success"] * 4
        assert [r.result for r in reports] == \
            ["Twin@a", "Twin@a", "Twin@b", "Twin@b"]
        # Both instances overlapped in virtual time (same start, same length).
        assert system.now == pytest.approx(1.0, abs=0.5)
