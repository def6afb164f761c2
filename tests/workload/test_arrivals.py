"""Tests for the arrival processes (seeded schedules, replay, closed loop)."""

import pytest

from repro.net.latency import ConstantLatency
from repro.runtime.config import RuntimeConfig
from repro.runtime.system import DistributedCASystem
from repro.workload import (
    AdmissionController,
    ClosedLoopClients,
    OpenLoopPoisson,
    TraceReplay,
    TrafficActionSpec,
    WorkloadDriver,
)
from tests.conftest import record_jobs


def build_driver(pool_size=4, seed=7, latency=0.01, **admission):
    system = DistributedCASystem(RuntimeConfig(),
                                 latency=ConstantLatency(latency))
    system.add_threads([f"W{i:02d}" for i in range(1, pool_size + 1)])
    driver = WorkloadDriver(system, seed=seed,
                            admission=AdmissionController(**admission))
    driver.add_action(TrafficActionSpec("Serve", width=2, mean_service=0.5))
    return driver


class TestValidation:
    @pytest.mark.parametrize("factory", [
        lambda: OpenLoopPoisson(rate=0.0, count=1),
        lambda: OpenLoopPoisson(rate=1.0, count=0),
        lambda: TraceReplay([]),
        lambda: TraceReplay([-1.0]),
        lambda: ClosedLoopClients(0, 1.0, 1),
        lambda: ClosedLoopClients(1, -1.0, 1),
        lambda: ClosedLoopClients(1, 1.0, 0),
    ])
    def test_rejects_bad_parameters(self, factory):
        with pytest.raises(ValueError):
            factory()


class TestOpenLoopPoisson:
    def test_submits_exactly_count_jobs(self):
        driver = build_driver()
        report = driver.run(OpenLoopPoisson(rate=4.0, count=25))
        assert report.jobs == 25
        assert report.completed + report.dropped == 25

    def test_same_seed_same_arrival_times(self):
        first = build_driver(seed=11)
        second = build_driver(seed=11)
        first_jobs, second_jobs = record_jobs(first), record_jobs(second)
        first.run(OpenLoopPoisson(rate=4.0, count=20))
        second.run(OpenLoopPoisson(rate=4.0, count=20))
        assert len(first_jobs) == 20
        assert [job.arrived_at for job in first_jobs] == \
            [job.arrived_at for job in second_jobs]

    def test_different_seed_different_schedule(self):
        first = build_driver(seed=11)
        second = build_driver(seed=12)
        first_jobs, second_jobs = record_jobs(first), record_jobs(second)
        first.run(OpenLoopPoisson(rate=4.0, count=20))
        second.run(OpenLoopPoisson(rate=4.0, count=20))
        assert [job.arrived_at for job in first_jobs] != \
            [job.arrived_at for job in second_jobs]

    def test_describe(self):
        assert OpenLoopPoisson(2.0, 10).describe() == \
            "poisson(rate=2, count=10)"


class TestTraceReplay:
    def test_arrivals_at_exact_times(self):
        driver = build_driver()
        jobs = record_jobs(driver)
        report = driver.run(TraceReplay([0.5, 0.25, 2.0]))
        assert report.jobs == 3
        assert [job.arrived_at for job in jobs] == [0.25, 0.5, 2.0]

    def test_entries_may_pin_actions(self):
        driver = build_driver()
        driver.add_action(TrafficActionSpec("Other", width=2,
                                            mean_service=0.25))
        jobs = record_jobs(driver)
        driver.run(TraceReplay([(0.1, "Other"), (0.2, "Serve")]))
        assert [job.action for job in jobs] == ["Other", "Serve"]


class TestClosedLoopClients:
    def test_each_client_submits_its_quota(self):
        driver = build_driver(pool_size=6)
        report = driver.run(ClosedLoopClients(n_clients=3, think_time=0.2,
                                              jobs_per_client=4))
        assert report.jobs == 12
        assert report.completed == 12

    def test_closed_loop_never_exceeds_client_concurrency(self):
        driver = build_driver(pool_size=8)
        report = driver.run(ClosedLoopClients(n_clients=2, think_time=0.0,
                                              jobs_per_client=5))
        # Two clients, each with at most one job outstanding.
        assert report.max_concurrency <= 2
        assert report.jobs == 10
