"""Tests for the capacity / mixed-traffic scenarios and their façades."""

import json

import pytest

from repro.bench import run_scenario
from repro.workload.scenarios import (
    run_capacity_point,
    run_mixed_traffic,
    saturation_knee,
)


class TestCapacityPoint:
    def test_acceptance_point_200_instances_with_overlap(self):
        """The acceptance bar: ≥200 instances, observed concurrency > 1."""
        row = run_capacity_point(offered_load=2.0, n_instances=200)
        assert row["jobs"] == 200
        assert row["completed"] + row["dropped"] == 200
        assert row["max_concurrency"] > 1
        assert row["latency_p50"] is not None
        assert row["latency_p99"] >= row["latency_p50"]
        assert row["throughput"] > 0
        json.dumps(row)  # every row is JSON-serializable

    def test_light_load_keeps_up_heavy_load_saturates(self):
        light = run_capacity_point(offered_load=1.0, n_instances=200)
        heavy = run_capacity_point(offered_load=8.0, n_instances=200)
        assert light["throughput"] >= 0.9 * 1.0
        assert heavy["throughput"] < 0.9 * 8.0
        assert heavy["latency_p99"] > light["latency_p99"]

    def test_pure_function_of_parameters(self):
        first = run_capacity_point(offered_load=2.0, n_instances=100)
        second = run_capacity_point(offered_load=2.0, n_instances=100)
        assert first == second


class TestSaturationKnee:
    def test_finds_the_last_point_that_keeps_up(self):
        rows = [
            {"offered_load": 1.0, "throughput": 1.0, "latency_p99": 2.0},
            {"offered_load": 2.0, "throughput": 1.95, "latency_p99": 3.0},
            {"offered_load": 4.0, "throughput": 2.6, "latency_p99": 9.0},
        ]
        knee = saturation_knee(rows)
        assert knee["verdict"] == "knee"
        assert knee["knee_offered_load"] == 2.0
        assert knee["knee_latency_p99"] == 3.0
        assert knee["saturated_loads"] == [4.0]

    def test_nothing_keeps_up(self):
        rows = [{"offered_load": 4.0, "throughput": 1.0, "latency_p99": 9.0}]
        knee = saturation_knee(rows)
        assert knee["verdict"] == "all_saturated"
        assert knee["knee_offered_load"] is None
        assert knee["saturated_loads"] == [4.0]

    def test_single_keeping_up_row_is_a_lower_bound_not_a_knee(self):
        # One row that keeps up: the sweep never saturated, so the
        # reported load is a lower bound on capacity, flagged as such.
        rows = [{"offered_load": 1.0, "throughput": 1.0, "latency_p99": 2.0}]
        knee = saturation_knee(rows)
        assert knee["verdict"] == "never_saturated"
        assert knee["knee_offered_load"] == 1.0
        assert knee["saturated_loads"] == []

    def test_never_saturated_sweep(self):
        rows = [
            {"offered_load": 1.0, "throughput": 1.0, "latency_p99": 2.0},
            {"offered_load": 2.0, "throughput": 2.0, "latency_p99": 2.1},
            {"offered_load": 4.0, "throughput": 3.9, "latency_p99": 2.4},
        ]
        knee = saturation_knee(rows)
        assert knee["verdict"] == "never_saturated"
        assert knee["knee_offered_load"] == 4.0
        assert knee["saturated_loads"] == []

    def test_all_saturated_sweep(self):
        rows = [
            {"offered_load": 2.0, "throughput": 1.0, "latency_p99": 8.0},
            {"offered_load": 4.0, "throughput": 1.1, "latency_p99": 9.0},
        ]
        knee = saturation_knee(rows)
        assert knee["verdict"] == "all_saturated"
        assert knee["knee_offered_load"] is None
        assert knee["saturated_loads"] == [2.0, 4.0]

    def test_bracketed_sweep_has_knee_verdict(self):
        rows = [
            {"offered_load": 1.0, "throughput": 1.0, "latency_p99": 2.0},
            {"offered_load": 4.0, "throughput": 2.6, "latency_p99": 9.0},
        ]
        assert saturation_knee(rows)["verdict"] == "knee"

    def test_empty_sweep_is_an_error(self):
        with pytest.raises(ValueError):
            saturation_knee([])

    def test_order_independent(self):
        rows = [
            {"offered_load": 4.0, "throughput": 2.6, "latency_p99": 9.0},
            {"offered_load": 1.0, "throughput": 1.0, "latency_p99": 2.0},
        ]
        assert saturation_knee(rows)["knee_offered_load"] == 1.0

    def test_non_monotone_curve_keeps_knee_before_first_failure(self):
        # A point that happens to keep up again beyond the first failure
        # must not move the knee outward past a saturated load.
        rows = [
            {"offered_load": 1.0, "throughput": 1.0, "latency_p99": 2.0},
            {"offered_load": 2.0, "throughput": 1.5, "latency_p99": 8.0},
            {"offered_load": 3.0, "throughput": 2.9, "latency_p99": 9.0},
        ]
        knee = saturation_knee(rows)
        assert knee["knee_offered_load"] == 1.0
        assert knee["saturated_loads"] == [2.0, 3.0]


class TestMixedTraffic:
    def test_acceptance_run_is_oracle_clean(self):
        """Concurrent heterogeneous traffic + noise: every oracle holds."""
        row = run_mixed_traffic(seed=2026, n_instances=200)
        assert row["jobs"] == 200
        assert row["violations"] == []
        assert row["max_concurrency"] > 1
        assert row["resolutions"] > 0          # faults really happened
        assert row["faults_delayed"] > 0       # noise really applied
        assert set(row["outcomes"]) <= {"success", "recovered"}
        json.dumps(row)

    def test_baseline_algorithms_survive_concurrent_instances(self):
        """CR and R96 round messages are instance-stamped too: overlapping
        instances of one action name stay oracle-clean under noise."""
        for algorithm in ("campbell-randell", "romanovsky96"):
            row = run_mixed_traffic(seed=2026, n_instances=60,
                                    algorithm=algorithm)
            assert row["violations"] == [], algorithm
            assert row["max_concurrency"] > 1
            assert row["resolutions"] > 0

    def test_noise_plan_is_delivery_preserving_and_seeded(self):
        from repro.workload.scenarios import _noise_plan
        plan_a = _noise_plan(7, 8, 6, 0.4)
        plan_b = _noise_plan(7, 8, 6, 0.4)
        assert plan_a.preserves_delivery()
        assert [d.to_dict() for d in plan_a.directives] == \
            [d.to_dict() for d in plan_b.directives]
        assert _noise_plan(8, 8, 6, 0.4).directives != plan_a.directives


class TestEngineIntegration:
    POINTS = [{"offered_load": 1.0, "n_instances": 200},
              {"offered_load": 4.0, "n_instances": 200}]

    def test_capacity_parallel_equals_sequential(self):
        sequential = run_scenario("capacity", points=self.POINTS)
        parallel = run_scenario("capacity", points=self.POINTS, workers=2)
        assert parallel == sequential

    def test_mixed_traffic_parallel_equals_sequential(self):
        points = [{"seed": 2026, "n_instances": 200},
                  {"seed": 2027, "n_instances": 200}]
        sequential = run_scenario("mixed_traffic", points=points)
        parallel = run_scenario("mixed_traffic", points=points, workers=2)
        assert parallel == sequential
        assert all(row["violations"] == [] for row in sequential)

    def test_small_instance_counts_pass_through_the_points(self):
        capacity = run_scenario("capacity", points=[
            {"offered_load": 1.0, "n_instances": 60}])
        assert len(capacity) == 1 and capacity[0]["offered_load"] == 1.0
        mixed = run_scenario("mixed_traffic", points=[
            {"seed": 2026, "n_instances": 60}])
        assert len(mixed) == 1 and mixed[0]["violations"] == []

