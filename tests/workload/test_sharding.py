"""Sharded partition pools: plans, leases, merging, determinism."""

import json
import logging

import pytest

from repro.bench.engine import REGISTRY, run_scenario
from repro.workload.sharding import (
    VOLATILE_KEYS,
    GlobalAdmissionController,
    ShardPlan,
    ShardedPool,
    merged_snapshot_digest,
    run_scale_point,
    shard_seed,
)

#: A cheap two-shard point reused across the determinism tests.
SMALL = dict(n_instances=240, n_shards=2, offered_load=6.0, pool_size=8,
             seed=2026)


class TestShardPlan:
    def test_split_covers_every_instance_and_load(self):
        plan = ShardPlan(seed=7, n_shards=3, n_instances=10,
                         offered_load=6.0)
        sizes = [spec.n_instances for spec in plan.shards]
        assert sizes == [4, 3, 3]          # earlier shards take the remainder
        assert sum(sizes) == 10
        loads = [spec.offered_load for spec in plan.shards]
        assert sum(loads) == pytest.approx(6.0)
        # Per-shard load is proportional to the shard's instance share.
        assert loads[0] == pytest.approx(6.0 * 4 / 10)

    def test_shard_seeds_are_stable_and_distinct(self):
        two = ShardPlan(seed=7, n_shards=2, n_instances=100, offered_load=4.0)
        three = ShardPlan(seed=7, n_shards=3, n_instances=100,
                          offered_load=4.0)
        seeds = [spec.seed for spec in three.shards]
        assert len(set(seeds)) == 3
        assert seeds == [shard_seed(7, index) for index in range(3)]
        # A shard's seed depends on (seed, shard_id) only — re-sharding
        # does not reseed the shards that keep their id.
        assert two.shards[0].seed == three.shards[0].seed
        assert two.shards[1].seed == three.shards[1].seed

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardPlan(seed=1, n_shards=0, n_instances=10, offered_load=1.0)
        with pytest.raises(ValueError):
            ShardPlan(seed=1, n_shards=1, n_instances=0, offered_load=1.0)
        with pytest.raises(ValueError):
            ShardPlan(seed=1, n_shards=1, n_instances=10, offered_load=0.0)
        with pytest.raises(ValueError):
            ShardPlan(seed=1, n_shards=2, n_instances=10, offered_load=1.0,
                      leases=[4])           # one lease per shard required

    def test_describe_is_json_serializable(self):
        plan = ShardPlan(seed=7, n_shards=2, n_instances=10,
                         offered_load=4.0, leases=[3, 3])
        described = json.loads(json.dumps(plan.describe()))
        assert described["n_shards"] == 2
        assert described["leases"] == [3, 3]


class TestGlobalAdmissionController:
    def test_unlimited_budget_gives_unlimited_leases(self):
        controller = GlobalAdmissionController(None, 3)
        assert controller.leases == (None, None, None)
        controller.rebalance([5, 1, 1])
        assert controller.leases == (None, None, None)

    def test_budget_split_sums_and_floors(self):
        controller = GlobalAdmissionController(10, 3)
        assert sum(controller.leases) == 10
        assert all(lease >= 1 for lease in controller.leases)

    def test_budget_below_shard_count_is_rejected(self):
        with pytest.raises(ValueError):
            GlobalAdmissionController(2, 3)

    def test_rebalance_follows_demand(self):
        controller = GlobalAdmissionController(12, 3)
        controller.rebalance([10, 1, 1])
        first = controller.leases
        assert sum(first) == 12
        assert all(lease >= 1 for lease in first)
        assert first[0] > first[1] and first[0] > first[2]
        # Pure arithmetic: the same demand vector gives the same split.
        controller.rebalance([10, 1, 1])
        assert controller.leases == first


class TestShardedPoolDeterminism:
    def test_worker_count_does_not_change_the_merged_row(self):
        digests = {workers: merged_snapshot_digest(
            run_scale_point(workers=workers, **SMALL))
            for workers in (0, 2, 4)}
        assert len(set(digests.values())) == 1

    def test_merged_equals_sum_of_shards(self):
        row = run_scale_point(**SMALL)
        for field in ("jobs", "completed", "dropped"):
            assert row[field] == sum(shard[field]
                                     for shard in row["per_shard"])
        assert row["admission"]["arrived"] == row["jobs"]
        assert row["oracle"] == "ok"
        assert row["n_violations"] == 0

    def test_rows_are_json_serializable(self):
        json.dumps(run_scale_point(**SMALL), allow_nan=False)

    def test_digest_strips_only_volatile_fields(self):
        row = run_scale_point(**SMALL)
        assert VOLATILE_KEYS <= set(row)
        tampered = dict(row, wall_seconds=123.0, workers=99,
                        executor="other")
        assert merged_snapshot_digest(tampered) == \
            merged_snapshot_digest(row)
        assert merged_snapshot_digest(dict(row, completed=0)) != \
            merged_snapshot_digest(row)


class TestGlobalBackpressure:
    def test_budget_below_capacity_queues_and_drops(self):
        constrained = run_scale_point(
            n_instances=400, n_shards=2, offered_load=12.0, pool_size=8,
            seed=2026, global_max_in_flight=4)
        unconstrained = run_scale_point(
            n_instances=400, n_shards=2, offered_load=12.0, pool_size=8,
            seed=2026)
        assert constrained["leases"] == [2, 2]
        assert constrained["admission"]["queued"] > 0
        assert constrained["admission"]["dropped"] > \
            unconstrained["admission"]["dropped"]
        assert constrained["completed"] < unconstrained["completed"]

    def test_sweep_carries_budget_and_reports_knees(self):
        pool = ShardedPool(pool_size=8)
        result = pool.sweep((2.0, 8.0), seed=2026, n_instances=240,
                            n_shards=2, global_max_in_flight=6)
        assert len(result["rows"]) == 2
        assert len(result["lease_history"]) == 2
        assert all(sum(leases) == 6 for leases in result["lease_history"])
        assert result["merged_knee"]["verdict"] in (
            "knee", "never_saturated", "all_saturated")
        assert len(result["per_shard_knees"]) == 2


class TestFallbackLogging:
    def test_oserror_falls_back_to_sequential_and_warns(
            self, monkeypatch, caplog):
        class ExplodingPool:
            def __init__(self, max_workers):
                raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor",
                            ExplodingPool)
        pool = ShardedPool(pool_size=8, workers=2)
        plan = ShardPlan(seed=1, n_shards=2, n_instances=60,
                         offered_load=4.0)
        with caplog.at_level(logging.WARNING,
                             logger="repro.workload.sharding"):
            result = pool.run(plan)
        assert result["executor"] == "sequential"
        assert result["merged"]["jobs"] == 60
        assert any("falling back" in record.getMessage()
                   for record in caplog.records)


class TestEngineScaleScenario:
    def test_scale_scenario_is_registered_with_a_grid(self):
        scenario = REGISTRY.get("scale")
        assert scenario.grid
        assert all("n_shards" in point for point in scenario.grid)

    def test_parallel_equals_sequential_on_deterministic_fields(self):
        points = [dict(SMALL), dict(SMALL, offered_load=12.0)]
        sequential = run_scenario("scale", points=points)
        parallel = run_scenario("scale", points=points, parallel=True,
                                max_workers=2)
        strip = (lambda row: {key: value for key, value in row.items()
                              if key not in VOLATILE_KEYS})
        assert [strip(row) for row in sequential] == \
            [strip(row) for row in parallel]

