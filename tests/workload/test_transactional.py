"""Tests for the transactional CA workload and its oracles."""

import pytest

from repro.core.registry import ParamValidationError
from repro.workload.transactional import (
    TransactionalActionSpec,
    account_name,
    run_transactional_point,
)


def small_point(**overrides):
    """A fast, contended default point (seconds, not minutes)."""
    params = dict(offered_load=4.0, n_instances=40, pool_size=8,
                  width=2, n_accounts=4, seed=2026)
    params.update(overrides)
    return run_transactional_point(**params)


class TestSpec:
    def test_accounts_must_cover_width(self):
        with pytest.raises(ValueError, match="n_accounts"):
            TransactionalActionSpec("T", width=4, n_accounts=2)

    def test_abort_probability_bounds(self):
        with pytest.raises(ValueError, match="abort_probability"):
            TransactionalActionSpec("T", abort_probability=1.5)

    def test_profile_draws_distinct_accounts(self):
        from repro.simkernel.rng import SeededStreams
        spec = TransactionalActionSpec("T", width=3, n_accounts=5)
        for index in range(20):
            profile = spec.draw_profile(SeededStreams(7), index)
            assert len(set(profile.accounts)) == 3
            assert all(0 <= a < 5 for a in profile.accounts)

    def test_account_name_is_stable(self):
        assert account_name(3) == "acct003"


class TestTransactionalPoint:
    def test_oracle_clean_and_increments_match(self):
        row = small_point()
        assert row["violations"] == []
        # The no-lost-update contract, restated over the row.
        assert row["account_total"] == row["committed_increments"]
        assert row["active_transactions"] == 0
        assert row["completed"] == 40

    def test_contention_produces_deadlock_recoveries(self):
        # Heavy contention on few accounts: wait-for cycles must form,
        # be refused and recover — without a single oracle violation.
        row = small_point(offered_load=8.0, n_instances=80,
                          raise_probability=0.2)
        assert row["deadlock_recoveries"] > 0
        assert row["violations"] == []
        assert row["account_total"] == row["committed_increments"]

    def test_aborts_roll_back(self):
        # Every raising instance aborts: none of its increments may
        # survive, so the totals still match committed writers only.
        row = small_point(raise_probability=1.0, abort_probability=1.0)
        assert row["transactions"].get("aborted", 0) > 0
        assert row["violations"] == []
        assert row["account_total"] == row["committed_increments"]

    def test_clean_run_commits_everything(self):
        row = small_point(raise_probability=0.0, offered_load=1.0,
                          n_instances=20)
        statuses = row["transactions"]
        committed = statuses.get("committed", 0)
        # Deadlock victims abort even in a no-fault run; everyone else
        # commits two increments (width=2).
        assert committed + statuses.get("aborted", 0) == 20
        assert row["account_total"] == 2 * committed
        assert row["violations"] == []

    def test_rows_are_deterministic(self):
        assert small_point() == small_point()

    def test_baseline_algorithms_run_clean(self):
        for algorithm in ("campbell-randell", "romanovsky96"):
            row = small_point(n_instances=20, algorithm=algorithm)
            assert row["violations"] == []
            assert row["account_total"] == row["committed_increments"]


class TestScenarioRegistration:
    def test_registered_through_the_plugin_path(self):
        from repro.bench.engine import REGISTRY
        scenario = REGISTRY.get("transactional")
        assert scenario.accepts_extra is False
        assert [p.name for p in scenario.params] == [
            "offered_load", "n_instances", "pool_size", "width",
            "n_accounts", "mean_service", "raise_probability",
            "abort_probability", "seed", "t_msg", "t_resolution",
            "max_in_flight", "queue_capacity", "policy", "algorithm"]
        assert scenario.validate_grid(scenario.grid) == []

    def test_invalid_point_rejected_before_running(self):
        from repro.bench.engine import run_scenario
        with pytest.raises(ParamValidationError) as excinfo:
            run_scenario("transactional", points=[{}])
        assert "missing required parameter 'offered_load'" \
            in str(excinfo.value)
