"""Integration tests: benchmark harness, reporting, cross-cutting behaviour."""

import pytest

from repro import obs
from repro.analysis import (
    lemma1_completion_bound,
    messages_all_exceptions,
    TimingParameters,
)
from repro.bench import (
    build_experiment1,
    build_experiment2,
    figure9_grid,
    run_complexity_scenario,
    run_experiment1,
    run_experiment2,
    run_scenario,
)
from repro.bench.reporting import (
    format_table,
    linear_fit,
    paper_reference_figure12,
    paper_reference_figure9,
    series,
)
from repro.runtime import ActionStatus
from repro.runtime.events import MESSAGE_DELIVERED
from repro.worlds import HANDLER_TIME, NORMAL_COMPUTATION_TIME


# ----------------------------------------------------------------------
# Experiment 1 (Figures 9/10)
# ----------------------------------------------------------------------
class TestExperiment1:
    def test_every_iteration_recovers(self):
        result = run_experiment1(0.2, 0.1, 0.3, iterations=3)
        for reports in result.reports:
            assert all(r.status is ActionStatus.RECOVERED for r in reports)

    def test_each_iteration_aborts_the_nested_action(self):
        system = build_experiment1(0.2, 0.1, 0.3, iterations=4)
        system.run_to_completion()
        # Two nested participants abort once per iteration.
        assert system.metrics.abortions == 2 * 4
        assert system.metrics.resolutions == 4

    def test_resolving_exception_covers_both_faults(self):
        result = run_experiment1(0.2, 0.1, 0.3, iterations=1)
        resolved = {r.resolved.name for reports in result.reports
                    for r in reports}
        assert resolved == {"abort_residue&outer_fault"}

    def test_total_time_scales_with_iterations(self):
        one = run_experiment1(0.2, 0.1, 0.3, iterations=1).total_time
        five = run_experiment1(0.2, 0.1, 0.3, iterations=5).total_time
        assert five == pytest.approx(5 * one, rel=0.01)

    def test_monotone_in_each_parameter(self):
        base = run_experiment1(0.2, 0.1, 0.3, iterations=2).total_time
        assert run_experiment1(1.2, 0.1, 0.3, iterations=2).total_time > base
        assert run_experiment1(0.2, 1.1, 0.3, iterations=2).total_time > base
        assert run_experiment1(0.2, 0.1, 1.3, iterations=2).total_time > base

    def test_sweep_rows_have_expected_columns(self):
        rows = run_scenario("figure9", points=figure9_grid(
            "t_msg", values=[0.2, 0.4], iterations=2))
        assert len(rows) == 2
        assert {"t_msg", "total_time", "time_per_iteration",
                "protocol_messages"} <= set(rows[0])

    def test_sweep_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            figure9_grid("t_nonsense")

    def test_one_point_reports_measurement_next_to_the_lemma1_bound(self):
        [row] = run_scenario("figure9", points=figure9_grid(
            "t_msg", values=[0.2], iterations=1))
        bound = lemma1_completion_bound(TimingParameters(
            t_msg_max=0.2, t_resolution=0.3, t_abort=0.1,
            t_handler_max=0.5, max_nesting=1))
        assert row["total_time"] > 0
        assert bound > 0


# ----------------------------------------------------------------------
# Experiment 2 (Figures 12/13)
# ----------------------------------------------------------------------
class TestExperiment2:
    def test_all_threads_raise_and_recover(self):
        result = run_experiment2(1.0, 0.3)
        for reports in result.reports:
            assert all(r.status is ActionStatus.RECOVERED for r in reports)
        assert result.resolution_calls == 1

    def test_ours_message_count_matches_formula(self):
        system = build_experiment2(1.0, 0.3, algorithm="ours")
        system.run_to_completion()
        assert system.network.stats.resolution_messages() == \
            messages_all_exceptions(3)

    def test_cr_is_slower_for_all_grid_points(self):
        rows = run_scenario("figure12_tmmax",
                            points=[{"t_msg": 1.0}, {"t_msg": 1.8}])
        assert all(row["time_cr"] > row["time_ours"] for row in rows)
        rows = run_scenario("figure12_tres",
                            points=[{"t_res": 0.3}, {"t_res": 1.1}])
        assert all(row["time_cr"] > row["time_ours"] for row in rows)

    def test_tres_slope_gap_mirrors_resolution_call_counts(self):
        rows = run_scenario("figure12_tres", points=[
            {"t_res": value} for value in (0.3, 0.7, 1.1, 1.5)])
        ours = linear_fit(*series(rows, "t_res", "time_ours"))["slope"]
        cr = linear_fit(*series(rows, "t_res", "time_cr"))["slope"]
        assert cr > ours
        assert rows[0]["resolution_calls_cr"] > rows[0]["resolution_calls_ours"]

    def test_scales_to_more_threads(self):
        result = run_experiment2(0.5, 0.1, n_threads=5)
        assert result.protocol_messages >= messages_all_exceptions(5)
        for reports in result.reports:
            assert all(r.status is ActionStatus.RECOVERED for r in reports)


# ----------------------------------------------------------------------
# Complexity harness
# ----------------------------------------------------------------------
class TestComplexityHarness:
    def test_invalid_exception_count_rejected(self):
        with pytest.raises(ValueError):
            run_complexity_scenario(3, 0)
        with pytest.raises(ValueError):
            run_complexity_scenario(3, 4)

    def test_table_covers_requested_thread_counts(self):
        rows = run_scenario("large_n",
                            points=[{"n_threads": n} for n in (2, 3)])
        assert [row["n_threads"] for row in rows] == [2, 3]
        for row in rows:
            assert row["resolution_messages"] == row["paper_single"]

    def test_signalling_messages_counted_separately(self):
        outcome = run_complexity_scenario(3, 1)
        assert outcome["signalling_messages"] == 3 * 2


# ----------------------------------------------------------------------
# Reporting helpers
# ----------------------------------------------------------------------
class TestReporting:
    def test_format_table_alignment_and_title(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123456}],
                            title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert "0.123" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_linear_fit_recovers_exact_line(self):
        fit = linear_fit([0, 1, 2, 3], [1, 3, 5, 7])
        assert fit["slope"] == pytest.approx(2.0)
        assert fit["intercept"] == pytest.approx(1.0)
        assert fit["r_squared"] == pytest.approx(1.0)

    def test_linear_fit_validation(self):
        with pytest.raises(ValueError):
            linear_fit([1], [1])
        with pytest.raises(ValueError):
            linear_fit([1, 1], [1, 2])

    def test_paper_reference_tables_have_all_rows(self):
        figure9 = paper_reference_figure9()
        assert len(figure9["varying_tmmax"]) == 14
        assert len(figure9["varying_tabo"]) == 11
        assert len(figure9["varying_treso"]) == 11
        figure12 = paper_reference_figure12()
        assert len(figure12["varying_tmmax"]) == 8
        assert len(figure12["varying_tres"]) == 7

    def test_paper_figure12_shape_cr_always_slower(self):
        for rows in paper_reference_figure12().values():
            for row in rows:
                assert row["paper_time_cr"] > row["paper_time_ours"]


# ----------------------------------------------------------------------
# Cross-cutting: the measured run respects the analytic model
# ----------------------------------------------------------------------
class TestCrossChecks:
    def test_measured_exception_handling_within_lemma1_bound(self):
        t_msg, t_abort, t_reso = 0.4, 0.3, 0.2
        result = run_experiment1(t_msg, t_abort, t_reso, iterations=1)
        bound = lemma1_completion_bound(TimingParameters(
            t_msg_max=t_msg, t_resolution=t_reso, t_abort=t_abort,
            t_handler_max=HANDLER_TIME, max_nesting=1))
        measured = result.total_time - NORMAL_COMPUTATION_TIME - 3 * t_msg
        assert measured <= bound

    def test_network_fifo_assumption_holds_during_experiments(self):
        # Flow ids number the sends in send order, so per link the
        # delivered ids must come out in increasing order.
        system = build_experiment2(0.7, 0.2)
        observation = obs.observe_system(system, obs.ObsConfig(metrics=False))
        system.run_to_completion()
        deliveries = {}
        for event in observation.events:
            if event["kind"] == MESSAGE_DELIVERED:
                link = (event["src"], event["dst"])
                deliveries.setdefault(link, []).append(event["seq"])
        assert len(deliveries) > 1
        for link, flows in deliveries.items():
            assert flows == sorted(flows), f"FIFO violated on {link}"

    def test_every_raised_exception_is_eventually_resolved_or_covered(self):
        system = build_experiment1(0.3, 0.2, 0.1, iterations=3)
        system.run_to_completion()
        metrics = system.metrics
        assert metrics.resolutions == 3
        assert metrics.handlers_invoked == 3 * 3     # three threads per round
