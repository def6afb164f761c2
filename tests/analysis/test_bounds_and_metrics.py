"""Tests for the analytic bounds and the run-metrics collector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    TimingParameters,
    campbell_randell_reference_messages,
    campbell_randell_resolution_calls,
    exception_graph_level_size,
    lemma1_completion_bound,
    messages_all_exceptions,
    messages_single_exception,
    romanovsky96_messages,
    signalling_messages_simple,
    signalling_messages_worst_case,
    theorem2_worst_case_messages,
)
from repro.runtime import events as kinds
from repro.runtime.metrics import ActionOutcome, RunMetrics
from tests.conftest import feed, feed_outcome


class TestFormulas:
    def test_values_from_the_paper_for_n3(self):
        assert messages_single_exception(3) == 8
        assert messages_all_exceptions(3) == 8
        assert theorem2_worst_case_messages(3, 1) == 8
        assert romanovsky96_messages(3) == 18
        assert campbell_randell_resolution_calls(3) == 6
        assert signalling_messages_simple(3) == 6
        assert signalling_messages_worst_case(3) == 12

    def test_single_and_all_are_equal_for_every_n(self):
        for n in range(2, 20):
            assert messages_single_exception(n) == messages_all_exceptions(n)
            assert messages_single_exception(n) == n * n - 1

    def test_nesting_multiplies_theorem2(self):
        assert theorem2_worst_case_messages(4, 3) == 3 * 15
        assert theorem2_worst_case_messages(4, 0) == 15   # level floor of 1

    def test_minimum_thread_count_enforced(self):
        for function in (messages_single_exception, messages_all_exceptions,
                         romanovsky96_messages, signalling_messages_simple):
            with pytest.raises(ValueError):
                function(1)

    def test_graph_level_sizes_match_binomials(self):
        assert exception_graph_level_size(5, 0) == 5
        assert exception_graph_level_size(5, 1) == 10
        assert exception_graph_level_size(5, 2) == 10
        assert exception_graph_level_size(5, 4) == 1
        assert exception_graph_level_size(5, 7) == 0

    def test_cr_reference_is_cubic(self):
        assert campbell_randell_reference_messages(3) == 27
        assert campbell_randell_reference_messages(4, max_nesting=2) == 128

    @given(n=st.integers(min_value=2, max_value=50),
           nesting=st.integers(min_value=0, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_property_ordering_of_algorithm_costs(self, n, nesting):
        """Ours ≤ Romanovsky-96 ≤ Campbell–Randell for every N and nesting."""
        ours = theorem2_worst_case_messages(n, nesting)
        r96 = romanovsky96_messages(n, nesting)
        cr = campbell_randell_reference_messages(n, nesting)
        assert ours <= r96 <= cr


class TestLemma1:
    def test_formula_matches_hand_computation(self):
        params = TimingParameters(t_msg_max=0.2, t_resolution=0.3,
                                  t_abort=0.1, t_handler_max=0.5,
                                  max_nesting=1)
        expected = (2 * 1 + 3) * 0.2 + 1 * 0.1 + (1 + 1) * (0.3 + 0.5)
        assert lemma1_completion_bound(params) == pytest.approx(expected)

    def test_no_nesting_reduces_to_three_message_rounds(self):
        params = TimingParameters(1.0, 0.0, 0.0, 0.0, max_nesting=0)
        assert lemma1_completion_bound(params) == pytest.approx(3.0)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            TimingParameters(-1, 0, 0, 0)
        with pytest.raises(ValueError):
            TimingParameters(0, 0, 0, 0, max_nesting=-1)

    @given(t_msg=st.floats(0, 10), t_res=st.floats(0, 10),
           t_abort=st.floats(0, 10), handler=st.floats(0, 10),
           nesting=st.integers(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_property_bound_monotone_in_every_parameter(self, t_msg, t_res,
                                                        t_abort, handler,
                                                        nesting):
        base = TimingParameters(t_msg, t_res, t_abort, handler, nesting)
        bumped = TimingParameters(t_msg + 1, t_res, t_abort, handler, nesting)
        deeper = TimingParameters(t_msg, t_res, t_abort, handler, nesting + 1)
        assert lemma1_completion_bound(bumped) >= lemma1_completion_bound(base)
        assert lemma1_completion_bound(deeper) >= lemma1_completion_bound(base)


class TestRunMetrics:
    def test_counters_accumulate(self):
        metrics = RunMetrics()
        feed(metrics.on_event, kinds.ACTION_RAISED, "T1", "A", 1.0, "fault")
        feed(metrics.on_event, kinds.ACTION_SUSPENDED, "T2", "A", 1.1)
        feed(metrics.on_event, kinds.ACTION_RESOLVED, "T3", "A", 1.5, "fault")
        feed(metrics.on_event, kinds.ACTION_HANDLING, "T1", "A", 1.6, "fault")
        feed(metrics.on_event, kinds.ACTION_ABORTING, "T2", "B", 1.7)
        feed(metrics.on_event, kinds.ACTION_SIGNALLED, "T1", "A", 2.0, "eps")
        assert metrics.exceptions_raised == 1
        assert metrics.exceptions_by_name == {"fault": 1}
        assert metrics.suspensions == 1
        assert metrics.resolutions == 1
        assert metrics.resolved_by_name == {"fault": 1}
        assert metrics.handlers_invoked == 1
        assert metrics.abortions == 1
        assert metrics.signalled == {"eps": 1}

    def test_a_resolution_counts_once_however_many_threads_it_reaches(self):
        # ``action.resolved`` is emitted per delivery; only the resolver's
        # own delivery is a resolution.
        metrics = RunMetrics()
        for thread in ("T1", "T2", "T3"):
            feed(metrics.on_event, kinds.ACTION_RESOLVED, thread, "A", 1.5,
                 "fault", resolver="T3")
        assert metrics.resolutions == 1
        assert metrics.resolved_by_name == {"fault": 1}

    def test_kinds_without_a_counter_are_ignored(self):
        metrics = RunMetrics()
        feed(metrics.on_event, kinds.SIGNAL_PARKED, "T1", "A", 1.0)
        feed(metrics.on_event, kinds.ACTION_ABORTION_COMPLETED, "T1", "A",
             1.0, resume_action="Outer", signalled=None)
        assert metrics.snapshot() == RunMetrics().snapshot()

    def test_keep_details_off_counts_but_keeps_no_outcomes(self):
        metrics = RunMetrics()
        metrics.keep_details = False
        feed(metrics.on_event, kinds.ACTION_RAISED, "T1", "A", 1.0, "fault")
        feed_outcome(metrics.on_event, "A", "recovered", None, 0.0, 2.0)
        assert metrics.exceptions_raised == 1
        assert metrics.action_outcomes == []
        assert not metrics._entered_at

    def test_outcomes_and_summary(self):
        metrics = RunMetrics()
        feed_outcome(metrics.on_event, "A", "success", None, 0.0, 2.0)
        feed_outcome(metrics.on_event, "A", "recovered", None, 2.0, 5.0)
        feed_outcome(metrics.on_event, "B", "failed", "failure", 0.0, 1.0)
        assert metrics.action_outcomes[2] == ActionOutcome(
            "B", "failed", "failure", 0.0, 1.0)
        assert len(metrics.outcomes_for("A")) == 2
        assert metrics.outcomes_for("A")[1].duration == 3.0
        summary = metrics.summary()
        assert summary["outcomes"]["success"] == 1
        assert summary["outcomes"]["failed"] == 1


class TestBoundsEdgeCases:
    """The least-tested corners of analysis/bounds.py."""

    def test_n2_boundary_values(self):
        assert messages_single_exception(2) == 3
        assert messages_all_exceptions(2) == 3
        assert theorem2_worst_case_messages(2, 1) == 3
        assert romanovsky96_messages(2) == 6
        assert signalling_messages_simple(2) == 2
        assert signalling_messages_worst_case(2) == 4
        assert campbell_randell_resolution_calls(2) == 0

    def test_theorem2_and_references_reject_small_n(self):
        for function in (theorem2_worst_case_messages,
                         campbell_randell_reference_messages):
            with pytest.raises(ValueError):
                function(1, 1)
        with pytest.raises(ValueError):
            campbell_randell_resolution_calls(1)
        with pytest.raises(ValueError):
            signalling_messages_worst_case(1)

    def test_graph_level_size_edges(self):
        # Level below zero or beyond n-1: empty by definition.
        assert exception_graph_level_size(5, -1) == 0
        assert exception_graph_level_size(5, 5) == 0
        # A single primitive has exactly its own level 0.
        assert exception_graph_level_size(1, 0) == 1
        assert exception_graph_level_size(1, 1) == 0
        with pytest.raises(ValueError):
            exception_graph_level_size(0, 0)

    def test_graph_level_sizes_sum_to_the_powerset(self):
        # Sum over all levels = 2^n - 1 nonempty subsets (untruncated graph).
        for n in (1, 3, 6):
            total = sum(exception_graph_level_size(n, level)
                        for level in range(n))
            assert total == 2 ** n - 1

    def test_lemma1_zero_everything_is_zero(self):
        assert lemma1_completion_bound(
            TimingParameters(0, 0, 0, 0, max_nesting=0)) == 0.0


class TestRunMetricsSummaryEdgeCases:
    def test_summary_with_no_outcomes(self):
        summary = RunMetrics().summary()
        assert summary["outcomes"] == {}
        assert summary["exceptions_raised"] == 0
        assert summary["signalled"] == {}

    def test_summary_with_mixed_outcome_kinds(self):
        metrics = RunMetrics()
        for outcome in ("success", "recovered", "undone", "failed",
                        "signalled", "aborted", "success"):
            feed_outcome(metrics.on_event, "A", outcome)
        summary = metrics.summary()
        assert summary["outcomes"] == {
            "success": 2, "recovered": 1, "undone": 1, "failed": 1,
            "signalled": 1, "aborted": 1,
        }

    def test_outcomes_for_unknown_action_is_empty(self):
        assert RunMetrics().outcomes_for("nope") == []


class TestRunMetricsSnapshot:
    """snapshot()/restore()/merge(), mirroring MessageStatistics."""

    @staticmethod
    def populated():
        metrics = RunMetrics()
        feed(metrics.on_event, kinds.ACTION_RAISED, "T1", "A", 1.0, "fault")
        feed(metrics.on_event, kinds.ACTION_RESOLVED, "T2", "A", 1.5, "fault")
        feed(metrics.on_event, kinds.ACTION_HANDLING, "T1", "A", 1.6, "fault")
        feed(metrics.on_event, kinds.ACTION_ABORTING, "T2", "B", 1.7)
        feed(metrics.on_event, kinds.ACTION_SUSPENDED, "T3", "A", 1.8)
        feed(metrics.on_event, kinds.ACTION_SIGNALLED, "T1", "A", 2.0, "eps")
        feed_outcome(metrics.on_event, "A", "recovered", None, 0.0, 2.5)
        return metrics

    def test_snapshot_is_json_serializable(self):
        import json
        json.dumps(self.populated().snapshot())

    def test_round_trip_restores_everything(self):
        original = self.populated()
        rebuilt = RunMetrics()
        rebuilt.restore(original.snapshot())
        assert rebuilt.snapshot() == original.snapshot()
        assert rebuilt.summary() == original.summary()
        assert rebuilt.outcomes_for("A")[0].duration == 2.5

    def test_restore_discards_previous_state(self):
        metrics = self.populated()
        metrics.restore(RunMetrics().snapshot())
        assert metrics.snapshot() == RunMetrics().snapshot()

    def test_merge_aggregates_per_shard_metrics(self):
        shard_a = self.populated()
        shard_b = self.populated()
        feed(shard_b.on_event, kinds.ACTION_RAISED, "T9", "C", 9.0, "other")
        union = RunMetrics()
        union.merge(shard_a.snapshot())
        union.merge(shard_b.snapshot())
        assert union.exceptions_raised == 3
        assert union.exceptions_by_name == {"fault": 2, "other": 1}
        assert union.resolutions == 2
        assert union.abortions == 2
        assert union.signalled == {"eps": 2}
        assert len(union.action_outcomes) == 2

    def test_merge_accepts_live_outcome_objects(self):
        metrics = RunMetrics()
        metrics.merge({"action_outcomes": [ActionOutcome("A", "success")]})
        assert metrics.action_outcomes[0].action == "A"

    def test_action_outcome_dict_round_trip(self):
        outcome = ActionOutcome("A", "signalled", "eps", 1.0, 3.5)
        assert ActionOutcome.from_dict(outcome.to_dict()) == outcome
