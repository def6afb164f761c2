"""Direct unit tests for the plain-text reporting helpers (bench/reporting.py)."""

from __future__ import annotations

import pytest

from repro.bench.reporting import (
    format_table,
    linear_fit,
    paper_reference_figure9,
    paper_reference_figure12,
    series,
)


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            [{"n": 1, "time": 1.23456}, {"n": 10, "time": 12.3}],
            title="demo")
        lines = text.split("\n")
        assert lines[0] == "demo"
        assert lines[1].split() == ["n", "time"]
        assert set(lines[2]) <= {"-", " "}
        assert lines[3].split() == ["1", "1.235"]   # default precision 3
        assert lines[4].split() == ["10", "12.300"]
        # All body lines are padded to the same width.
        assert len(set(len(line) for line in lines[1:])) == 1

    def test_empty_rows(self):
        assert format_table([], title="nothing") == "nothing\n(no rows)"

    def test_explicit_columns_and_missing_values(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b", "missing"])
        header, _separator, body = text.split("\n")
        assert header.split() == ["b", "missing"]
        assert body.split() == ["2"]  # missing value renders empty

    def test_precision(self):
        text = format_table([{"x": 1.98765}], precision=1)
        assert text.split("\n")[-1].strip() == "2.0"


class TestPaperReferences:
    def test_figure9_reference_shapes(self):
        reference = paper_reference_figure9()
        assert sorted(reference) == ["varying_tabo", "varying_tmmax",
                                     "varying_treso"]
        assert len(reference["varying_tmmax"]) == 14
        assert len(reference["varying_tabo"]) == 11
        assert len(reference["varying_treso"]) == 11
        first = reference["varying_tmmax"][0]
        assert first["t_msg"] == 0.2
        assert first["paper_total_time"] == pytest.approx(94.361391)

    def test_figure12_reference_shapes(self):
        reference = paper_reference_figure12()
        assert len(reference["varying_tmmax"]) == 8
        assert len(reference["varying_tres"]) == 7
        for row in reference["varying_tmmax"]:
            # The paper's new algorithm beats Campbell-Randell everywhere.
            assert row["paper_time_ours"] < row["paper_time_cr"]


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert fit["slope"] == pytest.approx(2.0)
        assert fit["intercept"] == pytest.approx(1.0)
        assert fit["r_squared"] == pytest.approx(1.0)

    def test_constant_ys_have_unit_r_squared(self):
        fit = linear_fit([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
        assert fit["slope"] == pytest.approx(0.0)
        assert fit["r_squared"] == 1.0

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            linear_fit([1.0], [2.0])
        with pytest.raises(ValueError):
            linear_fit([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            linear_fit([3.0, 3.0], [1.0, 2.0])  # identical x values


class TestSeries:
    def test_extracts_float_pairs(self):
        xs, ys = series([{"x": 1, "y": 2}, {"x": 3, "y": 4}], "x", "y")
        assert xs == [1.0, 3.0]
        assert ys == [2.0, 4.0]


class TestTimelineReporting:
    """The text helpers consume obs metrics timelines directly."""

    def make_rows(self):
        from repro.obs.metrics import Timeline
        timeline = Timeline(1.0)
        # A linear ramp: value == 2t + 1 at every grid point.
        timeline.restore({"interval": 1.0, "samples": 4, "series": {
            "in_flight": [[t, 2.0 * t + 1.0] for t in range(4)]}})
        return [{"t": t, "in_flight": value}
                for t, value in timeline.series["in_flight"]]

    def test_timeline_series_render_as_a_table(self):
        text = format_table(self.make_rows(), title="in-flight timeline",
                            precision=1)
        lines = text.split("\n")
        assert lines[0] == "in-flight timeline"
        assert lines[1].split() == ["t", "in_flight"]
        assert lines[3].split() == ["0.0", "1.0"]
        assert lines[-1].split() == ["3.0", "7.0"]

    def test_timeline_points_feed_series_and_linear_fit(self):
        xs, ys = series(self.make_rows(), "t", "in_flight")
        fit = linear_fit(xs, ys)
        assert fit["slope"] == pytest.approx(2.0)
        assert fit["intercept"] == pytest.approx(1.0)
        assert fit["r_squared"] == pytest.approx(1.0)
