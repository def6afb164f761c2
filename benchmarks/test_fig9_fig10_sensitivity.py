"""Experiment E1 — Figures 9 and 10: sensitivity of the total execution time.

Reproduces the paper's first experiment: three threads in a CA action, two
of them in a nested action, executed in a loop of 20 iterations; in every
iteration an exception in the containing action aborts the nested action,
the abortion handler raises a second exception and the resolving exception
is handled by all threads.  The three parameters ``Tmmax``, ``Tabo`` and
``Treso`` are swept over the same grids as Figure 9.

Expected shape (asserted below):

* the total execution time grows monotonically and roughly linearly in each
  parameter;
* the message-passing parameter has the steepest influence (the paper's
  conclusion that "the cost of message exchanges is still of the major
  concern, while concurrent exception handling does not introduce a high
  run-time overhead").
"""

import pytest

from repro.bench import (
    FIGURE9_GRIDS,
    figure9_grid,
    run_experiment1,
    run_scenario,
)
from repro.bench.reporting import (
    format_table,
    linear_fit,
    paper_reference_figure9,
    series,
)


def _assert_monotone(values):
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:])), \
        f"series is not monotonically non-decreasing: {values}"


@pytest.mark.benchmark(group="figure9")
def test_figure9_varying_tmmax(benchmark, report):
    rows = run_scenario("figure9", points=figure9_grid("t_msg"))
    xs, ys = series(rows, "t_msg", "total_time")
    _assert_monotone(ys)
    fit = linear_fit(xs, ys)
    assert fit["slope"] > 0
    assert fit["r_squared"] > 0.98, "expected an (approximately) linear trend"

    reference = paper_reference_figure9()["varying_tmmax"]
    body = format_table(
        [dict(row, paper_total_time=ref["paper_total_time"])
         for row, ref in zip(rows, reference)],
        columns=["t_msg", "total_time", "paper_total_time"],
    )
    report("Figure 9 / 10 — varying Tmmax (Tabo=0.1, Treso=0.3, 20 iterations)",
           body + f"\nmeasured slope: {fit['slope']:.2f} s per second of Tmmax")

    benchmark.pedantic(run_experiment1, args=(0.2, 0.1, 0.3),
                       kwargs={"iterations": 1}, rounds=3, iterations=1)


@pytest.mark.benchmark(group="figure9")
def test_figure9_varying_tabo(benchmark, report):
    rows = run_scenario("figure9", points=figure9_grid("t_abort"))
    xs, ys = series(rows, "t_abort", "total_time")
    _assert_monotone(ys)
    fit = linear_fit(xs, ys)
    assert fit["slope"] > 0
    assert fit["r_squared"] > 0.98

    reference = paper_reference_figure9()["varying_tabo"]
    body = format_table(
        [dict(row, paper_total_time=ref["paper_total_time"])
         for row, ref in zip(rows, reference)],
        columns=["t_abort", "total_time", "paper_total_time"],
    )
    report("Figure 9 / 10 — varying Tabo (Tmmax=0.2, Treso=0.3, 20 iterations)",
           body + f"\nmeasured slope: {fit['slope']:.2f} s per second of Tabo")

    benchmark.pedantic(run_experiment1, args=(0.2, 1.1, 0.3),
                       kwargs={"iterations": 1}, rounds=3, iterations=1)


@pytest.mark.benchmark(group="figure9")
def test_figure9_varying_treso(benchmark, report):
    rows = run_scenario("figure9", points=figure9_grid("t_resolution"))
    xs, ys = series(rows, "t_resolution", "total_time")
    _assert_monotone(ys)
    fit = linear_fit(xs, ys)
    assert fit["slope"] > 0
    assert fit["r_squared"] > 0.98

    reference = paper_reference_figure9()["varying_treso"]
    body = format_table(
        [dict(row, paper_total_time=ref["paper_total_time"])
         for row, ref in zip(rows, reference)],
        columns=["t_resolution", "total_time", "paper_total_time"],
    )
    report("Figure 9 / 10 — varying Treso (Tmmax=0.2, Tabo=0.1, 20 iterations)",
           body + f"\nmeasured slope: {fit['slope']:.2f} s per second of Treso")

    benchmark.pedantic(run_experiment1, args=(0.2, 0.1, 1.1),
                       kwargs={"iterations": 1}, rounds=3, iterations=1)


@pytest.mark.benchmark(group="figure10")
def test_figure10_message_cost_dominates(benchmark, report):
    """The Figure 10 conclusion: Tmmax has the steepest slope of the three."""
    tmmax_rows, tabo_rows, treso_rows = (
        run_scenario("figure9", points=figure9_grid(
            varying, FIGURE9_GRIDS[varying][:8]))
        for varying in ("t_msg", "t_abort", "t_resolution"))

    slope_tmmax = linear_fit(*series(tmmax_rows, "t_msg", "total_time"))["slope"]
    slope_tabo = linear_fit(*series(tabo_rows, "t_abort", "total_time"))["slope"]
    slope_treso = linear_fit(*series(treso_rows, "t_resolution",
                                     "total_time"))["slope"]

    assert slope_tmmax > slope_tabo, \
        "message passing must dominate the abortion cost"
    assert slope_tmmax > slope_treso, \
        "message passing must dominate the resolution cost"

    report("Figure 10 — sensitivity (slopes of total time, s per s of parameter)",
           f"varying Tmmax : {slope_tmmax:8.2f}\n"
           f"varying Tabo  : {slope_tabo:8.2f}\n"
           f"varying Treso : {slope_treso:8.2f}")

    benchmark.pedantic(run_experiment1, args=(1.0, 0.1, 0.3),
                       kwargs={"iterations": 1}, rounds=3, iterations=1)
