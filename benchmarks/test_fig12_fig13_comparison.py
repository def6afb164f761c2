"""Experiment E2 — Figures 12 and 13: comparison with the CR algorithm.

Three threads enter a CA action and raise three different exceptions nearly
at the same time, so exception resolution is required.  The same application
and the same resolution graph run under the paper's algorithm and under the
Campbell–Randell algorithm, for the Figure 12 parameter grids.

Expected shape (asserted):

* both algorithms are (approximately) linear in ``Tmmax`` and in ``Tres``;
* the CR algorithm is slower everywhere, its ``Tres`` slope is markedly
  larger (its resolution procedure runs many times instead of once) and its
  ``Tmmax`` slope is at least as large (more message rounds);
* the CR algorithm sends more protocol messages and performs more resolution
  calls (Section 5.3: N(N−1)(N−2) vs one).
"""

import pytest

from repro.bench import run_experiment2, run_scenario
from repro.bench.reporting import (
    format_table,
    linear_fit,
    paper_reference_figure12,
    series,
)


@pytest.mark.benchmark(group="figure12")
def test_figure12_varying_tmmax(benchmark, report):
    rows = run_scenario("figure12_tmmax")
    reference = paper_reference_figure12()["varying_tmmax"]

    for row in rows:
        assert row["time_cr"] > row["time_ours"], \
            "the CR algorithm must be slower for every Tmmax"

    fit_ours = linear_fit(*series(rows, "t_msg", "time_ours"))
    fit_cr = linear_fit(*series(rows, "t_msg", "time_cr"))
    assert fit_ours["r_squared"] > 0.98 and fit_cr["r_squared"] > 0.98
    assert fit_cr["slope"] >= fit_ours["slope"], \
        "CR must depend at least as steeply on the message-passing time"

    body = format_table(
        [dict(row, paper_ours=ref["paper_time_ours"],
              paper_cr=ref["paper_time_cr"])
         for row, ref in zip(rows, reference)],
        columns=["t_msg", "time_ours", "time_cr", "paper_ours", "paper_cr"])
    report("Figure 12 / 13(a) — varying Tmmax at Tres = 0.3",
           body + f"\nslopes: ours {fit_ours['slope']:.2f}, "
                  f"CR {fit_cr['slope']:.2f}")

    benchmark.pedantic(run_experiment2, args=(1.0, 0.3),
                       kwargs={"algorithm": "ours"}, rounds=3, iterations=1)


@pytest.mark.benchmark(group="figure12")
def test_figure12_varying_tres(benchmark, report):
    rows = run_scenario("figure12_tres")
    reference = paper_reference_figure12()["varying_tres"]

    for row in rows:
        assert row["time_cr"] > row["time_ours"], \
            "the CR algorithm must be slower for every Tres"

    fit_ours = linear_fit(*series(rows, "t_res", "time_ours"))
    fit_cr = linear_fit(*series(rows, "t_res", "time_cr"))
    assert fit_ours["r_squared"] > 0.98 and fit_cr["r_squared"] > 0.98
    assert fit_cr["slope"] > 1.5 * fit_ours["slope"], \
        ("CR calls the resolution procedure many times, so its dependence on "
         "Tres must be markedly steeper than ours")

    body = format_table(
        [dict(row, paper_ours=ref["paper_time_ours"],
              paper_cr=ref["paper_time_cr"])
         for row, ref in zip(rows, reference)],
        columns=["t_res", "time_ours", "time_cr", "paper_ours", "paper_cr"])
    report("Figure 12 / 13(b) — varying Tres at Tmmax = 1.0",
           body + f"\nslopes: ours {fit_ours['slope']:.2f}, "
                  f"CR {fit_cr['slope']:.2f}")

    benchmark.pedantic(run_experiment2, args=(1.0, 0.3),
                       kwargs={"algorithm": "campbell-randell"},
                       rounds=3, iterations=1)


@pytest.mark.benchmark(group="figure13")
def test_figure13_message_and_resolution_counts(benchmark, report):
    """The structural reasons behind Figure 13: messages and resolution calls."""
    ours = run_experiment2(1.0, 0.3, algorithm="ours")
    cr = run_experiment2(1.0, 0.3, algorithm="campbell-randell")

    assert ours.resolution_calls == 1, \
        "the new algorithm resolves exactly once (one resolver)"
    assert cr.resolution_calls > ours.resolution_calls, \
        "CR resolves repeatedly on every thread"
    assert cr.protocol_messages > ours.protocol_messages, \
        "CR needs strictly more protocol messages"

    report("Figure 13 — why the curves differ (N = 3)",
           f"resolution calls : ours {ours.resolution_calls}, "
           f"CR {cr.resolution_calls} (paper: 1 vs N(N-1)(N-2) = 6)\n"
           f"protocol messages: ours {ours.protocol_messages}, "
           f"CR {cr.protocol_messages}")

    benchmark.pedantic(run_experiment2, args=(1.4, 0.3),
                       kwargs={"algorithm": "ours"}, rounds=3, iterations=1)
