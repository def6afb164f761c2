"""Experiment E3 — message-complexity counts (Section 3.2.3 and Theorem 2).

The paper enumerates the message cost of the new algorithm exactly:

* one exception, no nesting: ``(N+1)(N−1)`` messages
  (``N−1`` Exception, ``(N−1)²`` Suspended, ``N−1`` Commit);
* all N threads raise simultaneously: also ``(N+1)(N−1)``
  (``N(N−1)`` Exception, ``N−1`` Commit);
* the count is independent of the number of concurrent exceptions;
* Theorem 2: at most ``n_max (N²−1)`` messages with nesting.

For the baselines the paper gives ``O(n_max N³)`` (Campbell–Randell) and
``n_max · 3N(N−1)`` (Romanovsky-96).  These benches measure the counts on
the real runtime over the simulated network and compare them with the
formulas.  One bench also times the simulator itself: the cost model is
messages, so wall time per message must not grow with N.
"""

import time

import pytest

from repro.analysis import (
    campbell_randell_reference_messages,
    messages_all_exceptions,
    messages_single_exception,
    romanovsky96_messages,
    theorem2_worst_case_messages,
)
from repro.bench import run_complexity_scenario, run_scenario
from repro.bench.reporting import format_table


def _large_n(thread_counts, algorithm="ours", all_raise=False):
    """``large_n`` rows for one algorithm: one or all N threads raising."""
    return run_scenario("large_n", points=[
        {"n_threads": n, "n_exceptions": n if all_raise else 1,
         "algorithm": algorithm} for n in thread_counts])


@pytest.mark.benchmark(group="complexity")
def test_new_algorithm_matches_enumeration(benchmark, report):
    """Measured counts equal the paper's exact (N+1)(N−1) enumeration."""
    counts = (2, 3, 4, 5, 6)
    rows = [{"n_threads": single["n_threads"],
             "measured_single": single["resolution_messages"],
             "measured_all": every["resolution_messages"],
             "paper_single": single["paper_single"],
             "theorem2_bound": single["theorem2_bound"]}
            for single, every in zip(_large_n(counts),
                                     _large_n(counts, all_raise=True))]
    for row in rows:
        n = row["n_threads"]
        assert row["measured_single"] == messages_single_exception(n), \
            f"single-exception count mismatch for N={n}"
        assert row["measured_all"] == messages_all_exceptions(n), \
            f"all-exceptions count mismatch for N={n}"
        assert row["measured_single"] == row["measured_all"], \
            "the count must be independent of the number of concurrent exceptions"
        assert row["measured_all"] <= row["theorem2_bound"]

    report("Message complexity of the new algorithm (no nesting)",
           format_table(rows, columns=["n_threads", "measured_single",
                                       "measured_all", "paper_single",
                                       "theorem2_bound"]))

    benchmark.pedantic(run_complexity_scenario, args=(4, 4), rounds=3,
                       iterations=1)


def _seconds_per_message(n_threads, repeats=5):
    """Best-of-``repeats`` wall time per protocol message of one large_n point."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        row, = _large_n((n_threads,))
        elapsed = time.perf_counter() - started
        assert row["resolution_messages"] == \
            messages_single_exception(n_threads), \
            f"single-exception count mismatch for N={n_threads}"
        best = min(best, elapsed / row["resolution_messages"])
    return best


@pytest.mark.benchmark(group="complexity")
def test_cost_per_message_does_not_grow_with_n(benchmark, report):
    """N² messages must cost N² work: µs per message at N=128 ≈ at N=32.

    Handling one message used to rebuild participant-sized sets and the
    whole LEi list, so the simulator did O(N³) work for the paper's O(N²)
    messages (1.56x per message between N=32 and N=128).
    """
    _seconds_per_message(32, repeats=1)                    # warm caches
    per_message = {n: _seconds_per_message(n) for n in (32, 128)}
    growth = per_message[128] / per_message[32]

    report("Wall time per protocol message (single exception)",
           "\n".join(f"  N = {n:3d}: {messages_single_exception(n):5d} "
                     f"messages, {seconds * 1e6:.1f} us/message"
                     for n, seconds in per_message.items())
           + f"\n  N=128 / N=32: x{growth:.2f}")
    assert growth <= 1.3, \
        f"per-message cost grew x{growth:.2f} between N=32 and N=128"

    benchmark.pedantic(run_complexity_scenario, args=(32, 1), rounds=3,
                       iterations=1)


@pytest.mark.benchmark(group="complexity")
def test_exception_count_independence(benchmark, report):
    """For fixed N the count does not change with the number of exceptions."""
    n = 5
    counts = [run_complexity_scenario(n, k)["resolution_messages"]
              for k in range(1, n + 1)]
    assert len(set(counts)) == 1, \
        f"message count should be independent of concurrency level: {counts}"
    assert counts[0] == messages_single_exception(n)

    report("Independence from the number of concurrent exceptions (N = 5)",
           "\n".join(f"  {k} concurrent exception(s): {count} messages"
                     for k, count in enumerate(counts, start=1)))

    benchmark.pedantic(run_complexity_scenario, args=(5, 3), rounds=3,
                       iterations=1)


@pytest.mark.benchmark(group="complexity")
def test_baseline_comparison(benchmark, report):
    """Ours ≤ Theorem 2 bound; R96 matches 3N(N−1); CR grows like N³."""
    counts = (3, 4, 5)
    rows = [{"n_threads": ours["n_threads"],
             **{f"{slug}_{column}": row[f"resolution_{column}"]
                for slug, row in (("ours", ours), ("cr", cr), ("r96", r96))
                for column in ("messages", "calls")}}
            for ours, cr, r96 in zip(
                _large_n(counts, "ours", all_raise=True),
                _large_n(counts, "campbell-randell", all_raise=True),
                _large_n(counts, "romanovsky96", all_raise=True))]
    for row in rows:
        n = row["n_threads"]
        assert row["ours_messages"] <= theorem2_worst_case_messages(n, 1)
        assert row["r96_messages"] == romanovsky96_messages(n), \
            f"Romanovsky-96 count mismatch for N={n}"
        assert row["cr_messages"] > row["r96_messages"] > row["ours_messages"]
        # CR should be within a small constant factor of the cubic reference.
        cubic = campbell_randell_reference_messages(n)
        assert 0.5 * cubic <= row["cr_messages"] <= 2.0 * cubic
        # Resolution-procedure invocations: exactly one for ours, one per
        # thread for R96, super-linear for CR.
        assert row["ours_calls"] == 1
        assert row["r96_calls"] == n
        assert row["cr_calls"] > n

    report("Resolution-message counts per algorithm (all N threads raise)",
           format_table(rows, columns=["n_threads", "ours_messages",
                                       "r96_messages", "cr_messages",
                                       "ours_calls", "r96_calls",
                                       "cr_calls"]))

    benchmark.pedantic(run_complexity_scenario, args=(4, 4),
                       kwargs={"algorithm": "campbell-randell"},
                       rounds=3, iterations=1)


@pytest.mark.benchmark(group="complexity")
def test_cubic_growth_of_campbell_randell(benchmark, report):
    """CR message count grows strictly faster than quadratically."""
    counts = {n: run_complexity_scenario(n, n, algorithm="campbell-randell")
              ["resolution_messages"] for n in (3, 5, 7)}
    ours = {n: run_complexity_scenario(n, n)["resolution_messages"]
            for n in (3, 5, 7)}
    # Quadratic growth would multiply by (7/3)² ≈ 5.4 between N=3 and N=7;
    # cubic growth multiplies by ≈ 12.7.  Require clearly super-quadratic.
    growth_cr = counts[7] / counts[3]
    growth_ours = ours[7] / ours[3]
    assert growth_cr > 7.5, f"CR growth {growth_cr:.1f} is not cubic-like"
    assert growth_ours < 7.5, f"ours grew too fast: {growth_ours:.1f}"

    report("Growth of the message count between N=3 and N=7",
           f"ours: {ours[3]} -> {ours[7]} (x{growth_ours:.1f}, quadratic)\n"
           f"CR  : {counts[3]} -> {counts[7]} (x{growth_cr:.1f}, cubic-like)")

    benchmark.pedantic(run_complexity_scenario, args=(6, 6),
                       kwargs={"algorithm": "campbell-randell"},
                       rounds=1, iterations=1)
