"""Resolution-focused benchmarks: wide-graph storms and the compiled index.

The assertions pin the qualitative properties the compiled exception-graph
index guarantees:

* ``graph_statistics`` plus a 100-call ``resolve()`` loop on the
  12-primitive, ``max_level=3`` graph (794 nodes) finishes in well under a
  second (the naive scan needed seconds);
* the compiled path returns the identical exception to the naive reference
  scan (spot-checked here; the property tests in ``tests/`` randomize);
* the wide-graph all-raise storms complete with every participation
  recovered, resolving through the truncation rule to the universal
  exception, and exactly one resolution call per action instance.
"""

import pytest

from repro.bench import format_table, run_scenario


@pytest.mark.benchmark(group="wide-graph")
def test_wide_graph_storms_resolve_and_recover(benchmark, report):
    rows = benchmark.pedantic(
        lambda: run_scenario("wide_graph"), rounds=1, iterations=1)
    for row in rows:
        # Every thread recovers in every iteration of the storm.
        assert row["recovered"] == row["n_threads"] * row["iterations"]
        # One resolution per action instance (the paper's algorithm), even
        # though every participant raised.
        assert row["resolution_calls"] == row["iterations"]
        # 794 generated nodes plus the abortion exception the action
        # definition always declares.
        assert row["graph_nodes"] == 795
    report("Wide-graph all-raise storms (12 primitives, max_level=3)",
           format_table(rows, columns=["n_threads", "graph_nodes",
                                       "resolution_calls",
                                       "protocol_messages", "total_time",
                                       "wall_seconds"]))


@pytest.mark.benchmark(group="graph-microbench")
def test_compiled_resolution_meets_the_latency_bar(benchmark, report):
    rows = benchmark.pedantic(
        lambda: run_scenario("graph_microbench"), rounds=1, iterations=1)
    for row in rows:
        # Acceptance bar: stats + 100 resolves < 1s; with the compiled
        # index the whole loop is comfortably in the milliseconds.
        assert row["stats_seconds"] + row["resolve_seconds"] < 1.0
        # The naive reference (checked for equality inside the runner) is
        # orders of magnitude slower per call.
        assert row["speedup_vs_naive"] > 10
    report("Compiled exception-graph microbenchmark",
           format_table(rows, columns=["n_primitives", "nodes",
                                       "build_seconds", "stats_seconds",
                                       "resolve_us_per_call",
                                       "speedup_vs_naive"]))


def test_wide_graph_rows_identical_in_parallel_mode(report):
    # The wide-graph scenario is simulated virtual time, so apart from the
    # wall-clock field the parallel rows must be byte-identical to the
    # sequential ones.
    def strip(rows):
        return [{k: v for k, v in row.items() if k != "wall_seconds"}
                for row in rows]
    sequential = run_scenario("wide_graph")
    parallel = run_scenario("wide_graph", workers=2)
    assert strip(sequential) == strip(parallel)
