"""Using the declarative scenario engine.

The engine (``repro.bench.engine``) maps scenario names to a runner and a
default parameter grid.  This example:

1. runs one of the paper's figures through the engine, sequentially and on
   a process pool, and shows the rows are identical;
2. runs the two new workloads (large-N sweep, multi-action churn);
3. registers a custom scenario and sweeps it.

Run with:  PYTHONPATH=src python examples/scenario_engine.py
"""

from repro.bench import (
    REGISTRY,
    ScenarioRegistry,
    figure9_grid,
    format_table,
    run_scenario,
)
from repro.bench.scenarios import run_experiment2


def main() -> None:
    print("Registered scenarios:")
    for scenario in sorted(REGISTRY, key=lambda s: s.name):
        print(f"  {scenario.name:16s} {len(scenario.grid):3d} points  "
              f"{scenario.description}")
        if scenario.world:
            # Also runs across OS processes: see examples/real_backend.py.
            print(f"  {'':16s} real-capable, nodes "
                  f"{', '.join(scenario.real_world().nodes)}")

    # -- 1. a paper figure, sequential vs parallel ---------------------
    points = figure9_grid("t_msg", values=[0.2, 0.6, 1.0], iterations=2)
    sequential = run_scenario("figure9", points=points)
    parallel = run_scenario("figure9", points=points, workers=2)
    print("\nFigure 9 (3 points, 2 iterations), parallel == sequential:",
          parallel == sequential)
    print(format_table(sequential, title="figure9 rows"))

    # -- 2. the new workloads ------------------------------------------
    large_n = run_scenario("large_n",
                           points=[{"n_threads": n} for n in (4, 8, 16)],
                           workers=2)
    print("\n" + format_table(
        large_n, title="large_n: message complexity beyond the paper",
        columns=["n_threads", "resolution_messages", "paper_single",
                 "total_time"]))

    churn = run_scenario("churn",
                         points=[{"n_groups": n, "iterations": 1}
                                 for n in (1, 4, 8)])
    print("\n" + format_table(
        churn, title="churn: concurrent top-level actions",
        columns=["n_groups", "total_time", "protocol_messages",
                 "messages_per_action"]))

    # -- 3. a custom scenario ------------------------------------------
    registry = ScenarioRegistry()

    @registry.register("tmmax-vs-n", grid=[{"t_msg": 0.5, "n_threads": n}
                                           for n in (3, 4, 5)])
    def tmmax_vs_n(t_msg, n_threads):
        """Completion time of the all-raise comparison scenario vs N."""
        result = run_experiment2(t_msg, 0.3, n_threads=n_threads)
        return {"n_threads": n_threads, "total_time": result.total_time,
                "protocol_messages": result.protocol_messages}

    rows = run_scenario("tmmax-vs-n", registry=registry)
    print("\n" + format_table(rows, title="custom scenario: tmmax-vs-n"))


if __name__ == "__main__":
    main()
