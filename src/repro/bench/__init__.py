"""Experiment harness: scenario engine, application builders and reporting."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "engine": [
        "CAPACITY_GRID", "CHURN_GRID", "FIGURE9_GRIDS",
        "GRAPH_MICROBENCH_GRID", "LARGE_N_GRID", "MIXED_TRAFFIC_GRID",
        "PRODUCTION_CELL_GRID", "REGISTRY", "Scenario", "ScenarioRegistry",
        "TRANSACTIONAL_GRID", "WIDE_GRAPH_GRID", "figure9_grid",
        "run_scenario",
    ],
    "reporting": [
        "format_table", "linear_fit", "paper_reference_figure12",
        "paper_reference_figure9", "series",
    ],
    "scenarios": [
        "EXPERIMENT1_ITERATIONS", "ExperimentResult", "FIGURE9_BASELINE",
        "RealRunResult", "build_churn", "build_experiment1", "build_experiment2",
        "build_wide_graph", "run_churn", "run_complexity_scenario",
        "run_experiment1", "run_experiment2", "run_graph_microbench",
        "run_sim", "run_wide_graph",
    ],
})
