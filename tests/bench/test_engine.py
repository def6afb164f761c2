"""Tests for the declarative scenario engine (registry + parallel runs)."""

import pytest

from repro.analysis import messages_single_exception
from repro.bench import (
    REGISTRY,
    Scenario,
    ScenarioRegistry,
    run_scenario,
)
from repro.bench import engine
from repro.bench.engine import figure9_grid
from repro.bench.scenarios import (figure9_point, run_experiment1,
                                   run_experiment2)


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------
class TestRegistry:
    def test_default_registry_contains_figures_and_new_workloads(self):
        for name in ("figure9", "figure12_tmmax", "figure12_tres",
                     "large_n", "churn", "wide_graph", "graph_microbench"):
            assert name in REGISTRY

    def test_every_registered_scenario_has_a_grid_and_description(self):
        for scenario in REGISTRY:
            assert scenario.grid, scenario.name
            assert scenario.description, scenario.name

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        registry.add(Scenario("demo", lambda: {}, ()))
        with pytest.raises(ValueError):
            registry.add(Scenario("demo", lambda: {}, ()))

    def test_unknown_scenario_reports_known_names(self):
        registry = ScenarioRegistry()
        registry.add(Scenario("known", lambda: {}, ()))
        with pytest.raises(KeyError, match="known"):
            registry.get("missing")

    def test_register_decorator_keeps_runner_usable(self):
        registry = ScenarioRegistry()

        @registry.register("twice", grid=[{"n": 1}, {"n": 2}])
        def twice(n):
            """Doubles n."""
            return {"n": n, "result": 2 * n}

        assert twice(3) == {"n": 3, "result": 6}
        assert registry.get("twice").description == "Doubles n."
        assert run_scenario("twice", registry=registry) == [
            {"n": 1, "result": 2}, {"n": 2, "result": 4}]


# ----------------------------------------------------------------------
# Declared-parameter validation
# ----------------------------------------------------------------------
class TestGridValidation:
    def make_registry(self):
        registry = ScenarioRegistry()

        @registry.register("demo", grid=[{"n": 1}])
        def demo(n: int, rate: float = 1.0):
            return {"n": n, "rate": rate}

        return registry

    def test_params_derived_from_signature(self):
        scenario = self.make_registry().get("demo")
        assert [p.name for p in scenario.params] == ["n", "rate"]
        assert not scenario.accepts_extra
        assert "n: int (required)" in scenario.describe_params()

    def test_registration_rejects_invalid_default_grid(self):
        from repro.core.registry import ParamValidationError
        registry = ScenarioRegistry()
        with pytest.raises(ParamValidationError,
                           match="unknown parameter 'm'"):
            @registry.register("bad", grid=[{"m": 1}])
            def bad(n: int):
                return {"n": n}

    @pytest.mark.parametrize("name, point, typo", [
        pytest.param("demo", {"n": 1}, "m", id="demo"),
        # The built-in workloads: their runners' own signatures, no
        # ``**options`` pass-through.
        pytest.param("capacity", {"offered_load": 1.0}, "n_instance",
                     id="capacity"),
        pytest.param("mixed_traffic", {"seed": 2026}, "noise_directive",
                     id="mixed_traffic"),
        pytest.param("transactional", {"offered_load": 1.0}, "n_account",
                     id="transactional"),
        pytest.param("production_cell", {"seed": 2026}, "n_cycle",
                     id="production_cell"),
        pytest.param("scale", {"n_instances": 10, "n_shards": 1,
                               "offered_load": 1.0}, "n_shard", id="scale"),
    ])
    def test_run_rejects_unknown_key_before_running(self, monkeypatch, name,
                                                    point, typo):
        from repro.core.registry import ParamValidationError

        def no_run(scenario, grid):
            raise AssertionError("the runner was called")

        monkeypatch.setattr(engine, "_run_sequential", no_run)
        registry = self.make_registry() if name == "demo" else REGISTRY
        with pytest.raises(ParamValidationError) as excinfo:
            run_scenario(name, points=[{**point, typo: 5}],
                         registry=registry)
        (error,) = excinfo.value.errors
        assert error.kind == "unknown" and error.key == typo
        assert f"scenario {name!r}" in str(error)

    def test_bad_reference_names_the_scenario_and_the_reference(self):
        registry = ScenarioRegistry()
        registry.add(Scenario("broken", "repro.nope:f", ({},)))
        with pytest.raises(ImportError,
                           match="scenario 'broken'.*'repro.nope:f'"):
            run_scenario("broken", registry=registry)

    def test_run_rejects_missing_required_param(self):
        from repro.core.registry import ParamValidationError
        registry = self.make_registry()
        with pytest.raises(ParamValidationError,
                           match="missing required parameter 'n'"):
            run_scenario("demo", points=[{"rate": 2.0}], registry=registry)

    def test_run_rejects_wrong_type(self):
        from repro.core.registry import ParamValidationError
        registry = self.make_registry()
        with pytest.raises(ParamValidationError,
                           match="parameter 'n' expects int"):
            run_scenario("demo", points=[{"n": "one"}], registry=registry)

    def test_all_errors_reported_at_once(self):
        from repro.core.registry import ParamValidationError
        registry = self.make_registry()
        with pytest.raises(ParamValidationError) as excinfo:
            run_scenario("demo", points=[{"m": 2}, {"n": "one"}],
                         registry=registry)
        kinds = sorted(error.kind for error in excinfo.value.errors)
        assert kinds == ["missing", "type", "unknown"]

    def test_every_default_grid_validates(self):
        for scenario in REGISTRY:
            assert scenario.validate_grid(scenario.grid) == [], scenario.name


# ----------------------------------------------------------------------
# Byte-identical reproduction of the old hand-rolled sweeps
# ----------------------------------------------------------------------
class TestLegacyEquivalence:
    def test_figure9_rows_match_hand_rolled_loop(self):
        values = [0.2, 0.6]
        rows = run_scenario("figure9", points=figure9_grid(
            "t_msg", values=values, iterations=2))
        expected = []
        for value in values:
            result = run_experiment1(t_msg=value, t_abort=0.1,
                                     t_resolution=0.3, iterations=2)
            expected.append({
                "t_msg": value,
                "total_time": result.total_time,
                "time_per_iteration": result.time_per_iteration,
                "protocol_messages": result.protocol_messages,
            })
        assert rows == expected

    def test_figure12_rows_match_hand_rolled_loop(self):
        rows = run_scenario("figure12_tres",
                            points=[{"t_res": 0.3}, {"t_res": 0.7}])
        expected = []
        for t_res in [0.3, 0.7]:
            ours = run_experiment2(1.0, t_res, algorithm="ours")
            cr = run_experiment2(1.0, t_res, algorithm="campbell-randell")
            expected.append({
                "t_res": t_res,
                "time_ours": ours.total_time,
                "time_cr": cr.total_time,
                "messages_ours": ours.protocol_messages,
                "messages_cr": cr.protocol_messages,
                "resolution_calls_ours": ours.resolution_calls,
                "resolution_calls_cr": cr.resolution_calls,
            })
        assert rows == expected

    def test_sweep_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            figure9_grid("t_nonsense")
        with pytest.raises(ValueError):
            figure9_point("t_nonsense", 0.2)

    def test_figure9_grid_covers_all_defaults(self):
        assert len(figure9_grid("t_msg")) == 14
        assert len(figure9_grid("t_abort")) == 11
        assert len(figure9_grid("t_resolution")) == 11


# ----------------------------------------------------------------------
# Parallel execution: identical rows, preserved order
# ----------------------------------------------------------------------
class TestParallelExecution:
    def test_figure9_parallel_equals_sequential(self):
        points = figure9_grid("t_msg", values=[0.2, 0.4, 0.6], iterations=1)
        sequential = run_scenario("figure9", points=points)
        parallel = run_scenario("figure9", points=points, parallel=True,
                                max_workers=2)
        assert parallel == sequential

    def test_figure12_parallel_equals_sequential(self):
        points = [{"t_msg": 1.0}, {"t_msg": 1.4}]
        sequential = run_scenario("figure12_tmmax", points=points)
        parallel = run_scenario("figure12_tmmax", points=points,
                                parallel=True)
        assert parallel == sequential

    def test_large_n_parallel_equals_sequential(self):
        points = [{"n_threads": n} for n in (3, 5, 8)]
        sequential = run_scenario("large_n", points=points)
        parallel = run_scenario("large_n", points=points, parallel=True)
        assert parallel == sequential

    def test_churn_parallel_equals_sequential(self):
        points = [{"n_groups": n, "iterations": 1} for n in (1, 3)]
        sequential = run_scenario("churn", points=points)
        parallel = run_scenario("churn", points=points, parallel=True)
        assert parallel == sequential

    def test_unpicklable_runner_falls_back_to_sequential(self):
        registry = ScenarioRegistry()
        offset = 10

        @registry.register("closure", grid=[{"n": 1}, {"n": 2}])
        def closure_runner(n):
            return {"n": n + offset}

        rows = run_scenario("closure", registry=registry, parallel=True)
        assert rows == [{"n": 11}, {"n": 12}]

    def test_single_point_grids_run_in_process(self):
        rows = run_scenario("large_n", points=[{"n_threads": 3}],
                            parallel=True)
        assert rows[0]["n_threads"] == 3

    def test_empty_grid_returns_no_rows(self):
        assert run_scenario("large_n", points=[]) == []


# ----------------------------------------------------------------------
# The new workloads
# ----------------------------------------------------------------------
class TestLargeN:
    def test_measured_messages_match_formula_beyond_the_paper(self):
        rows = run_scenario("large_n", points=[{"n_threads": n}
                                               for n in (8, 12)])
        for row in rows:
            assert row["resolution_messages"] == \
                messages_single_exception(row["n_threads"])
            assert row["resolution_calls"] == 1
            assert row["total_time"] > 0

    def test_default_grid_reaches_64_participants(self):
        scenario = REGISTRY.get("large_n")
        assert max(point["n_threads"] for point in scenario.grid) == 64


class TestChurn:
    def test_all_participations_recover(self):
        row = run_scenario("churn", points=[{"n_groups": 3,
                                             "iterations": 2}])[0]
        assert row["participations_recovered"] == 3 * 3 * 2
        assert row["resolutions"] == 3 * 2

    def test_message_load_scales_linearly_with_groups(self):
        rows = run_scenario("churn", points=[{"n_groups": 1, "iterations": 1},
                                             {"n_groups": 4,
                                              "iterations": 1}])
        assert rows[1]["protocol_messages"] == 4 * rows[0]["protocol_messages"]

    def test_concurrent_groups_share_virtual_time(self):
        # Groups run concurrently: 4 groups take (almost) the same virtual
        # time as 1 group, not 4x.
        rows = run_scenario("churn", points=[{"n_groups": 1, "iterations": 1},
                                             {"n_groups": 4,
                                              "iterations": 1}])
        assert rows[1]["total_time"] < 2 * rows[0]["total_time"]

    def test_runner_and_scenario_share_one_default(self):
        from repro.bench.scenarios import run_churn
        assert run_churn(2) == run_scenario("churn",
                                            points=[{"n_groups": 2}])[0]

    def test_group_validation(self):
        from repro.bench.scenarios import run_churn
        with pytest.raises(ValueError):
            run_churn(0)
        with pytest.raises(ValueError):
            run_churn(1, group_size=1)
        with pytest.raises(ValueError):
            run_churn(1, iterations=0)

    def test_actions_completed_is_measured_not_assumed(self):
        row = run_scenario("churn", points=[{"n_groups": 2,
                                             "iterations": 1}])[0]
        assert row["actions_attempted"] == 2
        assert row["actions_completed"] == 2
        assert row["participations_recovered"] == 2 * 3


class TestAlgorithmOverride:
    def test_large_n_points_carry_the_algorithm(self):
        ours, cr = run_scenario("large_n", points=[
            {"n_threads": 4, "algorithm": "ours"},
            {"n_threads": 4, "algorithm": "campbell-randell"}])
        assert ours["resolution_messages"] != cr["resolution_messages"]


class TestWideGraph:
    def test_storm_recovers_every_participation(self):
        row = run_scenario("wide_graph", points=[{"n_threads": 4,
                                                  "iterations": 1}])[0]
        assert row["recovered"] == 4
        assert row["resolution_calls"] == 1
        assert row["graph_nodes"] > 700   # the wide truncated graph

    def test_rows_embed_json_serializable_snapshots(self):
        import json

        row = run_scenario("wide_graph", points=[{"n_threads": 4,
                                                  "iterations": 1}])[0]
        assert json.loads(json.dumps(row)) == row
        # Every link key is string-encoded as "src->dst".
        by_link = row["message_stats"]["by_link"]
        assert by_link and all("->" in key for key in by_link)

    def test_graph_microbench_reports_compiled_timings(self):
        import json

        row = run_scenario("graph_microbench",
                           points=[{"n_primitives": 8, "max_level": 2,
                                    "naive_calls": 1}])[0]
        # The one scenario no conformance digest serialises.
        assert json.loads(json.dumps(row)) == row
        assert row["nodes"] == 1 + 8 + 28 + 56
        assert row["resolve_seconds"] < 1.0
        assert row["speedup_vs_naive"] > 1

