"""Deterministic replay: same (seed, plan) → byte-identical runs."""

import json

import pytest

from repro import obs
from repro.bench.engine import run_scenario
from repro.explore import ExplorationPlan, run_case
from repro.explore.trace import CASE_PROFILE, canonical_trace, trace_digest
from repro.net.faults import FaultDirective
from repro.runtime.events import KERNEL_STEP
from repro.worlds import WORLDS

RACE_PLAN = ExplorationPlan(directives=(
    FaultDirective("delay_type", source="T2", destination="T3",
                   type_name="CommitMessage", extra=3.0),))


def _run_once(plan, target="nested_abort"):
    system = WORLDS.get(target).build(faults=plan.make_fault_plan(),
                                      tie_seed=plan.tie_seed).system
    obs.observe_system(system, CASE_PROFILE)
    system.run()
    return canonical_trace(system), system.network.stats.snapshot()


class TestByteIdenticalReplay:
    def test_same_plan_twice_identical_trace_and_stats(self):
        first_trace, first_stats = _run_once(RACE_PLAN)
        second_trace, second_stats = _run_once(RACE_PLAN)
        assert first_trace == second_trace
        assert first_stats == second_stats

    def test_jittered_plan_is_deterministic_but_differs_from_natural(self):
        jittered = ExplorationPlan(tie_seed=1234)
        natural = ExplorationPlan()
        jittered_trace, _ = _run_once(jittered)
        assert jittered_trace == _run_once(jittered)[0]
        assert jittered_trace != _run_once(natural)[0]

    def test_different_tie_seeds_explore_different_schedules(self):
        digests = {trace_digest(_run_once(ExplorationPlan(tie_seed=s))[0])
                   for s in (1, 2, 3, 4)}
        assert len(digests) > 1

    def test_run_case_digest_matches_across_calls(self):
        assert run_case("nested_abort", RACE_PLAN).digest == \
            run_case("nested_abort", RACE_PLAN).digest

    @pytest.mark.parametrize("config", [
        obs.ObsConfig.flight_only(), obs.ObsConfig(), obs.ObsConfig.full()],
        ids=["flight_only", "default", "full"])
    def test_recorder_shares_the_kernel_tracer_with_a_full_capture(
            self, config):
        # The case's observation is the capture's, widened to the record
        # log the canonical trace reads: whatever the capture's profile,
        # the case neither raises nor changes its digest.
        uncaptured = run_case("nested_abort", RACE_PLAN)
        with obs.capture(config) as captured:
            observed = run_case("nested_abort", RACE_PLAN)
        steps = [event for event in captured.events()
                 if event["kind"] == KERNEL_STEP]
        assert len(steps) > 0
        assert observed.digest == uncaptured.digest

    def test_canonical_trace_refuses_a_partial_record_log(self):
        system = WORLDS.get("nested_abort").build(
            faults=RACE_PLAN.make_fault_plan()).system
        obs.observe_system(system, obs.ObsConfig.flight_only())
        system.run()
        with pytest.raises(RuntimeError, match="whole record log"):
            canonical_trace(system)

    def test_canonical_trace_refuses_an_unobserved_system(self):
        system = WORLDS.get("nested_abort").build(
            faults=RACE_PLAN.make_fault_plan()).system
        system.run()
        assert system.observation is None
        with pytest.raises(RuntimeError, match="CASE_PROFILE"):
            canonical_trace(system)

    def test_trace_covers_kernel_messages_and_life_cycle(self):
        trace_text, stats = _run_once(RACE_PLAN)
        lines = trace_text.split("\n")
        assert lines[0] == "actions Inner Outer"
        kinds = {line.split(" ")[1] for line in lines[1:-1]}
        assert {"kernel.step", "message.sent", "message.delivered",
                "action.entered", "action.resolved"} <= kinds
        assert "CommitMessage" in trace_text
        assert json.loads(lines[-1]) == stats


class TestEngineSweepDeterminism:
    def test_parallel_and_sequential_chunks_byte_identical(self):
        points = [{"target": "nested_abort", "seed": 2026,
                   "start": start, "stop": start + 10}
                  for start in (0, 10, 20)]
        sequential = run_scenario("explore", points=points, workers=0)
        parallel = run_scenario("explore", points=points, workers=2)
        assert sequential == parallel

    def test_chunked_sweep_equals_one_big_sweep(self):
        chunks = run_scenario("explore", points=[
            {"target": "nested_abort", "seed": 9, "start": 0, "stop": 10},
            {"target": "nested_abort", "seed": 9, "start": 10, "stop": 20},
        ])
        whole = run_scenario("explore", points=[
            {"target": "nested_abort", "seed": 9, "start": 0, "stop": 20},
        ])
        assert sum(row["cases"] for row in chunks) == whole[0]["cases"]
        assert sum(row["failures"] for row in chunks) == whole[0]["failures"]
        # The chunk digests concatenate to the whole sweep's digest input,
        # so equality of case sets shows up as equality of case digests.
        import hashlib
        from repro.explore import Explorer
        explorer = Explorer(target="nested_abort", seed=9, budget=20)
        report = explorer.run()
        digest = hashlib.sha256()
        for case in report.cases:
            digest.update(case.plan.key().encode("utf-8"))
            digest.update(case.digest.encode("utf-8"))
        assert whole[0]["digest"] == digest.hexdigest()
