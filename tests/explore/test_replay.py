"""Deterministic replay: same (seed, plan) → byte-identical runs."""

from repro import obs
from repro.bench.engine import run_scenario
from repro.explore import ExplorationPlan, run_case
from repro.explore.targets import get_target
from repro.explore.trace import TraceRecorder, canonical_trace, trace_digest
from repro.net.faults import FaultDirective
from repro.obs.events import KERNEL_STEP

RACE_PLAN = ExplorationPlan(directives=(
    FaultDirective("delay_type", source="T2", destination="T3",
                   type_name="CommitMessage", extra=3.0),))


def _run_once(plan, target="nested_abort"):
    system = get_target(target).build(plan.make_fault_plan(),
                                      tie_seed=plan.tie_seed)
    recorder = TraceRecorder(system)
    system.run()
    return canonical_trace(system, recorder), system.network.stats.snapshot()


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

    def test_recorder_shares_the_kernel_tracer_with_a_full_capture(self):
        # The recorder used to assign ``kernel.tracer`` outright, displacing
        # the capture's kernel-step hook installed at system construction.
        uncaptured = run_case("nested_abort", RACE_PLAN)
        with obs.capture(obs.ObsConfig.full()) as captured:
            observed = run_case("nested_abort", RACE_PLAN)
        steps = [event for event in captured.events()
                 if event["kind"] == KERNEL_STEP]
        assert len(steps) > 0
        assert observed.digest == uncaptured.digest

    def test_trace_covers_kernel_network_and_coordinators(self):
        trace_text, _ = _run_once(RACE_PLAN)
        assert "== kernel ==" in trace_text
        assert "== network ==" in trace_text
        assert "CommitMessage" in trace_text
        assert "== statistics ==" in trace_text


class TestEngineSweepDeterminism:
    def test_parallel_and_sequential_chunks_byte_identical(self):
        points = [{"target": "nested_abort", "seed": 2026,
                   "start": start, "stop": start + 10}
                  for start in (0, 10, 20)]
        sequential = run_scenario("explore", points=points, parallel=False)
        parallel = run_scenario("explore", points=points, parallel=True)
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
