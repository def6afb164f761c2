"""Failing explorer cases auto-dump their flight-recorder timeline.

Reuses the lost-Commit regression vehicle from ``bugbench.py``:
reverting that fix makes the canonical one-directive plan deadlock,
which is the cheapest deterministic oracle violation available.
"""

from __future__ import annotations

import json

from bugbench import lost_commit_bug  # noqa: F401 (a fixture)
from repro import obs
from repro.cli import _write_reproducers, main
from repro.explore import ExplorationPlan, Explorer, run_case
from repro.net.faults import FaultDirective
from repro.obs import build_spans, read_jsonl

#: The canonical hand-shrunk reproducer: delays the Inner ``Commit``
#: into T3's abortion window (fails only under the reverted fix).
CANONICAL_PLAN = ExplorationPlan(directives=(
    FaultDirective("delay_type", source="T2", destination="T3",
                   type_name="CommitMessage", extra=3.0),))


class TestFailingCasesDump:
    def test_oracle_violation_carries_the_timeline(self, lost_commit_bug):
        result = run_case("nested_abort", CANONICAL_PLAN)
        assert result.violations
        assert result.flight is not None
        events = result.flight["events"]
        assert events
        assert result.flight["observed"] >= len(events)
        kinds = {event["kind"] for event in events}
        assert "action.entered" in kinds
        # The deadlock reads off the dump: participations that entered
        # but never concluded are still open at the end of the window.
        _completed, still_open = build_spans(events)
        assert still_open

    def test_passing_case_has_no_flight_dump(self):
        # Same plan against the fixed coordinator: clean, and the
        # always-on ring is not dumped for passing cases.
        result = run_case("nested_abort", CANONICAL_PLAN)
        assert result.violations == []
        assert result.flight is None

    def test_explorer_failures_carry_flight_dumps(self, lost_commit_bug):
        explorer = Explorer(target="nested_abort", seed=2026, budget=20,
                            stop_on_first_failure=True)
        report = explorer.run()
        assert report.failures
        first = report.failures[0]
        assert first.flight is not None
        assert first.flight["events"]

    def test_ambient_capture_is_reused_not_displaced(self):
        # Under an ambient obs.capture() the explorer must adopt the
        # (richer) ambient observation instead of attaching a second
        # flight-only one.
        with obs.capture(obs.ObsConfig()) as cap:
            result = run_case("nested_abort", ExplorationPlan())
        assert result.violations == []
        (observation,) = cap.observations
        assert observation.events, "ambient capture saw the run's events"
        assert observation.metrics is not None


class TestReproducerBundling:
    def test_explore_run_writes_a_reproducer_with_its_flight(
            self, lost_commit_bug, tmp_path, capsys):
        directory = tmp_path / "repros"
        assert main(["explore", "run", "--kinds", "delay", "--budget", "40",
                     "--reproducers", str(directory)]) == 1
        assert json.loads(capsys.readouterr().out)["reproducers"] >= 1
        source = (directory / "test_reproducer_0.py").read_text()
        namespace = {}
        exec(source, namespace)
        assert len(namespace["PLAN"]) == 1
        dump = read_jsonl(str(directory / "test_reproducer_0.flight.jsonl"))
        assert dump[0]["kind"] == "flight.header"
        assert len(dump) > 1

    def test_write_reproducers_bundles_flight_jsonl(self, tmp_path):
        records = [
            {"source": "# reproducer 0\n",
             "flight": {"capacity": 8, "observed": 3, "truncated": False,
                        "events": [{"t": 0.0, "kind": "action.entered",
                                    "action": "A", "instance": "i0",
                                    "thread": "T1"}]}},
            {"source": "# reproducer 1 (no flight recorded)\n"},
        ]
        directory = tmp_path / "repros"
        paths = _write_reproducers(records, str(directory))
        names = sorted(path.rsplit("/", 1)[1] for path in paths)
        assert names == ["test_reproducer_0.flight.jsonl",
                         "test_reproducer_0.py", "test_reproducer_1.py"]
        dump = read_jsonl(str(directory / "test_reproducer_0.flight.jsonl"))
        assert dump[0]["kind"] == "flight.header"
        assert dump[0]["observed"] == 3
        assert dump[1]["kind"] == "action.entered"
