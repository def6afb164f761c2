"""Integration: observing real runs never changes them, and the
collected spans/metrics/flight dumps reconcile with the run's own
telemetry (the acceptance criteria of the observability layer)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.bench.engine import ScenarioConfig, export_capture, run_scenario
from repro.net import ConstantLatency
from repro.obs import build_spans, span_outcomes, validate_chrome
from repro.runtime import DistributedCASystem, RuntimeConfig

#: One small capacity point: fast, but wide enough to exercise raises,
#: recovery, admission queueing, and multi-instance overlap.
POINT = {"offered_load": 2.0, "n_instances": 16, "seed": 7}


@pytest.fixture(scope="module")
def traced_run():
    """The same capacity point run untraced and under a full capture."""
    plain = run_scenario("capacity", points=[POINT])
    with obs.capture(obs.ObsConfig()) as cap:
        traced = run_scenario("capacity", points=[POINT])
    return plain, traced, cap


class TestNeverPerturbs:
    def test_traced_row_is_identical(self, traced_run):
        plain, traced, _cap = traced_run
        assert traced == plain

    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.active() is None
        system = DistributedCASystem(RuntimeConfig(),
                                     latency=ConstantLatency(0.05))
        assert system.observation is None

    def test_capture_adopts_systems_and_uninstalls_cleanly(self):
        with obs.capture() as cap:
            assert obs.enabled()
            assert obs.active() is cap
            system = DistributedCASystem(RuntimeConfig(),
                                         latency=ConstantLatency(0.05))
            assert system.observation is cap.observations[-1]
        assert not obs.enabled()

    def test_captures_do_not_nest(self):
        with obs.capture():
            with pytest.raises(RuntimeError, match="do not nest"):
                with obs.capture():
                    pass  # pragma: no cover
        # The failed inner enter must not have torn down the outer scope
        # prematurely or left a stale ambient capture behind.
        assert not obs.enabled()


class TestSpanReconciliation:
    def test_span_outcomes_match_run_metrics(self, traced_run):
        # The runtime records exactly one outcome per concluded
        # participation and the tracer exactly one span for it, so the
        # two censuses must agree status by status.
        _plain, traced, cap = traced_run
        completed, still_open = build_spans(cap.events())
        assert still_open == []
        assert span_outcomes(completed) == traced[0]["outcomes"]
        assert len(completed) == sum(traced[0]["outcomes"].values())

    def test_message_counters_match_network_statistics(self, traced_run):
        _plain, _traced, cap = traced_run
        (observation,) = cap.observations
        stats = observation.system.network.stats
        snapshot = observation.metrics.snapshot()
        sent = sum(row["value"]
                   for row in snapshot["counters"]["messages_sent_total"])
        assert sent == stats.sent
        delivered = snapshot["counters"]["messages_delivered_total"]
        assert delivered[0]["value"] == stats.delivered

    def test_timelines_track_workload_and_network_series(self, traced_run):
        _plain, _traced, cap = traced_run
        series = cap.metrics_snapshot()["timeline"]["series"]
        for name in ("in_flight", "queue_depth", "messages_sent",
                     "messages_delivered"):
            assert series[name], name
        # The last messages_sent sample has caught up with the total.
        (observation,) = cap.observations
        assert series["messages_sent"][-1][1] \
            <= observation.system.network.stats.sent


class TestFlightRecorder:
    def test_every_observed_system_dumps(self, traced_run):
        _plain, _traced, cap = traced_run
        (dump,) = cap.flight_dumps()
        assert dump["observed"] == len(cap.events())
        assert len(dump["events"]) <= dump["capacity"]
        # The ring holds the *terminal* window of the full stream.
        assert dump["events"] == cap.events()[-len(dump["events"]):]


class TestExports:
    def test_chrome_trace_reconciles_and_validates(self, traced_run):
        _plain, traced, cap = traced_run
        doc = cap.chrome_trace()
        assert validate_chrome(doc) == []
        assert doc["otherData"]["spans_open"] == 0
        assert doc["otherData"]["spans_completed"] \
            == sum(traced[0]["outcomes"].values())

    def test_engine_export_writes_all_artefacts(self, tmp_path):
        directory = str(tmp_path)
        config = ScenarioConfig(obs=obs.ObsConfig(), export_dir=directory)
        rows = run_scenario("capacity", points=[POINT], config=config)
        assert rows == run_scenario("capacity", points=[POINT])
        with open(tmp_path / "capacity.trace.json",
                  encoding="utf-8") as handle:
            assert validate_chrome(json.load(handle)) == []
        with open(tmp_path / "capacity.metrics.json",
                  encoding="utf-8") as handle:
            assert json.load(handle)["schema"] == 1
        events = obs.read_jsonl(str(tmp_path / "capacity.events.jsonl"))
        completed, _open = build_spans(events)
        assert span_outcomes(completed) == rows[0]["outcomes"]
        exposition = (tmp_path / "capacity.prom").read_text()
        assert "# TYPE repro_actions_entered_total counter" in exposition

    def test_export_capture_returns_the_written_paths(self, tmp_path):
        with obs.capture() as cap:
            run_scenario("capacity", points=[POINT])
        paths = export_capture(cap, "demo", str(tmp_path))
        assert sorted(path.rsplit("/", 1)[1] for path in paths) == [
            "demo.events.jsonl", "demo.metrics.json", "demo.prom",
            "demo.trace.json"]


class TestDigestInvariance:
    def test_conformance_digest_unchanged_under_observation(self):
        # The strongest no-perturbation statement: a golden-trace case
        # re-run under a full ambient capture reproduces the committed
        # fixture bit for bit (CI re-checks this via
        # ``python -m repro check --obs``).
        from repro.conformance import CASES, load_fixture, run_case
        fixture = load_fixture("churn_ours")
        assert fixture is not None
        with obs.capture(obs.ObsConfig()):
            document = run_case(CASES["churn_ours"])
        assert document["digest"] == fixture["digest"]
        assert document["schema"] == fixture["schema"]
