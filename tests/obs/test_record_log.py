"""The record log: what recording costs, and what is derived when read.

Recording is one tuple append per event, so its cost is a count that
repeats exactly on any host: Python-level calls into ``repro/obs`` per
recorded event, measured under ``sys.setprofile`` while the run records
and before anything reads.  The timelines and the Chrome trace are built
from the log afterwards; their tests pin that derivation.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict

from repro import obs
from repro.bench.engine import REGISTRY, run_scenario
from repro.net import ConstantLatency
from repro.runtime import DistributedCASystem, RuntimeConfig
from repro.workload.scenarios import run_mixed_traffic

OBS_DIR = os.path.dirname(os.path.abspath(obs.__file__)) + os.sep


def test_recording_costs_at_most_two_obs_calls_per_event():
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(OBS_DIR):
            calls += 1

    with obs.capture(obs.ObsConfig()) as cap:
        sys.setprofile(count)
        try:
            run_mixed_traffic(seed=2026, n_instances=40)
        finally:
            sys.setprofile(None)
    recorded = len(cap.events())
    ticks = cap.metrics_snapshot()["timeline"]["samples"]
    assert recorded > 1000 and ticks > 10
    # One sink call per event, at most one catch-up pass per grid point;
    # the per-event-dict recorder made about ten calls per event.
    assert calls <= 2 * recorded + ticks


class TestTimeline:
    @staticmethod
    def system():
        system = DistributedCASystem(RuntimeConfig(),
                                     latency=ConstantLatency(0.05))
        system.add_threads(["A", "B"])
        return system

    def test_an_idle_stretch_is_back_filled_at_the_next_event(self):
        system = self.system()
        observation = obs.observe_system(system, obs.ObsConfig())
        network, kernel = system.network, system.kernel
        network.send("A", "B", "first")
        kernel.timeout(2.5).callbacks.append(
            lambda _event: network.send("B", "A", "second"))
        system.run()
        timeline = observation.timeline_snapshot()
        assert timeline["samples"] == 3
        series = timeline["series"]
        # Grid points 1 and 2 passed while nothing happened: the send at
        # t=2.5 samples them with the state as it is then.
        assert series["messages_sent"] == [[0.0, 1.0], [1.0, 2.0],
                                           [2.0, 2.0]]
        assert series["messages_delivered"] == [[0.0, 0.0], [1.0, 1.0],
                                                [2.0, 1.0]]
        # A link's series starts at the first grid point after its first
        # send; series keep their registration order.
        assert list(series) == ["messages_sent", "messages_delivered",
                                "messages_dropped", "messages_sent[A->B]",
                                "messages_sent[B->A]"]
        assert series["messages_sent[A->B]"] == [[0.0, 1.0], [1.0, 1.0],
                                                 [2.0, 1.0]]
        assert series["messages_sent[B->A]"] == [[1.0, 1.0], [2.0, 1.0]]
        assert observation.metrics.snapshot()["timeline"] == timeline

    def test_metrics_off_samples_nothing(self):
        system = self.system()
        observation = obs.observe_system(system, obs.ObsConfig.flight_only())
        system.network.send("A", "B", "only")
        system.run()
        assert observation.timeline_snapshot() is None
        assert observation.metrics is None
        assert observation.events is None
        assert observation.flight_dump()["observed"] == 2


def test_systems_of_one_capture_are_separate_chrome_processes():
    grid = REGISTRY.get("figure12_tmmax").grid[:2]
    with obs.capture() as cap:
        run_scenario("figure12_tmmax", points=grid)
    assert len(cap.observations) == 4
    doc = cap.chrome_trace()
    assert obs.validate_chrome(doc) == []
    processes = {event["pid"]: event["args"]["name"]
                 for event in doc["traceEvents"]
                 if event["ph"] == "M" and event["name"] == "process_name"}
    assert processes == {pid: f"repro system {pid}" for pid in range(1, 5)}
    # No flow arrow joins two runs: every id lives in one process.
    flow_pids = defaultdict(set)
    for event in doc["traceEvents"]:
        if event["ph"] in ("s", "f"):
            flow_pids[event["id"]].add(event["pid"])
    assert flow_pids and all(len(pids) == 1 for pids in flow_pids.values())
    # Each system's spans sit on its own process's tracks.
    spans = defaultdict(int)
    for event in doc["traceEvents"]:
        if event["ph"] == "X":
            spans[event["pid"]] += 1
    assert [spans[pid] for pid in range(1, 5)] == [
        len(obs.build_spans(observation.events)[0])
        for observation in cap.observations]
    assert doc["otherData"]["spans_completed"] == sum(spans.values())
