"""The record log: what recording costs, and what is derived when read.

Recording is one tuple append per event, so its cost is a count that
repeats exactly on any host: Python-level calls into ``repro/obs`` per
recorded event, measured under ``sys.setprofile`` while the run records
and before anything reads.  With observation off the same count is
exact: none at all, since the system constructor reads the runtime's
ambient-capture slot itself.  The
timelines and the Chrome trace are built from the log afterwards; their
tests pin that derivation.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, defaultdict

import pytest

from repro import obs
from repro.bench.engine import REGISTRY, run_scenario
from repro.bench.scenarios import run_wide_graph
from repro.net import ConstantLatency, FaultPlan
from repro.runtime import DistributedCASystem, RuntimeConfig
from repro.workload.scenarios import run_capacity_point, run_mixed_traffic
from repro.workload.transactional import run_transactional_point

OBS_DIR = os.path.dirname(os.path.abspath(obs.__file__)) + os.sep


@pytest.mark.parametrize("run", [
    lambda: run_capacity_point(offered_load=1.0, n_instances=60),
    lambda: run_wide_graph(n_threads=4, iterations=1),
    lambda: run_transactional_point(offered_load=1.0, n_instances=40),
], ids=["capacity", "wide_graph", "transactional"])
def test_observation_off_costs_no_obs_call(run):
    system_init = DistributedCASystem.__init__.__code__
    obs_calls = Counter()
    calls = systems = 0

    def count(frame, event, _arg):
        nonlocal calls, systems
        if event != "call":
            return
        calls += 1
        code = frame.f_code
        if code is system_init:
            systems += 1
        elif code.co_filename.startswith(OBS_DIR):
            obs_calls[code.co_name] += 1

    sys.setprofile(count)
    try:
        row = run()
    finally:
        sys.setprofile(None)
    # Tens of thousands of calls carried every message and kernel event,
    # yet not one entered obs.
    assert systems == 1 and row["protocol_messages"] > 0
    assert calls > 20_000
    assert obs_calls == {}


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

    def test_a_flight_ring_keeps_the_flow_of_an_evicted_send(self):
        system = self.system()
        observation = obs.observe_system(system, obs.ObsConfig.flight_only(3))
        for index in range(3):
            system.network.send("A", "B", index)
        system.run()
        dump = observation.flight_dump()
        assert dump["observed"] == 6 and dump["truncated"]
        # The sends left the ring; their deliveries still name them.
        assert [(event["kind"], event["seq"]) for event in dump["events"]] \
            == [("message.delivered", flow) for flow in (1, 2, 3)]


class TestRecordLines:
    @staticmethod
    def run(corrupt_second=False):
        faults = FaultPlan()
        if corrupt_second:
            faults.corrupt_nth_message("A", "B", 2)
        system = DistributedCASystem(RuntimeConfig(),
                                     latency=ConstantLatency(0.05),
                                     faults=faults)
        system.add_threads(["A", "B"])
        observation = obs.observe_system(system, obs.ObsConfig(metrics=False))
        for index in range(3):
            system.network.send("A", "B", index)
        system.run()
        return observation

    def test_only_a_corrupted_envelope_carries_the_mark(self):
        events = self.run(corrupt_second=True).events
        marked = [(event["kind"], event["seq"]) for event in events
                  if "corrupted" in event]
        # Corruption happens after the send is recorded: the delivery
        # of the second message is the one record that carries it.
        assert marked == [("message.delivered", 2)]
        assert all(event["corrupted"] is True for event in events
                   if "corrupted" in event)
        assert not any("corrupted" in event for event in self.run().events)

    def test_lines_follow_the_events_not_the_process(self):
        # Each system's network numbers its envelopes from 1, and the
        # lines carry those flow ids, so two equal runs give equal lines.
        first, second = self.run(), self.run()
        lines = first.record_lines()
        assert lines == second.record_lines()
        assert len(lines) == len(first.events) == 6
        assert [line.split(" ")[1] for line in lines] == \
            [event["kind"] for event in first.events]
        assert lines[0] == "0.000000000 message.sent 1 A B int 1 False"
        corrupted = self.run(corrupt_second=True).record_lines()
        assert [line for line in corrupted if line not in lines] == [
            "0.050000000 message.delivered 1 A B int 2 True"]


    def test_every_layout_renders_one_line_per_event(self):
        # Life-cycle, message, job, lock and kernel-step records: each
        # line is its event's time to the nanosecond, kind and fields.
        with obs.capture(obs.ObsConfig(metrics=False,
                                       kernel_steps=True)) as cap:
            run_transactional_point(n_instances=6, n_accounts=2,
                                    offered_load=3.0, seed=5)
        (observation,) = cap.observations
        lines, events = observation.record_lines(), observation.events
        assert len(lines) == len(events)
        assert [line.split(" ")[:2] for line in lines] == \
            [[f"{event['t']:.9f}", event["kind"]] for event in events]
        layouts = {line.split(" ")[2] for line in lines}
        assert layouts == {"0", "1", "3", "4", "5"}
        assert "0.605904448 lock.granted 4 acct000 txn-1 shared {}" in lines

    def test_a_dropped_message_line_ends_with_its_reason(self):
        faults = FaultPlan()
        faults.drop_nth_message("A", "B", 1)
        system = DistributedCASystem(RuntimeConfig(),
                                     latency=ConstantLatency(0.05),
                                     faults=faults)
        system.add_threads(["A", "B"])
        observation = obs.observe_system(system, obs.ObsConfig(metrics=False))
        system.network.send("A", "B", "lost")
        system.network.send("A", "B", "kept")
        system.run()
        assert observation.record_lines() == [
            "0.000000000 message.sent 1 A B str 1 False",
            "0.000000000 message.dropped 1 A B str 1 False fault",
            "0.000000000 message.sent 1 A B str 2 False",
            "0.050000000 message.delivered 1 A B str 2 False"]


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
