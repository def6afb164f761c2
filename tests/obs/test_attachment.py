"""One observation per system, and message flows keyed by envelope.

Regressions for two defects of the first observability layer: a second
``observe_system`` displaced the first observation from the network and
lock sinks while both stayed on the life-cycle bus, and the
``message.sent`` → ``message.delivered`` flow id was looked up by
``id(envelope)``, which is recycled and was never released for an
envelope forwarded to another process.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import obs
from repro.bench.scenarios import run_sim
from repro.net import ConstantLatency
from repro.net.realnet import RealNetwork
from repro.runtime import DistributedCASystem, RuntimeConfig
from repro.simkernel import Kernel
from repro.workload import WorkloadDriver


def new_system():
    return DistributedCASystem(RuntimeConfig(), latency=ConstantLatency(0.05))


class TestOneObservationPerSystem:
    def test_observe_system_is_idempotent(self):
        system = new_system()
        first = obs.observe_system(system, obs.ObsConfig())
        again = obs.observe_system(system, obs.ObsConfig.flight_only())
        assert again is first is system.observation is system.network._obs
        assert system.subscribers.count(first.on_event) == 1

    def test_a_missing_collector_fails_loudly(self):
        system = new_system()
        system.add_threads(["A", "B"])
        obs.observe_system(system, obs.ObsConfig.flight_only())
        system.network.send("A", "B", "ping")
        with pytest.raises(RuntimeError, match="without spans, metrics"):
            obs.observe_system(system, obs.ObsConfig())

    def test_an_observation_without_a_collector_is_refused(self):
        # It would record nothing, so ``recorded`` would stay 0 and a
        # later observe_system would widen it after the run had begun.
        system = new_system()
        system.add_threads(["A", "B"])
        off = obs.ObsConfig(spans=False, metrics=False, flight_recorder=False,
                            kernel_steps=True)
        with pytest.raises(ValueError, match="needs spans, metrics or the "
                                             "flight recorder"):
            obs.observe_system(system, off)
        assert system.observation is None and system.network._obs is None

    def test_an_observation_that_recorded_nothing_is_widened(self):
        system = new_system()
        system.add_threads(["A", "B"])
        first = obs.observe_system(system, obs.ObsConfig.flight_only(32))
        widened = obs.observe_system(system, obs.ObsConfig.full())
        assert widened is first is system.network._obs
        assert system.subscribers.count(first.on_event) == 1
        # Both configs' collectors; the first one's ring size.
        assert widened.config == obs.ObsConfig(kernel_steps=True,
                                               flight_capacity=32)
        assert system.kernel.tracer == widened.kernel_step
        system.network.send("A", "B", "ping")
        system.run()
        kinds = [event["kind"] for event in widened.events]
        assert kinds[0] == "message.sent"
        assert "kernel.step" in kinds and "message.delivered" in kinds

    def test_observing_twice_installs_one_step_hook(self):
        # The kernel has one step-hook slot: a second observe_system
        # (widening or not) must not record each step twice.
        def steps(times):
            system = new_system()
            system.add_threads(["A", "B"])
            config = obs.ObsConfig(metrics=False, kernel_steps=True)
            for _ in range(times):
                observation = obs.observe_system(system, config)
            system.network.send("A", "B", "ping")
            system.run()
            return [event for event in observation.events
                    if event["kind"] == "kernel.step"]

        once = steps(1)
        assert once and steps(2) == once

    def test_an_adopted_node_build_keeps_feeding_the_ambient_capture(self):
        # run_sim builds its world through bench.scenarios.observed_node,
        # which asks for a span observation of a system the capture has
        # already adopted.
        with obs.capture() as cap:
            result = run_sim("figure9")
        assert result.ok
        kinds = Counter(event["kind"] for event in cap.events())
        assert kinds["action.entered"] > 0
        assert kinds["message.sent"] == kinds["message.delivered"] > 0
        assert kinds["message.sent"] == sum(
            observation.system.network.stats.sent
            for observation in cap.observations)

    def test_driver_emits_to_an_observation_attached_after_it(self):
        system = new_system()
        system.add_threads(["W1", "W2"])
        driver = WorkloadDriver(system, seed=3)
        driver.add_action("Serve", width=2)
        observation = obs.observe_system(system, obs.ObsConfig())
        driver.submit()
        system.run()
        kinds = Counter(event["kind"] for event in observation.events)
        assert kinds["job.submitted"] == kinds["job.dispatched"] == \
            kinds["job.completed"] == 1


class TestEnvelopeFlowIds:
    @staticmethod
    def real_network():
        kernel = Kernel()
        forwarded = []
        network = RealNetwork(kernel, ConstantLatency(0.1), local={"A"},
                              forward=lambda *frame: forwarded.append(frame))
        system = DistributedCASystem(RuntimeConfig(), kernel=kernel,
                                     network=network)
        system.add_threads(["A", "B"])
        return system, network, forwarded

    @staticmethod
    def flows(events):
        """``(starts, finishes)``: the flow ids of the Chrome trace."""
        doc = obs.chrome_trace(events)
        return ([event["id"] for event in doc["traceEvents"]
                 if event["ph"] == "s"],
                [event["id"] for event in doc["traceEvents"]
                 if event["ph"] == "f"])

    @pytest.mark.parametrize("config", [obs.ObsConfig(),
                                        obs.ObsConfig.flight_only()],
                             ids=["full_log", "flight_ring"])
    def test_forwarded_sends_retain_no_flow_entry(self, config):
        system, network, forwarded = self.real_network()
        observation = obs.observe_system(system, config)
        for index in range(1000):
            network.send("A", "B", index)
        for index in range(3):
            network.inject("B", "A", index, deliver_vt=0.0)
        system.run()
        assert len(forwarded) == network.stats.sent == 1000
        assert network.stats.by_link == {("A", "B"): 1000}
        events = observation.flight_dump()["events"]
        if config.spans:
            assert events == observation.events[-len(events):]
            events = observation.events
        sent = [event["seq"] for event in events
                if event["kind"] == "message.sent"]
        assert sent == list(range(1001 - len(sent), 1001))
        starts, finishes = self.flows(events)
        assert starts == sent
        assert finishes == [0, 0, 0]

    def test_injected_deliveries_never_borrow_a_sends_flow_id(self):
        # Nothing keeps a forwarded envelope, so its id() value is free
        # for an injected one at once.
        system, network, _ = self.real_network()
        observation = obs.observe_system(system, obs.ObsConfig())
        for index in range(6000):
            network.send("A", "B", index)
        for index in range(3000):
            network.inject("B", "A", index, deliver_vt=0.0)
        system.run()
        delivered = [event for event in observation.events
                     if event["kind"] == "message.delivered"]
        assert len(delivered) == 3000
        assert {event["seq"] for event in delivered} == {0}

    def test_local_flows_still_pair_send_and_delivery(self):
        system = new_system()
        system.add_threads(["A", "B"])
        observation = obs.observe_system(system, obs.ObsConfig())
        for index in range(5):
            system.network.send("A", "B", index)
        system.run()
        sent = [event["seq"] for event in observation.events
                if event["kind"] == "message.sent"]
        delivered = [event["seq"] for event in observation.events
                     if event["kind"] == "message.delivered"]
        assert sent == delivered == [1, 2, 3, 4, 5]
        # Every flow arrow that starts also ends, exactly once.
        assert self.flows(observation.events) == (sent, delivered)
