"""Tests for the message-passing substrate: network, nodes, latency, faults, RPC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.net import (
    ConstantLatency,
    FaultPlan,
    Network,
    PerLinkLatency,
    RpcEndpoint,
    TruncatedExponentialLatency,
    UniformLatency,
    UnknownNodeError,
)
from repro.net.realnet import RealNetwork
from repro.runtime import DistributedCASystem, RuntimeConfig
from repro.simkernel import Kernel, SeededStreams


def make_network(latency=None, faults=None):
    kernel = Kernel()
    network = Network(kernel, latency=latency, faults=faults)
    a = network.add_node("A")
    b = network.add_node("B")
    return kernel, network, a, b


def drain(node, count):
    """Process that receives ``count`` envelopes from a node's inbox."""
    received = []

    def consumer(kernel, node):
        for _ in range(count):
            envelope = yield node.inbox.get()
            received.append((kernel.now, envelope.payload))

    node.kernel.process(consumer(node.kernel, node))
    return received


# ----------------------------------------------------------------------
# Basic delivery
# ----------------------------------------------------------------------
class TestDelivery:
    def test_message_arrives_after_latency(self):
        kernel, network, a, b = make_network(ConstantLatency(0.5))
        received = drain(b, 1)
        a.send("B", "hello")
        kernel.run()
        assert received == [(0.5, "hello")]

    def test_zero_latency_default(self):
        kernel, network, a, b = make_network()
        received = drain(b, 1)
        a.send("B", "now")
        kernel.run()
        assert received == [(0.0, "now")]

    def test_unknown_destination_raises(self):
        kernel, network, a, b = make_network()
        with pytest.raises(UnknownNodeError):
            a.send("Z", "lost")

    def test_unknown_source_raises(self):
        kernel, network, a, b = make_network()
        with pytest.raises(UnknownNodeError):
            network.send("Z", "A", "lost")

    def test_duplicate_node_name_rejected(self):
        kernel, network, a, b = make_network()
        with pytest.raises(ValueError):
            network.add_node("A")

    def test_node_lookup_and_contains(self):
        kernel, network, a, b = make_network()
        assert network.node("A") is a
        assert "B" in network and "Z" not in network
        with pytest.raises(UnknownNodeError):
            network.node("Z")

    def test_broadcast_skips_sender(self):
        kernel, network, a, b = make_network()
        c = network.add_node("C")
        envelopes = network.broadcast("A", ["A", "B", "C"], "ping")
        assert len(envelopes) == 2
        assert {e.destination for e in envelopes} == {"B", "C"}

    def test_crashed_node_does_not_receive(self):
        kernel, network, a, b = make_network()
        b.crash()
        a.send("B", "lost")
        kernel.run()
        assert len(b.inbox) == 0
        assert network.stats.dropped == 1

    def test_recovered_node_receives_again(self):
        kernel, network, a, b = make_network()
        b.crash()
        b.recover()
        received = drain(b, 1)
        a.send("B", "back")
        kernel.run()
        assert received[0][1] == "back"


def consuming(node):
    """Make ``node``'s consumer record ``(now, payload)`` per delivery."""
    consumed = []
    node.consumer = lambda envelope: consumed.append(
        (node.kernel.now, envelope.payload))
    return consumed


class TestConsumer:
    """A node's consumer takes each envelope inside its delivery event."""

    def test_one_instant_arrivals_on_a_link_are_consumed_in_send_order(self):
        kernel, network, a, b = make_network(ConstantLatency(0.2))
        consumed = consuming(b)
        for payload in ("first", "second", "third"):
            a.send("B", payload)
        kernel.run()
        assert consumed == [(0.2, "first"), (0.2, "second"), (0.2, "third")]
        assert len(b.inbox) == 0
        # One kernel event per message: its delivery.
        assert next(kernel._eid) == 3

    def test_a_crashed_target_drops_as_dead_target_and_never_consumes(self):
        system = DistributedCASystem(RuntimeConfig())
        system.add_threads(["A", "B"])
        obs.observe_system(system, obs.ObsConfig(metrics=False))
        b = system.network.node("B")
        consumed = consuming(b)
        b.crash()
        system.network.send("A", "B", "lost")
        system.run()
        assert consumed == [] and len(b.inbox) == 0
        assert system.network.stats.dropped == 1
        assert [(event["kind"], event.get("reason"))
                for event in system.observation.events
                if event["kind"].startswith("message.")] == [
            ("message.sent", None), ("message.dropped", "dead_target")]

    def test_a_recovered_target_consumes_again(self):
        kernel, network, a, b = make_network()
        consumed = consuming(b)
        b.crash()
        a.send("B", "lost")
        kernel.run()
        b.recover()
        a.send("B", "back")
        kernel.run()
        assert consumed == [(0.0, "back")]


# ----------------------------------------------------------------------
# FIFO guarantee (Assumption 2)
# ----------------------------------------------------------------------
class TestFifo:
    def test_fifo_with_constant_latency(self):
        kernel, network, a, b = make_network(ConstantLatency(0.2))
        received = drain(b, 5)
        for i in range(5):
            a.send("B", i)
        kernel.run()
        assert [payload for _t, payload in received] == [0, 1, 2, 3, 4]

    def test_fifo_enforced_under_random_latency(self):
        streams = SeededStreams(11)
        kernel, network, a, b = make_network(
            UniformLatency(0.1, 2.0, streams=streams))
        received = drain(b, 20)
        for i in range(20):
            a.send("B", i)
        kernel.run()
        assert [payload for _t, payload in received] == list(range(20))
        times = [t for t, _payload in received]
        assert times == sorted(times)

    @given(count=st.integers(min_value=1, max_value=30),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_property_fifo_for_any_seed(self, count, seed):
        streams = SeededStreams(seed)
        kernel, network, a, b = make_network(
            TruncatedExponentialLatency(0.5, 3.0, streams=streams))
        received = drain(b, count)
        for i in range(count):
            a.send("B", i)
        kernel.run()
        assert [payload for _t, payload in received] == list(range(count))


# ----------------------------------------------------------------------
# Latency models
# ----------------------------------------------------------------------
class TestLatencyModels:
    def test_constant_latency_bound(self):
        assert ConstantLatency(1.5).bound() == 1.5

    def test_constant_latency_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_latency_bound_and_range(self):
        model = UniformLatency(0.5, 2.5)
        assert model.bound() == 2.5
        for _ in range(50):
            assert 0.5 <= model.sample("A", "B") <= 2.5

    def test_uniform_latency_validation(self):
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0)

    def test_truncated_exponential_respects_cap(self):
        model = TruncatedExponentialLatency(mean=1.0, cap=2.0)
        assert model.bound() == 2.0
        for _ in range(200):
            assert model.sample("A", "B") <= 2.0

    def test_per_link_latency_overrides(self):
        model = PerLinkLatency(default=0.1, overrides={("A", "B"): 1.0})
        assert model.sample("A", "B") == 1.0
        assert model.sample("B", "A") == 0.1
        assert model.bound() == 1.0
        model.set_link("B", "A", 3.0)
        assert model.bound() == 3.0

    def test_per_link_rejects_negative(self):
        with pytest.raises(ValueError):
            PerLinkLatency(default=-0.1)
        with pytest.raises(ValueError):
            PerLinkLatency(default=0.1).set_link("A", "B", -1)


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class TestFaults:
    def test_surgical_drop(self):
        faults = FaultPlan()
        faults.drop_nth_message("A", "B", 2)
        kernel, network, a, b = make_network(faults=faults)
        received = drain(b, 2)
        for i in range(3):
            a.send("B", i)
        kernel.run()
        assert [payload for _t, payload in received] == [0, 2]
        assert faults.stats.dropped == 1

    def test_surgical_corruption_marks_envelope(self):
        faults = FaultPlan()
        faults.corrupt_nth_message("A", "B", 1)
        kernel, network, a, b = make_network(faults=faults)
        envelope = a.send("B", "data")
        kernel.run()
        assert envelope.corrupted
        assert faults.stats.corrupted == 1

    def test_probabilistic_drop_all(self):
        faults = FaultPlan(drop_probability=1.0)
        kernel, network, a, b = make_network(faults=faults)
        for i in range(5):
            a.send("B", i)
        kernel.run()
        assert len(b.inbox) == 0
        assert faults.stats.dropped == 5

    def test_crashed_node_in_plan_blocks_messages(self):
        faults = FaultPlan()
        faults.crash_node("B")
        kernel, network, a, b = make_network(faults=faults)
        a.send("B", "x")
        kernel.run()
        assert len(b.inbox) == 0
        assert faults.stats.blocked_by_crash == 1

    def test_timed_crash_only_after_time(self):
        faults = FaultPlan()
        faults.crash_node("B", at_time=1.0)
        assert not faults.is_crashed("B", 0.5)
        assert faults.is_crashed("B", 1.5)

    def test_restore_node(self):
        faults = FaultPlan()
        faults.crash_node("B")
        faults.restore_node("B")
        assert not faults.is_crashed("B", 0.0)

    def test_extra_link_delay(self):
        faults = FaultPlan()
        faults.add_link_delay("A", "B", 1.0)
        kernel, network, a, b = make_network(ConstantLatency(0.5),
                                             faults=faults)
        received = drain(b, 1)
        a.send("B", "slow")
        kernel.run()
        assert received[0][0] == pytest.approx(1.5)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_probability=-0.1)

    def test_invalid_nth_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().drop_nth_message("A", "B", 0)


# ----------------------------------------------------------------------
# Envelope numbering
# ----------------------------------------------------------------------
def inbox_numbers(node, count):
    """Process that records the ``sequence`` of ``count`` received envelopes."""
    numbers = []

    def consumer(node):
        for _ in range(count):
            envelope = yield node.inbox.get()
            numbers.append(envelope.sequence)

    node.kernel.process(consumer(node))
    return numbers


class TestEnvelopeNumbering:
    def test_two_systems_number_their_interleaved_sends_from_one(self):
        faults = FaultPlan()
        faults.drop_nth_message("A", "B", 2)
        first = DistributedCASystem(RuntimeConfig(), faults=faults)
        second = DistributedCASystem(RuntimeConfig())
        sent = {first: [], second: []}
        for system in sent:
            system.add_threads(["A", "B"])
            obs.observe_system(system, obs.ObsConfig(metrics=False))
        for index in range(3):
            for system in (first, second, first):
                sent[system].append(
                    system.network.send("A", "B", index).sequence)
        for system in sent:
            system.run()
        assert sent == {first: [1, 2, 3, 4, 5, 6], second: [1, 2, 3]}
        # A dropped send keeps its number; a delivery carries its send's.
        arrivals = {system: [(event["kind"], event["seq"])
                             for event in system.observation.events
                             if event["kind"] != "message.sent"]
                    for system in sent}
        assert arrivals[first] == [("message.dropped", 2)] + [
            ("message.delivered", n) for n in (1, 3, 4, 5, 6)]
        assert arrivals[second] == [("message.delivered", n)
                                    for n in (1, 2, 3)]

    def test_a_real_network_numbers_forwarded_sends_not_injections(self):
        network = RealNetwork(Kernel(), ConstantLatency(0.1), local={"A"},
                              forward=lambda *frame: None)
        network.add_node("A")
        network.add_node("B")
        received = inbox_numbers(network.node("A"), 3)
        assert [network.send("B", "A", 0).sequence,
                network.send("A", "B", 1).sequence,
                network.send("B", "A", 2).sequence] == [1, 2, 3]
        network.inject("B", "A", 3, deliver_vt=0.5)
        network.kernel.run()
        # The sender's network numbered the injected message, not this one.
        assert received == [1, 3, 0]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
class TestStatistics:
    def test_counters_track_sent_and_delivered(self):
        kernel, network, a, b = make_network()
        for i in range(4):
            a.send("B", i)
        kernel.run()
        assert network.stats.sent == 4
        assert network.stats.delivered == 4
        assert network.stats.by_type["int"] == 4

    def test_reset_statistics(self):
        kernel, network, a, b = make_network()
        a.send("B", 1)
        kernel.run()
        network.reset_statistics()
        assert network.stats.sent == 0

    def test_snapshot_is_plain_dict(self):
        kernel, network, a, b = make_network()
        a.send("B", "x")
        snapshot = network.stats.snapshot()
        assert snapshot["sent"] == 1
        assert isinstance(snapshot["by_type"], dict)

    def test_per_link_counters_track_directed_links(self):
        kernel, network, a, b = make_network()
        c = network.add_node("C")
        for _ in range(3):
            a.send("B", "x")
        b.send("A", "y")
        a.send("C", "z")
        kernel.run()
        assert network.stats.by_link[("A", "B")] == 3
        assert network.stats.by_link[("B", "A")] == 1
        assert network.stats.by_link[("A", "C")] == 1
        assert ("C", "A") not in network.stats.by_link

    def test_per_link_counters_include_dropped_messages(self):
        faults = FaultPlan()
        faults.drop_nth_message("A", "B", 1)
        kernel, network, a, b = make_network(faults=faults)
        a.send("B", "lost")
        kernel.run()
        # Sending is counted per link even when the fault plan drops it.
        assert network.stats.by_link[("A", "B")] == 1
        assert network.stats.dropped == 1

    def test_reset_clears_every_counter(self):
        kernel, network, a, b = make_network()
        a.send("B", 1)
        kernel.run()
        network.stats.reset()
        assert network.stats.sent == 0
        assert network.stats.delivered == 0
        assert dict(network.stats.by_type) == {}
        assert dict(network.stats.by_link) == {}

    def test_snapshot_restore_roundtrip(self):
        kernel, network, a, b = make_network()
        for i in range(3):
            a.send("B", i)
        kernel.run()
        snapshot = network.stats.snapshot()
        network.stats.reset()
        network.stats.restore(snapshot)
        assert network.stats.snapshot() == snapshot
        assert network.stats.by_link[("A", "B")] == 3

    def test_snapshot_is_isolated_from_later_traffic(self):
        kernel, network, a, b = make_network()
        a.send("B", 1)
        snapshot = network.stats.snapshot()
        a.send("B", 2)
        assert snapshot["sent"] == 1
        assert snapshot["by_link"]["A->B"] == 1

    def test_snapshot_json_roundtrip(self):
        # Snapshots must be JSON-serializable (scenario rows embed them and
        # are digested as JSON), and restore() must accept the decoded form.
        import json

        kernel, network, a, b = make_network()
        for i in range(3):
            a.send("B", i)
        b.send("A", "reply")
        kernel.run()
        snapshot = network.stats.snapshot()
        decoded = json.loads(json.dumps(snapshot))
        assert decoded == snapshot
        network.stats.reset()
        network.stats.restore(decoded)
        assert network.stats.by_link[("A", "B")] == 3
        assert network.stats.by_link[("B", "A")] == 1
        assert network.stats.snapshot() == snapshot

    def test_merge_accepts_tuple_and_string_link_keys(self):
        kernel, network, a, b = make_network()
        network.stats.merge({"by_link": {("A", "B"): 2}})
        network.stats.merge({"by_link": {"A->B": 3, "B->A": 1}})
        assert network.stats.by_link[("A", "B")] == 5
        assert network.stats.by_link[("B", "A")] == 1

    def test_merge_aggregates_parallel_run_snapshots(self):
        kernel, network, a, b = make_network()
        a.send("B", 1)
        kernel.run()
        other = {"sent": 5, "delivered": 4, "dropped": 1,
                 "by_type": {"int": 5}, "by_link": {("A", "B"): 2,
                                                    ("B", "A"): 3}}
        network.stats.merge(other)
        assert network.stats.sent == 6
        assert network.stats.delivered == 5
        assert network.stats.dropped == 1
        assert network.stats.by_type["int"] == 6
        assert network.stats.by_link[("A", "B")] == 3
        assert network.stats.by_link[("B", "A")] == 3


# ----------------------------------------------------------------------
# Fault-plan drops interacting with the FIFO clamp
# ----------------------------------------------------------------------
class TestDropsAndFifo:
    def test_fifo_preserved_around_surgical_drops_under_random_latency(self):
        faults = FaultPlan()
        faults.drop_nth_message("A", "B", 3)
        faults.drop_nth_message("A", "B", 7)
        streams = SeededStreams(7)
        kernel, network, a, b = make_network(
            UniformLatency(0.1, 2.0, streams=streams), faults=faults)
        received = drain(b, 10)
        for i in range(12):
            a.send("B", i)
        kernel.run()
        expected = [i for i in range(12) if i not in (2, 6)][:10]
        assert [payload for _t, payload in received] == expected
        times = [t for t, _payload in received]
        assert times == sorted(times)
        assert faults.stats.dropped == 2

    def test_dropped_message_does_not_advance_the_link_clock(self):
        # A dropped message is never scheduled, so it must not clamp the
        # delivery time of later messages on the same link.
        faults = FaultPlan()
        faults.add_link_delay("A", "B", 10.0)
        faults.drop_nth_message("A", "B", 1)
        kernel, network, a, b = make_network(ConstantLatency(0.5),
                                             faults=faults)
        received = drain(b, 1)
        a.send("B", "dropped-slow")        # would arrive at 10.5 if delivered
        faults.add_link_delay("A", "B", 0.0)   # later messages: no extra delay
        a.send("B", "fast")
        kernel.run()
        assert received == [(0.5, "fast")]

    def test_fault_delay_feeds_the_fifo_clamp(self):
        # The first message gets a 2s fault delay; the second, sent later
        # without extra delay, would overtake it and must be clamped.
        faults = FaultPlan()
        faults.add_link_delay("A", "B", 2.0)
        kernel, network, a, b = make_network(ConstantLatency(0.5),
                                             faults=faults)
        received = drain(b, 2)

        def sender(kernel):
            a.send("B", "first")           # arrives at 2.5
            yield kernel.timeout(1.0)
            faults.add_link_delay("A", "B", 0.0)
            a.send("B", "second")          # would arrive at 1.5 -> clamped
        kernel.process(sender(kernel))
        kernel.run()
        assert [payload for _t, payload in received] == ["first", "second"]
        assert received[0][0] == pytest.approx(2.5)
        assert received[1][0] == pytest.approx(2.5)


# ----------------------------------------------------------------------
# RPC
# ----------------------------------------------------------------------
class TestRpc:
    def test_oneway_call_invokes_remote_procedure(self):
        kernel, network, a, b = make_network(ConstantLatency(0.1))
        calls = []
        server = RpcEndpoint(b, network)
        server.register("log", lambda message: calls.append(message))
        client = RpcEndpoint(a, network)
        client.call_oneway("B", "log", "hello")
        kernel.run()
        assert calls == ["hello"]

    def test_request_reply_returns_value(self):
        kernel, network, a, b = make_network(ConstantLatency(0.1))
        server = RpcEndpoint(b, network)
        server.register("add", lambda x, y: x + y)
        client = RpcEndpoint(a, network)
        results = []

        def caller(kernel, client):
            results.append((yield client.call("B", "add", 2, 3)))

        kernel.process(caller(kernel, client))
        kernel.run()
        assert results == [5]

    def test_remote_error_propagates(self):
        kernel, network, a, b = make_network()
        server = RpcEndpoint(b, network)

        def boom():
            raise ValueError("remote failure")
        server.register("boom", boom)
        client = RpcEndpoint(a, network)
        errors = []

        def caller(kernel, client):
            try:
                yield client.call("B", "boom")
            except RuntimeError as error:
                errors.append(str(error))

        kernel.process(caller(kernel, client))
        kernel.run()
        assert errors and "remote failure" in errors[0]

    def test_unknown_procedure_returns_error(self):
        kernel, network, a, b = make_network()
        RpcEndpoint(b, network)
        client = RpcEndpoint(a, network)
        errors = []

        def caller(kernel, client):
            try:
                yield client.call("B", "missing")
            except RuntimeError as error:
                errors.append(str(error))

        kernel.process(caller(kernel, client))
        kernel.run()
        assert errors and "unknown procedure" in errors[0]

    def test_duplicate_registration_rejected(self):
        kernel, network, a, b = make_network()
        server = RpcEndpoint(b, network)
        server.register("x", lambda: 1)
        with pytest.raises(ValueError):
            server.register("x", lambda: 2)

    def test_fallback_receives_non_rpc_payloads(self):
        kernel, network, a, b = make_network()
        fallback_payloads = []
        RpcEndpoint(b, network,
                    fallback=lambda envelope: fallback_payloads.append(
                        envelope.payload))
        a.send("B", {"kind": "custom"})
        kernel.run()
        assert fallback_payloads == [{"kind": "custom"}]
