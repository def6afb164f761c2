"""Direct unit tests of the partition dispatcher subsystem."""

import pytest

from repro.core.effects import ChargeTime
from repro.core.exceptions import internal
from repro.core.messages import (
    ApplicationMessage,
    EnterActionMessage,
    ExceptionMessage,
    ExitReadyMessage,
    ToBeSignalledMessage,
)
from tests.conftest import make_simple_system

FAULT = internal("fault")


def dispatch(dispatcher, payload):
    """Route one payload as a delivery would; none of these has to wait."""
    assert dispatcher.dispatch_sync(payload) is None


@pytest.fixture
def partition():
    return make_simple_system(n_threads=3).partitions["T1"]


class TestEntryExitBookkeeping:
    def test_entry_announcements_accumulate(self, partition):
        dispatcher = partition.dispatcher
        assert not dispatcher.entry_complete("A#1", {"T2", "T3"})
        dispatch(dispatcher, EnterActionMessage("A", "T2", "r2", "A#1"))
        assert not dispatcher.entry_complete("A#1", {"T2", "T3"})
        dispatch(dispatcher, EnterActionMessage("A", "T3", "r3", "A#1"))
        assert dispatcher.entry_complete("A#1", {"T2", "T3"})

    def test_entry_wait_event_triggers_on_last_announcement(self, partition):
        dispatcher = partition.dispatcher
        dispatch(dispatcher, EnterActionMessage("A", "T2", "r2", "A#1"))
        event = dispatcher.register_entry_wait("A#1", {"T2", "T3"})
        assert not event.triggered
        dispatch(dispatcher, EnterActionMessage("A", "T3", "r3", "A#1"))
        assert event.triggered

    def test_cleared_entry_wait_is_not_triggered(self, partition):
        dispatcher = partition.dispatcher
        event = dispatcher.register_entry_wait("A#1", {"T2"})
        dispatcher.clear_entry_wait("A#1")
        dispatch(dispatcher, EnterActionMessage("A", "T2", "r2", "A#1"))
        assert not event.triggered

    def test_exit_bookkeeping_mirrors_entry(self, partition):
        dispatcher = partition.dispatcher
        event = dispatcher.register_exit_wait("A#1", {"T2"})
        dispatch(dispatcher, ExitReadyMessage("A", "T2", "success", "A#1"))
        assert dispatcher.exit_complete("A#1", {"T2"})
        assert event.triggered

    def test_instances_are_tracked_separately(self, partition):
        dispatcher = partition.dispatcher
        dispatch(dispatcher, EnterActionMessage("A", "T2", "r2", "A#1"))
        assert dispatcher.entry_complete("A#1", {"T2"})
        assert not dispatcher.entry_complete("A#2", {"T2"})


class TestRouting:
    def test_application_message_reaches_mailbox(self, partition):
        kernel = partition.kernel
        message = ApplicationMessage(action="A#1", sender="T2",
                                     recipient="T1", tag="data", body=41)
        dispatch(partition.dispatcher, message)
        received = []

        def consumer():
            received.append((yield partition.dispatcher.mailbox("A#1",
                                                                "data").get()))

        kernel.process(consumer())
        kernel.run()
        assert received == [41]

    def test_mailboxes_are_per_instance_and_tag(self, partition):
        dispatcher = partition.dispatcher
        assert dispatcher.mailbox("A#1", "x") is dispatcher.mailbox("A#1", "x")
        assert dispatcher.mailbox("A#1", "x") is not dispatcher.mailbox("A#1",
                                                                       "y")
        assert dispatcher.mailbox("A#1", "x") is not dispatcher.mailbox("A#2",
                                                                       "x")

    def test_signalling_message_parked_without_frame(self, partition):
        message = ToBeSignalledMessage("A", "T2", FAULT)
        dispatch(partition.dispatcher, message)
        assert partition.dispatcher.take_pending_signals("A") == [message]
        # Taking the pending list empties it.
        assert partition.dispatcher.take_pending_signals("A") == []

    def test_protocol_message_feeds_coordinator(self, partition):
        # Without an active action the coordinator retains the message; the
        # dispatcher must not crash and must not emit effects.
        from repro.core.messages import ExceptionMessage
        dispatch(partition.dispatcher, ExceptionMessage("A", "T2", FAULT))
        assert partition.coordinator.retained

    def test_unknown_payload_is_logged(self, partition):
        dispatch(partition.dispatcher, object())
        assert any("unhandled payload" in line for line in partition.log)


class TestBusyReceiver:
    def test_arrivals_during_a_charge_wait_and_follow_in_send_order(
            self, monkeypatch):
        system = make_simple_system(n_threads=2, latency=0.1,
                                    resolution_time=1.0)
        kernel, network = system.kernel, system.network
        receiver = system.partitions["T1"]
        received = []

        def receive(message):
            received.append((kernel.now, message.exception.name))
            # Only the first message charges resolution time (1.0).
            return [ChargeTime("resolution")] if len(received) == 1 else []

        monkeypatch.setattr(receiver.coordinator, "receive", receive)

        def sender():
            for name, gap in (("m1", 0.3), ("m2", 0.2), ("m3", 1.5),
                              ("m4", 0.0)):
                network.send("T2", "T1",
                             ExceptionMessage("A", "T2", internal(name)))
                yield kernel.timeout(gap)

        kernel.process(sender())
        kernel.run(until=0.8)
        # m1 (arrived at 0.1) is charging until 1.1; m2 and m3 wait.
        assert receiver.dispatcher.busy
        assert [envelope.payload.exception.name
                for envelope in receiver.node.inbox.items] == ["m2", "m3"]
        kernel.run()
        assert [name for _, name in received] == ["m1", "m2", "m3", "m4"]
        assert [when for when, _ in received] == pytest.approx(
            [0.1, 1.1, 1.1, 2.1])
        assert not receiver.dispatcher.busy and len(receiver.node.inbox) == 0
