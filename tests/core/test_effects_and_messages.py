"""Tests for effects, protocol messages and the runtime report types."""

import pytest

from repro.core import (
    ApplicationMessage,
    CommitMessage,
    EnterActionMessage,
    ExceptionMessage,
    ExitReadyMessage,
    SuspendedMessage,
    ToBeSignalledMessage,
    count_messages,
    internal,
    sends,
)
from repro.core.effects import AbortNested, ChargeTime, InformObjects, SendTo
from repro.core.exceptions import (
    ActionAborted,
    ActionFailure,
    NO_EXCEPTION,
    RaisedException,
    UNDO,
)
from repro.core.messages import (
    RESOLUTION_MESSAGE_TYPES,
    SIGNALLING_MESSAGE_TYPES,
)
from repro.runtime import ActionStatus
from repro.runtime.report import ActionReport

FAULT = internal("fault")


class TestEffects:
    def test_sendto_normalises_recipients_to_tuple(self):
        effect = SendTo(["T1", "T2"], ExceptionMessage("A", "T3", FAULT))
        assert effect.recipients == ("T1", "T2")

    def test_sends_and_count_messages_helpers(self):
        effects = [
            SendTo(("T1", "T2"), ExceptionMessage("A", "T3", FAULT)),
            InformObjects("A", FAULT),
            SendTo(("T1",), CommitMessage("A", "T3", FAULT)),
            ChargeTime("resolution"),
        ]
        assert len(sends(effects)) == 2
        assert count_messages(effects) == 3

    def test_abort_nested_normalises_actions(self):
        effect = AbortNested(["Inner", "Middle"], resume_action="Outer")
        assert effect.actions == ("Inner", "Middle")

    def test_effects_are_immutable(self):
        effect = SendTo(("T1",), SuspendedMessage("A", "T2"))
        with pytest.raises(Exception):
            effect.recipients = ("T9",)


class TestMessages:
    def test_protocol_messages_are_hashable_value_objects(self):
        a = ExceptionMessage("A", "T1", FAULT)
        b = ExceptionMessage("A", "T1", FAULT)
        assert a == b and hash(a) == hash(b)
        assert a != SuspendedMessage("A", "T1")

    def test_signalling_message_carries_round_number(self):
        message = ToBeSignalledMessage("A", "T1", UNDO, round_number=2)
        assert message.round_number == 2

    def test_entry_exit_messages_carry_instance(self):
        enter = EnterActionMessage("A", "T1", "r1", "A#3")
        leave = ExitReadyMessage("A", "T1", "success", "A#3")
        assert enter.instance == leave.instance == "A#3"

    def test_application_message_fields(self):
        message = ApplicationMessage("A#1", "T1", "T2", "ping", {"x": 1})
        assert message.tag == "ping" and message.body == {"x": 1}

    def test_type_name_registries(self):
        assert "CommitMessage" in RESOLUTION_MESSAGE_TYPES
        assert SIGNALLING_MESSAGE_TYPES == ("ToBeSignalledMessage",)


class TestPythonLevelExceptions:
    def test_raised_exception_carries_descriptor_and_detail(self):
        raised = RaisedException(FAULT, {"sensor": 3})
        assert raised.descriptor == FAULT
        assert raised.detail == {"sensor": 3}

    def test_action_aborted_and_failure_carriers(self):
        aborted = ActionAborted("Inner", FAULT)
        assert aborted.action_name == "Inner" and aborted.cause == FAULT
        failure = ActionFailure("Outer", UNDO)
        assert "Outer" in str(failure) and failure.signalled == UNDO


class TestActionReport:
    def test_ok_property(self):
        assert ActionReport("A", "r", "T", ActionStatus.SUCCESS).ok
        assert ActionReport("A", "r", "T", ActionStatus.RECOVERED).ok
        assert not ActionReport("A", "r", "T", ActionStatus.FAILED).ok
        assert not ActionReport("A", "r", "T",
                                ActionStatus.ABORTED_BY_ENCLOSING).ok

    def test_duration_and_default_signal(self):
        report = ActionReport("A", "r", "T", ActionStatus.SUCCESS,
                              started_at=1.0, finished_at=3.5)
        assert report.duration == 2.5
        assert report.signalled == NO_EXCEPTION
