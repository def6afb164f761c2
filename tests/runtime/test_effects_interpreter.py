"""Tests for the EffectInterpreter interface and the partition interpreter."""

from dataclasses import dataclass

import pytest

from repro.core import effects as fx
from repro.core.exceptions import internal
from repro.core.messages import SuspendedMessage
from tests.conftest import make_simple_system

FAULT = internal("fault")


@dataclass(frozen=True, slots=True)
class Note(fx.Effect):
    """A test-only effect carrying a label (handled by ``on_note``)."""

    text: str


# ----------------------------------------------------------------------
# The abstract dispatch machinery (core.effects.EffectInterpreter)
# ----------------------------------------------------------------------
class TestHandlerNaming:
    def test_camel_case_becomes_snake_case(self):
        assert fx.handler_name(fx.SendTo) == "on_send_to"
        assert fx.handler_name(fx.ChargeTime) == "on_charge_time"
        assert fx.handler_name(fx.AbortNested) == "on_abort_nested"
        assert fx.handler_name(Note) == "on_note"


class Recorder(fx.EffectInterpreter):
    """Interpreter recording dispatches, batches and yielded values."""

    def __init__(self):
        super().__init__()
        self.events = []
        self.finished_batches = []

    def begin_batch(self):
        return []

    def finish_batch(self, batch):
        self.finished_batches.append(list(batch))

    def on_note(self, effect):
        self.events.append(("log", effect.text))
        self.batch.append(effect.text)

    def on_charge_time(self, effect):
        self.events.append(("charge", effect.kind))
        yield effect.kind


class TestDispatch:
    def test_effects_dispatch_in_order(self):
        recorder = Recorder()
        list(recorder.execute([Note("a"), Note("b")]))
        assert recorder.events == [("log", "a"), ("log", "b")]

    def test_generator_handlers_are_delegated_to(self):
        recorder = Recorder()
        yielded = list(recorder.execute([fx.ChargeTime("resolution"),
                                         Note("after")]))
        assert yielded == ["resolution"]
        assert recorder.events == [("charge", "resolution"), ("log", "after")]

    def test_unknown_effect_raises_by_default(self):
        recorder = Recorder()
        with pytest.raises(NotImplementedError):
            list(recorder.execute([fx.SendTo(("T2",), object())]))

    def test_batch_finishes_after_all_effects(self):
        recorder = Recorder()
        list(recorder.execute([Note("x"), Note("y")]))
        assert recorder.finished_batches == [["x", "y"]]

    def test_nested_execute_uses_its_own_batch(self):
        class Nesting(Recorder):
            def on_charge_time(self, effect):
                yield from self.execute([Note("inner")])

        interpreter = Nesting()
        list(interpreter.execute([Note("before"),
                                  fx.ChargeTime("resolution"),
                                  Note("outer")]))
        # The inner batch completed (and finished) before the outer one,
        # and the outer batch kept collecting after the nested call.
        assert interpreter.finished_batches == [
            ["inner"], ["before", "outer"]]

    def test_interleaved_execute_generators_keep_separate_batches(self):
        # Two execute() generators on the same interpreter can be suspended
        # concurrently (a thread and its dispatcher both waiting out a
        # ChargeTime); completing in any order must not mix their batches.
        recorder = Recorder()
        first = recorder.execute([fx.ChargeTime("resolution"),
                                  Note("first-tail")])
        second = recorder.execute([fx.ChargeTime("resolution"),
                                   Note("second-tail")])
        next(first)                      # both suspend mid-batch
        next(second)
        list(first)                      # first completes while second waits
        list(second)
        assert recorder.finished_batches == [["first-tail"], ["second-tail"]]

    def test_abandoned_batch_is_not_finished(self):
        class Failing(Recorder):
            def on_send_to(self, effect):
                raise RuntimeError("boom")

        interpreter = Failing()
        with pytest.raises(RuntimeError):
            list(interpreter.execute([Note("x"),
                                      fx.SendTo(("T2",), object())]))
        assert interpreter.finished_batches == []


class BatchLogger(fx.EffectInterpreter):
    """Logs every handler call with the batch it saw (numbered by creation)."""

    def __init__(self):
        super().__init__()
        self.calls = []
        self.batches = []
        self.finished = []

    def begin_batch(self):
        self.batches.append([])
        return self.batches[-1]

    def _number(self, batch):
        return next(i for i, b in enumerate(self.batches) if b is batch)

    def finish_batch(self, batch):
        self.finished.append((self._number(batch), list(batch)))

    def on_note(self, effect):
        self.calls.append(("log", effect.text, self._number(self.batch)))
        self.batch.append(effect.text)

    def on_charge_time(self, effect):          # a handler that waits
        self.calls.append(("charge", effect.kind, self._number(self.batch)))
        yield effect.kind

    def on_interrupt_role(self, effect):       # a handler that nests a batch
        self.calls.append(("nest", effect.action, self._number(self.batch)))
        return self.interpret([Note("inner-1"),
                               fx.ChargeTime(effect.action),
                               Note("inner-2")])


def drive_execute(interpreter, effects):
    return list(interpreter.execute(effects))


def drive_interpret(interpreter, effects):
    waiting = interpreter.interpret(effects)
    return [] if waiting is None else list(waiting)


SYNCHRONOUS = [Note("a"), Note("b"), Note("c")]
WAITS_MID_BATCH = [Note("a"), fx.ChargeTime("resolution"),
                   Note("b")]
NESTED = [Note("a"), fx.InterruptRole("A", FAULT), Note("b")]


class TestSynchronousEntryMatchesExecute:
    """``interpret`` and ``execute`` are one loop: same handler order, same
    batch seen by every handler, same finish order."""

    @pytest.mark.parametrize("effects", [SYNCHRONOUS, WAITS_MID_BATCH, NESTED],
                             ids=["synchronous", "waits-mid-batch", "nested"])
    def test_same_calls_batches_and_yields(self, effects):
        through_execute, through_interpret = BatchLogger(), BatchLogger()
        yielded = drive_execute(through_execute, effects)
        assert drive_interpret(through_interpret, effects) == yielded
        assert through_interpret.calls == through_execute.calls
        assert through_interpret.finished == through_execute.finished
        assert through_execute.calls[0] == ("log", "a", 0)
        assert through_execute.finished[-1][0] == 0      # outer batch last

    def test_a_synchronous_batch_needs_no_generator(self):
        interpreter = BatchLogger()
        assert interpreter.interpret(SYNCHRONOUS) is None
        assert interpreter.finished == [(0, ["a", "b", "c"])]

    def test_a_waiting_batch_runs_up_to_the_wait_before_being_driven(self):
        interpreter = BatchLogger()
        waiting = interpreter.interpret(WAITS_MID_BATCH)
        assert [call[:2] for call in interpreter.calls] == [("log", "a")]
        assert list(waiting) == ["resolution"]
        assert interpreter.finished == [(0, ["a", "b"])]

    def test_nested_batch_finishes_before_the_outer_one_resumes(self):
        interpreter = BatchLogger()
        assert drive_interpret(interpreter, NESTED) == ["A"]
        assert interpreter.calls == [
            ("log", "a", 0), ("nest", "A", 0), ("log", "inner-1", 1),
            ("charge", "A", 1), ("log", "inner-2", 1), ("log", "b", 0)]
        assert interpreter.finished == [(1, ["inner-1", "inner-2"]),
                                        (0, ["a", "b"])]

    @pytest.mark.parametrize("start", [fx.EffectInterpreter.execute,
                                       fx.EffectInterpreter.interpret],
                             ids=["execute", "interpret"])
    def test_two_suspended_batches_interleave_without_mixing(self, start):
        interpreter = BatchLogger()
        first = start(interpreter, [Note("1a"), fx.ChargeTime("x"),
                                    Note("1b")])
        second = start(interpreter, [Note("2a"), fx.ChargeTime("y"),
                                     Note("2b")])
        assert next(first) == "x"            # both suspended mid-batch
        assert next(second) == "y"
        assert list(first) == [] and list(second) == []
        assert [call[1:] for call in interpreter.calls
                if call[0] == "log"] == [("1a", 0), ("2a", 1),
                                         ("1b", 0), ("2b", 1)]
        assert interpreter.finished == [(0, ["1a", "1b"]), (1, ["2a", "2b"])]


# ----------------------------------------------------------------------
# The concrete partition interpreter
# ----------------------------------------------------------------------
@pytest.fixture
def system():
    return make_simple_system(n_threads=2, resolution_time=0.5)


@pytest.fixture
def partition(system):
    return system.partitions["T1"]


def run_effects(partition, effects):
    partition.kernel.process(partition.interpreter.execute(effects))
    partition.kernel.run()


class TestPartitionInterpreter:
    def test_an_unknown_effect_is_logged(self, partition):
        run_effects(partition, [Note("hello")])
        assert partition.log == [f"unknown effect {Note('hello')!r}"]

    @pytest.mark.parametrize("target, algorithm", [
        ("nested_abort", "ours"), ("concurrent_raises", "ours"),
        ("concurrent_raises", "campbell-randell"),
        ("concurrent_raises", "romanovsky96")])
    def test_the_core_emits_only_effects_the_partition_handles(
            self, target, algorithm):
        # Every effect the coordinators build (the baselines' included)
        # has a handler: none reaches the partition log as unknown.
        from repro.net.faults import FaultPlan
        from repro.worlds import WORLDS

        faults = FaultPlan()
        faults.corrupt_nth_message("T1", "T2", 1)
        system = WORLDS.get(target).build(faults=faults,
                                          algorithm=algorithm).system
        system.run()
        assert system.network.stats.sent > 0
        assert not [line for partition in system.partitions.values()
                    for line in partition.log if "unknown effect" in line]

    def test_send_to_reaches_the_network(self, system, partition):
        message = SuspendedMessage("A", "T1")
        run_effects(partition, [fx.SendTo(("T2",), message)])
        assert system.network.stats.by_type["SuspendedMessage"] == 1
        assert system.network.stats.by_link[("T1", "T2")] == 1

    def test_charge_time_advances_virtual_time(self, system, partition):
        run_effects(partition, [fx.ChargeTime("resolution")])
        assert system.now == pytest.approx(0.5)

    def test_charge_time_multiplies_by_count(self, system, partition):
        run_effects(partition, [fx.ChargeTime("resolution", count=3)])
        assert system.now == pytest.approx(1.5)

    def test_abort_nested_records_pending_abort(self, partition):
        run_effects(partition, [fx.AbortNested(("Inner",), "Outer", FAULT)])
        assert partition.pending_abort is not None
        assert partition.pending_abort.covers("Inner")
        assert partition.pending_abort.resume_action == "Outer"
        assert partition.pending_abort.outermost == "Inner"

    def test_interrupt_role_records_suspension(self, system, partition):
        run_effects(partition, [fx.InterruptRole("A", FAULT)])
        assert system.metrics.suspensions == 1

    def test_interrupts_are_deferred_to_batch_end(self, system, partition):
        # The suspension (the visible side effect of the interrupt request)
        # must be recorded only after the trailing ChargeTime let virtual
        # time pass — i.e. at t=0.5, not at t=0.
        seen = []
        system.subscribe(
            lambda kind, now, thread, action, instance, data:
            seen.append((kind, now)))
        run_effects(partition, [fx.InterruptRole("A", FAULT),
                                fx.ChargeTime("resolution")])
        assert seen == [("action.suspended", pytest.approx(0.5))]

    def test_handle_resolved_for_unknown_frame_is_logged(self, partition):
        run_effects(partition,
                    [fx.HandleResolved("Ghost", FAULT, resolver="T1")])
        assert any("unknown frame" in line for line in partition.log)
