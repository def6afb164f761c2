"""Regression tests for step-tracer fault isolation.

The kernel's step hook is observation plumbing (``repro.obs`` installs
one per observed system); it must never be able to kill a simulation.
These tests pin the raise-once-then-disabled hardening on both the
``step()`` and ``run()`` execution paths.
"""

from __future__ import annotations

import logging

import pytest

from repro.simkernel import EmptySchedule, Kernel


def ticks(kernel: Kernel, count: int):
    for _ in range(count):
        yield kernel.timeout(1.0)


def run_ticks(kernel: Kernel, count: int = 3) -> None:
    kernel.process(ticks(kernel, count))
    kernel.run()


class TestStepHookSlot:
    def test_an_assigned_hook_sees_each_step_once_in_order(self):
        kernel = Kernel()
        seen = []
        kernel.tracer = lambda when, priority, eid, event: seen.append(
            (when, eid))
        run_ticks(kernel, count=4)
        whens = [when for when, _ in seen]
        eids = [eid for _, eid in seen]
        assert whens == sorted(whens) and whens[-1] == kernel.now == 4.0
        assert len(set(eids)) == len(eids) == len(seen) > 4

    def test_a_hook_can_be_attached_and_detached_mid_run(self):
        # The slot is re-read per event: a process may fill it and clear
        # it while the run is under way.
        kernel = Kernel()
        seen = []

        def hook(when, priority, eid, event):
            seen.append(when)

        def toggling(kernel):
            yield kernel.timeout(1.0)
            kernel.tracer = hook
            yield kernel.timeout(1.0)
            yield kernel.timeout(1.0)
            kernel.tracer = None
            yield kernel.timeout(1.0)

        kernel.process(toggling(kernel))
        kernel.run()
        assert seen and set(seen) <= {2.0, 3.0}
        assert kernel.now == 4.0 and kernel.tracer is None

    def test_a_failing_hook_that_replaced_itself_keeps_its_successor(
            self, kernel_log):
        # Only the hook that raised is disabled: if it had already put
        # another hook in the slot, that one stays and keeps firing.
        kernel = Kernel()
        successor_calls = []

        def successor(when, priority, eid, event):
            successor_calls.append(eid)

        def handing_over(when, priority, eid, event):
            kernel.tracer = successor
            raise RuntimeError("observer bug")

        kernel.tracer = handing_over
        run_ticks(kernel, count=3)
        assert kernel.tracer is successor
        assert len(successor_calls) > 1
        assert len(kernel_log) == 1


class _RecordingHandler(logging.Handler):
    """Collects records on the kernel logger itself.

    Attached directly rather than via root-level capture (caplog) so
    the assertions hold no matter how earlier tests configured the
    parent ``repro`` logger.
    """

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture
def kernel_log():
    logger = logging.getLogger("repro.simkernel.kernel")
    handler = _RecordingHandler()
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.ERROR)
    yield handler.records
    logger.removeHandler(handler)
    logger.setLevel(old_level)


class TestTracerHardening:
    def make_raising(self, calls):
        def bad(when, priority, eid, event):
            calls.append(eid)
            raise RuntimeError("observer bug")
        return bad

    def test_raising_hook_is_disabled_not_fatal_in_run(self, kernel_log):
        kernel = Kernel()
        calls = []
        kernel.tracer = self.make_raising(calls)
        run_ticks(kernel, count=5)  # must not raise
        # Called exactly once, then disabled — and logged exactly once.
        assert len(calls) == 1
        assert kernel.tracer is None
        messages = [record for record in kernel_log
                    if "disabling" in record.getMessage()]
        assert len(messages) == 1

    def test_raising_hook_is_disabled_not_fatal_in_step(self):
        kernel = Kernel()
        calls = []
        kernel.tracer = self.make_raising(calls)
        kernel.process(ticks(kernel, 3))
        with pytest.raises(EmptySchedule):
            while True:
                kernel.step()
        assert len(calls) == 1
        assert kernel.tracer is None

    def test_tracer_failure_does_not_defuse_the_traced_event(self):
        # The traced event's own outcome must be unaffected: a failing
        # process still surfaces its exception to run() even when the
        # tracer died on the very same step.
        kernel = Kernel()
        kernel.tracer = self.make_raising([])

        def failing(kernel):
            yield kernel.timeout(1.0)
            raise ValueError("real simulation failure")

        kernel.process(failing(kernel))
        with pytest.raises(ValueError, match="real simulation failure"):
            kernel.run()
