"""Simulation processes: generators driven by the kernel.

A process wraps a generator function.  The generator yields
:class:`~repro.simkernel.events.Event` instances; the kernel resumes the
generator when the yielded event fires, sending the event's value (or
throwing its exception).  A process is itself an event that fires when the
generator returns (with the return value) or raises (with the exception),
so processes can wait for each other.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from .events import Event, Initialize, Interrupt, NORMAL, PENDING, URGENT

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel


class StopProcess(Exception):
    """Raised internally to abort a process from outside (hard kill)."""


class Process(Event):
    """An active component of the simulation.

    Parameters
    ----------
    kernel:
        The owning kernel.
    generator:
        A generator object produced by calling a process function.
    name:
        Optional human-readable name used in reprs and error messages.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, kernel: "Kernel", generator: Generator,
                 name: Optional[str] = None) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(kernel)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if runnable
        #: or finished).
        self._target: Optional[Event] = None
        Initialize(kernel, self)

    # ------------------------------------------------------------------
    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The interrupt is delivered at the current simulation time, before
        any other pending event for that time (urgent priority).  It is an
        error to interrupt a process that has already finished or to
        interrupt a process from within itself.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self} has terminated and cannot be interrupted")
        if self is self.kernel.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")

        interrupt_event = Event(self.kernel)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        interrupt_event.callbacks = [self._deliver_interrupt]
        self.kernel.schedule(interrupt_event, priority=URGENT)

    def _deliver_interrupt(self, event: Event) -> None:
        """Deliver a queued interrupt, unless the process finished meanwhile."""
        if not self.is_alive:
            return
        # Detach from whatever the process was waiting for, so that the
        # original target firing later does not resume a finished (or
        # re-waiting) generator with a stale outcome.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._resume(event)

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Resume the generator with the outcome of ``event``."""
        kernel = self.kernel
        kernel._active_process = self
        self._target = None
        generator = self._generator

        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # The exception has a waiter (us), so mark it defused.
                    event.defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                # Process finished successfully.
                self._ok = True
                self._value = stop.value
                kernel.schedule(self, priority=NORMAL)
                break
            except StopProcess as stop:
                self._ok = True
                self._value = stop.args[0] if stop.args else None
                kernel.schedule(self, priority=NORMAL)
                break
            except BaseException as error:
                # Process failed: propagate to waiters (or the kernel).
                self._ok = False
                self._value = error
                kernel.schedule(self, priority=NORMAL)
                break

            # The generator yielded a new event to wait for.
            if not isinstance(next_event, Event):
                error = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}")
                self._ok = False
                self._value = error
                kernel.schedule(self, priority=NORMAL)
                break

            if next_event.callbacks is not None:
                # The event has not yet been processed: register and wait.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break

            # The event was already processed: loop and resume immediately
            # with its (stored) outcome.
            event = next_event

        kernel._active_process = None
