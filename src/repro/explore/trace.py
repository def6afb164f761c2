"""Canonical run traces and digests for deterministic replay checking.

A run's canonical trace is a plain-text rendering of everything observable
about it, built only from per-run data (notably *not* from
``Envelope.sequence``, which is a process-global counter):

* every kernel step: ``(virtual time, priority, event id, event type)`` —
  recorded through a kernel step-tracer hook;
* every envelope in send order: timing, link, payload, fate;
* every coordinator state transition (the per-thread ``trace`` lists);
* the final message-statistics snapshot.

Two runs of the same ``(target, plan)`` must produce byte-identical
canonical traces; :func:`trace_digest` hashes them so sweeps can compare
thousands of runs cheaply and the engine's parallel/sequential paths can
be checked for equality without shipping full traces between processes.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional, Tuple

from ..net.message import Envelope
from ..runtime.system import DistributedCASystem


class TraceRecorder:
    """Records kernel steps through a :meth:`Kernel.add_tracer` hook.

    Attach before the run starts; the recorder only keeps cheap tuples.
    Registered *alongside* whatever hook is already installed — an ambient
    ``obs.capture`` observing kernel steps keeps seeing them.
    """

    def __init__(self, system: DistributedCASystem,
                 max_steps: int = 1_000_000) -> None:
        self.system = system
        self.steps: List[Tuple[float, int, int, str]] = []
        self.truncated = False
        self._max_steps = max_steps
        system.kernel.add_tracer(self._on_step)

    def _on_step(self, when: float, priority: int, eid: int, event) -> None:
        if len(self.steps) >= self._max_steps:
            self.truncated = True
            return
        self.steps.append((when, priority, eid, type(event).__name__))

    # ------------------------------------------------------------------
    def kernel_section(self) -> List[str]:
        lines = [f"{when:.9f} p{priority} e{eid} {name}"
                 for when, priority, eid, name in self.steps]
        if self.truncated:
            lines.append("...truncated...")
        return lines


def _envelope_line(index: int, envelope: Envelope) -> str:
    deliver = ("dropped" if envelope.deliver_time is None
               else f"{envelope.deliver_time:.9f}")
    corrupted = " corrupted" if envelope.corrupted else ""
    return (f"#{index} t={envelope.send_time:.9f} "
            f"{envelope.source}->{envelope.destination} "
            f"{envelope.payload!r} deliver={deliver}{corrupted}")


def canonical_trace(system: DistributedCASystem,
                    recorder: Optional[TraceRecorder] = None) -> str:
    """The run's canonical plain-text trace (see module docstring)."""
    sections: List[str] = []
    if recorder is not None:
        sections.append("== kernel ==")
        sections.extend(recorder.kernel_section())
    sections.append("== network ==")
    network = system.network
    if not getattr(network, "keep_trace", True) \
            and network.stats.sent > len(network.trace):
        # The bounded ring has already evicted envelopes; a digest built
        # from it would be silently wrong.  Build the system with
        # ``keep_trace=True`` (the explorer targets do).
        raise RuntimeError(
            "canonical_trace needs full envelope retention: construct the "
            "network with keep_trace=True")
    sections.extend(_envelope_line(i, envelope)
                    for i, envelope in enumerate(network.trace))
    sections.append("== coordinators ==")
    for name in sorted(system.partitions):
        coordinator = system.partitions[name].coordinator
        if coordinator.transitions > len(coordinator.trace):
            # Same refusal, same remedy as for the envelope ring above.
            raise RuntimeError(
                f"canonical_trace needs {name}'s full coordinator trace: "
                "construct the system with keep_trace=True")
        sections.extend(coordinator.trace)
    sections.append("== statistics ==")
    sections.append(json.dumps(system.network.stats.snapshot(),
                               sort_keys=True))
    return "\n".join(sections)


def trace_digest(trace_text: str) -> str:
    """SHA-256 of a canonical trace."""
    return hashlib.sha256(trace_text.encode("utf-8")).hexdigest()
