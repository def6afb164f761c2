"""Canonical run traces and digests for deterministic replay checking.

A run's canonical trace is a plain-text rendering of its ``repro.obs``
record log — one line per record, in recording order — between a header
naming the system's registered actions (which tells apart two targets'
runs that stall before any action is entered) and the final
message-statistics snapshot.  The log holds every kernel
step, every action life-cycle event, every ``message.*`` record (with
its flow id — ``Envelope.sequence``, which the system's network numbers
from 1 — and a mark on corrupted envelopes) and every lock transition
(with per-run transaction ids), so the trace is built only from per-run
data.

Two runs of the same ``(target, plan)`` must produce byte-identical
canonical traces; :func:`trace_digest` hashes them so sweeps can compare
thousands of runs cheaply and the engine's parallel/sequential paths can
be checked for equality without shipping full traces between processes.
"""

from __future__ import annotations

import hashlib
import json

from ..obs.config import ObsConfig
from ..runtime.system import DistributedCASystem

#: The observation every explored case runs under: the whole record log
#: with kernel steps (the canonical trace) and the flight ring (the dump
#: a failing case carries).
CASE_PROFILE = ObsConfig(metrics=False, kernel_steps=True)


def canonical_trace(system: DistributedCASystem) -> str:
    """The run's canonical plain-text trace (see module docstring)."""
    observation = system.observation
    if observation is None or not (observation.config.spans
                                   and observation.config.kernel_steps):
        # A partial log would give a digest that silently misses events.
        raise RuntimeError(
            "canonical_trace reads the whole record log: observe the "
            "system with spans and kernel_steps on (CASE_PROFILE) before "
            "it runs")
    lines = ["actions " + " ".join(sorted(system.registry))]
    lines.extend(observation.record_lines())
    lines.append(json.dumps(system.network.stats.snapshot(), sort_keys=True))
    return "\n".join(lines)


def trace_digest(trace_text: str) -> str:
    """SHA-256 of a canonical trace."""
    return hashlib.sha256(trace_text.encode("utf-8")).hexdigest()
