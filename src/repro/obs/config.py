"""Observation configuration: which collectors run, at what cost."""

from __future__ import annotations

from dataclasses import dataclass

from .recorder import DEFAULT_CAPACITY


@dataclass(frozen=True)
class ObsConfig:
    """What a :class:`~repro.obs.observation.SystemObservation` collects.

    Every collector reads one record log (one tuple per event); the
    flags say what can be read back:

    * ``spans`` — the full event stream, for span assembly and JSONL /
      Chrome export;
    * ``metrics`` — the counter/histogram registry and the passively
      sampled timelines, folded from the log when read;
    * ``flight_recorder`` — the last ``flight_capacity`` events, for
      crash dumps.

    With ``spans`` or ``metrics`` on, the whole log is kept (it grows
    with the run).  With only the flight recorder on, the log is a
    bounded ring: fixed memory, O(1) per event — the cheapest profile.
    With none of the three on there is nowhere to record, and the
    observation refuses the config.

    ``kernel_steps`` additionally hooks the scheduler's step tracer —
    one record per executed event, high volume — and is off by default.
    """

    spans: bool = True
    metrics: bool = True
    flight_recorder: bool = True
    flight_capacity: int = DEFAULT_CAPACITY
    timeline_interval: float = 1.0
    kernel_steps: bool = False

    @classmethod
    def flight_only(cls, capacity: int = DEFAULT_CAPACITY) -> "ObsConfig":
        """The always-on crash-dump profile: just the bounded ring."""
        return cls(spans=False, metrics=False, flight_recorder=True,
                   flight_capacity=capacity)

    @classmethod
    def full(cls) -> "ObsConfig":
        """Everything on, including per-step kernel records."""
        return cls(kernel_steps=True)
