"""The flight recorder: the run's last N events, for crash dumps.

A flight dump is the terminal window of an observation's record log —
what led up to a failure when an ``InvariantMonitor`` oracle fires, a run
raises, or the corpus search shrinks a reproducer.  While the full log is
kept (spans or metrics on) the window is simply its last ``capacity``
records.  The flight-only profile, cheap enough to leave on for every
explorer run, keeps no full log: its log is a :class:`FlightRecorder`, a
``deque(maxlen=...)`` whose append is O(1) and evicts the oldest record,
so memory stays bounded no matter how long the run.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List

#: Default ring capacity.  Explorer targets emit a few hundred events
#: per run, so the default usually captures the whole run; larger sims
#: keep the most recent window.
DEFAULT_CAPACITY = 512


def dump_window(capacity: int, observed: int,
                events: List[Any]) -> Dict[str, Any]:
    """A self-describing dump: the window plus truncation metadata.

    ``observed`` counts every event recorded since the recorder attached;
    ``observed - len(events)`` is therefore the number of evicted (lost)
    records.
    """
    return {
        "capacity": capacity,
        "observed": observed,
        "truncated": observed > len(events),
        "events": events,
    }


class FlightRecorder:
    """Bounded record ring with an eviction-aware dump."""

    __slots__ = ("capacity", "observed", "_ring")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        #: Total records ever offered (so a dump can report truncation).
        self.observed = 0
        self._ring: deque = deque(maxlen=capacity)

    def append(self, record: Any) -> None:
        """Record one event, evicting the oldest when full."""
        self.observed += 1
        self._ring.append(record)

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> List[Any]:
        """The retained window, oldest first."""
        return list(self._ring)

    def dump(self) -> Dict[str, Any]:
        """The retained window as a :func:`dump_window` dump."""
        return dump_window(self.capacity, self.observed, self.events())

    def __repr__(self) -> str:
        return (f"<FlightRecorder {len(self._ring)}/{self.capacity} "
                f"observed={self.observed}>")
