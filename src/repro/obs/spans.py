"""Assembling raw event streams into causally-linked action spans.

A **span** is one participation of one partition in one CA-action
instance: it opens at ``action.entered`` and closes at
``action.concluded``, keyed by ``(action, instance, thread)``.  Every
intermediate life-cycle event for the same key — a raise, the switch to
the abortion phase, a resolution round's verdict, an outgoing signal —
becomes a **marker** inside the span, so the causal story of a
coordinated abort reads directly off the span's marker list.

Span assembly is a pure post-processing fold over the recorded events;
nothing here runs during the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..runtime import events as kinds

#: Life-cycle kinds recorded as markers inside an open span: every
#: action kind but the two that open and close it.
MARKER_KINDS = frozenset(
    kind for kind, category in kinds.CATEGORIES.items()
    if category == "action") - {kinds.ACTION_ENTERED, kinds.ACTION_CONCLUDED}

SpanKey = Tuple[str, Optional[str], str]


@dataclass
class Span:
    """One partition's participation in one action instance."""

    action: str
    instance: Optional[str]
    thread: str
    start: float
    end: Optional[float] = None
    status: Optional[str] = None
    resolved: Optional[str] = None
    signalled: Optional[str] = None
    markers: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        """Virtual-time length, or None while still open."""
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "action": self.action,
            "instance": self.instance,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "resolved": self.resolved,
            "signalled": self.signalled,
            "markers": list(self.markers),
        }


def _span_key(event: Dict[str, Any]) -> SpanKey:
    return (event.get("action", "?"), event.get("instance"),
            event.get("thread", "?"))


def build_spans(events: Iterable[Dict[str, Any]]
                ) -> Tuple[List[Span], List[Span]]:
    """Fold an event stream into ``(completed, still_open)`` spans.

    Events must be in emission order (they are: both the event list and
    the flight-recorder ring append in virtual-time order).  A
    ``concluded`` with no matching open span (its ``entered`` was
    evicted from a flight-recorder ring, or observation attached
    mid-run) closes a zero-length placeholder span starting at its own
    timestamp, so dump windows still render.
    """
    open_spans: Dict[SpanKey, Span] = {}
    completed: List[Span] = []
    for event in events:
        kind = event.get("kind")
        if kind == kinds.ACTION_ENTERED:
            key = _span_key(event)
            span = Span(action=key[0], instance=key[1], thread=key[2],
                        start=event["t"])
            open_spans[key] = span
        elif kind == kinds.ACTION_CONCLUDED:
            key = _span_key(event)
            span = open_spans.pop(key, None)
            if span is None:
                span = Span(action=key[0], instance=key[1], thread=key[2],
                            start=event["t"])
            span.end = event["t"]
            span.status = event.get("status")
            span.resolved = event.get("resolved")
            span.signalled = event.get("signalled")
            completed.append(span)
        elif kind in MARKER_KINDS:
            span = open_spans.get(_span_key(event))
            if span is not None:
                span.markers.append(event)
    still_open = sorted(open_spans.values(),
                        key=lambda span: (span.start, span.thread))
    return completed, still_open


def span_outcomes(spans: Iterable[Span]) -> Dict[str, int]:
    """Completed-span counts per conclusion status.

    Reconciles against ``RunMetrics.summary()["outcomes"]``: the runtime
    records exactly one outcome per concluded participation, and the
    tracer opens/closes exactly one span for it.
    """
    counts: Dict[str, int] = {}
    for span in spans:
        if span.end is None:
            continue
        status = span.status or "unknown"
        counts[status] = counts.get(status, 0) + 1
    return dict(sorted(counts.items()))
