"""Per-system observation: the sink every instrumentation point feeds.

One :class:`SystemObservation` is attached to one
:class:`~repro.runtime.system.DistributedCASystem` (and its network,
lock manager, and any workload driver built on top).  Action life-cycle
events arrive through the system's one seam (:meth:`on_event` is
subscribed to ``system.emit`` beside ``RunMetrics``, so obs sees exactly
the protocol points the run metrics count).  The per-message / per-lock /
per-job sites hold an ``_obs`` attribute (or read ``system.observation``)
that is ``None`` when observability is off, so the disabled cost is a
single attribute-is-None check and **no event dict is ever allocated**.
Every sink normalizes its payload into a plain event record and hands it
to :meth:`_record`, which fans it out to the enabled collectors (event
list, flight ring, metrics registry).

Nothing in this module schedules kernel events, draws randomness, or
mutates run results: observation is strictly read-only with respect to
the simulation, which is what keeps conformance digests bit-identical
with observability on.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from . import events as kinds
from .config import ObsConfig
from .metrics import MetricsRegistry
from .recorder import FlightRecorder

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.system import DistributedCASystem
    from ..workload.driver import WorkloadDriver

#: Life-cycle kind -> the registry counter it increments (the other
#: life-cycle kinds are recorded and sampled but not counted).
_ACTION_COUNTERS: Dict[str, str] = {
    kinds.ACTION_ENTERED: "actions_entered_total",
    kinds.ACTION_RAISED: "actions_raised_total",
    kinds.ACTION_ABORTING: "abortions_total",
    kinds.ACTION_SIGNALLED: "signals_total",
    kinds.ACTION_CONCLUDED: "actions_concluded_total",
}


def _plain(value: Any) -> Any:
    """JSON-friendly form of a life-cycle payload value.

    ``ActionStatus`` enums become their string value, exception
    descriptors their name; anything else non-primitive falls back to
    ``str``.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return name
    return str(value)


class SystemObservation:
    """Collector state for one observed system."""

    __slots__ = ("config", "system", "_kernel", "events", "flight",
                 "metrics", "_message_seq", "_envelope_seq",
                 "_open_starts", "_tracked_links")

    def __init__(self, system: "DistributedCASystem",
                 config: Optional[ObsConfig] = None) -> None:
        config = config or ObsConfig()
        self.config = config
        self.system = system
        self._kernel = system.kernel
        self.events: Optional[List[Dict[str, Any]]] = \
            [] if config.spans else None
        self.flight: Optional[FlightRecorder] = \
            FlightRecorder(config.flight_capacity) \
            if config.flight_recorder else None
        self.metrics: Optional[MetricsRegistry] = \
            MetricsRegistry(config.timeline_interval) \
            if config.metrics else None
        self._message_seq = 0
        self._envelope_seq: Dict[int, int] = {}
        self._open_starts: Dict[Tuple[Any, ...], float] = {}
        self._tracked_links: set = set()
        if self.metrics is not None:
            stats = system.network.stats
            timeline = self.metrics.timeline
            timeline.track("messages_sent", lambda: stats.sent)
            timeline.track("messages_delivered", lambda: stats.delivered)
            timeline.track("messages_dropped", lambda: stats.dropped)

    # ------------------------------------------------------------------
    def _emit(self, event: Dict[str, Any]) -> None:
        if self.events is not None:
            self.events.append(event)
        if self.flight is not None:
            self.flight.append(event)

    def _record(self, event: Dict[str, Any], counter: Optional[str],
                labels: Optional[Dict[str, str]] = None
                ) -> Optional[MetricsRegistry]:
        """The tail of every sink: store, count, sample the timelines.

        Returns the metrics registry (``None`` when that collector is
        off) for the sinks that also feed a histogram.
        """
        self._emit(event)
        metrics = self.metrics
        if metrics is not None:
            if counter is not None:
                metrics.counter(counter, labels).inc()
            metrics.timeline.maybe_sample(event["t"])
        return metrics

    # ------------------------------------------------------------------
    # Action life-cycle (subscribed to ``DistributedCASystem.emit``)
    # ------------------------------------------------------------------
    def on_event(self, kind: str, now: float, thread: str, action: str,
                 instance: Optional[str], data: Dict[str, Any]) -> None:
        event: Dict[str, Any] = {"t": now, "kind": kind, "thread": thread,
                                 "action": action, "instance": instance}
        for key, value in data.items():
            event[key] = _plain(value)
        concluded = kind == kinds.ACTION_CONCLUDED
        metrics = self._record(
            event, _ACTION_COUNTERS.get(kind),
            {"status": event["status"]} if concluded else None)
        if metrics is None:
            return
        if kind == kinds.ACTION_ENTERED:
            self._open_starts[(action, instance, thread)] = now
        elif concluded:
            start = self._open_starts.pop((action, instance, thread), None)
            if start is not None:
                metrics.histogram("span_duration").record(now - start)

    # ------------------------------------------------------------------
    # Messaging (net/network.py)
    # ------------------------------------------------------------------
    def message_sent(self, envelope: Any) -> None:
        self._message_seq += 1
        seq = self._message_seq
        # Keyed by the envelope's own number: ``id()`` values are recycled.
        self._envelope_seq[envelope.sequence] = seq
        src, dst = envelope.source, envelope.destination
        metrics = self.metrics
        labels = None
        if metrics is not None:
            link = f"{src}->{dst}"
            labels = {"link": link}
            if link not in self._tracked_links:
                self._tracked_links.add(link)
                by_link = self.system.network.stats.by_link
                key = (src, dst)
                metrics.timeline.track(
                    f"messages_sent[{link}]",
                    lambda key=key: by_link.get(key, 0))
        self._record({"t": self._kernel.now, "kind": kinds.MESSAGE_SENT,
                      "src": src, "dst": dst,
                      "type": type(envelope.payload).__name__, "seq": seq},
                     "messages_sent_total", labels)

    def message_forwarded(self, envelope: Any) -> None:
        """A send that leaves the process: no local delivery will pop it."""
        self.message_sent(envelope)
        del self._envelope_seq[envelope.sequence]

    def message_delivered(self, envelope: Any) -> None:
        self._record({"t": self._kernel.now, "kind": kinds.MESSAGE_DELIVERED,
                      "src": envelope.source, "dst": envelope.destination,
                      "type": type(envelope.payload).__name__,
                      "seq": self._envelope_seq.pop(envelope.sequence, 0)},
                     "messages_delivered_total")

    def message_dropped(self, envelope: Any, reason: str) -> None:
        self._record({"t": self._kernel.now, "kind": kinds.MESSAGE_DROPPED,
                      "src": envelope.source, "dst": envelope.destination,
                      "type": type(envelope.payload).__name__,
                      "seq": self._envelope_seq.pop(envelope.sequence, 0),
                      "reason": reason},
                     "messages_dropped_total", {"reason": reason})

    def rpc_failure(self, node: str, procedure: str, error: str) -> None:
        """A one-way RPC handler raised (there is no reply to carry it)."""
        self._record({"t": self._kernel.now, "kind": kinds.RPC_FAILURE,
                      "node": node, "procedure": procedure, "error": error},
                     "rpc_failures_total", {"procedure": procedure})

    # ------------------------------------------------------------------
    # Workload admission + jobs (workload/driver.py)
    # ------------------------------------------------------------------
    def register_driver(self, driver: "WorkloadDriver") -> None:
        """Add the driver's in-flight / queue-depth timeline gauges."""
        metrics = self.metrics
        if metrics is None:
            return
        admission = driver.admission
        metrics.timeline.track("in_flight", lambda: admission.in_flight)
        metrics.timeline.track("queue_depth", lambda: len(admission.queue))

    def job_event(self, kind: str, job: Any, **extra: Any) -> None:
        """One ``job.*`` / ``admission.*`` event of the workload driver."""
        event: Dict[str, Any] = {"t": self._kernel.now, "kind": kind,
                                 "instance": job.instance,
                                 "action": job.action}
        event.update(extra)
        metrics = self._record(event, kind.replace(".", "_") + "_total")
        if metrics is not None and kind == kinds.JOB_COMPLETED:
            metrics.histogram("job_latency").record(extra["latency"])

    # ------------------------------------------------------------------
    # Shared objects (objects/locks.py)
    # ------------------------------------------------------------------
    def lock_event(self, kind: str, object_name: Optional[str],
                   transaction_id: Any, mode: Optional[str] = None,
                   **extra: Any) -> None:
        event: Dict[str, Any] = {"t": self._kernel.now, "kind": kind,
                                 "object": object_name,
                                 "transaction": _plain(transaction_id)}
        if mode is not None:
            event["mode"] = mode
        event.update(extra)
        self._record(event, kind.replace(".", "_") + "_total")

    # ------------------------------------------------------------------
    # Scheduler steps (simkernel/kernel.py, opt-in)
    # ------------------------------------------------------------------
    def kernel_step(self, when: float, priority: int, eid: int,
                    event: Any) -> None:
        """Step-tracer hook (registered via ``Kernel.add_tracer``)."""
        self._emit({"t": when, "kind": kinds.KERNEL_STEP,
                    "priority": priority, "eid": eid,
                    "event": type(event).__name__})
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("kernel_steps_total").inc()

    # ------------------------------------------------------------------
    def flight_dump(self) -> Optional[Dict[str, Any]]:
        """The flight recorder's dump, or None when the ring is off."""
        if self.flight is None:
            return None
        return self.flight.dump()

    def __repr__(self) -> str:
        collected = len(self.events) if self.events is not None else 0
        return (f"<SystemObservation events={collected} "
                f"flight={self.flight!r} metrics={self.metrics!r}>")
