"""Per-system observation: one record log, read as events, dumps and metrics.

One :class:`SystemObservation` is attached to one
:class:`~repro.runtime.system.DistributedCASystem` (and its network,
lock manager, and any workload driver built on top).  Action life-cycle
events arrive through the system's one seam (:meth:`on_event` is
subscribed to ``system.emit`` beside ``RunMetrics``, so obs sees exactly
the protocol points the run metrics count).  The per-message / per-lock /
per-job sites hold an ``_obs`` attribute (or read ``system.observation``)
that is ``None`` when observability is off, so the disabled cost is a
single attribute-is-None check.

**Recording is one tuple append per event.**  Every sink appends
``(t, kind, layout, *fields)`` to the observation's record log: the
fields are what the event was reported with — the life-cycle payload
dict as emitted, a message's routing fields and payload type name, a
job's instance and action — and ``layout`` names the reader that turns
the record into its event dict.  Records hold no envelope, job or
kernel event, so a record of plain values is one the garbage collector
stops tracking.  The only other work on the hot path is one float
compare against the next timeline tick; at a tick the network totals,
the per-link counts and the driver gauges are copied once.  A value
whose rendering could change after the event — a lock's transaction id,
rendered with ``str`` — is converted when recorded.

**Everything else is derived when somebody reads:**

* :attr:`events` — the event dicts, built once, ``message.*`` flow
  ``seq`` numbers assigned in log order;
* :meth:`flight_dump` — the log's last ``flight_capacity`` events;
* :attr:`metrics` — every ``*_total`` counter and the ``span_duration``
  / ``job_latency`` histograms folded from the log, and the timelines
  expanded from the tick copies.

The log is kept whole while spans or metrics are on.  Under the
flight-only profile the log *is* the bounded ring (a
:class:`~repro.obs.recorder.FlightRecorder`); a window cannot name the
evicted send a delivery belongs to, so that profile fixes message flow
ids as it records.

Nothing in this module schedules kernel events, draws randomness, or
mutates run results: observation is strictly read-only with respect to
the simulation, which is what keeps conformance digests bit-identical
with observability on.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from collections import deque
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from .config import ObsConfig
from .events import (ACTION_ABORTING, ACTION_CONCLUDED, ACTION_ENTERED,
                     ACTION_RAISED, ACTION_SIGNALLED, JOB_COMPLETED,
                     KERNEL_STEP, MESSAGE_DELIVERED, MESSAGE_DROPPED,
                     MESSAGE_SENT, RPC_FAILURE)
from .metrics import MetricsRegistry, Timeline
from .recorder import FlightRecorder, dump_window

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.system import DistributedCASystem
    from ..workload.driver import WorkloadDriver

#: Record layouts: the third field of a record names its reader.
_LIFE_CYCLE, _MESSAGE, _RPC_FAILURE, _JOB, _LOCK, _KERNEL_STEP = range(6)

#: Record kind of a send that leaves the process.  It reads as
#: ``message.sent`` but opens no flow a local delivery could close.
_FORWARDED = "message.forwarded"

#: Life-cycle kind -> the counter it increments (the other life-cycle
#: kinds are recorded but not counted).
_ACTION_COUNTERS: Dict[str, str] = {
    ACTION_ENTERED: "actions_entered_total",
    ACTION_RAISED: "actions_raised_total",
    ACTION_ABORTING: "abortions_total",
    ACTION_SIGNALLED: "signals_total",
    ACTION_CONCLUDED: "actions_concluded_total",
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


class _Flows:
    """``message.*`` flow ids, assigned in recording order.

    The observation's n-th send is flow n; a delivery or drop carries
    the id of its send, or 0 when that send was not recorded here or left
    the process.  Keyed by the envelope's own number (``id()`` values are
    recycled), and an entry lives only while its message is in flight.
    """

    __slots__ = ("sent", "open")

    def __init__(self) -> None:
        self.sent = 0
        self.open: Dict[int, int] = {}

    def seq(self, kind: str, sequence: int) -> int:
        """The flow id of a message record (``sequence``: its envelope's)."""
        if kind == MESSAGE_SENT:
            self.sent += 1
            self.open[sequence] = self.sent
            return self.sent
        if kind == _FORWARDED:
            self.sent += 1
            return self.sent
        return self.open.pop(sequence, 0)


# ----------------------------------------------------------------------
# Readers: one per record layout, each ``(record, flows) -> event dict``.
# ----------------------------------------------------------------------
def _life_cycle(record: tuple, flows: Optional[_Flows]) -> Dict[str, Any]:
    t, kind, _, thread, action, instance, data = record
    event: Dict[str, Any] = {"t": t, "kind": kind, "thread": thread,
                             "action": action, "instance": instance}
    for key, value in data.items():
        event[key] = _plain(value)
    return event


def _message(record: tuple, flows: Optional[_Flows]) -> Dict[str, Any]:
    """A ``message.*`` record; without ``flows`` it carries its own id."""
    t, kind, _, source, destination, payload_type, sequence = record[:7]
    event: Dict[str, Any] = {
        "t": t, "kind": MESSAGE_SENT if kind == _FORWARDED else kind,
        "src": source, "dst": destination, "type": payload_type,
        "seq": record[-1] if flows is None else flows.seq(kind, sequence)}
    if kind == MESSAGE_DROPPED:
        event["reason"] = record[7]
    return event


def _rpc_failure(record: tuple, flows: Optional[_Flows]) -> Dict[str, Any]:
    t, kind, _, node, procedure, error = record
    return {"t": t, "kind": kind, "node": node, "procedure": procedure,
            "error": error}


def _job(record: tuple, flows: Optional[_Flows]) -> Dict[str, Any]:
    t, kind, _, instance, action, extra = record
    event: Dict[str, Any] = {"t": t, "kind": kind, "instance": instance,
                             "action": action}
    event.update(extra)
    return event


def _lock(record: tuple, flows: Optional[_Flows]) -> Dict[str, Any]:
    t, kind, _, object_name, transaction, mode, extra = record
    event: Dict[str, Any] = {"t": t, "kind": kind, "object": object_name,
                             "transaction": transaction}
    if mode is not None:
        event["mode"] = mode
    event.update(extra)
    return event


def _kernel_step(record: tuple, flows: Optional[_Flows]) -> Dict[str, Any]:
    t, kind, _, priority, eid, event_name = record
    return {"t": t, "kind": kind, "priority": priority, "eid": eid,
            "event": event_name}


#: Layout -> reader, in the order of the layout constants.
_READERS = (_life_cycle, _message, _rpc_failure, _job, _lock, _kernel_step)


def _render(records, flows: Optional[_Flows]) -> List[Dict[str, Any]]:
    return [_READERS[record[2]](record, flows) for record in records]


def _fold(log: List[tuple], registry: MetricsRegistry) -> None:
    """Count every ``*_total`` series and fill the histograms, in log order."""
    counts: Dict[Tuple[str, tuple], int] = {}
    entered: Dict[tuple, float] = {}
    for record in log:
        t, kind, layout = record[0], record[1], record[2]
        labels: tuple = ()
        if layout == _LIFE_CYCLE:
            name = _ACTION_COUNTERS.get(kind)
            if kind == ACTION_ENTERED:
                entered[record[3:6]] = t
            elif kind == ACTION_CONCLUDED:
                labels = (("status", _plain(record[6]["status"])),)
                start = entered.pop(record[3:6], None)
                if start is not None:
                    registry.histogram("span_duration").record(t - start)
            if name is None:
                continue
        elif layout == _MESSAGE:
            if kind == MESSAGE_DELIVERED:
                name = "messages_delivered_total"
            elif kind == MESSAGE_DROPPED:
                name, labels = "messages_dropped_total", (("reason",
                                                           record[7]),)
            else:
                name = "messages_sent_total"
                labels = (("link", f"{record[3]}->{record[4]}"),)
        elif layout == _RPC_FAILURE:
            name, labels = "rpc_failures_total", (("procedure", record[4]),)
        elif layout == _KERNEL_STEP:
            name = "kernel_steps_total"
        else:  # job, admission and lock events
            name = kind.replace(".", "_") + "_total"
            if layout == _JOB and kind == JOB_COMPLETED:
                registry.histogram("job_latency").record(
                    record[5]["latency"])
        key = (name, labels)
        counts[key] = counts.get(key, 0) + 1
    for (name, labels), count in counts.items():
        registry.counter(name, dict(labels)).inc(count)


class SystemObservation:
    """Collector state for one observed system."""

    __slots__ = ("config", "system", "_kernel", "_log", "_append",
                 "_flight", "_flows", "_events", "_read_flows", "_interval",
                 "_next_tick", "_samples", "_ticks", "_stats", "_admission",
                 "_driver_at")

    def __init__(self, system: "DistributedCASystem",
                 config: Optional[ObsConfig] = None) -> None:
        config = config or ObsConfig()
        if config.flight_recorder and config.flight_capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        if config.metrics and config.timeline_interval <= 0:
            raise ValueError("timeline interval must be positive")
        self.config = config
        self.system = system
        self._kernel = system.kernel
        self._log: List[tuple] = []
        self._append = self._log.append
        self._flight: Optional[FlightRecorder] = None
        self._flows: Optional[_Flows] = None
        if not (config.spans or config.metrics):
            if config.flight_recorder:
                self._flight = FlightRecorder(config.flight_capacity)
                self._flows = _Flows()
                self._append = self._ring_append
            else:  # no collector: records go nowhere
                self._append = deque(maxlen=0).append
        #: Read side: the event dicts built so far, and their flow ids.
        self._events: List[Dict[str, Any]] = []
        self._read_flows = _Flows()
        #: Timeline: grid points ``k * interval`` for ``k < _samples`` are
        #: sampled; each entry of ``_ticks`` is one catch-up (see _tick).
        self._interval = float(config.timeline_interval)
        self._next_tick = 0.0 if config.metrics else math.inf
        self._samples = 0
        self._ticks: List[tuple] = []
        self._stats = system.network.stats if config.metrics else None
        self._admission = None
        #: Log length when a driver first registered (orders its gauges
        #: among the link series).
        self._driver_at: Optional[int] = None

    def _ring_append(self, record: tuple) -> None:
        """Flight-only recording: message flow ids are fixed now."""
        if record[2] == _MESSAGE:
            record += (self._flows.seq(record[1], record[6]),)
        self._flight.append(record)

    def _tick(self, now: float) -> None:
        """Sample every grid point virtual time ``now`` newly reached.

        Passive: the caller's own event flow drives it, so an idle
        stretch is back-filled when the next event arrives — with the
        state as it is now, which is the state that held throughout.
        The grid is ``k * interval`` by integer multiplication (no
        floating-point drift).
        """
        interval = self._interval
        first = stop = self._samples
        while stop * interval <= now:
            stop += 1
        self._samples = stop
        self._next_tick = stop * interval
        stats = self._stats
        admission = self._admission
        self._ticks.append((
            first, stop, len(self._log), stats.sent, stats.delivered,
            stats.dropped, stats.by_link.copy(),
            None if admission is None
            else (admission.in_flight, len(admission.queue))))

    # ------------------------------------------------------------------
    # Action life-cycle (subscribed to ``DistributedCASystem.emit``)
    # ------------------------------------------------------------------
    def on_event(self, kind: str, now: float, thread: str, action: str,
                 instance: Optional[str], data: Dict[str, Any]) -> None:
        self._append((now, kind, _LIFE_CYCLE, thread, action, instance, data))
        if now >= self._next_tick:
            self._tick(now)

    # ------------------------------------------------------------------
    # Messaging (net/network.py)
    # ------------------------------------------------------------------
    def message_sent(self, envelope: Any) -> None:
        now = self._kernel._now
        self._append((now, MESSAGE_SENT, _MESSAGE, envelope.source,
                      envelope.destination, type(envelope.payload).__name__,
                      envelope.sequence))
        if now >= self._next_tick:
            self._tick(now)

    def message_forwarded(self, envelope: Any) -> None:
        """A send that leaves the process: no local delivery will close it."""
        now = self._kernel._now
        self._append((now, _FORWARDED, _MESSAGE, envelope.source,
                      envelope.destination, type(envelope.payload).__name__,
                      envelope.sequence))
        if now >= self._next_tick:
            self._tick(now)

    def message_delivered(self, envelope: Any) -> None:
        now = self._kernel._now
        self._append((now, MESSAGE_DELIVERED, _MESSAGE, envelope.source,
                      envelope.destination, type(envelope.payload).__name__,
                      envelope.sequence))
        if now >= self._next_tick:
            self._tick(now)

    def message_dropped(self, envelope: Any, reason: str) -> None:
        now = self._kernel._now
        self._append((now, MESSAGE_DROPPED, _MESSAGE, envelope.source,
                      envelope.destination, type(envelope.payload).__name__,
                      envelope.sequence, reason))
        if now >= self._next_tick:
            self._tick(now)

    def rpc_failure(self, node: str, procedure: str, error: str) -> None:
        """A one-way RPC handler raised (there is no reply to carry it)."""
        now = self._kernel._now
        self._append((now, RPC_FAILURE, _RPC_FAILURE, node, procedure, error))
        if now >= self._next_tick:
            self._tick(now)

    # ------------------------------------------------------------------
    # Workload admission + jobs (workload/driver.py)
    # ------------------------------------------------------------------
    def register_driver(self, driver: "WorkloadDriver") -> None:
        """Add the driver's in-flight / queue-depth timeline gauges."""
        if not self.config.metrics:
            return
        if self._driver_at is None:
            self._driver_at = len(self._log)
        self._admission = driver.admission

    def job_event(self, kind: str, job: Any, **extra: Any) -> None:
        """One ``job.*`` / ``admission.*`` event of the workload driver."""
        now = self._kernel._now
        self._append((now, kind, _JOB, job.instance, job.action, extra))
        if now >= self._next_tick:
            self._tick(now)

    # ------------------------------------------------------------------
    # Shared objects (objects/locks.py)
    # ------------------------------------------------------------------
    def lock_event(self, kind: str, object_name: Optional[str],
                   transaction_id: Any, mode: Optional[str] = None,
                   **extra: Any) -> None:
        now = self._kernel._now
        self._append((now, kind, _LOCK, object_name, _plain(transaction_id),
                      mode, extra))
        if now >= self._next_tick:
            self._tick(now)

    # ------------------------------------------------------------------
    # Scheduler steps (simkernel/kernel.py, opt-in)
    # ------------------------------------------------------------------
    def kernel_step(self, when: float, priority: int, eid: int,
                    event: Any) -> None:
        """Step-tracer hook (registered via ``Kernel.add_tracer``)."""
        self._append((when, KERNEL_STEP, _KERNEL_STEP, priority, eid,
                      type(event).__name__))

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def _rendered(self) -> List[Dict[str, Any]]:
        """Every record of the (whole) log as its event dict."""
        events = self._events
        events.extend(_render(self._log[len(events):], self._read_flows))
        return events

    @property
    def events(self) -> Optional[List[Dict[str, Any]]]:
        """The recorded events, oldest first (``None`` unless spans are on)."""
        return self._rendered() if self.config.spans else None

    def flight_dump(self) -> Optional[Dict[str, Any]]:
        """The flight recorder's dump, or None when the ring is off."""
        if not self.config.flight_recorder:
            return None
        if self._flight is not None:
            dump = self._flight.dump()
            dump["events"] = _render(dump["events"], None)
            return dump
        events = self._rendered()
        return dump_window(self.config.flight_capacity, len(events),
                           events[-self.config.flight_capacity:])

    def _timeline(self) -> Timeline:
        """The timelines, expanded from the tick copies.

        Series appear in registration order: the three message totals,
        then each link at its first send and the driver's gauges when it
        registered; a series is sampled from the first tick after that.
        """
        links: List[Tuple[int, str, tuple]] = []
        named = set()
        for index, record in enumerate(self._log):
            if record[2] == _MESSAGE and record[1] in (MESSAGE_SENT,
                                                       _FORWARDED):
                name = f"messages_sent[{record[3]}->{record[4]}]"
                if name not in named:
                    named.add(name)
                    links.append((index, name, record[3:5]))
        starts = [index for index, _, _ in links]
        names = [name for _, name, _ in links]
        gauge_names = ()
        if self._driver_at is not None:
            gauge_names = ("in_flight", "queue_depth")
            at = bisect_left(starts, self._driver_at)
            names[at:at] = gauge_names
        timeline = Timeline(self._interval)
        timeline.restore({"interval": self._interval,
                          "samples": self._samples})
        series = timeline.series
        for name in ("messages_sent", "messages_delivered",
                     "messages_dropped", *names):
            series[name] = []
        totals = [series["messages_sent"], series["messages_delivered"],
                  series["messages_dropped"]]
        gauges = [series[name] for name in gauge_names]
        per_link = [(series[name], link) for _, name, link in links]
        interval = self._interval
        for (first, stop, logged, sent, delivered, dropped, by_link,
             levels) in self._ticks:
            tracked = per_link[:bisect_left(starts, logged)]
            for sample in range(first, stop):
                t = sample * interval
                for points, value in zip(totals, (sent, delivered, dropped)):
                    points.append((t, float(value)))
                for points, link in tracked:
                    points.append((t, float(by_link.get(link, 0))))
                if levels is not None:
                    for points, value in zip(gauges, levels):
                        points.append((t, float(value)))
        return timeline

    def timeline_snapshot(self) -> Optional[Dict[str, Any]]:
        """The sampled timelines (``Timeline.snapshot`` form), or None."""
        return self._timeline().snapshot() if self.config.metrics else None

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """A registry folded from the log now (``None`` unless metrics on)."""
        if not self.config.metrics:
            return None
        registry = MetricsRegistry(self._interval)
        _fold(self._log, registry)
        registry.timeline = self._timeline()
        return registry

    def __repr__(self) -> str:
        recorded = (self._flight.observed if self._flight is not None
                    else len(self._log))
        return f"<SystemObservation records={recorded} {self.config!r}>"
