"""Trace exporters: JSONL, Chrome ``trace_event`` JSON, summaries.

Two on-disk formats:

* **JSONL** — one event record per line (``write_jsonl`` /
  ``read_jsonl``).  Flight-recorder dumps are the same format with a
  leading ``flight.header`` record carrying the ring metadata.
* **Chrome trace** — the ``trace_event`` JSON object format
  (``{"traceEvents": [...]}``) that Perfetto and ``chrome://tracing``
  load directly: completed spans become ``"X"`` complete events on one
  track per partition, life-cycle markers become ``"i"`` instants,
  message send/deliver pairs become ``"s"``/``"f"`` flow arrows, and
  metrics timelines become ``"C"`` counter tracks.  Several systems'
  streams share one trace as separate processes
  (:func:`systems_chrome_trace`).

Everything here is offline post-processing over recorded events;
nothing runs during a simulation.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..runtime import events as kinds
from ..runtime.events import category
from .spans import Span, build_spans, span_outcomes

#: Timestamp scale: virtual seconds → trace microseconds.
MICROSECONDS = 1e6

#: The synthetic process a single system's tracks live under (a trace
#: of several systems gives each its own, numbered from here).
PID = 1

#: Synthetic tracks for events that do not belong to a partition.
WORKLOAD_TRACK = "workload"
OBJECTS_TRACK = "objects"


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------
def write_jsonl(events: Iterable[Dict[str, Any]], path: str) -> None:
    """One JSON object per line, oldest first."""
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True))
            handle.write("\n")


def write_flight_dump(dump: Dict[str, Any], path: str) -> None:
    """A flight-recorder dump as JSONL with a leading header record."""
    header = {"kind": "flight.header",
              "capacity": dump.get("capacity"),
              "observed": dump.get("observed"),
              "truncated": dump.get("truncated")}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True))
        handle.write("\n")
        for event in dump.get("events", ()):
            handle.write(json.dumps(event, sort_keys=True))
            handle.write("\n")


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace (or flight dump) back into records."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def load_trace(path: str) -> Tuple[str, Any]:
    """Detect and load either trace format.

    Returns ``("chrome", doc)`` for a ``trace_event`` JSON object or
    ``("jsonl", records)`` for an event-per-line file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        # Both formats can open with "{": a trace_event document is one
        # JSON object spanning the file, a JSONL stream is one object
        # per line.  Whole-file parse failing means JSONL.
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        if doc is not None:
            if "traceEvents" in doc:
                return "chrome", doc
            # A single-record JSONL file (one event) is indistinguishable
            # from non-trace JSON by syntax; treat any dict with "kind" as
            # a one-record event stream.
            if "kind" in doc:
                return "jsonl", [doc]
            raise ValueError(f"{path}: JSON object without 'traceEvents'")
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    return "jsonl", records


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------
def chrome_trace(events: List[Dict[str, Any]],
                 timeline: Optional[Dict[str, Any]] = None,
                 pid: int = PID, process: str = "repro",
                 flow_base: int = 0) -> Dict[str, Any]:
    """Convert an event stream to the Chrome ``trace_event`` object form.

    ``timeline`` is an optional :class:`~repro.obs.metrics.Timeline`
    snapshot; its series are rendered as ``"C"`` counter tracks.
    High-volume ``kernel.step`` records are counted into the returned
    doc's ``otherData`` but deliberately not rendered as slices.  Every
    track lives under process ``pid`` (named ``process``), and message
    flow ids are the events' ``seq`` numbers shifted by ``flow_base``.
    """

    def instant(name: str, t: float, tid: int,
                args: Dict[str, Any]) -> Dict[str, Any]:
        return {"name": name, "cat": category(name), "ph": "i", "s": "t",
                "ts": t * MICROSECONDS, "pid": pid, "tid": tid,
                "args": args}

    completed, still_open = build_spans(events)

    # One track per partition (span thread), plus synthetic tracks for
    # workload and shared-object events.  Sorted for determinism.
    track_names = sorted({span.thread for span in completed}
                         | {span.thread for span in still_open}
                         | {event["thread"] for event in events
                            if "thread" in event})
    tracks: Dict[str, int] = {name: index + 1
                              for index, name in enumerate(track_names)}

    def track(name: str) -> int:
        if name not in tracks:
            tracks[name] = len(tracks) + 1
        return tracks[name]

    trace: List[Dict[str, Any]] = []

    def emit_span(span: Span) -> None:
        end = span.end if span.end is not None else span.start
        trace.append({
            "name": span.action, "cat": "action", "ph": "X",
            "ts": span.start * MICROSECONDS,
            "dur": (end - span.start) * MICROSECONDS,
            "pid": pid, "tid": track(span.thread),
            "args": {"instance": span.instance, "status": span.status,
                     "resolved": span.resolved,
                     "signalled": span.signalled,
                     "open": span.end is None},
        })
        for marker in span.markers:
            args = {key: value for key, value in marker.items()
                    if key not in ("t", "kind", "thread")}
            trace.append(instant(marker["kind"], marker["t"],
                                 track(span.thread), args))

    for span in completed:
        emit_span(span)
    for span in still_open:
        emit_span(span)

    kernel_steps = 0
    flow_id = 0
    for event in events:
        kind = event.get("kind")
        if kind == kinds.KERNEL_STEP:
            kernel_steps += 1
            continue
        cat = category(kind)
        if cat == "action":
            continue  # already rendered as spans and their markers
        args = {key: value for key, value in event.items()
                if key not in ("t", "kind")}
        if kind == kinds.MESSAGE_SENT:
            flow_id = event.get("seq", flow_id + 1)
            trace.append({
                "name": event.get("type", "message"), "cat": "message",
                "ph": "s", "id": flow_id + flow_base,
                "ts": event["t"] * MICROSECONDS, "pid": pid,
                "tid": track(event.get("src", WORKLOAD_TRACK)),
                "args": args,
            })
        elif kind == kinds.MESSAGE_DELIVERED:
            seq = event.get("seq", 0)
            trace.append({
                "name": event.get("type", "message"), "cat": "message",
                "ph": "f", "bp": "e", "id": seq + flow_base if seq else 0,
                "ts": event["t"] * MICROSECONDS, "pid": pid,
                "tid": track(event.get("dst", WORKLOAD_TRACK)),
                "args": args,
            })
        elif kind == kinds.MESSAGE_DROPPED:
            trace.append(instant(kind, event["t"],
                                 track(event.get("dst", WORKLOAD_TRACK)),
                                 args))
        elif cat == "objects":
            trace.append(instant(kind, event["t"], track(OBJECTS_TRACK),
                                 args))
        else:  # workload + kinds outside the taxonomy
            trace.append(instant(kind, event["t"], track(WORKLOAD_TRACK),
                                 args))

    counters: List[Dict[str, Any]] = []
    if timeline:
        for name, points in sorted(timeline.get("series", {}).items()):
            for t, value in points:
                counters.append({
                    "name": name, "cat": "metrics", "ph": "C",
                    "ts": float(t) * MICROSECONDS, "pid": pid,
                    "args": {"value": value},
                })

    metadata: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": pid, "ts": 0,
        "args": {"name": process},
    }]
    for name, tid in sorted(tracks.items(), key=lambda item: item[1]):
        metadata.append({"name": "thread_name", "ph": "M", "pid": pid,
                         "tid": tid, "ts": 0, "args": {"name": name}})

    return {
        "traceEvents": metadata + trace + counters,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "spans_completed": len(completed),
            "spans_open": len(still_open),
            "kernel_steps": kernel_steps,
        },
    }


def systems_chrome_trace(systems: Sequence[Tuple[List[Dict[str, Any]],
                                                 Optional[Dict[str, Any]]]]
                         ) -> Dict[str, Any]:
    """One Chrome trace of several systems' ``(events, timeline)`` pairs.

    Systems run on independent virtual clocks, so nothing may join two of
    them: each gets its own process (``pid`` 1, 2, … named ``repro
    system N``) and its own range of flow ids.  A single system renders
    exactly as :func:`chrome_trace`.
    """
    if not systems:
        return chrome_trace([])
    if len(systems) == 1:
        return chrome_trace(*systems[0])
    trace: List[Dict[str, Any]] = []
    other = {"generator": "repro.obs", "spans_completed": 0,
             "spans_open": 0, "kernel_steps": 0}
    flow_base = 0
    for pid, (events, timeline) in enumerate(systems, PID):
        doc = chrome_trace(events, timeline, pid=pid,
                           process=f"repro system {pid}",
                           flow_base=flow_base)
        trace.extend(doc["traceEvents"])
        for key in ("spans_completed", "spans_open", "kernel_steps"):
            other[key] += doc["otherData"][key]
        flow_base += max((event.get("seq", 0) for event in events
                          if event.get("kind") == kinds.MESSAGE_SENT),
                         default=0)
    return {"traceEvents": trace, "displayTimeUnit": "ms",
            "otherData": other}


#: Phases that require a ``dur`` field / an ``id`` field.
_DURATION_PHASES = frozenset("X")
_FLOW_PHASES = frozenset({"s", "t", "f"})
_KNOWN_PHASES = frozenset({"X", "B", "E", "i", "I", "M", "C",
                           "s", "t", "f", "b", "e", "n"})


def validate_chrome(doc: Any) -> List[str]:
    """Structural schema check of a ``trace_event`` JSON object.

    Returns a list of problems (empty when the doc is loadable by
    Perfetto / ``chrome://tracing``).  Checks the object form, the
    per-event required keys, and the per-phase extras.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    trace_events = doc.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["'traceEvents' must be a list"]
    for index, event in enumerate(trace_events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: 'name' must be a string")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: 'pid' must be an integer")
        if phase != "M":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"{where}: 'ts' must be a number")
            elif event["ts"] < 0:
                problems.append(f"{where}: 'ts' must be non-negative")
        if phase in _DURATION_PHASES:
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(f"{where}: 'X' needs non-negative 'dur'")
        if phase in _FLOW_PHASES and "id" not in event:
            problems.append(f"{where}: flow event needs 'id'")
    return problems


# ---------------------------------------------------------------------------
# Summaries and diffs
# ---------------------------------------------------------------------------
def summarize_events(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Kind/category counts, span outcomes, and the covered time range."""
    kind_counts: Dict[str, int] = {}
    category_counts: Dict[str, int] = {}
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    payload = [event for event in events
               if event.get("kind") != "flight.header"]
    for event in payload:
        kind = str(event.get("kind"))
        kind_counts[kind] = kind_counts.get(kind, 0) + 1
        cat = category(kind)
        category_counts[cat] = category_counts.get(cat, 0) + 1
        t = event.get("t")
        if isinstance(t, (int, float)):
            t_min = t if t_min is None else min(t_min, t)
            t_max = t if t_max is None else max(t_max, t)
    completed, still_open = build_spans(payload)
    durations = [span.duration for span in completed
                 if span.duration is not None]
    return {
        "format": "jsonl",
        "events": len(payload),
        "kinds": dict(sorted(kind_counts.items())),
        "categories": dict(sorted(category_counts.items())),
        "spans": {
            "completed": len(completed),
            "open": len(still_open),
            "outcomes": span_outcomes(completed),
            "max_duration": max(durations) if durations else None,
        },
        "time": {"start": t_min, "end": t_max},
    }


def summarize_chrome(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Phase/category counts of a ``trace_event`` document."""
    phase_counts: Dict[str, int] = {}
    category_counts: Dict[str, int] = {}
    outcomes: Dict[str, int] = {}
    for event in doc.get("traceEvents", ()):
        phase = str(event.get("ph"))
        phase_counts[phase] = phase_counts.get(phase, 0) + 1
        cat = str(event.get("cat", "none"))
        category_counts[cat] = category_counts.get(cat, 0) + 1
        if phase == "X" and event.get("cat") == "action":
            status = str((event.get("args") or {}).get("status"))
            outcomes[status] = outcomes.get(status, 0) + 1
    return {
        "format": "chrome",
        "events": len(doc.get("traceEvents", ())),
        "phases": dict(sorted(phase_counts.items())),
        "categories": dict(sorted(category_counts.items())),
        "spans": {"outcomes": dict(sorted(outcomes.items()))},
    }


def summarize_path(path: str) -> Dict[str, Any]:
    """Summarize either trace format straight from disk."""
    form, payload = load_trace(path)
    if form == "chrome":
        return summarize_chrome(payload)
    return summarize_events(payload)


def diff_summaries(a: Dict[str, Any], b: Dict[str, Any],
                   prefix: str = "") -> Dict[str, List[Any]]:
    """Flat ``{dotted.key: [a, b]}`` map of every differing leaf."""
    delta: Dict[str, List[Any]] = {}
    for key in sorted(set(a) | set(b)):
        ours, theirs = a.get(key), b.get(key)
        dotted = f"{prefix}{key}"
        if isinstance(ours, dict) or isinstance(theirs, dict):
            delta.update(diff_summaries(ours or {}, theirs or {},
                                        prefix=dotted + "."))
        elif ours != theirs:
            delta[dotted] = [ours, theirs]
    return delta
