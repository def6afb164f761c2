"""Counters, gauges, histograms, and sim-time timelines.

A :class:`MetricsRegistry` is the metrics half of the observability
layer.  It follows the repo's established merge algebra —
:class:`~repro.analysis.histograms.LatencyHistogram` for distributions,
and the ``snapshot()`` / ``restore()`` / ``merge()`` triple that
:class:`~repro.analysis.metrics.RunMetrics`,
:class:`~repro.net.network.MessageStatistics`, and
:class:`~repro.workload.admission.AdmissionStats` already speak — so
per-run registries from sharded or repeated runs aggregate exactly:

* **counters** sum;
* **gauges** sum (shards of one deployment: in-flight totals add);
* **histograms** merge bucket-wise via the ``LatencyHistogram`` algebra;
* **timelines** align on their shared sampling grid and sum per tick.

An observation's registry is built when it is read, folded from the
observation's record log (see :mod:`repro.obs.observation`); the same
types hold merged and restored snapshots.

Exports: :meth:`MetricsRegistry.snapshot` is plain JSON, and
:meth:`MetricsRegistry.prometheus_text` renders the standard Prometheus
text exposition format (counters/gauges/cumulative ``le`` buckets).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis.histograms import LatencyHistogram

#: Internal label key: labels sorted into a hashable tuple of pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_text(key: LabelKey) -> str:
    """Prometheus label block (empty string for the unlabelled series)."""
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time level (queue depth, instances in flight)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


class Timeline:
    """Sim-time sampled series on a fixed grid, merge-aligned.

    ``series`` maps a name to its ``(t, value)`` points, ``t`` on the
    grid ``k * interval``; ``samples`` grid points have been taken.  The
    sampling itself is the observation's (see
    :meth:`repro.obs.observation.SystemObservation.timeline_snapshot`);
    a timeline is what it produced, in the form that merges.
    """

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError("timeline interval must be positive")
        self.interval = float(interval)
        self.series: Dict[str, List[Tuple[float, float]]] = {}
        self._samples = 0

    # -- merge algebra -------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {
            "interval": self.interval,
            "samples": self._samples,
            "series": {name: [[t, v] for t, v in points]
                       for name, points in self.series.items()},
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        if snapshot.get("interval") != self.interval:
            raise ValueError(
                f"timeline intervals differ: {self.interval} != "
                f"{snapshot.get('interval')}")
        self._samples = int(snapshot.get("samples", 0))
        self.series = {name: [(float(t), float(v)) for t, v in points]
                       for name, points in snapshot.get("series", {}).items()}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Sum another timeline's points onto this one, tick-aligned."""
        if snapshot.get("interval") != self.interval:
            raise ValueError(
                f"timeline intervals differ: {self.interval} != "
                f"{snapshot.get('interval')}")
        for name, points in snapshot.get("series", {}).items():
            merged = {t: v for t, v in self.series.get(name, [])}
            for t, v in points:
                t = float(t)
                merged[t] = merged.get(t, 0.0) + float(v)
            self.series[name] = sorted(merged.items())
        self._samples = max(self._samples, int(snapshot.get("samples", 0)))


class MetricsRegistry:
    """Named counter/gauge/histogram families plus one timeline.

    Families are created on first touch; a family may carry labels
    (e.g. ``link="A->B"``), and every ``(family, labels)`` pair is one
    series.  All state is mergeable and JSON-round-trippable.
    """

    def __init__(self, timeline_interval: float = 1.0) -> None:
        self._counters: Dict[str, Dict[LabelKey, Counter]] = {}
        self._gauges: Dict[str, Dict[LabelKey, Gauge]] = {}
        self._histograms: Dict[str, Dict[LabelKey, LatencyHistogram]] = {}
        self.timeline = Timeline(timeline_interval)

    # -- family accessors ----------------------------------------------
    def counter(self, name: str,
                labels: Optional[Dict[str, str]] = None) -> Counter:
        family = self._counters.setdefault(name, {})
        key = _label_key(labels)
        series = family.get(key)
        if series is None:
            series = family[key] = Counter()
        return series

    def gauge(self, name: str,
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        family = self._gauges.setdefault(name, {})
        key = _label_key(labels)
        series = family.get(key)
        if series is None:
            series = family[key] = Gauge()
        return series

    def histogram(self, name: str,
                  labels: Optional[Dict[str, str]] = None,
                  **options: Any) -> LatencyHistogram:
        family = self._histograms.setdefault(name, {})
        key = _label_key(labels)
        series = family.get(key)
        if series is None:
            series = family[key] = LatencyHistogram(**options)
        return series

    # -- merge algebra -------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict (JSON-serializable) copy of every series."""

        def rows(families: Dict[str, Dict[LabelKey, Any]],
                 value: Callable[[Any], Any]) -> Dict[str, List[dict]]:
            return {
                name: [{"labels": dict(key), "value": value(series)}
                       for key, series in sorted(family.items())]
                for name, family in sorted(families.items())
            }

        return {
            "schema": 1,
            "counters": rows(self._counters, lambda c: c.value),
            "gauges": rows(self._gauges, lambda g: g.value),
            "histograms": rows(self._histograms, lambda h: h.snapshot()),
            "timeline": self.timeline.snapshot(),
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Reset this registry to the state captured in ``snapshot``."""
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self.timeline = Timeline(snapshot.get("timeline", {})
                                 .get("interval", self.timeline.interval))
        self.merge(snapshot)

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Aggregate another registry's snapshot onto this one."""
        for name, rows in snapshot.get("counters", {}).items():
            for row in rows:
                self.counter(name, row["labels"]).inc(row["value"])
        for name, rows in snapshot.get("gauges", {}).items():
            for row in rows:
                self.gauge(name, row["labels"]).add(row["value"])
        for name, rows in snapshot.get("histograms", {}).items():
            family = self._histograms.setdefault(name, {})
            for row in rows:
                key = _label_key(row["labels"])
                if key in family:
                    family[key].merge(row["value"])
                else:
                    family[key] = LatencyHistogram.from_snapshot(row["value"])
        timeline = snapshot.get("timeline")
        if timeline and timeline.get("series"):
            self.timeline.merge(timeline)

    # -- exporters -----------------------------------------------------
    def prometheus_text(self, prefix: str = "repro_") -> str:
        """Standard Prometheus text exposition of every series."""
        lines: List[str] = []
        for name, family in sorted(self._counters.items()):
            metric = prefix + name
            lines.append(f"# TYPE {metric} counter")
            for key, series in sorted(family.items()):
                lines.append(f"{metric}{_label_text(key)} "
                             f"{format(series.value, 'g')}")
        for name, family in sorted(self._gauges.items()):
            metric = prefix + name
            lines.append(f"# TYPE {metric} gauge")
            for key, series in sorted(family.items()):
                lines.append(f"{metric}{_label_text(key)} "
                             f"{format(series.value, 'g')}")
        for name, family in sorted(self._histograms.items()):
            metric = prefix + name
            lines.append(f"# TYPE {metric} histogram")
            for key, series in sorted(family.items()):
                cumulative = 0
                for index, bucket in enumerate(series.buckets):
                    cumulative += bucket
                    edge = format(series.bucket_edge(index), "g")
                    label = _label_text(key + (("le", edge),))
                    lines.append(f"{metric}_bucket{label} {cumulative}")
                label = _label_text(key + (("le", "+Inf"),))
                lines.append(f"{metric}_bucket{label} {series.count}")
                lines.append(f"{metric}_sum{_label_text(key)} "
                             f"{format(series.sum, 'g')}")
                lines.append(f"{metric}_count{_label_text(key)} "
                             f"{series.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return (f"<MetricsRegistry counters={len(self._counters)} "
                f"gauges={len(self._gauges)} "
                f"histograms={len(self._histograms)}>")
