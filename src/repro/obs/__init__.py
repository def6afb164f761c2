"""``repro.obs`` — spans, metrics timelines, and flight recording.

The observability layer for every execution backend.  Each observed
system keeps one record log — a tuple per life-cycle event, network
message, admission decision and lock transition — and three collectors
read it (see :class:`ObsConfig`): a **span tracer** assembling the
events into causally-linked per-``(action, instance)`` spans; a
**metrics registry** of mergeable counters/gauges/histograms and
sim-time timelines; and a **flight recorder** that gives every failure
its last-N-events timeline.  Recording costs one tuple append per event;
event dicts, spans, metrics and dumps are built when read.

Two ways to turn it on:

* **Scoped** — :func:`capture` installs an ambient capture; every
  :class:`~repro.runtime.system.DistributedCASystem` constructed inside
  the ``with`` block is observed automatically::

      from repro import obs
      with obs.capture(obs.ObsConfig()) as cap:
          run_capacity_point(offered_load=2.0, n_instances=50)
      cap.write_chrome_trace("capacity.trace.json")

* **Direct** — :func:`observe_system` attaches one observation to an
  already-built system (the explorer does this for every case: its
  canonical trace and flight dumps are read from the record log).  A
  system carries one observation: on a system the ambient capture
  already adopted, the call returns the capture's, widened if need be.

When nothing is captured, the module is a strict no-op: systems carry
``observation = None``, every instrumentation site short-circuits on
one attribute check, and no per-event allocation happens.  Observation
never schedules kernel events and never perturbs scheduling — all
conformance digests are bit-identical with observability off and on
(``python -m repro check --obs`` proves it).

``python -m repro obs`` summarizes, converts, and diffs exported
traces; see :mod:`repro.obs.export` for the file formats.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
from typing import Any, Dict, Iterator, List, Optional, TYPE_CHECKING

from .._lazy import attach
from .config import ObsConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.system import DistributedCASystem
    from .metrics import MetricsRegistry
    from .observation import SystemObservation
    from .spans import Span

# The collectors and exporters load when a capture or observation is
# built (or one of these names is read), not with every system.
__getattr__, __dir__, _LAZY = attach(__name__, {
    "observation": ["SystemObservation"],
    "recorder": ["FlightRecorder"],
    "metrics": ["MetricsRegistry"],
    "spans": ["Span", "build_spans", "span_outcomes"],
    "export": ["chrome_trace", "validate_chrome", "write_jsonl", "read_jsonl",
               "write_flight_dump", "summarize_events", "diff_summaries"],
})

__all__ = ["ObsConfig", "Capture", "capture", "observe_system", "enabled",
           "active", *_LAZY]

#: The :class:`ObsConfig` flags that switch a collector on.
_COLLECTORS = ("spans", "metrics", "flight_recorder", "kernel_steps")

#: Serialises installing the ambient capture, which lives in the runtime
#: (:data:`repro.runtime.system.AMBIENT_CAPTURE`) so that building a system
#: with observability off calls nothing here.
_CAPTURE_LOCK = threading.Lock()


def enabled() -> bool:
    """True while an ambient :func:`capture` is installed."""
    return active() is not None


def active() -> Optional["Capture"]:
    """The ambient capture, if any."""
    from ..runtime import system
    return system.AMBIENT_CAPTURE


def observe_system(system: "DistributedCASystem",
                   config: Optional[ObsConfig] = None) -> SystemObservation:
    """The system's one observation, attached now unless it already is.

    An already-observed system keeps its observation (a second one would
    take over the network and lock sinks while both stayed subscribed to
    the life-cycle seam).  If that observation lacks a collector
    ``config`` asks for, it is widened to both configs' collectors while
    it has recorded nothing yet — so the explorer's per-case profile
    composes with an ambient capture — and this raises once it has.
    """
    config = config or ObsConfig()
    observation = system.observation
    if observation is None:
        from .observation import SystemObservation
        observation = system.observation = SystemObservation(system, config)
        system.subscribe(observation.on_event)
        system.network._obs = observation
        locks = getattr(system.transactions, "locks", None)
        if locks is not None:
            locks._obs = observation
    else:
        missing = [name for name in _COLLECTORS
                   if getattr(config, name)
                   and not getattr(observation.config, name)]
        if not missing:
            return observation
        if observation.recorded:
            raise RuntimeError(
                f"system is already observed without {', '.join(missing)}; "
                "one system carries one observation")
        observation._widen(dataclasses.replace(
            observation.config, **dict.fromkeys(missing, True)))
    if observation.config.kernel_steps:
        system.kernel.tracer = observation.kernel_step
    return observation


class Capture:
    """An ambient observation scope aggregating every adopted system.

    Most runs build one system, but engine sweeps build one per grid
    point; the capture keeps each system's observation and offers
    merged views (events in adoption order, metrics via the registry
    merge algebra).
    """

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config or ObsConfig()
        self.observations: List[SystemObservation] = []

    def adopt(self, system: "DistributedCASystem") -> SystemObservation:
        """Observe one more system under this capture's config."""
        observation = observe_system(system, self.config)
        self.observations.append(observation)
        return observation

    # -- merged views --------------------------------------------------
    def events(self) -> List[Dict[str, Any]]:
        """Every recorded event, grouped by system in adoption order.

        Systems run on independent virtual clocks, so a global time
        sort would interleave unrelated runs; per-system order is the
        causal order.
        """
        merged: List[Dict[str, Any]] = []
        for observation in self.observations:
            merged.extend(observation.events or ())
        return merged

    def spans(self) -> List[Span]:
        """Completed and open spans across every adopted system."""
        from .spans import build_spans
        spans: List[Span] = []
        for observation in self.observations:
            completed, still_open = build_spans(observation.events or ())
            spans.extend(completed)
            spans.extend(still_open)
        return spans

    def _merged_metrics(self) -> MetricsRegistry:
        from .metrics import MetricsRegistry
        merged = MetricsRegistry(self.config.timeline_interval)
        for observation in self.observations:
            registry = observation.metrics
            if registry is not None:
                merged.merge(registry.snapshot())
        return merged

    def metrics_snapshot(self) -> Dict[str, Any]:
        """All adopted registries merged into one snapshot."""
        return self._merged_metrics().snapshot()

    def prometheus_text(self) -> str:
        """Prometheus text exposition of the merged registries."""
        return self._merged_metrics().prometheus_text()

    def chrome_trace(self) -> Dict[str, Any]:
        """Every adopted system as one Chrome ``trace_event`` doc.

        Each system is its own process with its own flow ids and its own
        metrics timelines (see :func:`~repro.obs.export.systems_chrome_trace`).
        """
        from .export import systems_chrome_trace
        return systems_chrome_trace([
            (observation.events or [], observation.timeline_snapshot())
            for observation in self.observations])

    def flight_dumps(self) -> List[Dict[str, Any]]:
        """Every adopted system's flight dump, adoption order."""
        return [dump for dump in
                (observation.flight_dump()
                 for observation in self.observations)
                if dump is not None]

    # -- file exports --------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        from .export import write_jsonl
        write_jsonl(self.events(), path)

    def write_chrome_trace(self, path: str) -> None:
        import json
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, sort_keys=True)

    def __repr__(self) -> str:
        return f"<Capture systems={len(self.observations)}>"


@contextlib.contextmanager
def capture(config: Optional[ObsConfig] = None) -> Iterator[Capture]:
    """Install an ambient capture for the duration of the block.

    Captures do not nest (one ambient scope per process — nesting
    would silently split event streams); entering a second one raises.
    """
    from ..runtime import system
    scope = Capture(config)
    with _CAPTURE_LOCK:
        if system.AMBIENT_CAPTURE is not None:
            raise RuntimeError("an obs.capture() scope is already active; "
                               "captures do not nest")
        system.AMBIENT_CAPTURE = scope
    try:
        yield scope
    finally:
        with _CAPTURE_LOCK:
            system.AMBIENT_CAPTURE = None
