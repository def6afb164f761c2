"""Timing, accounting and noise-guard helpers (no ``repro`` imports)."""

from __future__ import annotations

import gc
import itertools
import os
import platform
import resource
import statistics
import time
from typing import Any, Callable, Dict, List, Sequence

#: The canary: the median of five spin loops of about 30 ms each.
CANARY_LOOPS = 5
CANARY_ITERATIONS = 800_000


def quartiles(values: Sequence[float]) -> Dict[str, Any]:
    """Median, first and third quartile, and sample count of ``values``.

    Uses ``statistics.quantiles(n=4)`` (the driver's own definition of the
    spread); with fewer than two samples the quartiles collapse onto the
    single value.
    """
    if not values:
        raise ValueError("need at least one sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def summary(values: Sequence[float], unit: str) -> Dict[str, Any]:
    """A result-document metric entry: quartiles plus unit and samples."""
    return {**quartiles(values), "unit": unit, "samples": list(values)}


def canary() -> float:
    """Seconds a fixed pure-Python spin loop takes right now.

    Timed before and after each workload; the ratio (``canary_drift``)
    says how much the host itself sped up or slowed down meanwhile.  The
    loop stays on cached small integers and allocates nothing, so the
    state the workload leaves the allocator in does not move it.
    """
    samples = []
    for _ in range(CANARY_LOOPS):
        start = time.perf_counter()
        value = 1
        for _ in itertools.repeat(None, CANARY_ITERATIONS):
            value = (value * 3 + 1) & 255
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child.

    ``ru_maxrss`` is kilobytes on Linux.  Read before the harness spawns
    its own set-up probes, so the only children are the workload's.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def timed_repetitions(run: Callable[[], Any], seconds: float,
                      min_repetitions: int) -> List[Dict[str, Any]]:
    """Repeat ``run`` until ``seconds`` have been measured.

    ``gc.collect()`` runs before each repetition and the collector stays
    enabled during it, as it is for users.  Every repetition runs to its
    end, so the window is overrun by at most one repetition.
    """
    samples: List[Dict[str, Any]] = []
    measured = 0.0
    while measured < seconds or len(samples) < min_repetitions:
        gc.collect()
        collections = gc_collections()
        cpu = cpu_seconds()
        start = time.perf_counter()
        result = run()
        wall = time.perf_counter() - start
        samples.append({"wall": wall, "cpu": cpu_seconds() - cpu,
                        "gc_collections": gc_collections() - collections,
                        "result": result})
        measured += wall
    return samples


def environment() -> Dict[str, Any]:
    """Host facts recorded beside every result (the noise guard's context)."""
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(),
            "platform": platform.platform()}
