"""The production cell under open-loop traffic, with oracle verdicts.

The case study of Section 4 has so far only run closed-loop (each cycle
starts when the previous one ends) with hand-picked fault schedules.
:func:`run_production_cell_point` turns it into a registered workload
scenario: blanks arrive from a seeded Poisson process
(:meth:`~repro.productioncell.cell.ProductionCell.run` with
``arrival_times``), device faults are drawn per cycle from the canonical
:data:`~repro.productioncell.failures.FAULT_NAMES`, and an
:class:`~repro.runtime.monitor.InvariantMonitor` watches the whole run —
so every row carries the full oracle verdict (agreement, exactly-one
outcome, no stranded thread, abortion atomic, plus the transactional
locks-released check over the cell-state object) next to the plant
statistics.

Everything is pure in the point's parameters: the fault schedule and the
arrival times both come from named sub-streams of the seed, so rows are
byte-identical across runs and execution modes and can be gated by
conformance fixtures like any other scenario.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..runtime.monitor import InvariantMonitor
from ..simkernel.rng import SeededStreams
from .cell import ProductionCell
from .failures import FAULT_NAMES, FailureInjector


def draw_fault_schedule(seed: int, n_cycles: int,
                        fault_probability: float) -> List[Dict[str, Any]]:
    """Draw the per-cycle fault plan — pure in ``(seed, n_cycles, p)``.

    Each cycle independently suffers one fault (uniformly drawn from the
    canonical fault names) with probability ``fault_probability``.
    """
    stream = SeededStreams(seed).stream("cell_faults")
    planned: List[Dict[str, Any]] = []
    for cycle in range(1, n_cycles + 1):
        if stream.random() < fault_probability:
            planned.append({"cycle": cycle,
                            "fault": stream.choice(list(FAULT_NAMES))})
    return planned


def draw_arrival_times(seed: int, n_cycles: int, rate: float) -> List[float]:
    """Poisson blank-arrival times — pure in ``(seed, n_cycles, rate)``."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    stream = SeededStreams(seed).stream("cell_arrivals")
    times: List[float] = []
    now = 0.0
    for _ in range(n_cycles):
        now += stream.expovariate(rate)
        times.append(now)
    return times


def run_production_cell_point(seed: int, n_cycles: int = 6,
                              rate: float = 0.5,
                              fault_probability: float = 0.5,
                              message_latency: float = 0.01,
                              resolution_time: float = 0.05,
                              abort_time: float = 0.05,
                              algorithm: str = "ours") -> Dict[str, Any]:
    """One open-loop production-cell run, checked by the oracles.

    Builds a fresh cell, schedules the seeded fault plan, feeds blanks
    at Poisson ``rate`` and reports the plant statistics together with
    the oracle verdict (``violations`` must stay empty).
    """
    planned = draw_fault_schedule(seed, n_cycles, fault_probability)
    injector = FailureInjector()
    for entry in planned:
        injector.schedule(entry["cycle"], entry["fault"])
    arrivals = draw_arrival_times(seed, n_cycles, rate)

    cell = ProductionCell(injector=injector,
                          message_latency=message_latency,
                          algorithm=algorithm,
                          resolution_time=resolution_time,
                          abort_time=abort_time)
    monitor = InvariantMonitor(cell.system)
    stats = cell.run(n_cycles, arrival_times=arrivals)
    violations = monitor.check(require_liveness=True)

    return {
        "seed": seed,
        "n_cycles": n_cycles,
        "rate": rate,
        "fault_probability": fault_probability,
        "planned_faults": planned,
        "faults_fired": len(cell.injector.fired),
        "cycles_succeeded": stats.cycles_succeeded,
        "cycles_recovered": stats.cycles_recovered,
        "cycles_skipped": stats.cycles_skipped,
        "cycles_failed": stats.cycles_failed,
        "blanks_forged": stats.blanks_forged,
        "exceptions_raised": stats.exceptions_raised,
        "resolutions": stats.resolutions,
        "abortions": stats.abortions,
        "signalled": dict(sorted(stats.signalled.items())),
        "handled": len(stats.handled_log),
        "total_time": stats.total_time,
        "protocol_messages":
            cell.system.network.stats.protocol_messages(),
        "violations": [str(v) for v in violations],
        "n_violations": len(violations),
    }
