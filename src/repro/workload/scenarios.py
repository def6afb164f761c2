"""Workload scenarios: the capacity curve and the mixed-traffic soak.

Two scenario runners (module-level and picklable, so the engine's
process-pool sweeps can ship them to workers):

* :func:`run_capacity_point` — one offered-load point of a capacity sweep:
  open-loop Poisson traffic through a fixed partition pool, reporting
  throughput, latency percentiles and observed concurrency.  Sweeping the
  load and feeding the rows to :func:`saturation_knee` locates the knee of
  the curve — the highest load the pool still serves at its offered rate.
* :func:`run_mixed_traffic` — a heterogeneous action mix (clean, faulty
  and always-raising definitions of different widths) under seeded
  protocol-message delay noise, with an
  :class:`~repro.runtime.monitor.InvariantMonitor` attached; the row
  reports any oracle violations (agreement, exactly-one-outcome,
  no-stranded-thread, abortion-atomic) observed across the overlapping
  instances.

Both runners are pure functions of their parameters (all stochastic draws
come from the seed), so sequential and parallel sweeps are byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

from ..net.faults import FaultPlan
from ..net.latency import ConstantLatency
from ..runtime.config import RuntimeConfig
from ..runtime.system import DistributedCASystem
from ..simkernel.rng import SeededStreams
from .admission import AdmissionController
from .arrivals import OpenLoopPoisson
from .driver import WorkloadDriver, WorkloadReport
from .registry import ACTIONS

#: Default instance count per sweep point (the acceptance floor is 200).
DEFAULT_INSTANCES = 200


def _build_pool_system(pool_size: int, t_msg: float, t_resolution: float,
                       algorithm: str,
                       faults: Optional[FaultPlan] = None
                       ) -> DistributedCASystem:
    system = DistributedCASystem(
        RuntimeConfig(algorithm=algorithm, resolution_time=t_resolution),
        latency=ConstantLatency(t_msg), faults=faults)
    system.add_threads([f"W{i:02d}" for i in range(1, pool_size + 1)])
    return system


def _row_from_report(report: WorkloadReport) -> Dict[str, Any]:
    row = report.to_row()
    # The full metrics/event log stays out of benchmark rows; keep the
    # mergeable histogram so sweep rows can be aggregated downstream.
    row["latency_histogram"] = report.latency_histogram
    row["latency_by_action"] = report.latency_by_action
    return row


# ----------------------------------------------------------------------
# Capacity: offered-load sweep over one homogeneous action
# ----------------------------------------------------------------------
def run_capacity_point(offered_load: float,
                       n_instances: int = DEFAULT_INSTANCES,
                       pool_size: int = 8, width: int = 2,
                       mean_service: float = 1.0,
                       raise_probability: float = 0.1,
                       seed: int = 2026,
                       t_msg: float = 0.02, t_resolution: float = 0.05,
                       max_in_flight: Optional[int] = None,
                       queue_capacity: int = 32, policy: str = "drop",
                       algorithm: str = "ours") -> Dict[str, Any]:
    """One capacity-curve point: Poisson arrivals at ``offered_load``.

    ``pool_size`` workers serve ``n_instances`` instances of one
    ``width``-role action; a fraction ``raise_probability`` of instances
    raises and recovers, so the curve includes coordinated-recovery cost.
    The nominal service capacity is ``pool_size / width / mean_service``
    instances per time unit; loads beyond it saturate the pool and the
    admission queue, which shows up as rising percentiles and (past the
    queue) drops.
    """
    system = _build_pool_system(pool_size, t_msg, t_resolution, algorithm)
    driver = WorkloadDriver(
        system, seed=seed,
        admission=AdmissionController(max_in_flight=max_in_flight,
                                      queue_capacity=queue_capacity,
                                      policy=policy))
    driver.add_action("Serve", width=width, mean_service=mean_service,
                      raise_probability=raise_probability)
    report = driver.run(OpenLoopPoisson(rate=offered_load, count=n_instances))

    row: Dict[str, Any] = {"offered_load": offered_load,
                           "pool_size": pool_size, "width": width,
                           "capacity_nominal": pool_size / width / mean_service}
    row.update(_row_from_report(report))
    row["protocol_messages"] = system.network.stats.protocol_messages()
    row["resolutions"] = system.metrics.resolutions
    return row


def saturation_knee(rows: Sequence[Mapping[str, Any]],
                    tolerance: float = 0.9) -> Dict[str, Any]:
    """Locate the saturation knee of a capacity sweep.

    A point *keeps up* when its measured throughput is at least
    ``tolerance`` × its offered load (completed instances per time unit;
    drops and queueing both erode it).  The knee is the last keeping-up
    load *before the first saturated one*, so every load beyond the knee
    is saturated even on a noisy, non-monotone curve (a point that
    happens to keep up again beyond the first failure does not move the
    knee outward).

    The ``verdict`` field says how to read the result:

    * ``"knee"`` — the sweep bracketed the capacity: at least one load
      keeps up and at least one later load saturates.
      ``knee_offered_load`` is the measured knee.
    * ``"never_saturated"`` — every load keeps up (including a
      single-row sweep whose one point keeps up).
      ``knee_offered_load`` is the highest load tried: a **lower
      bound** on capacity, not a measured knee; sweep higher loads to
      find it.
    * ``"all_saturated"`` — no load keeps up (including a single-row
      sweep whose one point is saturated).  ``knee_offered_load`` is
      ``None``: capacity lies below the lowest load tried; sweep lower
      loads to find it.
    """
    if not rows:
        raise ValueError("need at least one capacity row")
    ordered = sorted(rows, key=lambda r: r["offered_load"])
    knee = None
    for row in ordered:
        if row["throughput"] < tolerance * row["offered_load"]:
            break
        knee = row
    saturated = [row["offered_load"] for row in ordered
                 if knee is None or row["offered_load"] > knee["offered_load"]]
    if knee is None:
        verdict = "all_saturated"
    elif saturated:
        verdict = "knee"
    else:
        verdict = "never_saturated"
    return {
        "tolerance": tolerance,
        "verdict": verdict,
        "knee_offered_load": None if knee is None else knee["offered_load"],
        "knee_throughput": None if knee is None else knee["throughput"],
        "knee_latency_p99": None if knee is None else knee["latency_p99"],
        "saturated_loads": saturated,
    }


# ----------------------------------------------------------------------
# Mixed traffic: heterogeneous mix + fault noise + invariant oracles
# ----------------------------------------------------------------------
#: The default heterogeneous mix: a fast clean action, a wide faulty one
#: and a narrow always-raising one, so resolution and signalling overlap
#: with clean exits on the shared pool.  The specs themselves are the
#: registered stock templates of :mod:`repro.workload.registry`; the mix
#: order (Ping, Crunch, Flaky) feeds the weighted ``"mix"`` sampling and
#: must stay stable.
DEFAULT_MIX = tuple(ACTIONS.get(name)
                    for name in ("Ping", "Crunch", "Flaky"))


def _noise_plan(seed: int, pool_size: int, n_directives: int,
                max_extra: float) -> FaultPlan:
    """A delivery-preserving fault plan: seeded protocol-message delays.

    Only ``delay_type`` directives are drawn, so Assumptions 1 and 2 hold
    and the oracles may demand full liveness.
    """
    plan = FaultPlan(streams=SeededStreams(seed))
    stream = SeededStreams(seed).stream("noise")
    workers = [f"W{i:02d}" for i in range(1, pool_size + 1)]
    types = ("ExceptionMessage", "SuspendedMessage", "CommitMessage",
             "ToBeSignalledMessage")
    for _ in range(n_directives):
        source = stream.choice(workers)
        destination = stream.choice([w for w in workers if w != source])
        plan.delay_message_type(source, destination, stream.choice(types),
                                round(stream.uniform(0.05, max_extra), 3))
    return plan


def run_mixed_traffic(seed: int = 2026,
                      n_instances: int = DEFAULT_INSTANCES,
                      pool_size: int = 8, offered_load: float = 2.0,
                      noise_directives: int = 6, noise_max_extra: float = 0.4,
                      t_msg: float = 0.02, t_resolution: float = 0.05,
                      max_in_flight: Optional[int] = None,
                      queue_capacity: int = 64, policy: str = "retry",
                      algorithm: str = "ours") -> Dict[str, Any]:
    """One mixed-traffic soak run, checked against the invariant oracles.

    Heterogeneous actions overlap on one pool while seeded
    (delivery-preserving) delay noise perturbs the protocol messages; the
    invariant monitor collects every resolution delivery and conclusion
    and the row carries the oracle verdict — ``violations`` must be empty.
    """
    from ..runtime.monitor import InvariantMonitor

    faults = _noise_plan(seed, pool_size, noise_directives, noise_max_extra)
    system = _build_pool_system(pool_size, t_msg, t_resolution, algorithm,
                                faults=faults)
    monitor = InvariantMonitor(system)
    driver = WorkloadDriver(
        system, seed=seed,
        admission=AdmissionController(max_in_flight=max_in_flight,
                                      queue_capacity=queue_capacity,
                                      policy=policy))
    for spec in DEFAULT_MIX:
        driver.add_action(spec.name)
    report = driver.run(OpenLoopPoisson(rate=offered_load,
                                        count=n_instances))
    violations = monitor.check(
        require_liveness=faults.preserves_delivery())

    row: Dict[str, Any] = {
        "seed": seed,
        "pool_size": pool_size,
        "offered_load": offered_load,
        "noise_directives": [d.to_dict() for d in faults.directives],
        "violations": [str(v) for v in violations],
        "n_violations": len(violations),
    }
    row.update(_row_from_report(report))
    row["protocol_messages"] = system.network.stats.protocol_messages()
    row["resolutions"] = system.metrics.resolutions
    row["faults_delayed"] = faults.stats.delayed
    return row
