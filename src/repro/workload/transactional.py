"""Transactional traffic: CA-action instances over shared atomic objects.

The paper's CA actions access *external atomic objects* under a
transaction that commits on success and rolls back on abort (Figure 1);
until now the workload layer never exercised that machinery under
concurrency.  This module drives the stock ``Transfer`` template, a
:class:`~repro.workload.actions.TransactionalActionSpec` — the first
spec plugged through the registry's custom
:meth:`~repro.workload.actions.TrafficActionSpec.build` seam — whose
role bodies drive :mod:`repro.objects` for real:

* every instance draws ``width`` *distinct* accounts from a shared set
  of ``n_accounts`` atomic counters; each role exclusively locks its
  account (strict 2PL through the instance's transaction), reads the
  counter, works, and writes back ``value + 1``;
* a ``raise_probability`` fraction of instances raises the action's
  fault mid-flight; the resolving handler then either completes
  (``HandlerResult.success`` → the transaction commits the increments
  made so far) or — with ``abort_probability``, or always after a
  deadlock — aborts (``HandlerResult.abort`` → the transaction rolls
  every write back and the action signals µ);
* conflicting lock orders across overlapping instances can close a
  wait-for cycle; the lock manager refuses the closing request with
  :class:`~repro.objects.locks.DeadlockError`, which the role converts
  into the dedicated deadlock fault so coordinated recovery (not a
  crash) unwinds the victim.

The oracle contract: each *committed* transaction that wrote an account
incremented it by exactly one, so at quiescence every tracked counter
must equal its initial value plus the number of committed writers
(:func:`~repro.core.oracles.check_no_lost_updates`), and no finished
transaction may still hold or await a lock
(:func:`~repro.core.oracles.check_locks_released`).
:func:`run_transactional_point` wires both into the
:class:`~repro.runtime.monitor.InvariantMonitor` and reports the
verdict per row.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..runtime.monitor import InvariantMonitor
from .admission import AdmissionController
from .arrivals import OpenLoopPoisson
# The spec, its profile and the account naming live with the stock
# actions (so ``Transfer`` is registered whatever is imported first);
# they are re-exported here beside the workload that drives them.
from .actions import (TransactionalActionSpec, TransactionalProfile,
                      account_name)
from .driver import WorkloadDriver
from .registry import TRANSFER
from .scenarios import DEFAULT_INSTANCES, _build_pool_system, _row_from_report


def run_transactional_point(offered_load: float,
                            n_instances: int = DEFAULT_INSTANCES,
                            pool_size: int = 8, width: int = 2,
                            n_accounts: int = 8,
                            mean_service: float = 1.0,
                            raise_probability: float = 0.3,
                            abort_probability: float = 0.5,
                            seed: int = 2026,
                            t_msg: float = 0.02, t_resolution: float = 0.05,
                            max_in_flight: Optional[int] = None,
                            queue_capacity: int = 32, policy: str = "drop",
                            algorithm: str = "ours") -> Dict[str, Any]:
    """One transactional-workload point, checked by the full oracle set.

    Poisson arrivals at ``offered_load`` drive ``n_instances`` instances
    of the registered ``Transfer`` template (resolved by name with the
    point's overrides) over a ``pool_size`` pool and ``n_accounts``
    shared atomic counters.  The row carries throughput/latency like the
    capacity sweep plus the transactional outcome: per-status transaction
    counts, committed increments vs. the account totals, observed
    deadlock recoveries and the oracle verdict (``violations`` must be
    empty — including the no-lost-update and locks-released predicates).
    """
    system = _build_pool_system(pool_size, t_msg, t_resolution, algorithm)
    for index in range(n_accounts):
        system.create_object(account_name(index), {"value": 0})
    monitor = InvariantMonitor(system)
    for index in range(n_accounts):
        monitor.track_counter(account_name(index))
    driver = WorkloadDriver(
        system, seed=seed,
        admission=AdmissionController(max_in_flight=max_in_flight,
                                      queue_capacity=queue_capacity,
                                      policy=policy))
    spec = driver.add_action("Transfer", width=width,
                             mean_service=mean_service,
                             raise_probability=raise_probability,
                             abort_probability=abort_probability,
                             n_accounts=n_accounts)
    report = driver.run(OpenLoopPoisson(rate=offered_load,
                                        count=n_instances))
    violations = monitor.check(require_liveness=True)

    manager = system.transactions
    statuses: Dict[str, int] = {}
    for transaction in manager.finished:
        statuses[transaction.status.value] = \
            statuses.get(transaction.status.value, 0) + 1
    deadlock_name = spec.deadlock.name
    deadlocks = sum(
        1 for seen in monitor.resolutions.values()
        if any(name == deadlock_name for _, name in seen))

    row: Dict[str, Any] = {
        "offered_load": offered_load,
        "pool_size": pool_size,
        "width": width,
        "n_accounts": n_accounts,
        "account_total": sum(
            manager.object(account_name(i)).committed_value("value")
            for i in range(n_accounts)),
        "committed_increments": sum(
            record["committed_writers"]
            for record in monitor.counter_records()),
        "transactions": dict(sorted(statuses.items())),
        "active_transactions": len(manager.active),
        "deadlock_recoveries": deadlocks,
        "violations": [str(v) for v in violations],
        "n_violations": len(violations),
    }
    row.update(_row_from_report(report))
    row["protocol_messages"] = system.network.stats.protocol_messages()
    row["resolutions"] = system.metrics.resolutions
    return row
