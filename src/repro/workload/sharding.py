"""Sharded partition pools: horizontal capacity scaling with merged telemetry.

One :class:`~repro.workload.driver.WorkloadDriver` tops out at a few
hundred instances per wall-clock second because the whole deployment —
kernel, network, pool — lives in a single Python process.  This module
scales the *capacity* workload horizontally instead:

* a :class:`ShardPlan` partitions one logical capacity workload across
  ``n_shards`` independent shards.  Per-shard seeds, arrival rates and
  job slices are derived **purely** from ``(seed, shard_id)``, so the
  plan — and therefore the merged result — is identical no matter how
  the shards are executed;
* each shard is one :func:`run_shard` call: a fresh
  :class:`~repro.simkernel.kernel.Kernel` +
  :class:`~repro.runtime.system.DistributedCASystem` +
  :class:`~repro.workload.driver.WorkloadDriver` serving that shard's
  slice of the traffic.  Shards ship to a
  :class:`~concurrent.futures.ProcessPoolExecutor` when ``workers > 1``
  and fall back to in-process sequential execution (logged, never
  silent) when no pool can be created — the same byte-identical-fallback
  idiom as :func:`repro.bench.engine.run_scenario`;
* a :class:`GlobalAdmissionController` keeps backpressure meaningful at
  scale: a **global** max-in-flight budget is split into per-shard
  leases up front (each shard's admission controller enforces its
  lease), and :meth:`GlobalAdmissionController.rebalance` re-divides the
  budget between sweep points in proportion to each shard's observed
  demand — pure integer arithmetic over merged counters, so rebalancing
  is as deterministic as the shards themselves;
* shard results come back as plain snapshots and merge through the
  already merge-safe telemetry types —
  :meth:`repro.analysis.histograms.LatencyHistogram.merge`,
  :meth:`repro.runtime.metrics.RunMetrics.merge`,
  :meth:`repro.net.network.MessageStatistics.merge` and
  :meth:`repro.workload.admission.AdmissionStats.merge` — into one
  report carrying both per-shard and merged views.

Determinism contract: for a fixed :class:`ShardPlan`, the merged
snapshot (everything except the wall-clock fields) is byte-identical for
``workers`` ∈ {sequential, 2, 4, ...}.  ``tests/workload/test_sharding.py``
pins this, and the ``scale_small`` conformance case pins the plan/merge
semantics across PRs.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.histograms import LatencyHistogram
from ..net.latency import ConstantLatency
from ..net.network import MessageStatistics
from ..runtime.config import RuntimeConfig
from ..runtime.metrics import RunMetrics
from ..runtime.monitor import InvariantMonitor
from ..runtime.system import DistributedCASystem
from ..simkernel.rng import SeededStreams
from .admission import AdmissionController, AdmissionStats
from .arrivals import OpenLoopPoisson
from .actions import TrafficActionSpec
from .driver import WorkloadDriver

logger = logging.getLogger(__name__)

#: Stream-name prefix the per-shard seeds are derived under.
SHARD_SEED_PREFIX = "shard"


# ----------------------------------------------------------------------
# The shard plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard's derived parameters (a pure function of the plan)."""

    shard_id: int
    seed: int
    n_instances: int
    offered_load: float
    #: Per-shard max-in-flight lease granted by the global controller
    #: (``None`` means the global budget is unlimited).
    lease: Optional[int]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "seed": self.seed,
            "n_instances": self.n_instances,
            "offered_load": self.offered_load,
            "lease": self.lease,
        }


def shard_seed(seed: int, shard_id: int) -> int:
    """The derived seed of shard ``shard_id`` under master ``seed``.

    Uses the same stable, ``PYTHONHASHSEED``-independent derivation as
    :class:`~repro.simkernel.rng.SeededStreams`, so the mapping never
    depends on which process computes it.
    """
    return SeededStreams(seed).derived_seed(f"{SHARD_SEED_PREFIX}:{shard_id}")


class ShardPlan:
    """A deterministic partition of one capacity workload into shards.

    ``n_instances`` jobs are sliced as evenly as possible (earlier shards
    get the remainder), the aggregate ``offered_load`` is split in
    proportion to each shard's slice, and each shard gets an independent
    seed derived from ``(seed, shard_id)``.  Everything is pure
    arithmetic over the constructor arguments: two processes building the
    same plan always agree, which is what makes any executor — including
    in-process sequential — produce the identical merged result.
    """

    def __init__(self, seed: int, n_shards: int, n_instances: int,
                 offered_load: float,
                 leases: Optional[Sequence[Optional[int]]] = None) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if n_instances < 1:
            raise ValueError("need at least one instance")
        if offered_load <= 0:
            raise ValueError("offered_load must be positive")
        if leases is not None and len(leases) != n_shards:
            raise ValueError(f"need one lease per shard "
                             f"({len(leases)} != {n_shards})")
        self.seed = int(seed)
        self.n_shards = int(n_shards)
        self.n_instances = int(n_instances)
        self.offered_load = float(offered_load)

        base, remainder = divmod(self.n_instances, self.n_shards)
        specs: List[ShardSpec] = []
        for shard_id in range(self.n_shards):
            instances = base + (1 if shard_id < remainder else 0)
            specs.append(ShardSpec(
                shard_id=shard_id,
                seed=shard_seed(self.seed, shard_id),
                n_instances=instances,
                # Load splits in proportion to the slice, so every shard
                # runs for roughly the same virtual duration and the
                # aggregate offered rate is preserved.
                offered_load=self.offered_load * instances
                / self.n_instances,
                lease=None if leases is None else leases[shard_id],
            ))
        self.shards: Tuple[ShardSpec, ...] = tuple(specs)

    def describe(self) -> Dict[str, Any]:
        """The plan's defining parameters (for reports and fixtures)."""
        return {
            "seed": self.seed,
            "n_shards": self.n_shards,
            "n_instances": self.n_instances,
            "offered_load": self.offered_load,
            "leases": [spec.lease for spec in self.shards],
        }

    def __repr__(self) -> str:
        return (f"<ShardPlan seed={self.seed} shards={self.n_shards} "
                f"instances={self.n_instances} load={self.offered_load:g}>")


# ----------------------------------------------------------------------
# Global admission: one budget, per-shard leases
# ----------------------------------------------------------------------
class GlobalAdmissionController:
    """A cluster-wide max-in-flight budget granted to shards as leases.

    Shards run in independent processes with independent virtual clocks,
    so a live cross-shard token bus would make the result depend on the
    executor.  Instead the global budget is divided **up front**: shard
    ``i`` runs its local :class:`~repro.workload.admission.
    AdmissionController` with ``max_in_flight = lease_i`` and the leases
    always sum to the budget, so at no point can the deployment exceed
    it.  Between sweep points :meth:`rebalance` re-divides the budget in
    proportion to the demand each shard reported (peak in-flight plus
    peak queue length) — pure largest-remainder arithmetic, so a sweep
    rebalances identically no matter how its shards were executed.

    ``max_in_flight=None`` models an unlimited budget: every lease is
    ``None`` and rebalancing is a no-op.
    """

    def __init__(self, max_in_flight: Optional[int], n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if max_in_flight is not None and max_in_flight < n_shards:
            raise ValueError(
                f"global max_in_flight ({max_in_flight}) must grant every "
                f"shard at least one slot ({n_shards} shards)")
        self.max_in_flight = max_in_flight
        self.n_shards = int(n_shards)
        self.leases: Tuple[Optional[int], ...] = self._split(
            [1] * self.n_shards)

    def _split(self, weights: Sequence[int]) -> Tuple[Optional[int], ...]:
        """Divide the budget proportionally to ``weights`` (min 1 each)."""
        if self.max_in_flight is None:
            return tuple([None] * self.n_shards)
        budget = self.max_in_flight
        # Every shard keeps at least one slot so no shard is starved into
        # dropping its whole slice; the rest goes out by largest
        # remainder over the weights (ties to the lowest shard id).
        floor = [1] * self.n_shards
        spare = budget - self.n_shards
        total = sum(weights) or self.n_shards
        weights = list(weights) if sum(weights) else [1] * self.n_shards
        shares = [spare * weight / total for weight in weights]
        grants = [int(share) for share in shares]
        leftover = spare - sum(grants)
        order = sorted(range(self.n_shards),
                       key=lambda i: (-(shares[i] - grants[i]), i))
        for i in order[:leftover]:
            grants[i] += 1
        return tuple(floor[i] + grants[i] for i in range(self.n_shards))

    def rebalance(self, demands: Sequence[int]) -> Tuple[Optional[int], ...]:
        """Re-divide the budget in proportion to observed shard demand.

        ``demands`` is one non-negative integer per shard — the sharded
        pool feeds it ``peak in-flight + peak queue length`` from each
        shard's admission counters.  Returns (and records) the new
        leases; the sum always equals the budget and every shard keeps
        at least one slot.
        """
        if len(demands) != self.n_shards:
            raise ValueError(f"need one demand per shard "
                             f"({len(demands)} != {self.n_shards})")
        if any(demand < 0 for demand in demands):
            raise ValueError("demands must be non-negative")
        self.leases = self._split([int(demand) for demand in demands])
        return self.leases

    def __repr__(self) -> str:
        return (f"<GlobalAdmissionController budget={self.max_in_flight} "
                f"leases={list(self.leases)}>")


# ----------------------------------------------------------------------
# One shard = one kernel + system + driver (worker-side, picklable)
# ----------------------------------------------------------------------
def run_shard(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Run one shard of a sharded capacity workload and snapshot it.

    ``spec`` is a plain dict (picklable both ways) built by
    :meth:`ShardedPool._shard_params`.  The returned snapshot carries
    only JSON-friendly mergeable telemetry: histogram/metrics/message
    snapshots plus scalar counters — never live objects — so shards
    merge identically whether they ran in this process or a worker.
    """
    system = DistributedCASystem(
        RuntimeConfig(algorithm=spec["algorithm"],
                      resolution_time=spec["t_resolution"]),
        latency=ConstantLatency(spec["t_msg"]))
    system.add_threads([f"S{spec['shard_id']:03d}W{i:03d}"
                        for i in range(1, spec["pool_size"] + 1)])
    monitor = InvariantMonitor(system)
    driver = WorkloadDriver(
        system, seed=spec["seed"],
        admission=AdmissionController(max_in_flight=spec["lease"],
                                      queue_capacity=spec["queue_capacity"],
                                      policy=spec["policy"]))
    driver.add_action(TrafficActionSpec(
        "Serve", width=spec["width"], mean_service=spec["mean_service"],
        raise_probability=spec["raise_probability"]))
    driver.run(OpenLoopPoisson(rate=spec["offered_load"],
                               count=spec["n_instances"]))

    violations = [str(v) for v in monitor.check(require_liveness=True)]
    snapshot = driver.telemetry_snapshot()
    snapshot.update({
        "shard_id": spec["shard_id"],
        "seed": spec["seed"],
        "offered_load": spec["offered_load"],
        "lease": spec["lease"],
        "protocol_messages": system.network.stats.protocol_messages(),
        "resolutions": system.metrics.resolutions,
        "message_stats": system.network.stats.snapshot(),
        "metrics": system.metrics.snapshot(),
        "violations": violations,
        "n_violations": len(violations),
    })
    return snapshot


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------
def merge_shard_snapshots(shards: Sequence[Mapping[str, Any]]
                          ) -> Dict[str, Any]:
    """Merge per-shard snapshots into one deployment-wide view.

    Histograms, run metrics, message statistics and admission counters
    merge through their own merge-safe types; scalars sum.  Shards run
    on independent virtual clocks, so the merged ``total_time`` is the
    slowest shard's clock, the merged virtual ``throughput`` is total
    completions over that horizon, ``mean_concurrency`` sums (aggregate
    concurrent work across the deployment) and ``max_concurrency`` sums
    the per-shard peaks (an upper bound on the aggregate peak, exact
    when shards peak together).
    """
    if not shards:
        raise ValueError("need at least one shard snapshot")
    latency = LatencyHistogram.from_snapshot(shards[0]["latency_histogram"])
    wait = LatencyHistogram.from_snapshot(shards[0]["wait_histogram"])
    metrics = RunMetrics()
    metrics.merge(shards[0]["metrics"])
    messages = MessageStatistics()
    messages.merge(shards[0]["message_stats"])
    admission = AdmissionStats()
    admission.merge(shards[0]["admission"])
    for shard in shards[1:]:
        latency.merge(shard["latency_histogram"])
        wait.merge(shard["wait_histogram"])
        metrics.merge(shard["metrics"])
        messages.merge(shard["message_stats"])
        admission.merge(shard["admission"])

    outcome_counts: Dict[str, int] = {}
    for shard in shards:
        for status, count in shard["outcome_counts"].items():
            outcome_counts[status] = outcome_counts.get(status, 0) + count

    total_time = max(shard["total_time"] for shard in shards)
    completed = sum(shard["completed"] for shard in shards)
    violations: List[str] = []
    for shard in shards:
        violations.extend(shard["violations"])
    return {
        "n_shards": len(shards),
        "jobs": sum(shard["jobs"] for shard in shards),
        "completed": completed,
        "dropped": sum(shard["dropped"] for shard in shards),
        "total_time": total_time,
        "throughput": completed / total_time if total_time > 0 else 0.0,
        "max_concurrency": sum(shard["max_concurrency"]
                               for shard in shards),
        "mean_concurrency": sum(shard["mean_concurrency"]
                                for shard in shards),
        "latency": latency.summary(),
        "wait": wait.summary(),
        "latency_histogram": latency.snapshot(),
        "admission": admission.snapshot(),
        "outcome_counts": dict(sorted(outcome_counts.items())),
        "protocol_messages": messages.protocol_messages(),
        "messages": {
            "sent": messages.sent,
            "delivered": messages.delivered,
            "dropped": messages.dropped,
        },
        "metrics": metrics.counters(),
        "violations": violations,
        "n_violations": len(violations),
    }


# ----------------------------------------------------------------------
# The sharded pool
# ----------------------------------------------------------------------
class ShardedPool:
    """Executes a :class:`ShardPlan` and merges the shard telemetry.

    Per-shard workload shape (pool size, action width, service time,
    fault rate, admission queue) is fixed at construction; the plan
    supplies the traffic split.  ``workers`` picks the executor:

    * ``0`` / ``1`` — in-process sequential (the reference execution);
    * ``N > 1`` — a :class:`~concurrent.futures.ProcessPoolExecutor`
      with ``N`` workers.  A pool that cannot be created or breaks at
      spawn falls back to sequential — logged, and recorded in the
      result's ``executor`` field, never silent — and the merged
      snapshot is byte-identical either way.

    A shard's memory does not grow with the instances it serves: its
    :class:`~repro.workload.driver.WorkloadDriver` keeps state only for
    the instances in flight and has the shard's
    :class:`~repro.runtime.metrics.RunMetrics` count outcomes instead of
    listing them, so the per-shard ``metrics`` snapshot carries counters
    and an empty ``action_outcomes`` list.
    """

    def __init__(self, pool_size: int = 8, width: int = 2,
                 mean_service: float = 1.0, raise_probability: float = 0.1,
                 t_msg: float = 0.02, t_resolution: float = 0.05,
                 queue_capacity: int = 32, policy: str = "drop",
                 algorithm: str = "ours", workers: int = 0) -> None:
        if pool_size < width:
            raise ValueError(f"each shard pool needs at least width={width} "
                             f"workers; got {pool_size}")
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self.pool_size = int(pool_size)
        self.width = int(width)
        self.mean_service = float(mean_service)
        self.raise_probability = float(raise_probability)
        self.t_msg = float(t_msg)
        self.t_resolution = float(t_resolution)
        self.queue_capacity = int(queue_capacity)
        self.policy = policy
        self.algorithm = algorithm
        self.workers = int(workers)

    # ------------------------------------------------------------------
    def _shard_params(self, spec: ShardSpec) -> Dict[str, Any]:
        return {
            "shard_id": spec.shard_id,
            "seed": spec.seed,
            "n_instances": spec.n_instances,
            "offered_load": spec.offered_load,
            "lease": spec.lease,
            "pool_size": self.pool_size,
            "width": self.width,
            "mean_service": self.mean_service,
            "raise_probability": self.raise_probability,
            "t_msg": self.t_msg,
            "t_resolution": self.t_resolution,
            "queue_capacity": self.queue_capacity,
            "policy": self.policy,
            "algorithm": self.algorithm,
        }

    def run(self, plan: ShardPlan) -> Dict[str, Any]:
        """Execute every (non-empty) shard of ``plan`` and merge.

        Returns ``{"plan", "per_shard", "merged", "executor", "workers",
        "wall_seconds", ...}``; everything except the wall-clock fields
        is a pure function of the plan.
        """
        specs = [spec for spec in plan.shards if spec.n_instances > 0]
        params = [self._shard_params(spec) for spec in specs]
        started = time.perf_counter()
        snapshots, executor = self._execute(params)
        wall_seconds = time.perf_counter() - started
        merged = merge_shard_snapshots(snapshots)
        completed = merged["completed"]
        return {
            "plan": plan.describe(),
            "per_shard": snapshots,
            "merged": merged,
            "executor": executor,
            "workers": self.workers,
            "wall_seconds": wall_seconds,
            "instances_per_second": (completed / wall_seconds
                                     if wall_seconds > 0 else 0.0),
            "submitted_per_second": (merged["jobs"] / wall_seconds
                                     if wall_seconds > 0 else 0.0),
        }

    def _execute(self, params: List[Dict[str, Any]]
                 ) -> Tuple[List[Dict[str, Any]], str]:
        """Run every shard, preferring the process pool; returns
        ``(snapshots in shard order, executor name)``."""
        if self.workers > 1 and len(params) > 1:
            snapshots = self._run_pool(params)
            if snapshots is not None:
                return snapshots, "process-pool"
        return [run_shard(p) for p in params], "sequential"

    def _run_pool(self, params: List[Dict[str, Any]]
                  ) -> Optional[List[Dict[str, Any]]]:
        """Shard fan-out on a process pool; ``None`` means "fall back"."""
        from concurrent.futures.process import (BrokenProcessPool,
                                                ProcessPoolExecutor)

        workers = min(self.workers, len(params))
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except OSError as error:
            logger.warning(
                "sharded pool: cannot create a %d-worker process pool (%s); "
                "falling back to sequential in-process shards", workers,
                error)
            return None
        try:
            with pool:
                futures = [pool.submit(run_shard, p) for p in params]
                # A shard's own exception propagates; only a broken pool
                # (workers killed at spawn) triggers the fallback.
                return [future.result() for future in futures]
        except BrokenProcessPool as error:
            logger.warning(
                "sharded pool: process pool broke (%s); falling back to "
                "sequential in-process shards", error)
            return None

    # ------------------------------------------------------------------
    def sweep(self, loads: Sequence[float], seed: int, n_instances: int,
              n_shards: int, global_max_in_flight: Optional[int] = None,
              rebalance: bool = True) -> Dict[str, Any]:
        """Sweep ``loads`` with one global admission budget.

        Runs one sharded capacity point per offered load, carrying the
        :class:`GlobalAdmissionController` across points: after each
        point the leases are rebalanced from the shards' observed demand
        (peak in-flight + peak queue length), so a shard that queued
        deeply gets a bigger slice of the budget at the next point.
        Returns the merged rows plus per-shard and merged saturation
        knees.
        """
        from .scenarios import saturation_knee

        controller = GlobalAdmissionController(global_max_in_flight,
                                               n_shards)
        rows: List[Dict[str, Any]] = []
        shard_curves: List[List[Dict[str, Any]]] = [
            [] for _ in range(n_shards)]
        lease_history: List[List[Optional[int]]] = []
        for load in loads:
            plan = ShardPlan(seed=seed, n_shards=n_shards,
                             n_instances=n_instances, offered_load=load,
                             leases=controller.leases)
            lease_history.append(list(controller.leases))
            result = self.run(plan)
            row = scale_row(result)
            rows.append(row)
            for spec, shard in zip(plan.shards, result["per_shard"]):
                shard_curves[spec.shard_id].append({
                    "offered_load": shard["offered_load"],
                    "throughput": shard["throughput"],
                    "latency_p99": shard["latency"]["p99"],
                })
            if rebalance and global_max_in_flight is not None:
                demands = [shard["admission"]["max_in_flight"]
                           + shard["admission"]["max_queue_length"]
                           for shard in result["per_shard"]]
                controller.rebalance(demands)
        merged_curve = [{"offered_load": row["offered_load"],
                         "throughput": row["throughput"],
                         "latency_p99": row["latency_p99"]}
                        for row in rows]
        return {
            "rows": rows,
            "lease_history": lease_history,
            "merged_knee": saturation_knee(merged_curve),
            "per_shard_knees": [saturation_knee(curve)
                                for curve in shard_curves],
        }

    def __repr__(self) -> str:
        return (f"<ShardedPool pool={self.pool_size} width={self.width} "
                f"workers={self.workers}>")


# ----------------------------------------------------------------------
# Engine-facing scenario runner
# ----------------------------------------------------------------------
def scale_row(result: Mapping[str, Any],
              per_shard_detail: bool = False) -> Dict[str, Any]:
    """Flatten a :meth:`ShardedPool.run` result into one benchmark row.

    Deterministic fields come first; the wall-clock fields
    (``wall_seconds``, ``instances_per_second``,
    ``submitted_per_second``) and the executor identity (``executor``,
    ``workers``) are volatile and stripped from conformance digests, so
    the same plan digests identically under any worker count.
    """
    merged = result["merged"]
    plan = result["plan"]
    row: Dict[str, Any] = {
        "seed": plan["seed"],
        "n_shards": plan["n_shards"],
        "n_instances": plan["n_instances"],
        "offered_load": plan["offered_load"],
        "leases": plan["leases"],
        "jobs": merged["jobs"],
        "completed": merged["completed"],
        "dropped": merged["dropped"],
        "total_time": merged["total_time"],
        "throughput": merged["throughput"],
        "max_concurrency": merged["max_concurrency"],
        "mean_concurrency": merged["mean_concurrency"],
        "latency_p50": merged["latency"]["p50"],
        "latency_p99": merged["latency"]["p99"],
        "wait_p99": merged["wait"]["p99"],
        "latency_histogram": merged["latency_histogram"],
        "admission": merged["admission"],
        "outcome_counts": merged["outcome_counts"],
        "protocol_messages": merged["protocol_messages"],
        "resolutions": merged["metrics"]["resolutions"],
        "oracle": ("ok" if merged["n_violations"] == 0
                   else "violations"),
        "n_violations": merged["n_violations"],
        "per_shard": [_compact_shard(shard)
                      for shard in result["per_shard"]],
        # Volatile (top-level so the conformance canonicaliser can strip
        # them): wall-clock rates and the executor identity.
        "executor": result["executor"],
        "workers": result["workers"],
        "wall_seconds": result["wall_seconds"],
        "instances_per_second": result["instances_per_second"],
        "submitted_per_second": result["submitted_per_second"],
    }
    if per_shard_detail:
        row["per_shard_detail"] = list(result["per_shard"])
    return row


def _compact_shard(shard: Mapping[str, Any]) -> Dict[str, Any]:
    """The per-shard summary embedded in a scale row (deterministic)."""
    return {
        "shard_id": shard["shard_id"],
        "seed": shard["seed"],
        "offered_load": shard["offered_load"],
        "lease": shard["lease"],
        "jobs": shard["jobs"],
        "completed": shard["completed"],
        "dropped": shard["dropped"],
        "total_time": shard["total_time"],
        "throughput": shard["throughput"],
        "latency_p50": shard["latency"]["p50"],
        "latency_p99": shard["latency"]["p99"],
        "admission": dict(shard["admission"]),
        "n_violations": shard["n_violations"],
    }


def run_scale_point(n_instances: int, n_shards: int, offered_load: float,
                    pool_size: int = 8, width: int = 2,
                    mean_service: float = 1.0,
                    raise_probability: float = 0.1,
                    seed: int = 2026, t_msg: float = 0.02,
                    t_resolution: float = 0.05,
                    global_max_in_flight: Optional[int] = None,
                    queue_capacity: int = 32, policy: str = "drop",
                    algorithm: str = "ours",
                    workers: int = 0) -> Dict[str, Any]:
    """One sharded capacity point (the engine's ``scale`` scenario).

    ``pool_size`` is **per shard**, so aggregate service capacity scales
    with ``n_shards``; ``offered_load`` and ``n_instances`` are
    deployment totals that the :class:`ShardPlan` splits.  With
    ``global_max_in_flight`` set, the budget is divided into per-shard
    leases by a :class:`GlobalAdmissionController` — a budget below the
    aggregate capacity shows up as queueing/drops in the merged
    admission counters.  Everything except the wall-clock fields is a
    pure function of the keyword arguments (``workers`` only picks the
    executor), which is what the ``scale_small`` conformance case pins.
    """
    controller = GlobalAdmissionController(global_max_in_flight, n_shards)
    plan = ShardPlan(seed=seed, n_shards=n_shards, n_instances=n_instances,
                     offered_load=offered_load, leases=controller.leases)
    pool = ShardedPool(pool_size=pool_size, width=width,
                       mean_service=mean_service,
                       raise_probability=raise_probability, t_msg=t_msg,
                       t_resolution=t_resolution,
                       queue_capacity=queue_capacity, policy=policy,
                       algorithm=algorithm, workers=workers)
    row = scale_row(pool.run(plan))
    row["pool_size"] = pool_size
    row["global_max_in_flight"] = global_max_in_flight
    row["capacity_nominal"] = n_shards * pool_size / width / mean_service
    return row


#: Row keys excluded from canonical documents and digests: wall-clock
#: measurements and executor identity are the only scenario outputs that
#: legitimately differ between runs (``scale`` rows carry wall-clock rates
#: plus the worker count/executor that produced them; the merged
#: virtual-time content is identical for any executor and stays in the
#: digest).  The conformance canonicaliser strips the same keys.
VOLATILE_KEYS = frozenset({
    "wall_seconds",
    "instances_per_second",
    "submitted_per_second",
    "executor",
    "workers",
})


def merged_snapshot_digest(row: Mapping[str, Any]) -> str:
    """A stable hash over a scale row's deterministic content.

    Strips :data:`VOLATILE_KEYS`, so sequential and process-pool
    executions of one plan hash identically — the check
    ``tests/workload/test_sharding.py`` runs for workers
    ∈ {sequential, 2, 4}.
    """
    import hashlib

    deterministic = {key: value for key, value in row.items()
                     if key not in VOLATILE_KEYS}
    canonical = json.dumps(deterministic, sort_keys=True,
                           separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
