"""repro.workload — traffic generation and capacity measurement.

The paper measures one coordinated-recovery episode at a time; this
subsystem drives *many overlapping CA-action instances* through one
simulated system, the way a deployed service would see them:

* :mod:`~repro.workload.arrivals` — seeded arrival processes (open-loop
  Poisson, deterministic trace replay, closed-loop clients);
* :mod:`~repro.workload.admission` — admission control (max-in-flight,
  bounded FIFO queue, drop/retry backpressure);
* :mod:`~repro.workload.actions` — parameterised traffic action
  definitions and the weighted action mix;
* :mod:`~repro.workload.registry` — the registered-template registry
  (:data:`ACTIONS`): actions resolved by name with validated field
  overrides, the plugin seam custom specs register through;
* :mod:`~repro.workload.transactional` — the transactional workload:
  instances locking and incrementing shared atomic counters under
  strict 2PL, with abort/deadlock recovery and the no-lost-update /
  locks-released oracles;
* :mod:`~repro.workload.driver` — the :class:`WorkloadDriver`, which
  places each admitted instance on free workers of a shared partition
  pool under an instance-scoped role binding and measures per-instance
  latency into mergeable log-bucket histograms;
* :mod:`~repro.workload.scenarios` — the ``capacity`` (offered-load sweep
  → throughput/latency curve and saturation knee) and ``mixed_traffic``
  (heterogeneous mix + fault noise, checked against the invariant
  oracles) engine scenarios;
* :mod:`~repro.workload.sharding` — the :class:`ShardedPool`, which
  partitions a capacity workload across N independent shards (each its
  own kernel + system + driver, optionally in worker processes) under
  deterministic :class:`ShardPlan` seeds and per-shard admission leases
  from a :class:`GlobalAdmissionController`, and merges the per-shard
  telemetry exactly.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "actions": [
        "ActionMix", "JobProfile", "TrafficActionSpec", "build_traffic_action",
    ],
    "admission": ["AdmissionController", "AdmissionStats"],
    "registry": ["ACTIONS", "STOCK_ACTIONS", "TrafficActionRegistry"],
    "arrivals": [
        "ArrivalProcess", "ClosedLoopClients", "OpenLoopPoisson",
        "TraceReplay",
    ],
    "driver": ["Job", "WorkloadDriver", "WorkloadReport"],
    "sharding": [
        "GlobalAdmissionController", "ShardPlan", "ShardSpec", "ShardedPool",
        "merge_shard_snapshots", "merged_snapshot_digest", "run_scale_point",
        "shard_seed",
    ],
})
