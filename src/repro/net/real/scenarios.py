"""Running a registered scenario on either execution backend.

There is one scenario model: :data:`repro.bench.engine.REGISTRY`.  A
real-capable :class:`~repro.bench.engine.Scenario` names its OS-process
``nodes`` and carries a node builder, and the *same* builder runs
all-local on the sim kernel (``local=None``, :func:`run_sim`) or as one
child process per node (``local=<node name>`` plus a wire forwarder,
:func:`run_real`).  Names are resolved and parameters validated and
defaulted through the registry on both paths, exactly as for a sim
sweep.  The parity contract — identical oracle verdicts and outcome
counts across backends — is what the ``realbackend``-marked tests
assert; real runs are wall-clock timed, so they are gated by oracles,
not digests.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ...bench.scenarios import BuiltNode


# ----------------------------------------------------------------------
# Node-record collection (shared by the sim runner and the child host)
# ----------------------------------------------------------------------
def collect_record(built: BuiltNode,
                   local: Optional[str] = None) -> Dict[str, Any]:
    """One node's contribution to the merged oracle evaluation.

    Everything in the record is plain picklable data; ``local`` filters
    the quiescence snapshots to the node's own partition (the stub
    partitions of a child process never run and would read as stranded).
    """
    system = built.system
    monitor = built.monitor
    quiescence = monitor.quiescence()
    if local is not None:
        quiescence = [snap for snap in quiescence if snap.thread == local]
    locks = system.transactions.locks
    events = system.observation.events or []
    return {
        "resolutions": {key: list(value)
                        for key, value in monitor.resolutions.items()},
        "outcomes": dict(monitor.outcomes),
        "resolved_map": dict(monitor.resolved_map),
        "quiescence": quiescence,
        "counters": monitor.counter_records(),
        "locks_held": locks.all_holders() if locks is not None else {},
        "locks_waiting": locks.all_waiters() if locks is not None else {},
        "finished_txns": [t.transaction_id
                          for t in system.transactions.finished],
        "stats": system.network.stats.snapshot(),
        "obs_events": list(events),
    }


def run_sim(name: str, **overrides: Any):
    """Run a real-capable scenario all-local on the deterministic sim kernel.

    Returns the same :class:`~repro.net.real.backend.RealRunResult`
    shape as :func:`run_real`, which is what the parity tests compare.
    """
    from ...bench.engine import REGISTRY
    from .backend import assemble_result

    built = REGISTRY.get(name).build_node(overrides)
    built.system.kernel.run()
    record = collect_record(built)
    return assemble_result(name, "sim", {"sim": record}, crashed=[],
                           wall_time=0.0)


def run_real(name: str, **overrides: Any):
    """Run a real-capable scenario across OS processes (convenience)."""
    from .backend import RealBackend

    pacing = {key: overrides.pop(key) for key in
              ("time_scale", "wall_timeout", "settle", "stall")
              if key in overrides}
    return RealBackend(**pacing).run(name, kill=overrides.pop("kill", None),
                                     **overrides)
