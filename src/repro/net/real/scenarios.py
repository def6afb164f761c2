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
    """One node's final frame: its oracle record plus what the hub merges
    beside it (message statistics, bridged obs events).

    Everything in it is plain picklable data; ``local`` filters the
    quiescence snapshots to the node's own partition (see
    :meth:`~repro.runtime.monitor.InvariantMonitor.record`).
    """
    system = built.system
    return {"record": built.monitor.record(local),
            "stats": system.network.stats.snapshot(),
            "obs_events": list(system.observation.events or [])}


def run_sim(name: str, **overrides: Any):
    """Run a real-capable scenario all-local on the deterministic sim kernel.

    Returns the same :class:`~repro.net.real.backend.RealRunResult`
    shape as :func:`run_real`, which is what the parity tests compare.
    """
    from ...bench.engine import REGISTRY
    from .backend import assemble_result

    built = REGISTRY.get(name).build_node(overrides)
    built.system.kernel.run()
    return assemble_result(name, "sim", {"sim": collect_record(built)},
                           crashed=[], wall_time=0.0)


def remote_counter_point(iterations: int = 3, limit: int = 1,
                         algorithm: str = "ours", t_msg: float = 0.1,
                         t_resolution: float = 0.2, t_abort: float = 0.1,
                         rpc_timeout: float = 60.0) -> Dict[str, Any]:
    """One all-local run of ``remote_counter``, reported like a real run."""
    point = {"iterations": iterations, "limit": limit,
             "algorithm": algorithm, "t_msg": t_msg,
             "t_resolution": t_resolution, "t_abort": t_abort,
             "rpc_timeout": rpc_timeout}
    return run_sim("remote_counter", **point).row(point)


def run_real(name: str, **overrides: Any):
    """Run a real-capable scenario across OS processes (convenience)."""
    from .backend import RealBackend

    pacing = {key: overrides.pop(key) for key in
              ("time_scale", "wall_timeout", "settle", "stall")
              if key in overrides}
    return RealBackend(**pacing).run(name, kill=overrides.pop("kill", None),
                                     **overrides)
