"""Backend parity: the real OS-process backend against the sim kernel.

Marked ``realbackend`` (deselected from tier-1 like the ``explore``
budgets): every test here boots one process per scenario node, paces the
kernels against the wall clock, and is therefore seconds-slow and
scheduling-sensitive.  The contract checked is the acceptance bar of the
real backend — on every real-capable scenario of the registry x
algorithm cell the real run must pass every InvariantMonitor oracle and
report the *same* oracle verdicts and (action, status) conclusion counts
as the deterministic sim run of the same node builder.
"""

from __future__ import annotations

import pytest

from repro.bench.engine import REGISTRY
from repro.net.real import RealBackendError, run_real, run_sim

pytestmark = pytest.mark.realbackend

#: Fast pacing for CI: 0.01 wall seconds per virtual time unit.
FAST = {"time_scale": 0.01, "wall_timeout": 90.0}

REAL_CAPABLE = [scenario.name for scenario in REGISTRY if scenario.nodes]
ALGORITHMS = ("ours", "campbell-randell", "romanovsky96")


@pytest.mark.parametrize("name", REAL_CAPABLE)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_parity(name, algorithm):
    sim = run_sim(name, iterations=2, algorithm=algorithm)
    real = run_real(name, iterations=2, algorithm=algorithm, **FAST)
    assert sim.violations == []
    assert real.violations == []
    assert real.outcomes == sim.outcomes
    assert real.crashed == []
    assert set(real.records) == set(REGISTRY.get(name).nodes)
    # Where a no-lost-update counter is tracked, the node hosting it saw
    # the same authoritative value as the all-local run.
    sim_counters = sim.records["sim"]["counters"]
    real_counters = [counter for record in real.records.values()
                     for counter in record["counters"]]
    assert real_counters == sim_counters


def test_crashed_node_does_not_hang_the_run():
    # Kill T3 early; the survivors block on its protocol messages, the
    # hub's stall window finalizes them, and the liveness oracles are
    # waived (the paper's guarantees assume delivery) while the safety
    # oracles still run — and must hold.
    result = run_real("figure9", iterations=5, time_scale=0.1,
                      wall_timeout=60.0, stall=1.5, kill=("T3", 0.6))
    assert result.crashed == ["T3"]
    assert set(result.records) == {"T1", "T2"}
    assert result.violations == []


def test_wall_timeout_kills_the_fleet():
    # An absurdly slow pacing cannot finish within the cap; the backend
    # must raise instead of hanging, and must not leak children (the
    # finally block kills them — join() would hang this test otherwise).
    with pytest.raises(RealBackendError, match="wall-clock timeout"):
        run_real("figure9", iterations=50, time_scale=10.0,
                 wall_timeout=3.0)
