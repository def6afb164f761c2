"""The one flat-raise scaffold behind the Experiment 2 family.

``build_experiment2``, ``build_wide_graph``, ``run_complexity_scenario``,
each ``build_churn`` group and the ``concurrent_raises`` world are calls
to :func:`repro.worlds.add_flat_raise` with different
constants.  The values pinned here were measured on the hand-written
builders the scaffold replaced: traces must not move.  The two explorer
digests were re-pinned once, when the canonical trace came to be read
from the record log (a new rendering of the same runs).
"""

from repro.bench.scenarios import (
    run_complexity_scenario,
    run_experiment2,
    run_totals,
    run_wide_graph,
)
from repro.core.exceptions import internal
from repro.explore import ExplorationPlan, run_case
from repro.explore.explorer import explore_chunk
from repro.worlds import add_flat_raise, new_system, staggered_raises


def test_family_reproduces_the_hand_written_builders():
    result = run_experiment2(0.5, 0.1, n_threads=5)
    assert (result.total_time, result.protocol_messages,
            result.resolution_calls) == (3.3030000000000004, 44, 1)

    wide = run_wide_graph(n_threads=4, iterations=1)
    assert (wide["graph_nodes"], wide["recovered"], wide["total_time"],
            wide["protocol_messages"], wide["resolution_calls"]) == \
        (795, 4, 1.4520000000000002, 27, 1)

    complexity = run_complexity_scenario(4, 4)
    assert complexity == {
        "by_type": {"CommitMessage": 3, "EnterActionMessage": 12,
                    "ExceptionMessage": 12, "ToBeSignalledMessage": 12},
        "resolution_messages": 15, "signalling_messages": 12,
        "resolution_calls": 1, "total_time": 0.54}

    case = run_case("concurrent_raises", ExplorationPlan())
    assert case.completed and case.violations == []
    assert case.digest == ("76a1a0cc54ffa9d3d79a183999721a1c68030546"
                           "991531a026fc5e06efdddf99")
    chunk = explore_chunk(target="concurrent_raises", seed=2026,
                          start=0, stop=10)
    assert chunk["failures"] == 0
    assert chunk["digest"] == ("80c803088af73627011ebfe613fbe8ad761e1f55"
                               "f7cfb77152ef3d39ec3c0d2a")


def test_scaffold_called_directly_is_the_experiment2_application():
    system = new_system(0.5, "ours", t_resolution=0.1)
    add_flat_raise(system, "Compare",
                   threads=[f"T{i}" for i in range(1, 6)],
                   roles=[f"r{i}" for i in range(1, 6)],
                   primitives=[internal(f"fault_{i}") for i in range(1, 6)],
                   raise_delays=staggered_raises(5))
    [reports] = {len(per_thread) for per_thread in system.run_to_completion()}
    assert reports == 1
    assert run_totals(system) == {"total_time": 3.3030000000000004,
                                  "protocol_messages": 44,
                                  "resolution_calls": 1}


def test_idle_roles_take_part_without_raising():
    system = new_system(0.01)
    add_flat_raise(system, "Mixed", threads=["A", "B", "C"],
                   roles=["x", "y", "z"], primitives=[internal("only")],
                   raise_delays=[0.5], idle_delay=5.0, handler_time=None)
    reports = [per_thread[0] for per_thread in system.run_to_completion()]
    assert {report.resolved.name for report in reports} == {"only"}
    assert system.metrics.exceptions_raised == 1
