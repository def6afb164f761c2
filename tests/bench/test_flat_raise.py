"""The one flat-raise scaffold behind the Experiment 2 family.

``build_experiment2``, ``build_wide_graph``, ``run_complexity_scenario``,
each ``build_churn`` group and the explorer's ``concurrent_raises`` target
are calls to :func:`repro.bench.scenarios.add_flat_raise` with different
constants.  The values pinned here were measured on the hand-written
builders the scaffold replaced: traces must not move.
"""

from repro.bench.scenarios import (
    add_flat_raise,
    new_system,
    run_complexity_scenario,
    run_experiment2,
    run_totals,
    run_wide_graph,
    staggered_raises,
)
from repro.core.exceptions import internal
from repro.explore import ExplorationPlan, run_case
from repro.explore.explorer import explore_chunk


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
    assert case.digest == ("e91ff139bbc932aa38444d66a3d352342d1e2616"
                           "83d972818563cbfcd998b6be")
    chunk = explore_chunk(target="concurrent_raises", seed=2026,
                          start=0, stop=10)
    assert chunk["failures"] == 0
    assert chunk["digest"] == ("97ba37f07870a14ad8239ce2c8949c63f9e05d13"
                               "e8d8906fde09735cba31a250")


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
