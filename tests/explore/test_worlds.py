"""Every world of the catalogue can be explored, and says what it checks.

The explorer builds each case through :data:`repro.worlds.WORLDS`, so a
world registered for the real backend is explorable as it stands: its
nodes are the plan generator's link endpoints, and what its monitor
tracks is what the oracles judge.
"""

import re
from pathlib import Path

import pytest

from repro import cli
from repro.core import oracles
from repro.core.registry import ParamValidationError
from repro.explore import Explorer
from repro.explore.explorer import _execute
from repro.explore.generator import (DEFAULT_KINDS, STORM_KINDS,
                                     FaultPlanGenerator)
from repro.runtime.report import ActionStatus
from repro.worlds import WORLDS


@pytest.mark.parametrize("name", WORLDS.names())
def test_delay_only_plans_find_nothing(name):
    report = Explorer(name, seed=2026, budget=25, kinds=DEFAULT_KINDS,
                      algorithm="ours").run()
    assert len(report.cases) == 25
    assert report.summary() == {}


def storm_sweeps(workflow: str):
    """``{world: step}`` of each ``explore run --kinds storm`` step."""
    sweeps = {}
    for step in re.split(r"\n(?=\s*- name:)", workflow):
        command = re.sub(r"\\\n\s*", " ", step)
        match = re.search(r"-m repro explore run .*--target (\w+)", command)
        if match and "--kinds storm" in command:
            sweeps[match.group(1)] = command
    return sweeps


def test_the_nightly_explorer_sweeps_every_world():
    workflow = Path(__file__).resolve().parents[2] / ".github" / \
        "workflows" / "explore.yml"
    sweeps = storm_sweeps(workflow.read_text(encoding="utf-8"))
    assert sorted(sweeps) == sorted(WORLDS.names())
    assert all(f"--reproducers reproducers/{name}/" in step
               for name, step in sweeps.items())
    # A violation in one world's sweep must not skip the sweeps after it.
    assert all("if: always()" in step for step in list(sweeps.values())[1:])


def test_a_misspelt_world_parameter_is_named():
    with pytest.raises(ParamValidationError,
                       match="world 'remote_counter': unknown parameter "
                             "'limt'"):
        WORLDS.get("remote_counter").build(limt=3)


def test_a_mistyped_world_parameter_is_named():
    with pytest.raises(ParamValidationError,
                       match="world 'nested_abort': parameter 'tie_seed' "
                             "expects"):
        WORLDS.get("nested_abort").build(tie_seed="3")


def test_a_fault_plan_is_refused_on_a_real_backend_node():
    from repro.net.faults import FaultPlan
    with pytest.raises(ValueError, match="real-backend node"):
        WORLDS.get("figure9").build(faults=FaultPlan(), local="T1")


def test_an_unknown_world_lists_every_world(capsys):
    with pytest.raises(SystemExit):
        cli.main(["explore", "run", "--target", "nowhere"])
    error = capsys.readouterr().err
    assert "unknown target 'nowhere'" in error
    assert all(name in error for name in WORLDS.names())


def test_an_explored_remote_counter_case_tracks_its_counter():
    world = WORLDS.get("remote_counter")
    plan = FaultPlanGenerator(7, world.nodes).sample(0)
    system, monitor, error = _execute(world, plan, "ours")
    assert error is None
    record = monitor.record()
    [counter] = record.counters
    assert counter["object"] == "acct"
    assert counter["final"] == counter["initial"] + 3
    assert oracles.check(record) == []


def test_remote_counter_survives_the_failure_storm():
    report = Explorer("remote_counter", seed=2026, budget=100,
                      kinds=STORM_KINDS, algorithm="ours").run()
    assert len(report.cases) == 100
    assert report.summary() == {}


def test_an_rpc_timeout_undoes_the_transfer():
    # Plan 3 of seed 2026 drops the host's replies to W1: the lock or read
    # times out, W1 raises ``host_unreachable``, and the action is undone
    # (µ) instead of the timeout escaping the run.
    world = WORLDS.get("remote_counter")
    plan = FaultPlanGenerator(2026, world.nodes, kinds=STORM_KINDS).sample(3)
    system, monitor, error = _execute(world, plan, "ours")
    assert error is None
    resolved = {exception for outcomes in monitor.resolutions.values()
                for _, exception in outcomes}
    assert "host_unreachable" in resolved
    for worker in ("W1", "W2"):
        reports = system.partitions[worker].thread_process.value
        assert ActionStatus.UNDONE in {report.status for report in reports}
    record = monitor.record()
    [counter] = record.counters
    assert counter["final"] == counter["initial"] + counter[
        "committed_writers"] < counter["initial"] + 3
    assert oracles.check(record) == []
