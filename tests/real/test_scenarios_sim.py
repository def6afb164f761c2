"""Real-capable scenarios on the sim backend, and the backend's checks.

These are the fast halves of the backend-parity contract: every scenario
of the one registry that declares ``nodes`` runs all-local on the
deterministic kernel through its node builder, and
:meth:`~repro.real.RealBackend.run` validates its scenario, parameters
and crash target without spawning any process.  The multi-process halves
live in ``test_backend_parity.py`` under the ``realbackend`` marker.
"""

from __future__ import annotations

import pytest

from repro.bench import engine
from repro.bench.engine import REGISTRY, run_scenario
from repro.bench.scenarios import collect_record, run_sim
from repro.core.registry import ParamValidationError
from repro.real import RealBackend
from repro.real.framing import FrameDecoder, encode_frame
from repro.real.host import NodeInbox

REAL_CAPABLE = [scenario.name for scenario in REGISTRY if scenario.nodes]
ALGORITHMS = ["ours", "campbell-randell", "romanovsky96"]


class TestRegistry:
    def test_real_capable_scenarios_declare_their_nodes(self):
        assert REGISTRY.get("figure9").nodes == ("T1", "T2", "T3")
        assert REGISTRY.get("remote_counter").nodes == \
            ("W1", "W2", "objhost")
        assert set(REAL_CAPABLE) == {"figure9", "remote_counter"}

    def test_bind_point_merges_overrides_over_declared_defaults(self):
        scenario = REGISTRY.get("remote_counter")
        params = scenario.bind_point({"iterations": 7})
        assert params["iterations"] == 7
        assert params["limit"] == 1 and params["algorithm"] == "ours"

    def test_nodes_and_builder_must_be_declared_together(self):
        registry = engine.ScenarioRegistry()
        with pytest.raises(ValueError, match="declared together"):
            registry.add(engine.Scenario("half", lambda: {}, (),
                                         nodes=("A",)))

    def test_listing_shows_the_nodes_of_real_capable_scenarios(self):
        from repro.cli import registry_listing
        lines = registry_listing()
        assert any("nodes: T1, T2, T3" in line for line in lines)
        assert sum("nodes:" in line for line in lines) == len(REAL_CAPABLE)


@pytest.mark.parametrize("name", REAL_CAPABLE)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_all_local_run_passes_every_oracle(name, algorithm):
    result = run_sim(name, iterations=2, algorithm=algorithm)
    assert result.backend == "sim" and result.scenario == name
    assert result.violations == []
    assert result.outcomes and set(result.records) == {"sim"}


class TestFigure9Sim:
    def test_outcome_counts(self):
        result = run_sim("figure9", iterations=2)
        # Experiment 1: per iteration the outer action recovers on all
        # three threads and the nested action aborts on two.
        assert result.outcomes[("Outer", "recovered")] == 6
        assert result.outcomes[("Inner", "aborted")] == 4

    def test_node_builder_takes_the_sweep_point(self):
        # The same grid point drives the sim row and the node build.
        point = {"varying": "t_abort", "value": 0.9, "iterations": 1}
        [row] = run_scenario("figure9", points=[point])
        built = REGISTRY.get("figure9").build_node(point)
        built.system.run_to_completion()
        assert built.system.now == row["total_time"]


class TestRemoteCounterSim:
    def test_oracles_hold_and_counter_is_exact(self):
        result = run_sim("remote_counter", iterations=3)
        assert result.violations == []
        [counter] = result.record.counters
        # Every iteration commits exactly one increment, even the ones
        # that recover from the overdraft exception (HANDLED exits still
        # commit via the designated committer).
        assert counter["final"] == counter["initial"] + 3
        assert counter["committed_writers"] == 3
        # Two workers conclude each of the three instances exactly once.
        assert sum(result.outcomes.values()) == 6

    def test_every_object_access_crosses_the_rpc_layer(self):
        result = run_sim("remote_counter", iterations=1)
        stats = result.stats
        assert stats["by_type"].get("RpcRequest", 0) > 0
        assert stats["by_type"].get("RpcReply", 0) > 0

    def test_limit_controls_the_overdraft_exception(self):
        quiet = run_sim("remote_counter", iterations=2, limit=10)
        assert quiet.violations == []
        assert quiet.outcomes == {("Transfer", "success"): 4}

    def test_sim_row_reports_the_all_local_run_like_a_real_run(self):
        [row] = run_scenario("remote_counter", points=[{"iterations": 3}])
        result = run_sim("remote_counter", iterations=3)
        assert (row["backend"], row["n_violations"], row["crashed"]) == \
            ("sim", 0, [])
        assert row["outcomes"] == {"Transfer/recovered": 4,
                                   "Transfer/success": 2}
        assert row["counters"] == result.record.counters
        assert row["by_type"] == result.stats["by_type"]


class TestCollectRecord:
    def test_local_filter_restricts_quiescence_to_own_thread(self):
        built = REGISTRY.get("remote_counter").build_node({"iterations": 1})
        built.system.kernel.run()
        full = collect_record(built)["record"]
        assert {snap.thread for snap in full.quiescence} == {"W1", "W2"}
        only_w1 = collect_record(built, local="W1")["record"]
        assert {snap.thread for snap in only_w1.quiescence} == {"W1"}


class TestParamValidation:
    """A typo fails before any kernel or child process exists."""

    @pytest.fixture
    def no_build(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("validation must come before any build")
        monkeypatch.setattr("repro.bench.scenarios.build_experiment1",
                            forbidden)
        monkeypatch.setattr("repro.real.backend.asyncio.run", forbidden)
        monkeypatch.setattr(
            "repro.real.backend.multiprocessing.get_context", forbidden)

    def test_run_sim_rejects_a_misspelt_parameter(self, no_build):
        with pytest.raises(ParamValidationError,
                           match="unknown parameter 'iteratons'"):
            run_sim("figure9", iteratons=1)

    def test_real_backend_rejects_a_misspelt_parameter(self, no_build):
        with pytest.raises(ParamValidationError,
                           match="unknown parameter 'iteratons'"):
            RealBackend().run("figure9", iteratons=1)

    def test_real_backend_rejects_a_mistyped_value(self, no_build):
        with pytest.raises(ParamValidationError, match="expects int"):
            RealBackend().run("remote_counter", iterations="three")

    def test_only_real_capable_scenarios_run_on_either_backend(
            self, no_build):
        with pytest.raises(KeyError, match="not real-capable"):
            RealBackend().run("capacity", offered_load=1.0)
        with pytest.raises(KeyError, match="not real-capable"):
            run_sim("capacity", offered_load=1.0)


def test_a_crash_target_outside_the_scenario_starts_no_process(monkeypatch):
    # A mistyped node used to kill nothing, so the run passed without the
    # crash it asked for.
    spawned = []

    class SpawnContext:
        def Process(self, **options):
            spawned.append(options["name"])
            raise AssertionError("the kill target is checked before spawn")

    monkeypatch.setattr("repro.real.backend.multiprocessing.get_context",
                        lambda method: SpawnContext())
    with pytest.raises(ValueError, match=r"'T9' is not a node of scenario "
                                         r"'figure9' \(nodes: T1, T2, T3\)"):
        RealBackend(wall_timeout=5.0).run("figure9", iterations=1,
                                          kill=("T9", 0.1))
    assert spawned == []


class TestNodeInbox:
    class _Network:
        def __init__(self):
            self.injected = []

        def inject(self, src, dst, payload, deliver_vt):
            self.injected.append((src, dst, payload, deliver_vt))

    def test_message_sharing_a_buffer_with_start_is_injected(self):
        # A faster sibling's first message can reach this node in the same
        # recv() as the hub's start frame; dropping it stalled every run.
        buffer = encode_frame({"kind": "start"}) + encode_frame(
            {"kind": "msg", "src": "T1", "dst": "T2", "payload": "hello",
             "send_vt": 0.0, "deliver_vt": 0.2})
        network = self._Network()
        inbox = NodeInbox(network)
        inbox.handle(FrameDecoder().feed(buffer))
        assert inbox.started and not inbox.finalizing
        assert network.injected == [("T1", "T2", "hello", 0.2)]

    def test_finalize_is_seen_in_any_phase(self):
        inbox = NodeInbox(self._Network())
        inbox.handle([{"kind": "finalize"}])
        assert inbox.finalizing and not inbox.started
