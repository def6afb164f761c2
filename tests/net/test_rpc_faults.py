"""RPC behaviour under message loss, dead targets and timeouts.

The matrix the PR's bugfix pins down: a request or reply envelope lost to
a fault plan (or a dead destination) must fail a timed call with
:class:`RpcTimeoutError` and clean up the pending-reply entry instead of
hanging the caller forever, and a reply that arrives *after* the timeout
must be ignored, not crash the run.
"""

from __future__ import annotations

import logging

import pytest

from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.rpc import RpcEndpoint, RpcReply, RpcTimeoutError
from repro.simkernel.kernel import Kernel


def build_pair(latency: float = 0.1, faults: FaultPlan = None):
    kernel = Kernel()
    network = Network(kernel, latency=ConstantLatency(latency), faults=faults)
    alpha = RpcEndpoint(network.add_node("alpha"), network)
    beta = RpcEndpoint(network.add_node("beta"), network)
    return kernel, network, alpha, beta


def run_timed_call(kernel, alpha, timeout, destination="beta",
                   procedure="echo"):
    outcome = {}

    def program():
        try:
            outcome["value"] = yield alpha.call(destination, procedure, 1,
                                                timeout=timeout)
        except RpcTimeoutError as error:
            outcome["timeout"] = str(error)
        except RuntimeError as error:
            outcome["error"] = str(error)

    kernel.process(program())
    kernel.run()
    return outcome


class TestDroppedTraffic:
    def test_dropped_request_times_out_and_cleans_pending(self):
        faults = FaultPlan()
        faults.drop_nth_message("alpha", "beta", 1)
        kernel, _network, alpha, beta = build_pair(faults=faults)
        beta.register("echo", lambda v: v)
        outcome = run_timed_call(kernel, alpha, timeout=1.0)
        assert "timeout" in outcome and "value" not in outcome
        assert alpha._pending_replies == {}
        assert kernel.now == pytest.approx(1.0)

    def test_dropped_reply_times_out_and_cleans_pending(self):
        faults = FaultPlan()
        faults.drop_nth_message("beta", "alpha", 1)
        kernel, _network, alpha, beta = build_pair(faults=faults)
        beta.register("echo", lambda v: v)
        outcome = run_timed_call(kernel, alpha, timeout=1.0)
        assert "timeout" in outcome
        assert alpha._pending_replies == {}

    def test_dead_target_times_out(self):
        kernel, network, alpha, _beta = build_pair()
        network.node("beta").crash()
        outcome = run_timed_call(kernel, alpha, timeout=0.5)
        assert "timeout" in outcome
        assert alpha._pending_replies == {}

    def test_late_reply_after_timeout_is_ignored(self):
        # The reply takes 2.0 on the return link; the caller gives up at
        # 0.5.  The late reply must neither crash nor fire the dead event.
        faults = FaultPlan()
        faults.delay_message_type("beta", "alpha", "RpcReply", 2.0)
        kernel, _network, alpha, beta = build_pair(faults=faults)
        beta.register("echo", lambda v: v)
        outcome = run_timed_call(kernel, alpha, timeout=0.5)
        kernel.run()  # drain the late reply's delivery
        assert "timeout" in outcome and "value" not in outcome
        assert alpha._pending_replies == {}

    def test_reply_in_time_unaffected_by_timeout_machinery(self):
        kernel, _network, alpha, beta = build_pair()
        beta.register("echo", lambda v: v * 2)
        outcome = run_timed_call(kernel, alpha, timeout=5.0)
        assert outcome == {"value": 2}
        assert alpha._pending_replies == {}

    def test_without_timeout_dropped_reply_hangs_quietly(self):
        # Documented legacy shape: no timeout means the caller waits
        # forever; the run simply ends with the program still pending.
        faults = FaultPlan()
        faults.drop_nth_message("beta", "alpha", 1)
        kernel, _network, alpha, beta = build_pair(faults=faults)
        beta.register("echo", lambda v: v)
        finished = []

        def program():
            finished.append((yield alpha.call("beta", "echo", 1)))

        kernel.process(program())
        kernel.run()
        assert finished == []
        assert len(alpha._pending_replies) == 1  # the leak, now opt-out only

    def test_unsolicited_reply_still_ignored(self):
        kernel, network, _alpha, _beta = build_pair()
        network.send("beta", "alpha", RpcReply(call_id=424242, value="?"))
        kernel.run()  # must not raise


class TestDeferredReplies:
    def test_handler_may_defer_its_reply_via_event(self):
        kernel, _network, alpha, beta = build_pair()
        grant = {}

        def acquire():
            grant["event"] = beta.kernel.event()
            return grant["event"]

        beta.register("acquire", acquire)
        outcome = {}

        def caller():
            outcome["value"] = yield alpha.call("beta", "acquire")

        def granter():
            yield kernel.timeout(3.0)
            grant["event"].succeed("granted")

        kernel.process(caller())
        kernel.process(granter())
        kernel.run()
        assert outcome == {"value": "granted"}
        assert kernel.now == pytest.approx(3.1)  # grant at 3.0 + reply 0.1

    def test_deferred_failure_becomes_remote_error(self):
        kernel, _network, alpha, beta = build_pair()
        pending = {}

        def acquire():
            pending["event"] = beta.kernel.event()
            return pending["event"]

        beta.register("acquire", acquire)
        outcome = {}

        def caller():
            try:
                yield alpha.call("beta", "acquire")
            except RuntimeError as error:
                outcome["error"] = str(error)

        def failer():
            yield kernel.timeout(1.0)
            pending["event"].fail(ValueError("lost race"))

        kernel.process(caller())
        kernel.process(failer())
        kernel.run()
        assert outcome == {"error": "ValueError: lost race"}


class TestOneWayFailureReporting:
    def test_oneway_handler_failure_is_logged(self, caplog):
        kernel, _network, alpha, beta = build_pair()

        def boom():
            raise ValueError("bad input")

        beta.register("boom", boom)
        with caplog.at_level(logging.WARNING, logger="repro.net.rpc"):
            alpha.call_oneway("beta", "boom")
            kernel.run()
        assert any("one-way RPC" in record.getMessage() and
                   "boom" in record.getMessage()
                   for record in caplog.records)

    def test_oneway_handler_failure_emits_obs_event(self):
        from repro.obs.config import ObsConfig
        from repro.obs.observation import SystemObservation

        kernel = Kernel()
        network = Network(kernel, latency=ConstantLatency(0.1))
        alpha = RpcEndpoint(network.add_node("alpha"), network)
        beta = RpcEndpoint(network.add_node("beta"), network)

        class _System:
            pass

        system = _System()
        system.kernel = kernel
        system.network = network
        network._obs = SystemObservation(system, ObsConfig())

        def fail():
            raise RuntimeError("nope")

        beta.register("fail", fail)
        alpha.call_oneway("beta", "fail")
        kernel.run()
        events = network._obs.events
        failures = [e for e in events if e["kind"] == "rpc.failure"]
        assert len(failures) == 1
        assert failures[0]["procedure"] == "fail"
        assert "RuntimeError" in failures[0]["error"]
        # The record line carries the same fields, the error text last.
        failure_lines = [line for line in network._obs.record_lines()
                         if " rpc.failure " in line]
        assert failure_lines == [
            f"{failures[0]['t']:.9f} rpc.failure 2 beta fail "
            f"{failures[0]['error']}"]
